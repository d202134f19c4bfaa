import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarkov import channels, qmath
from nonmarkov.errors import ConfigError, StateValidationError

import oracles


class TestTensor:
    # the ancilla-first ordering of the two-qubit states: np.kron(ancilla, qubit)
    def test_identity_case(self):
        out = np.kron(qmath.IDENTITY_2, qmath.IDENTITY_2)
        assert np.array_equal(out, np.eye(4))

    def test_sigma_z_with_identity(self):
        out = np.kron(oracles.SIGMA_Z, qmath.IDENTITY_2)
        assert np.array_equal(out, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))

    def test_involution_product(self):
        xx = np.kron(qmath.SIGMA_X, qmath.SIGMA_X)
        assert np.abs(xx @ xx - np.eye(4)).max() < 1e-15


class TestTraceDistance:
    def test_identical_states(self):
        rho = oracles.random_density(4, np.random.default_rng(3))
        assert oracles.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        d = oracles.trace_distance(qmath.ket2dm(oracles.KET_E), qmath.ket2dm(oracles.KET_G))
        assert abs(d - 1.0) < 1e-15

    def test_pd_pair_matches_dephasing_factor(self):
        # eigen-based route against the analytic off-diagonal evolution
        nu, tau = 1.0, 0.5
        r1 = oracles.pd_apply(qmath.ket2dm(qmath.KET_PLUS), nu, tau)
        r2 = oracles.pd_apply(qmath.ket2dm(oracles.KET_MINUS), nu, tau)
        want = abs(channels.PhaseDamping(tau).coherence(nu))
        assert abs(oracles.trace_distance(r1, r2) - want) < 1e-12

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a, b, c = (oracles.random_density(3, rng) for _ in range(3))
            dab = oracles.trace_distance(a, b)
            assert abs(dab - oracles.trace_distance(b, a)) < 1e-12
            assert dab <= oracles.trace_distance(a, c) + oracles.trace_distance(c, b) + 1e-9

    def test_contractive_under_channels(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = oracles.random_density(2, rng)
            b = oracles.random_density(2, rng)
            before = oracles.trace_distance(a, b)
            nu = rng.uniform(0.0, 5.0)
            assert (
                oracles.trace_distance(
                    oracles.pd_apply(a, nu, 0.4), oracles.pd_apply(b, nu, 0.4)
                )
                <= before + 1e-9
            )
            t = rng.uniform(0.0, 5.0)
            assert (
                oracles.trace_distance(
                    oracles.ad_apply(a, t, 0.7), oracles.ad_apply(b, t, 0.7)
                )
                <= before + 1e-9
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            oracles.trace_distance(np.eye(2) / 2, np.eye(4) / 4)


class TestConcurrence:
    def test_bell_state(self):
        assert abs(qmath.concurrence(qmath.ket2dm(qmath.KET_BELL)) - 1.0) < 1e-12

    def test_product_basis_state(self):
        ee = np.zeros((4, 4), dtype=complex)
        ee[0, 0] = 1.0
        assert qmath.concurrence(ee) == 0.0

    def test_one_sided_damping_vs_independent_wootters(self):
        # survival 0.25 on the open side of a Bell pair
        g = 0.5
        m1, m2 = oracles.ad_kraus(g)
        k1, k2 = np.kron(np.eye(2), m1), np.kron(np.eye(2), m2)
        bell = qmath.ket2dm(qmath.KET_BELL)
        rho = k1 @ bell @ k1.conj().T + k2 @ bell @ k2.conj().T
        got = qmath.concurrence(rho)
        # the sqrt-route oracle loses half its precision on rank-deficient states
        assert abs(got - oracles.wootters_concurrence(rho)) < 1e-7

    def test_random_states_vs_independent_wootters(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rho = oracles.random_density(4, rng)
            assert abs(qmath.concurrence(rho) - oracles.wootters_concurrence(rho)) < 1e-8

    def test_separable_products_vanish(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = np.kron(oracles.random_density(2, rng), oracles.random_density(2, rng))
            assert qmath.concurrence(rho) < 1e-9

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(8)
        batch = np.stack([oracles.random_density(4, rng) for _ in range(5)])
        got = qmath.concurrence(batch)
        want = [qmath.concurrence(batch[i]) for i in range(5)]
        assert np.abs(got - want).max() < 1e-12

    def test_rounding_noise_costs_no_digits(self):
        # eigenvalues of rho rho~ at rounding level are taken as 0, not
        # square-rooted into a ~1e-8 loss
        rng = np.random.default_rng(11)
        noise = rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4))
        noise += qmath.dag(noise)
        noise *= 1e-17 / np.abs(noise).max(axis=(1, 2), keepdims=True)
        bell = qmath.ket2dm(qmath.KET_BELL) + noise
        assert np.abs(qmath.concurrence(bell) - 1.0).max() <= 1e-15

    def test_sign_flip_equals_matmul_formula_bitwise(self):
        rng = np.random.default_rng(10)
        batch = np.stack([oracles.random_density(4, rng) for _ in range(200)])
        assert np.array_equal(qmath.concurrence(batch), oracles.matmul_concurrence(batch))
        ch = channels.DrivenAmplitudeDamping(0.6, 0.15)
        grid = channels.TimeGrid(20.0, 20000)
        state = (qmath.ket2dm(qmath.KET_BELL), "bell")
        bell = channels._evolver(ch, [state], 20.0)[0](grid)
        assert np.array_equal(qmath.concurrence(bell), oracles.matmul_concurrence(bell))

    def test_wrong_dimension(self):
        with pytest.raises(ConfigError):
            qmath.concurrence(np.eye(2) / 2)


def partial_transpose(rho):
    """Partial transpose on the second qubit, by its definition."""
    out = np.empty_like(rho)
    for a, q, b, p in np.ndindex(2, 2, 2, 2):
        out[..., 2 * a + q, 2 * b + p] = rho[..., 2 * a + p, 2 * b + q]
    return out


def werner(p):
    return p * qmath.ket2dm(qmath.KET_BELL) + (1.0 - p) * np.eye(4) / 4.0


class TestPptScreen:
    """concurrence returns 0 without an eigensolve where the partial
    transpose has a determinant above PPT_DET_CUT."""

    @staticmethod
    def check(batch):
        screened = qmath._pt_det(batch) > qmath.PPT_DET_CUT
        # every screened state has a positive definite partial transpose ...
        assert (np.linalg.eigvalsh(partial_transpose(batch[screened]))[:, 0] > 0).all()
        # ... and every state reads as the unscreened eigensolve, bit for bit
        got = qmath.concurrence(batch)
        assert np.array_equal(got, oracles.matmul_concurrence(batch))
        assert (got[screened] == 0.0).all()
        return screened

    def test_determinant_matches_numpy(self):
        rng = np.random.default_rng(12)
        batch = np.stack([oracles.random_density(4, rng) for _ in range(200)])
        want = np.linalg.det(partial_transpose(batch)).real
        assert np.abs(qmath._pt_det(batch) - want).max() < 1e-16

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_states(self, seed):
        rng = np.random.default_rng(seed)
        self.check(np.stack([oracles.random_density(4, rng) for _ in range(100)]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([1e-2, 1e-6, 1e-10, 1e-14]))
    def test_bell_mixtures_near_the_threshold(self, seed, width):
        # p |Bell><Bell| + (1 - p) sigma, sigma a mixture of two product
        # states and p within width of 1/3, where the partial transpose of
        # a Werner state turns singular
        rng = np.random.default_rng(seed)
        sep = [
            sum(
                np.kron(oracles.random_density(2, rng), oracles.random_density(2, rng)) * x
                for x in (u, 1.0 - u)
            )
            for u in rng.uniform(size=100)
        ]
        p = 1.0 / 3.0 + width * rng.uniform(-1.0, 1.0, size=100)
        batch = p[:, None, None] * qmath.ket2dm(qmath.KET_BELL) + (1.0 - p)[:, None, None] * sep
        self.check(batch)

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(1.0 / 3.0, 1.0, exclude_min=True))
    def test_entangled_werner_states_are_not_screened(self, p):
        # the partial transpose of a Werner state has eigenvalues (1 + p)/4,
        # three times, and (1 - 3p)/4: entangled for p > 1/3
        rho = werner(p)
        assert not qmath._pt_det(rho[None]) > qmath.PPT_DET_CUT
        assert qmath.concurrence(rho) == oracles.matmul_concurrence(rho[None])[0]
        if p >= 1.0 / 3.0 + 1e-6:
            assert qmath.concurrence(rho) > 0.0

    def test_separable_werner_states_are_screened(self):
        ps = np.array([0.0, 0.1, 0.3, 1.0 / 3.0 - 1e-6])
        batch = np.stack([werner(p) for p in ps])
        assert self.check(batch).all()

    @pytest.mark.parametrize("lam, omega", [(2.9, 0.5), (0.15, 0.2), (0.6, 0.15)])
    def test_screened_engine_samples_read_zero(self, lam, omega):
        # every Bell sample on [0, 20] (20 000 intervals) that the screen
        # takes reads exactly 0 through the eigensolver too
        ch = channels.DrivenAmplitudeDamping(lam, omega)
        state = (qmath.ket2dm(qmath.KET_BELL), "bell")
        bell = channels._evolver(ch, [state], 20.0)[0](channels.TimeGrid(20.0, 20000))
        screened = self.check(bell)
        assert screened.sum() > 10_000
        assert (oracles.matmul_concurrence(bell[screened]) == 0.0).all()


class TestValidateDensity:
    def test_accepts_random_states(self):
        rng = np.random.default_rng(9)
        for dim in (2, 4, 8):
            qmath.validate_density(oracles.random_density(dim, rng))

    def test_rejects_non_hermitian(self):
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 1] = 1e-8
        with pytest.raises(StateValidationError):
            qmath.validate_density(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError):
            qmath.validate_density(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(StateValidationError):
            qmath.validate_density(rho)

    def test_psd_threshold(self):
        # PSD_TOL = -1e-9: an eigenvalue of -2e-9 fails with the least
        # eigenvalue in the message, one of -5e-10 and a pure state pass
        with pytest.raises(StateValidationError, match=r"^bell: negative eigenvalue -2\.000e-09$"):
            qmath.validate_density(np.diag([1.0 + 2e-9, 0.0, 0.0, -2e-9]).astype(complex), "bell")
        rng = np.random.default_rng(13)
        batch = np.stack([oracles.random_density(4, rng) for _ in range(5)])
        batch[3] = np.diag([1.0 + 3e-9, 0.0, -3e-9, 0.0])
        with pytest.raises(StateValidationError, match="negative eigenvalue -3.000e-09"):
            qmath.validate_density(batch)
        qmath.validate_density(np.diag([1.0 + 5e-10, -5e-10]).astype(complex))
        qmath.validate_density(qmath.ket2dm(qmath.KET_BELL))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # a NaN makes every tolerance comparison false, so finiteness comes first
        rho = qmath.ket2dm(qmath.KET_BELL)
        rho[1, 2] = bad
        with pytest.raises(StateValidationError, match=r"^bell: non-finite entry$"):
            qmath.validate_density(rho, "bell")
        batch = np.stack([qmath.ket2dm(qmath.KET_BELL)] * 3)
        batch[2, 3, 3] = bad
        with pytest.raises(StateValidationError, match=r"^bell: non-finite entry$"):
            qmath.validate_density(batch, "bell")

    def test_factorization_spares_the_eigensolve(self, monkeypatch):
        def no_eigvalsh(a):
            raise AssertionError("eigvalsh ran on states that factor")

        rng = np.random.default_rng(14)
        batch = np.stack([oracles.random_density(4, rng) for _ in range(50)])
        batch[7] = qmath.ket2dm(np.kron(oracles.KET_E, qmath.KET_PLUS))  # pure, rank 1
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert qmath.validate_density(batch) is batch
