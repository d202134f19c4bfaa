import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonmarkov import channels, dataset, measures, qmath
from nonmarkov.channels import (
    AmplitudeDamping,
    DrivenAmplitudeDamping,
    PhaseDamping,
    TimeGrid,
)
from nonmarkov.errors import ConfigError, NumericError, TruncationLeakError

import oracles


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def evolve(channel, rho_sys, times):
    """Reduced states of rho_sys (x) |0><0| at times, from one guarded
    evolver on channels.FOCK_LADDER: a leak at its last rung raises."""
    horizon = channels._last_time(times)
    return channels._evolver(channel, [(rho_sys, "evolve")], horizon)[0](times)


def operators(channel, n):
    """The generator of channel at n Fock levels and the frame of it that
    channels._guarded reads: (gen, even, c0, red, start)."""
    even, c0, red, start, _ = channels._pseudomode(n)
    return channels._generator(channel, n), even, c0, red, start


def trajectory(modes, times):
    """Every row of channels._trajectories at times, its groups joined."""
    return np.concatenate([*channels._trajectories(modes, times)])


def operator_modes(channel, n, t_max=20.0):
    """Modes of both sectors of the four initial operators' reduced-state
    rows (ee, eg, ge, gg), joined as channels._guarded joins them, with
    their exact rows at t = 0."""
    gen, even, c0, red, start = operators(channel, n)
    sectors = [channels._sector_modes(gen, c0, red[:4], part, t_max) for part in (even, ~even)]
    return (*(np.concatenate(part, axis=-1) for part in zip(*sectors)), start[:, :4])


def lindblad(lam, omega, n):
    """The pseudomode master equation's generator on row-major vectorized
    operators of qubit (x) pseudomode, vec(A X C) = (A kron C^T) vec(X), built
    from its own operators."""
    b = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, n)), 1))
    s_minus = np.kron([[0.0, 0.0], [1.0, 0.0]], np.eye(n))  # |g><e|
    ham = omega * (s_minus + s_minus.T) + math.sqrt(lam / 2.0) * (s_minus.T @ b + b.T @ s_minus)
    num, eye = b.T @ b, np.eye(2 * n)
    return -1j * (np.kron(ham, eye) - np.kron(eye, ham.T)) + lam * (
        2.0 * np.kron(b, b) - np.kron(num, eye) - np.kron(eye, num.T)
    )


def hermitian_basis(n):
    """U, the row-major vectorized orthonormal Hermitian basis in its
    columns: E_pp, then (E_pq + E_qp)/sqrt(2), then i(E_pq - E_qp)/sqrt(2),
    for p < q in the order of np.triu_indices."""
    d = 2 * n
    unit = np.eye(d * d).reshape(d, d, d * d)  # unit[p, q]: vec(E_pq)
    p, q = np.triu_indices(d, 1)
    sym = (unit[p, q] + unit[q, p]) / math.sqrt(2.0)
    anti = 1j * (unit[p, q] - unit[q, p]) / math.sqrt(2.0)
    return np.concatenate([unit[np.arange(d), np.arange(d)], sym, anti]).T


class TestChannelSpecs:
    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            PhaseDamping(0.0)
        with pytest.raises(ConfigError):
            AmplitudeDamping(-1.0)
        with pytest.raises(ConfigError):
            DrivenAmplitudeDamping(1.0, omega=-0.1)
        # non-finite parameters would overflow or turn to NaN downstream
        for bad in (np.inf, np.nan):
            with pytest.raises(ConfigError, match="finite"):
                PhaseDamping(bad)
            with pytest.raises(ConfigError, match="finite"):
                AmplitudeDamping(bad)
            with pytest.raises(ConfigError, match="finite"):
                DrivenAmplitudeDamping(0.5, bad)
            with pytest.raises(ConfigError, match="finite"):
                DrivenAmplitudeDamping(bad, 0.1)

    def test_derived_quantities(self):
        assert PhaseDamping.rates_at(0.5)[:2] == pytest.approx((1.0, 3.0))
        assert AmplitudeDamping.rates_at(1.0)[:2] == pytest.approx((0.5, 0.25))


class TestTimeGrid:
    def test_values_and_spacing(self):
        grid = TimeGrid(2.0, 4)
        assert np.allclose(grid.values, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.spacing == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimeGrid(-1.0, 10)
        with pytest.raises(ConfigError):
            TimeGrid(1.0, 0)
        for t_max in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TimeGrid(t_max, 10)
        for n_steps in (10.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="integer"):
                TimeGrid(5.0, n_steps)
        assert len(TimeGrid(5.0, np.int64(10)).values) == 11


class TestPdLambda:
    def test_initial_value(self):
        for tau in (0.1, 0.25, 0.5, 2.0):
            assert PhaseDamping(tau).coherence(0.0) == pytest.approx(1.0)

    def test_first_zero_at_tau_half(self):
        # tan(sqrt(3) nu) = -sqrt(3) -> nu = 2 pi / (3 sqrt(3))
        nu_zero = bisect(lambda nu: PhaseDamping(0.5).coherence(nu), 0.5, 2.0)
        assert nu_zero == pytest.approx(2.0 * math.pi / (3.0 * math.sqrt(3.0)), abs=1e-9)
        assert abs(PhaseDamping(0.5).coherence(nu_zero)) < 1e-12

    def test_markovian_regime_positive_and_decreasing(self):
        nu = np.linspace(0.0, 20.0, 4001)
        lam = PhaseDamping(0.2).coherence(nu)
        assert lam.min() > 0.0
        assert np.all(np.diff(lam) <= 0.0)

    def test_continuity_at_boundary(self):
        nu = np.linspace(0.0, 10.0, 101)
        below = PhaseDamping(0.25 - 1e-6).coherence(nu)
        above = PhaseDamping(0.25 + 1e-6).coherence(nu)
        assert np.abs(np.abs(below) - np.abs(above)).max() < 1e-4

    @pytest.mark.parametrize("tau", [1e-6, 0.01, 0.2])
    def test_overdamped_past_nu_700(self, tau):
        # past a nu = 700 the two decaying exponentials, the slow rate from
        # a^2 + w^2 = (4 tau)^2
        nu = [0.0, 1.0, 700.5, 1000.0]
        got = PhaseDamping(tau).coherence(nu)
        want = np.array([oracles.overdamped_coherence(1.0, (4.0 * tau) ** 2, t) for t in nu])
        assert (np.abs(got - want) <= 1e-12 * want).all()

    def test_domain_errors(self):
        for nu in (-0.1, float("nan"), [0.0, -1e-3]):
            with pytest.raises(ConfigError):
                PhaseDamping(0.5).coherence(nu)
        with pytest.raises(ConfigError):
            PhaseDamping(0.0)


class TestPdApply:
    def test_diagonal_states_fixed(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        for nu in (0.0, 0.5, 3.0):
            assert np.abs(oracles.pd_apply(rho, nu, 0.5) - rho).max() < 1e-14

    def test_kraus_sum_matches_direct_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = oracles.random_density(2, rng)
            nu, tau = rng.uniform(0.0, 5.0), rng.uniform(0.15, 0.8)
            got = oracles.pd_apply(rho, nu, tau)
            lam = PhaseDamping(tau).coherence(nu)
            want = rho.copy()
            want[0, 1] *= lam
            want[1, 0] *= lam
            assert np.abs(got - want).max() < 1e-14

    def test_plus_state_x_expectation(self):
        rho = oracles.pd_apply(qmath.ket2dm(qmath.KET_PLUS), 1.3, 0.5)
        ox = float(np.trace(rho @ qmath.SIGMA_X).real)
        assert ox == pytest.approx(PhaseDamping(0.5).coherence(1.3), abs=1e-14)

    def test_zero_time_is_identity(self):
        rho = oracles.random_density(2, np.random.default_rng(1))
        assert np.abs(oracles.pd_apply(rho, 0.0, 0.3) - rho).max() < 1e-14

    def test_lifted_map_preserves_two_qubit_states(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            rho = oracles.random_density(4, rng)
            nu, tau = rng.uniform(0.0, 4.0), rng.uniform(0.15, 0.8)
            lam = PhaseDamping(tau).coherence(nu)
            m1 = math.sqrt((1 + lam) / 2) * np.kron(np.eye(2), qmath.IDENTITY_2)
            m2 = math.sqrt((1 - lam) / 2) * np.kron(np.eye(2), oracles.SIGMA_Z)
            out = m1 @ rho @ m1.conj().T + m2 @ rho @ m2.conj().T
            qmath.validate_density(out)


class TestAdAmplitude:
    def test_initial_value(self):
        for lam in (0.1, 1.0, 2.0, 3.0):
            assert oracles.ad_survival(0.0, lam) == pytest.approx(1.0)

    def test_first_zero_resonant(self):
        # lam = gamma0 -> d = gamma0, zero at t = (2/d)(pi - arctan(d/lam))
        t_zero = bisect(AmplitudeDamping(1.0).coherence, 1.0, 6.0)
        want = 2.0 * (math.pi - math.atan(1.0))
        assert t_zero == pytest.approx(want, abs=1e-9)
        assert oracles.ad_survival(t_zero, 1.0) < 1e-20

    def test_weak_coupling_monotone(self):
        t = np.linspace(0.0, 20.0, 4001)
        p = oracles.ad_survival(t, 3.0)
        assert np.all(np.diff(p) <= 1e-18)

    def test_continuity_at_boundary(self):
        t = np.linspace(0.0, 10.0, 101)
        below = oracles.ad_survival(t, 2.0 - 1e-6)
        above = oracles.ad_survival(t, 2.0 + 1e-6)
        assert np.abs(below - above).max() < 1e-4

    def test_survival_is_square_of_amplitude(self):
        t = np.linspace(0.0, 10.0, 51)
        for lam in (0.4, 2.0, 2.7):
            g = AmplitudeDamping(lam).coherence(t)
            assert np.abs(oracles.ad_survival(t, lam) - g**2).max() < 1e-15

    @pytest.mark.parametrize("lam", [100.0, 800.0, 1e6])
    def test_overdamped_closed_form_stays_finite(self, lam):
        # exp(-a t) underflows and cosh(w t) overflows once w t > 710 (t = 14.3
        # at lambda = 100); G is the two decaying exponentials
        a, w2, _ = map(float, AmplitudeDamping.rates_at(lam))
        w = math.sqrt(-w2)
        t = np.linspace(0.0, 20.0, 2001)
        want = ((1 + a / w) * np.exp(-(a - w) * t) + (1 - a / w) * np.exp(-(a + w) * t)) / 2
        got = AmplitudeDamping(lam).coherence(t)
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
        assert np.isfinite(AmplitudeDamping(lam).bloch_plus([20.0])).all()

    @pytest.mark.parametrize("lam", [1e8, 1e16, 1e100])
    def test_strongly_overdamped_slow_rate(self, lam):
        # a - w = (lambda / 2) / (a + w): a^2 + w^2 = lambda / 2 taken
        # exactly, not a^2 - |w|^2 from rounded rates, which cancels (at 1e16
        # it read G(20) = 1.0 for e^-10 = 4.54e-5)
        times = [0.0, 1e-9, 0.5, 3.0, 20.0]
        got = AmplitudeDamping(lam).coherence(times)
        want = np.array([oracles.overdamped_coherence(lam / 2.0, lam / 2.0, t) for t in times])
        assert (np.abs(got - want) <= 1e-12 * want).all()

    @pytest.mark.parametrize("lam", [1e300, 1e160, float(2**512)])
    def test_overflowing_rates_are_config_errors(self, lam):
        with pytest.raises(ConfigError, match="rates of its coherence overflow"):
            AmplitudeDamping(lam)
        with pytest.raises(ConfigError, match="rates of its coherence overflow"):
            PhaseDamping(lam)


class TestAdApply:
    def test_ground_state_fixed(self):
        rho = qmath.ket2dm(oracles.KET_G)
        for t in (0.0, 1.0, 10.0):
            assert np.abs(oracles.ad_apply(rho, t, 0.5) - rho).max() < 1e-14

    def test_zero_time_is_identity(self):
        rho = oracles.random_density(2, np.random.default_rng(3))
        assert np.abs(oracles.ad_apply(rho, 0.0, 0.5) - rho).max() < 1e-14

    def test_excited_state_at_survival_036(self):
        # monotone regime: invert P_t = 0.36 and check the populations
        t36 = bisect(lambda t: oracles.ad_survival(t, 3.0) - 0.36, 0.0, 5.0)
        out = oracles.ad_apply(qmath.ket2dm(oracles.KET_E), t36, 3.0)
        assert np.abs(out - np.diag([0.36, 0.64])).max() < 1e-9

    def test_kraus_matches_entrywise_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = oracles.random_density(2, rng)
            t, lam = rng.uniform(0.0, 8.0), rng.uniform(0.1, 3.0)
            got = oracles.ad_apply(rho, t, lam)
            want = oracles.ad_closed_form(rho, t, lam)
            assert np.abs(got - want).max() < 1e-12

    def test_composition_at_zero_second_step(self):
        rho = oracles.random_density(2, np.random.default_rng(5))
        once = oracles.ad_apply(rho, 1.3, 0.8)
        again = oracles.ad_apply(once, 0.0, 0.8)
        assert np.abs(once - again).max() < 1e-14

    def test_lifted_map_preserves_two_qubit_states(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            rho = oracles.random_density(4, rng)
            t, lam = rng.uniform(0.0, 6.0), rng.uniform(0.1, 3.0)
            m1, m2 = oracles.ad_kraus(AmplitudeDamping(lam).coherence(t))
            k1, k2 = np.kron(np.eye(2), m1), np.kron(np.eye(2), m2)
            qmath.validate_density(k1 @ rho @ k1.conj().T + k2 @ rho @ k2.conj().T)


class TestDrivenEvolve:
    def test_undriven_matches_closed_form(self):
        ch = DrivenAmplitudeDamping(lam=1.0, omega=0.0)
        grid = TimeGrid(5.0, 5000)
        plus = qmath.ket2dm(qmath.KET_PLUS)
        out = evolve(ch, plus, grid)
        want = np.stack([oracles.ad_closed_form(plus, t, 1.0) for t in grid.values])
        assert np.abs(out - want).max() < 1e-6

    def test_undriven_bell_concurrence_matches_kraus_oracle(self):
        ch = DrivenAmplitudeDamping(lam=0.8, omega=0.0)
        grid = TimeGrid(6.0, 1200)
        bell = qmath.ket2dm(qmath.KET_BELL)
        joint = evolve(ch, bell, grid)
        for i in (0, 300, 600, 1200):
            t = grid.values[i]
            m1, m2 = oracles.ad_kraus(AmplitudeDamping(0.8).coherence(t))
            k1, k2 = np.kron(np.eye(2), m1), np.kron(np.eye(2), m2)
            want = k1 @ bell @ k1.conj().T + k2 @ bell @ k2.conj().T
            assert np.abs(joint[i] - want).max() < 1e-6
            assert abs(qmath.concurrence(joint[i]) - qmath.concurrence(want)) < 1e-6

    def test_zero_length_grid_returns_input(self):
        ch = DrivenAmplitudeDamping(lam=0.5, omega=0.3)
        out = evolve(ch, qmath.ket2dm(qmath.KET_PLUS), TimeGrid(0.0, 1))
        assert out.shape == (2, 2, 2)
        assert np.abs(out[0] - qmath.ket2dm(qmath.KET_PLUS)).max() < 1e-14

    @pytest.mark.parametrize(
        "lam, omega, n_fock, dims",
        [
            (0.6, 0.15, 8, (2,)),
            (0.6, 0.15, 8, (2, 2)),
            (0.1, 0.5, 12, (2,)),  # the pair that climbs the Fock ladder
            # exceptional points: at omega = 0 the generator is defective at
            # lambda = 2 gamma0 N (N = 1, 2 here), and nearly so close by
            (2.0, 0.0, 8, (2, 2)),
            (2.0 + 1e-6, 0.0, 8, (2, 2)),
            (2.0, 1e-5, 8, (2, 2)),
            (4.0, 0.0, 8, (2, 2)),
            # lambda = 4, 6 and 8, driven or not: eigenvalue clusters whose
            # invariant subspaces the block search finds by solving with
            # gen - sigma, and not by multiplying with its inverse
            (4.0, 0.0, 4, (2, 2)),
            (6.0, 0.0, 4, (2, 2)),
            (4.0, 1e-4, 4, (2, 2)),
            (6.0, 1e-4, 6, (2, 2)),
            (8.0, 1e-6, 6, (2, 2)),
        ],
    )
    def test_matches_expm_oracle(self, monkeypatch, lam, omega, n_fock, dims):
        d = int(np.prod(dims))
        rho_sys = oracles.random_density(d, np.random.default_rng(7))
        monkeypatch.setattr(channels, "FOCK_LADDER", (n_fock,))
        ch = DrivenAmplitudeDamping(lam, omega)
        times = (0.0, 0.7, 3.0, 20.0)
        got = evolve(ch, rho_sys, times)
        want = oracles.pseudomode_expm_evolve(rho_sys, times, lam, omega, n_fock)
        assert np.abs(got - want).max() < 1e-10

    @pytest.mark.parametrize("lam, omega", [(0.7, 0.2), (2.0, 0.0)])
    def test_grid_blocks_match_direct_times(self, lam, omega):
        # 601 samples: two full blocks of the exp(w t) table and a partial one;
        # (2, 0) is an exceptional point, whose block modes are t^k exp(mu t)
        ch = DrivenAmplitudeDamping(lam, omega)
        grid = TimeGrid(3.0, 600)
        plus = qmath.ket2dm(qmath.KET_PLUS)
        blocked = evolve(ch, plus, grid)
        direct = evolve(ch, plus, grid.values)
        assert blocked.shape == direct.shape == (601, 2, 2)
        assert np.abs(blocked - direct).max() < 1e-12

    def test_t0_guard_rejects_corrupted_eigenbasis(self, monkeypatch):
        eig = np.linalg.eig
        ch = DrivenAmplitudeDamping(lam=0.5, omega=0.3)
        n = channels.FOCK_LADDER[0]
        for size in (n * (2 * n + 1), n * (2 * n - 1)):  # the even and the odd sector

            def corrupted(a, size=size):
                # every eigenvector of one sector pulled onto its first: still
                # invertible, but too ill-conditioned to carry the initial operators
                w, v = eig(a)
                return (w, v[:, :1] + 1e-9 * v) if len(a) == size else (w, v)

            monkeypatch.setattr(np.linalg, "eig", corrupted)
            with pytest.raises(NumericError, match="t = 0"):
                evolve(ch, qmath.ket2dm(qmath.KET_PLUS), TimeGrid(1.0, 10))

    def test_exceptional_point_matches_closed_form(self):
        # lambda = 2 gamma0 is the critical coupling, where the coherence takes
        # its analytic limit (1 + lambda t / 2) exp(-lambda t / 2)
        grid = TimeGrid(20.0, 20000)
        out = evolve(DrivenAmplitudeDamping(2.0, 0.0), qmath.ket2dm(qmath.KET_PLUS), grid)
        g = AmplitudeDamping(2.0).coherence(grid.values)
        want = 0.5 * np.stack([g**2, g, g, 2.0 - g**2], axis=-1).reshape(-1, 2, 2)
        assert np.abs(out - want).max() < 1e-10

    def test_leak_between_requested_times_raises(self, monkeypatch):
        # omega = 0, n_fock = 2: the single excitation's pseudomode part,
        # amplitude ~ exp(-lambda t / 2) sin(d t / 2), fills the top level
        # between t = 0 and t = 2 pi / d, where it is empty again; the guard
        # checks the interval, not only the requested samples
        lam = 0.5
        t_zero = 2.0 * math.pi / math.sqrt(2.0 * lam - lam**2)
        monkeypatch.setattr(channels, "FOCK_LADDER", (2,))
        ch = DrivenAmplitudeDamping(lam, 0.0)
        gen, even, c0, red, start = operators(ch, 2)
        modes = channels._sector_modes(gen, c0, red, even, t_zero)
        rows = trajectory((*modes, start), (0.0, t_zero))
        assert np.abs(rows[:, :, 4]).max() < 1e-12  # empty at both samples
        with pytest.raises(TruncationLeakError):
            evolve(ch, qmath.ket2dm(qmath.KET_PLUS), (0.0, t_zero))

    def test_truncation_leak_raises(self, monkeypatch):
        monkeypatch.setattr(channels, "FOCK_LADDER", (2,))
        ch = DrivenAmplitudeDamping(lam=0.1, omega=0.5)
        grid = TimeGrid(5.0, 500)
        with pytest.raises(TruncationLeakError):
            evolve(ch, qmath.ket2dm(qmath.KET_PLUS), grid)


class TestTransposeSymmetry:
    """The generator commutes with S(X) = sz X^T sz, so it splits into an
    even and an odd sector; the guard reads only the even one, and the odd
    one is decomposed only once every state has passed it."""

    @settings(max_examples=50, deadline=None)
    @given(
        lam=st.floats(0.05, 3.0, exclude_min=True),
        omega=st.floats(0.0, 0.5),
        n=st.sampled_from([4, 8, 12]),
    )
    def test_sectors_do_not_couple(self, lam, omega, n):
        gen, even = operators(DrivenAmplitudeDamping(lam, omega), n)[:2]
        # 136 and 120 coordinates at n = 8, 300 and 276 at 12
        assert (even.sum(), (~even).sum()) == (n * (2 * n + 1), n * (2 * n - 1))
        assert not gen[np.ix_(even, ~even)].any()
        assert not gen[np.ix_(~even, even)].any()

    def test_coupled_sectors_raise(self, monkeypatch):
        # a 1e-14 sigma_y part in the drive makes H complex: sz H^T sz no
        # longer flips its sign, and W couples the sectors
        sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
        # a frame built or cached elsewhere must neither hide nor keep the coupling
        channels._pseudomode.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(qmath, "SIGMA_X", qmath.SIGMA_X + 1e-14 * sigma_y)
                with pytest.raises(NumericError, match="couples the sectors"):
                    channels._generator(DrivenAmplitudeDamping(0.6, 0.15), 8)
        finally:
            channels._pseudomode.cache_clear()

    @pytest.mark.parametrize(
        "lam, omega, live", [(0.6, 0.15, 136), (1.3, 0.05, 136), (0.3, 0.0, 134), (2.0, 0.0, None)]
    )
    def test_guard_drops_only_silent_modes(self, lam, omega, live):
        # live: the even modes with a nonzero top-level or trace amplitude
        # (None at the exceptional point (2, 0), whose chains have p > 0 terms);
        # the odd sector's are exactly 0, so the even sector alone gives the
        # guard rows of all modes
        gen, even, c0, red, start = operators(DrivenAmplitudeDamping(lam, omega), 8)
        w, power, amps = channels._sector_modes(gen, c0, red, even, 20.0)
        odd = channels._sector_modes(gen, c0, red, ~even, 20.0)
        assert not odd[2][:, 4:].any()
        if live is not None:
            assert len(w) == 136 and (amps[:, 4:] != 0).any(axis=(0, 1)).sum() == live
        full = [np.concatenate(part, axis=-1) for part in zip((w, power, amps), odd)]
        grid = TimeGrid(20.0, 20_000)
        got = trajectory((w, power, amps[:, 4:], start[:, 4:]), grid)
        want = trajectory((*full[:2], full[2][:, 4:], start[:, 4:]), grid)
        assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("lam, omega", [(0.6, 0.15), (1.3, 0.05), (0.3, 0.0), (2.0, 0.0)])
    def test_folded_guard_matches_operator_rows(self, lam, omega):
        # _guard_rows folds each state's qubit part into the amplitudes before
        # any sample is formed; recombining the four operators' sampled rows
        # with that part gives the same rows, to 1e-15 on the top level and
        # to a few ulps of 1 on the trace's distance from 1 (5 ulps seen
        # under two BLAS threads)
        gen, even, c0, red, start = operators(DrivenAmplitudeDamping(lam, omega), 8)
        w, power, amps = channels._sector_modes(gen, c0, red, even, 20.0)
        modes = (w, power, amps[:, 4:], start[:, 4:])
        rhos = [rho for rho, _ in channels._DRIVEN_STATES]
        got = np.concatenate([rows for rows, _ in channels._guard_rows(modes, rhos, 20.0)])
        rows = trajectory(modes, TimeGrid(20.0, 20_000))  # (sample, operator, row)
        assert got.shape == (20_001, len(rhos), 2) and got.dtype == float
        for i, rho in enumerate(rhos):
            k = len(rho) // 2
            q = np.einsum("xaxb->ab", rho.reshape(k, 2, k, 2))
            want = np.einsum("j,sjr->sr", q.ravel(), rows).real  # ab = ee, eg, ge, gg
            assert np.abs(got[:, i, 0] - want[:, 0]).max() <= 1e-15
            assert np.abs(got[:, i, 1] - np.abs(want[:, 1] - 1.0)).max() <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("lam, omega", [(0.6, 0.15), (1.3, 0.05), (0.3, 0.0), (2.0, 0.0)])
    def test_adjoint_operator_evolves_to_the_adjoint(self, lam, omega):
        # the map preserves Hermiticity, so |g><e| = (|e><g|)+ evolves into
        # the adjoint of |e><g|'s trajectory; the frame evolves both
        modes = operator_modes(DrivenAmplitudeDamping(lam, omega), 8)
        rows = trajectory(modes, TimeGrid(20.0, 2000))
        eg, ge = rows[:, 1].reshape(-1, 2, 2), rows[:, 2].reshape(-1, 2, 2)
        assert np.abs(ge - qmath.dag(eg)).max() <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(
        lam=st.floats(0.5, 3.0),
        omega=st.one_of(st.just(0.0), st.floats(0.01, 0.2)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lam=2.0, omega=0.0, seed=0)  # an exceptional point
    @example(lam=2.0, omega=0.012244495987297602, seed=2)  # and near one
    def test_states_combine_operator_trajectories(self, lam, omega, seed):
        # each evaluator folds its state into the amplitudes; its states are
        # the Hermitian part of sum rho[(x, a), (y, b)] |x><y| (x) Phi_t(|a><b|),
        # from the four operators' own trajectories (whose sum is Hermitian
        # only to 4e-14 at the exceptional point (2, 0)), to 1e-14 or, where
        # the modes' amplitudes cancel (their sum reaches 240 near (2, 0.01)),
        # to 4 eps times that sum
        rng = np.random.default_rng(seed)
        ch = DrivenAmplitudeDamping(lam, omega)
        states = [(oracles.random_density(d, rng), f"{d} x {d}") for d in (2, 4)]
        grid = TimeGrid(20.0, 400)
        modes = operator_modes(ch, 8)
        tol = max(1e-14, 4 * np.finfo(float).eps * np.abs(modes[2]).sum(axis=-1).max())
        phi = trajectory(modes, grid).reshape(-1, 2, 2, 2, 2)  # (t, a, b, c, d)
        for (rho, _), evaluate in zip(states, channels._guarded(ch, 8, states, 20.0)):
            k = len(rho) // 2
            want = np.einsum("xayb,tabcd->txcyd", rho.reshape(k, 2, k, 2), phi)
            want = want.reshape(-1, 2 * k, 2 * k)
            want = 0.5 * (want + qmath.dag(want))
            assert np.abs(evaluate(grid) - want).max() <= tol

    def test_leaking_rung_decomposes_only_the_even_sector(self, monkeypatch):
        # (0.1, 0.5) leaks at 4, 6 and 8 over the measure horizon: each of
        # those rungs decomposes its even sector, n(2n + 1), and no odd one;
        # rung 12 passes and decomposes both
        sizes, eig = [], np.linalg.eig

        def recording(a):
            sizes.append(len(a))
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", recording)
        ch = DrivenAmplitudeDamping(0.1, 0.5)
        channels._evolver(ch, channels._DRIVEN_STATES, channels.DEFAULT_T_MAX)
        assert sizes == [n * (2 * n + 1) for n in (4, 6, 8, 12)] + [12 * (2 * 12 - 1)]


class TestGuardBound:
    """The leak and drift guard bounds every sample it has not taken from the
    even sector's amplitudes (channels._guard_rows) and samples, in time
    order, only until its outcome is decided (channels._check_physical); the
    outcome is the full pass's over all 20 001 samples
    (oracles.full_guard_decision)."""

    STATES = channels._DRIVEN_STATES
    # the benchmark's driven slice, 7 couplings at each drive that runs the
    # engine, and the pairs of test_truncation_error_against_next_rung
    SLICE = [(lam, omega) for omega in (0.05, 0.5) for lam in dataset.param_grid("driven", 7)]
    NEXT_RUNG = [(0.7, 0.5), (1.757, 0.5), (0.514, 0.05), (0.3, 0.0)]

    @classmethod
    def guard(cls, lam, omega, n):
        """The powers of the even modes and every (rows, bound) of the guard
        of the driven states at n."""
        gen, even, c0, red, start = operators(DrivenAmplitudeDamping(lam, omega), n)
        w, power, amps = channels._sector_modes(gen, c0, red, even, 20.0)
        rhos = [rho for rho, _ in cls.STATES]
        return power, list(channels._guard_rows((w, power, amps[:, 4:], start[:, 4:]), rhos, 20.0))

    @settings(max_examples=30, deadline=None)
    @given(
        lam=st.floats(0.1, 3.0),
        omega=st.floats(0.0, 0.5),
        n=st.sampled_from([4, 6, 8, 12]),
    )
    @example(lam=2.0, omega=1e-100, n=8)  # built undriven: an exceptional point
    def test_bound_covers_every_later_sample(self, lam, omega, n):
        power, guard = self.guard(lam, omega, n)
        if (lam, omega) == (2.0, 1e-100):
            assert power.max() > 0  # chain modes: the generator is defective
        assert sum(len(rows) for rows, _ in guard) == 20_001
        peaks = np.array([np.abs(rows).max(axis=0, initial=0.0) for rows, _ in guard])
        bounds = np.array([bound for _, bound in guard])
        later = np.maximum.accumulate(peaks[::-1])[::-1]  # the largest at and after each yield
        assert (bounds[:-1] >= later[1:]).all()
        assert not bounds[-1].any()

    def test_envelope_is_the_largest_modulus(self):
        # one mode f(t) = exp(w t) t^p / p! at a time, decaying, flat and
        # rising, with chain powers p up to 5: the envelope from each t_from
        # is the largest |f| over a fine grid of [t_from, 20]
        for a in (-2.0, -0.5, -0.05, 0.0, 1e-3):
            for p in range(6):
                w, power = np.array([a + 1.3j]), np.array([p])
                for t_from in (0.0, 1.5, 10.0, 20.0):
                    t = np.linspace(t_from, 20.0, 200_001)
                    sampled = (np.exp(a * t) * t**p / math.factorial(p)).max()
                    got = channels._envelope(w, power, np.ones((1, 1)), t_from, 20.0)
                    assert sampled <= got[0] <= sampled * (1.0 + 1e-9), (a, p, t_from)

    def test_drift_is_still_sampled(self, monkeypatch):
        # drives below DRIVE_CUT, kept here, where the eigenproblem is
        # ill-conditioned: (0.5, 3e-15) drifts past TRACE_DRIFT_TOL on rung 6
        # (1.55e-8 at its worst sample) and (1.5, 3e-15) on rung 4 (2.94e-8),
        # under one and two BLAS threads, and (1.0, 1e-14) on rung 12 under
        # one (2.09e-8); the bound never passes a rung whose samples fail, and
        # every other rung passes
        monkeypatch.setattr(channels, "DRIVE_CUT", 0.0)
        drifts = 0
        for lam, omega in ((1.0, 1e-14), (0.5, 3e-15), (1.5, 3e-15)):
            ch = DrivenAmplitudeDamping(lam, omega)
            for n in channels.FOCK_LADDER:
                want = oracles.full_guard_decision(ch, n, self.STATES, 20.0)
                if want is None:
                    channels._guarded(ch, n, self.STATES, 20.0)
                    continue
                assert want[0] is NumericError and want[2] > channels.TRACE_DRIFT_TOL
                with pytest.raises(NumericError, match=rf"^{re.escape(want[1])}: trace drift "):
                    channels._guarded(ch, n, self.STATES, 20.0)
                drifts += 1
        assert drifts >= 2

    def test_samples_stop_once_decided(self, monkeypatch):
        counts, trajectories = [], channels._trajectories

        def counting(modes, times):
            for rows in trajectories(modes, times):
                if modes[3].shape[1] == 2:  # the guard's rows: top level and trace
                    counts.append(len(rows))
                yield rows

        monkeypatch.setattr(channels, "_trajectories", counting)
        # sum |A_top| = 1.5e-9 certifies every t of rung 6 before any sample
        channels._guarded(DrivenAmplitudeDamping(2.171, 0.5), 6, self.STATES, 20.0)
        assert counts == []
        # rung 4 of (0.1, 0.5) first leaks at sample 1 255
        with pytest.raises(TruncationLeakError):
            channels._guarded(DrivenAmplitudeDamping(0.1, 0.5), 4, self.STATES, 20.0)
        assert 1_256 <= sum(counts) < 20_001

    @pytest.mark.parametrize(
        "pairs, settled",
        [(SLICE, {4: 5, 6: 7, 8: 1, 12: 1}), (NEXT_RUNG, None)],
        ids=["slice", "next-rung"],
    )
    def test_decisions_match_full_pass(self, pairs, settled):
        # every rung the ladder tries: the same pass, or the same error for
        # the same state, quoting a sampled value no larger than the full
        # pass's worst
        rungs = {}
        for lam, omega in pairs:
            ch = DrivenAmplitudeDamping(lam, omega)
            for n in channels.FOCK_LADDER:
                want = oracles.full_guard_decision(ch, n, self.STATES, 20.0)
                if want is None:
                    channels._guarded(ch, n, self.STATES, 20.0)
                    rungs[n] = rungs.get(n, 0) + 1
                    break
                with pytest.raises(want[0], match=rf"^{re.escape(want[1])}: ") as info:
                    channels._guarded(ch, n, self.STATES, 20.0)
                quoted = float(re.search(r"(?:population|drift) (\S+)", str(info.value))[1])
                assert channels.LEAK_TOL < quoted <= float(f"{want[2]:.3e}")
        assert settled is None or rungs == settled


class TestPseudomodeFrame:
    """_generator sums the parts of the generator that _pseudomode builds
    once per Fock size."""

    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(0.05, 3.0), omega=st.floats(0.0, 0.5), n=st.sampled_from([4, 6, 8]))
    def test_generator_matches_lindblad_superoperator(self, lam, omega, n):
        u = hermitian_basis(n)
        undriven = channels._generator(DrivenAmplitudeDamping(lam, 0.0), n)
        cut = channels.DRIVE_CUT
        # the drives next to the cut: the cut and the one just above it
        # enter, the one just below it is left out
        for om in (omega, cut, np.nextafter(cut, np.inf), np.nextafter(cut, 0.0)):
            kept = not om < cut
            want = u.conj().T @ lindblad(lam, om if kept else 0.0, n) @ u
            got = channels._generator(DrivenAmplitudeDamping(lam, om), n)
            scale = np.abs(want).max()
            assert np.abs(want.imag).max() <= 1e-14 * scale
            assert np.abs(got - want.real).max() <= 1e-14 * scale
            assert np.array_equal(got, undriven) != kept

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_readouts_match_dense_basis(self, n):
        # on row-major vectorized operators: x0 holds vec(|a><b| (x) |0><0|),
        # ab = ee, eg, ge, gg, and the rows read the reduced entries, the top
        # Fock level and the trace off vec(X)
        d, levels = 2 * n, np.arange(n)
        u = hermitian_basis(n)
        vacuum = np.zeros((n, n))
        vacuum[0, 0] = 1.0
        x0 = np.stack([np.kron(e, vacuum).reshape(-1) for e in np.eye(4).reshape(4, 2, 2)], axis=1)
        rows = np.zeros((6, d * d))
        for k, (a, b) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            rows[k, (a * n + levels) * d + b * n + levels] = 1.0
        rows[4, np.array([n - 1, d - 1]) * (d + 1)] = 1.0
        rows[5, np.arange(d) * (d + 1)] = 1.0
        _, c0, red, start, _ = channels._pseudomode(n)
        assert np.abs(c0 - u.conj().T @ x0).max() <= 1e-15
        assert np.abs(red - rows @ u).max() <= 1e-15
        assert np.abs(start - (rows @ x0).T).max() <= 1e-15

    def test_table_builds_each_frame_once(self, monkeypatch):
        sizes, generator = set(), channels._generator

        def recording(channel, n):
            sizes.add(n)
            return generator(channel, n)

        monkeypatch.setattr(channels, "_generator", recording)
        channels._pseudomode.cache_clear()
        dataset.generate("driven", count=3, omegas=(0.0, 0.05, 0.5))
        info = channels._pseudomode.cache_info()
        assert 12 in sizes and info.misses <= len(sizes) and info.hits > 0


class TestUnresolvableDrive:
    """A drive below DRIVE_CUT, which moves no feature by more than LEAK_TOL
    on the horizon, is built as omega = 0."""

    LAMS = (0.0625, 0.5, 1.0, 2.9)

    @pytest.mark.parametrize("n", channels.FOCK_LADDER)
    def test_generator_is_undriven(self, n):
        # omega = 10^-k, k = 20..300, lies below the cut; every k at the first
        # rung, where a build is cheap, and at the others a spread that holds
        # the drives once seen to fail
        ks = range(20, 301) if n == channels.FOCK_LADDER[0] else (20, 45, 100, 127, 273, 300)
        for lam in self.LAMS:
            want = channels._generator(DrivenAmplitudeDamping(lam, 0.0), n)
            for k in ks:
                got = channels._generator(DrivenAmplitudeDamping(lam, 10.0**-k), n)
                assert np.array_equal(got, want), (lam, k)

    @pytest.mark.parametrize("n", channels.FOCK_LADDER)
    @pytest.mark.parametrize(
        "lam, omega", [(1.0, 1.5e-127), (0.5, 1e-100), (2.9, 1e-45), (0.0625, 2.8e-273)]
    )
    def test_tiny_drive_evolves_as_undriven(self, n, lam, omega):
        # each once failed: the t = 0 check, the exp(N t) series, the rungs 6
        # and 8, and the invariant-subspace search; undriven, |+> follows the
        # closed form of amplitude damping
        plus = [(qmath.ket2dm(qmath.KET_PLUS), "plus")]
        grid = TimeGrid(3.0, 30)
        out = channels._guarded(DrivenAmplitudeDamping(lam, omega), n, plus, 3.0)[0](grid)
        g = AmplitudeDamping(lam).coherence(grid.values)
        want = 0.5 * np.stack([g**2, g, g, 2.0 - g**2], axis=-1).reshape(-1, 2, 2)
        assert np.abs(out - want).max() < 1e-10

    def test_resolvable_drive_is_kept(self):
        # just above the cut the drive enters the generator
        ch = DrivenAmplitudeDamping(0.5, np.nextafter(channels.DRIVE_CUT, 1.0))
        assert not np.array_equal(
            channels._generator(ch, 4), channels._generator(DrivenAmplitudeDamping(0.5, 0.0), 4)
        )


class TestDrivenBellAndPlus:
    """The Bell pair on a grid and |+> at a few times from one guarded
    evolver, the states of measures.driven_entanglement."""

    @staticmethod
    def bell_and_plus(channel, grid, times):
        states = [
            (qmath.ket2dm(qmath.KET_BELL), "bell"),
            (qmath.ket2dm(qmath.KET_PLUS), "plus"),
        ]
        bell, plus = channels._evolver(channel, states, grid.t_max)
        return bell(grid), plus(times)

    def test_matches_contract_paths(self):
        ch = DrivenAmplitudeDamping(lam=0.6, omega=0.15)
        grid = TimeGrid(4.0, 800)
        idx = [0, 150, 600, 800]
        bell, plus = self.bell_and_plus(ch, grid, grid.values[idx])
        want_bell = evolve(ch, qmath.ket2dm(qmath.KET_BELL), grid)
        want_plus = evolve(ch, qmath.ket2dm(qmath.KET_PLUS), grid)
        assert np.array_equal(bell, want_bell)
        assert np.abs(plus - want_plus[idx]).max() < 1e-12

    def test_initial_samples(self, monkeypatch):
        ch = DrivenAmplitudeDamping(lam=0.6, omega=0.15)
        bell, plus = self.bell_and_plus(ch, TimeGrid(0.5, 100), (0.0,))
        assert abs(qmath.concurrence(bell[0]) - 1.0) < 1e-12
        assert np.abs(plus[0] - qmath.ket2dm(qmath.KET_PLUS)).max() < 1e-12
        # no tomography times: no |+> states, but its guards still run
        _, none = self.bell_and_plus(ch, TimeGrid(0.5, 100), ())
        assert none.shape == (0, 2, 2)
        # (the ground state stays in the vacuum at zero drive; |+> leaks)
        states = [
            (qmath.ket2dm(oracles.KET_G), "ground"),
            (qmath.ket2dm(qmath.KET_PLUS), "plus"),
        ]
        monkeypatch.setattr(channels, "FOCK_LADDER", (2,))
        leaky = DrivenAmplitudeDamping(0.5, 0.0)
        with pytest.raises(TruncationLeakError, match="plus"):
            channels._evolver(leaky, states, 5.0)

    def test_leak_names_the_first_leaking_state(self, monkeypatch):
        # at n_fock = 2 and zero drive the ground state stays in the vacuum,
        # and |e>, |+> and the Bell pair leak; the states are checked in
        # their order, and the error names the first that leaks
        monkeypatch.setattr(channels, "FOCK_LADDER", (2,))
        ground = (qmath.ket2dm(oracles.KET_G), "ground")
        excited = (qmath.ket2dm(oracles.KET_E), "excited")
        plus = (qmath.ket2dm(qmath.KET_PLUS), "plus")
        bell = (qmath.ket2dm(qmath.KET_BELL), "bell")
        for states, name in (
            ([ground, excited, plus], "excited"),
            ([ground, plus, excited], "plus"),
            ([ground, bell, plus], "bell"),
        ):
            message = rf"^{name}: top Fock level population .* at n_fock = 2 "
            with pytest.raises(TruncationLeakError, match=message):
                channels._evolver(DrivenAmplitudeDamping(0.5, 0.0), states, 5.0)

    def test_evaluator_serves_only_its_guarded_horizon(self):
        ch = DrivenAmplitudeDamping(lam=0.6, omega=0.15)
        (plus,) = channels._evolver(ch, [(qmath.ket2dm(qmath.KET_PLUS), "plus")], 2.0)
        assert np.abs(plus((0.5, 2.0)) - plus(TimeGrid(2.0, 4))[[1, 4]]).max() < 1e-12
        for bad in ((2.5,), TimeGrid(3.0, 6), (float("nan"),)):
            with pytest.raises(ConfigError):
                plus(bad)


class TestEveryDriveAnswers:
    """Every coupling and drive gives valid output or the last rung's leak:
    below DRIVE_CUT a drive is left out, which moves a feature by at most
    2 omega t, and the block search holds at the exceptional points
    lambda = 2N."""

    TIMES = (3.0, 5.0, 6.0, 10.0)

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.05, 10.0),
        omega=st.just(0.0) | st.floats(-16.0, 0.0).map(lambda x: 10.0**x),
    )
    @example(lam=2.0, omega=0.0)
    @example(lam=4.0, omega=1e-4)
    @example(lam=6.0, omega=3e-15)
    @example(lam=8.0, omega=1e-6)
    def test_both_routes_answer(self, lam, omega):
        def table_route():  # the route a table row takes
            (value,), (grid_error,), (features,) = dataset.table_rows(
                "driven", [(lam, omega)], times=self.TIMES
            )
            return value, grid_error, features

        def measure_route():
            ch = DrivenAmplitudeDamping(lam, omega)
            result, features = measures.driven_entanglement(ch, times=self.TIMES)
            return result.value, result.grid_error, features

        for route in (table_route, measure_route):
            try:
                value, grid_error, features = route()
            except TruncationLeakError as exc:
                assert f"at n_fock = {channels.FOCK_LADDER[-1]} " in str(exc)
                continue
            assert math.isfinite(value) and value >= 0.0
            assert math.isfinite(grid_error) and grid_error >= 0.0
            assert features.shape == (3 * len(self.TIMES),)
            assert np.isfinite(features).all() and np.abs(features).max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.0, 4.0, 7.0])
    def test_drive_above_the_cut_stays_within_its_bound(self, lam):
        # ||rho_omega(t) - rho_0(t)||_1 <= 2 omega t bounds every Bloch
        # component of |+>, since |Tr(sigma (a - b))| <= ||a - b||_1
        times = np.array([3.0, 5.0, 6.0, 10.0, 20.0])
        want = AmplitudeDamping(lam).bloch_plus(times)
        for k in range(1, 11):
            omega = k * channels.DRIVE_CUT
            got = DrivenAmplitudeDamping(lam, omega).bloch_plus(times)
            assert (np.abs(got - want) <= 2.0 * omega * times[:, None]).all(), (lam, k)
