import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nonmarkov import dataset, svr
from nonmarkov.errors import ConfigError, DataFormatError

import oracles


def smooth_problem(seed, n=30, within_eps=False):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-2, 2, n))[:, None]
    y = 0.5 * np.sin(1.7 * x[:, 0]) + 0.3
    if within_eps:
        y = y + rng.uniform(-4e-4, 4e-4, n)
    else:
        y = y + 0.01 * rng.standard_normal(n)
    return x, y


class TestConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["epsilon", "tol", "kernel_gamma"])
    def test_rejects_non_finite(self, name, value):
        # epsilon = nan or gamma = inf would leave SMO running to max_iter;
        # epsilon = inf would fit a model with an infinite intercept
        with pytest.raises(ConfigError):
            svr.SvrConfig(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, 2.5, 0])
    def test_max_iter_is_a_positive_integer(self, value):
        # nan never meets n_iter >= max_iter, so the fit would have no budget
        with pytest.raises(ConfigError):
            svr.SvrConfig(max_iter=value)

    def test_infinite_cost_is_the_hard_margin(self):
        assert svr.SvrConfig(C=np.inf).C == np.inf


class TestKernel:
    def test_self_similarity(self):
        x = np.array([[0.3, -1.2, 4.0]])
        assert svr.rbf_gram(x, x, 0.7)[0, 0] == 1.0

    def test_unit_distance(self):
        got = svr.rbf_gram(np.zeros((1, 2)), np.array([[1.0, 0.0]]), 1.0)
        assert got[0, 0] == pytest.approx(np.exp(-1.0))

    def test_gram_matrix_is_psd(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        gram = svr.rbf_gram(x, x, 0.9)
        assert np.abs(gram - gram.T).max() < 1e-15
        assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            svr.rbf_gram(np.zeros((1, 2)), np.zeros((1, 3)), 1.0)

    def test_in_place_build_equals_plain_expression_bitwise(self):
        rng = np.random.default_rng(17)
        big = rng.standard_normal((2030, 3)) * [1.0, 3.0, 0.2]
        small = rng.standard_normal((15, 6))
        pairs = [
            (big, big), (big[:700], big[1300:]),
            (small, small), (small, small[:1]), (small[:1], small[:1]),
        ]
        for gamma in (0.05, 0.5, 1.7):
            for x, y in pairs:
                assert np.array_equal(svr.rbf_gram(x, y, gamma), oracles.naive_rbf_gram(x, y, gamma))

    def test_scale_gamma(self):
        x = np.array([[0.0, 10.0], [2.0, 10.0]])  # variances 1 and 0
        # 'scale' uses the variance of all four entries {0, 2, 10, 10}:
        # mean column variance (1 + 0) / 2 = 0.5 plus the variance of the
        # column means (1, 10), which is 4.5^2 = 20.25, so 20.75 in total
        assert svr.resolve_gamma("scale", x) == pytest.approx(1.0 / (2 * 20.75))
        assert svr.resolve_gamma(0.25, x) == 0.25

        # column-centred features (standardized tables): the offset term
        # vanishes and gamma is exactly the per-column-mean value
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((50, 3)) * [1.0, 2.0, 0.5] + [0.3, -4.0, 7.0]
        centred = raw - raw.mean(axis=0)
        per_column = 1.0 / (3 * float(centred.var(axis=0).mean()))
        assert svr.resolve_gamma("scale", centred) == per_column

        # an offset on one column leaves every column variance unchanged but
        # moves the raw gamma
        shifted = raw.copy()
        shifted[:, 1] += 5.0
        assert svr.resolve_gamma("scale", shifted) != svr.resolve_gamma("scale", raw)


class TestFit:
    def test_constant_targets(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 2))
        model = svr.fit(x, np.full(8, 0.37))
        assert len(model.dual_coefs) == 0
        assert model.intercept == pytest.approx(0.37)
        assert svr.predict(model, rng.standard_normal(2)) == pytest.approx(0.37)
        # no support vectors: the kernel expansion is empty, and every row,
        # in one block or several, is exactly the intercept
        svr.save_model(model, tmp_path / "m.model")
        loaded = svr.load_model(tmp_path / "m.model")
        assert loaded.support_vectors.shape == (0, 2) and loaded.intercept == model.intercept
        for m in (model, loaded):
            assert svr.predict(m, rng.standard_normal(2)) == m.intercept
            for n in (0, 1, svr._BLOCK + 1):
                got = svr.predict(m, rng.standard_normal((n, 2)))
                assert got.shape == (n,) and np.all(got == m.intercept)

    def test_intercept_without_free_variable_at_the_bound(self):
        # every nonzero coefficient at +-C: b is the midpoint of the interval
        # the KKT conditions allow, from residuals of a kernel built apart
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((20, 2)), rng.standard_normal(20)
        config = svr.SvrConfig(C=1e-3)
        model = svr.fit(x, y, config)
        assert model.converged and len(model.dual_coefs) > 0
        assert np.all(np.abs(model.dual_coefs) == config.C)
        beta = np.zeros(len(y))
        beta[model.support_indices] = model.dual_coefs
        resid = y - oracles.naive_rbf_gram(x, x, model.kernel_gamma) @ beta
        eps = config.epsilon
        zero = beta == 0.0
        lo = max(np.max(resid[zero] - eps, initial=-np.inf), (resid[beta < 0] + eps).max())
        hi = min(np.min(resid[zero] + eps, initial=np.inf), (resid[beta > 0] - eps).min())
        assert lo - hi < config.tol
        assert model.intercept == pytest.approx((lo + hi) / 2, abs=1e-12)
        assert svr.kkt_violations(model, svr.predict(model, x), y, config).max() <= config.tol

    def test_smooth_targets_inside_tube(self):
        x, y = smooth_problem(2, within_eps=True)
        # C large enough that no dual coefficient is box-constrained
        config = svr.SvrConfig(C=100.0)
        model = svr.fit(x, y, config)
        assert np.abs(model.dual_coefs).max() < config.C
        resid = np.abs(svr.predict(model, x) - y)
        assert resid.max() <= config.epsilon + config.tol

    def test_dual_feasibility(self):
        x, y = smooth_problem(3)
        config = svr.SvrConfig()
        model = svr.fit(x, y, config)
        assert np.abs(model.dual_coefs).max() <= config.C
        assert abs(model.dual_coefs.sum()) <= config.tol

    def test_kkt_certificate(self):
        x, y = smooth_problem(4)
        config = svr.SvrConfig()
        model = svr.fit(x, y, config)
        assert svr.kkt_violations(model, svr.predict(model, x), y, config).max() <= config.tol

    def test_matches_projected_gradient_oracle(self):
        # at C = 0.05 most coefficients end on the box, so the step's cut to
        # the room the box leaves decides the optimum; at C = 1, seed 3 is
        # the first whose steps are cut by the room of i
        for cost, epsilon in ((1.0, 1e-3), (0.05, 1e-3), (1.0, 0.0)):
            config = svr.SvrConfig(C=cost, epsilon=epsilon, tol=1e-8, kernel_gamma=0.7)
            for seed in range(4):
                rng = np.random.default_rng(seed)
                x = rng.standard_normal((10, 3))
                y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(10)
                model = svr.fit(x, y, config)
                got = oracles.dual_objective(model, x, y, config)
                kern = svr.rbf_gram(x, x, 0.7)
                want = oracles.projected_gradient_svr_dual(kern, y, config.C, config.epsilon)
                assert abs(got - want) < 1e-6

    def test_row_permutation_leaves_predictions(self):
        x, y = smooth_problem(5)
        config = svr.SvrConfig(tol=1e-10)
        model_a = svr.fit(x, y, config)
        perm = np.random.default_rng(6).permutation(len(y))
        model_b = svr.fit(x[perm], y[perm], config)
        probe = np.linspace(-2, 2, 50)[:, None]
        assert np.abs(svr.predict(model_a, probe) - svr.predict(model_b, probe)).max() < 1e-8

    def test_monotone_dual_ascent(self):
        # the fit is deterministic, so fit(max_iter=k) is the iterate after k steps
        x, y = smooth_problem(7, n=15)
        n_iter = svr.fit(x, y, svr.SvrConfig()).n_iter
        objectives = []
        for k in range(1, n_iter + 1):
            config = svr.SvrConfig(max_iter=k)
            objectives.append(oracles.dual_objective(svr.fit(x, y, config), x, y, config))
        assert n_iter > 1 and np.all(np.diff(objectives) >= -1e-9)

    def test_kkt_certificate_with_duplicate_rows(self):
        # row 10 twice with different targets: the two copies carry different
        # dual coefficients, which a search by feature values cannot tell apart
        x = np.linspace(-2, 2, 30)[:, None]
        y = np.sin(x[:, 0])
        x, y = np.vstack([x, x[10]]), np.append(y, 2.0)
        config = svr.SvrConfig(epsilon=0.3, C=0.1, tol=1e-6)
        model = svr.fit(x, y, config)
        assert model.converged
        assert svr.kkt_violations(model, svr.predict(model, x), y, config).max() <= config.tol
        with pytest.raises(ConfigError):
            svr.kkt_violations(
                replace(model, support_indices=None), svr.predict(model, x), y, config
            )

    def test_partly_built_kernel_is_exact(self):
        # a wide tube leaves most points inside it, so SMO reads only the rows
        # of a few; a stale or missing row would show in the certificate and
        # in the dual objective against a directly built kernel
        x, y = smooth_problem(9, n=200)
        config = svr.SvrConfig(epsilon=0.1, tol=1e-6)
        model = svr.fit(x, y, config)
        assert model.converged and model.kernel_rows < len(y)
        assert svr.kkt_violations(model, svr.predict(model, x), y, config).max() <= config.tol
        want = oracles.dual_objective(model, x, y, config)
        assert abs(model.dual_objective - want) <= 1e-10 * abs(want)

    def test_non_convergence_is_flagged(self):
        x, y = smooth_problem(8)
        config = svr.SvrConfig(max_iter=2)
        model = svr.fit(x, y, config)
        assert not model.converged
        assert model.n_iter == 2
        assert model.gap >= config.tol

    @pytest.mark.parametrize("seed, tol", [(3, 1e-3), (4, 1e-6), (20, 1e-3), (21, 1e-8)])
    def test_reports_gap_and_dual_objective(self, seed, tol):
        x, y = smooth_problem(seed, n=40)
        config = svr.SvrConfig(tol=tol)
        model = svr.fit(x, y, config)
        assert model.converged and model.gap < config.tol
        want = oracles.dual_objective(model, x, y, config)
        assert abs(model.dual_objective - want) <= 1e-10 * abs(want)

    def test_pure_fit_is_stable_under_gamma_rounding(self):
        # moving gamma by one or two ULP must not move the pure AD test MAE by
        # more than 1%: a fit stopped at tol = 1e-3 far from the optimum did
        # (5.8% spread at split seed 7 with maximal-violating-pair selection)
        table = dataset.generate("ad", "entanglement")
        train, test = dataset.split(table, seed=dataset.DEFAULT_SEED)
        scaler = dataset.scaler_fit(train)
        x = scaler.transform(train.features)
        gamma = svr.resolve_gamma("scale", x)
        gammas = [gamma, np.nextafter(gamma, 0.0), np.nextafter(gamma, np.inf)]
        gammas += [np.nextafter(gammas[1], 0.0), np.nextafter(gammas[2], np.inf)]
        maes = []
        for g in gammas:
            model = svr.fit(x, train.targets, svr.SvrConfig(kernel_gamma=g), scaler)
            assert model.converged
            maes.append(svr.mae(svr.predict(model, test.features), test.targets))
        assert (max(maes) - min(maes)) / maes[0] < 0.01

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            svr.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ConfigError):
            svr.SvrConfig(C=0.0)
        with pytest.raises(ConfigError):
            svr.SvrConfig(kernel_gamma="auto")


class TestPredict:
    def test_free_support_vector_sits_on_tube(self):
        x, y = smooth_problem(9)
        config = svr.SvrConfig()
        model = svr.fit(x, y, config)
        free = np.abs(model.dual_coefs) < config.C
        assert free.any()
        for sv, beta in zip(model.support_vectors[free], model.dual_coefs[free]):
            i = np.flatnonzero((x == sv).all(axis=1))[0]
            resid = y[i] - svr.predict(model, x[i])
            assert abs(resid - config.epsilon * np.sign(beta)) <= config.tol

    def test_scaler_is_applied(self):
        x, y = smooth_problem(10)
        scaler = dataset.Scaler(x.mean(axis=0), x.std(axis=0))
        model = svr.fit(scaler.transform(x), y, svr.SvrConfig(), scaler)
        kernel = svr.rbf_gram(scaler.transform(x), model.support_vectors, model.kernel_gamma)
        direct = kernel @ model.dual_coefs + model.intercept
        assert np.abs(svr.predict(model, x) - direct).max() < 1e-14

    def test_blocks_match_one_block(self, monkeypatch):
        # rows past one block: each block's kernel sums in its own order, so
        # the rows may move in the last bits, but not further
        rng = np.random.default_rng(13)
        x = rng.uniform(-2.0, 2.0, (200, 2))
        model = svr.fit(x, np.sin(x).sum(axis=1))
        probe = rng.uniform(-2.5, 2.5, (2 * svr._BLOCK + 37, 2))
        blocked = svr.predict(model, probe)
        direct = oracles.naive_rbf_gram(probe, model.support_vectors, model.kernel_gamma)
        assert np.abs(blocked - (direct @ model.dual_coefs + model.intercept)).max() <= 1e-13
        monkeypatch.setattr(svr, "_BLOCK", len(probe))
        assert np.abs(blocked - svr.predict(model, probe)).max() <= 1e-13
        for i in rng.choice(len(probe), 25, replace=False):
            assert svr.predict(model, probe[i]) == pytest.approx(blocked[i], rel=1e-12, abs=0)

    def test_length_mismatch(self):
        x, y = smooth_problem(11)
        model = svr.fit(x, y)
        with pytest.raises(ConfigError):
            svr.predict(model, np.zeros(3))


class TestMae:
    def test_identical(self):
        assert svr.mae([0.1, 0.2], [0.1, 0.2]) == 0.0

    def test_unit_swap(self):
        assert svr.mae([0.0, 1.0], [1.0, 0.0]) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            svr.mae([0.0], [0.0, 1.0])


class TestModelIO:
    def test_roundtrip_predictions_bitwise(self, tmp_path):
        x, y = smooth_problem(12)
        scaler = dataset.Scaler(x.mean(axis=0), np.maximum(x.std(axis=0), 1e-12))
        model = svr.fit(scaler.transform(x), y, svr.SvrConfig(), scaler)
        path = tmp_path / "model.txt"
        svr.save_model(model, path)
        back = svr.load_model(path)
        rng = np.random.default_rng(13)
        probe = rng.standard_normal((100, x.shape[1]))
        assert np.array_equal(svr.predict(model, probe), svr.predict(back, probe))

    def test_file_is_the_savetxt_format(self, tmp_path):
        # the format save_model wrote through np.savetxt, byte for byte
        rng = np.random.default_rng(21)
        x = rng.uniform(-1.0, 1.0, (40, 3))
        y = np.sin(x).sum(axis=1)
        scaler = dataset.Scaler(x.mean(axis=0), x.std(axis=0))
        model = svr.fit(scaler.transform(x), y, svr.SvrConfig(), scaler)
        assert model.support_vectors.shape[0] > 1
        path = tmp_path / "model.txt"
        svr.save_model(model, path)
        want = io.StringIO()
        fmt = dataset.FMT
        want.write(f"nonmarkov-svr v1 gamma {fmt % model.kernel_gamma}\nscaler 3\n")
        np.savetxt(want, np.column_stack([model.scaler.mean, model.scaler.scale]), fmt=fmt)
        want.write(f"intercept {fmt % model.intercept}\n")
        want.write(f"support_vectors {len(model.dual_coefs)}\n")
        np.savetxt(want, np.column_stack([model.dual_coefs, model.support_vectors]), fmt=fmt)
        assert path.read_bytes() == want.getvalue().encode()

    def test_truncated_file_rejected(self, tmp_path):
        x, y = smooth_problem(14)
        model = svr.fit(x, y)
        path = tmp_path / "model.txt"
        svr.save_model(model, path)
        text = path.read_text().splitlines()
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(text[:-2]) + "\n")
        with pytest.raises(DataFormatError):
            svr.load_model(bad)

    def test_version_mismatch_rejected(self, tmp_path):
        x, y = smooth_problem(15)
        model = svr.fit(x, y)
        path = tmp_path / "model.txt"
        svr.save_model(model, path)
        text = path.read_text().replace("nonmarkov-svr v1", "nonmarkov-svr v9")
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(DataFormatError):
            svr.load_model(bad)

    @pytest.mark.parametrize("every", [True, False])
    def test_support_vector_rows_short_rejected(self, tmp_path, every):
        # numpy reads a block whose rows are all one number short as a
        # narrower block, which the width check refuses; one short row is a
        # ragged block
        x, y = np.random.default_rng(17).standard_normal((12, 2)), np.arange(12.0)
        model = svr.fit(x, y)
        path = tmp_path / "model.txt"
        svr.save_model(model, path)
        lines = path.read_text().splitlines()
        start = lines.index(f"support_vectors {len(model.dual_coefs)}") + 1
        stop = len(lines) if every else start + 1
        lines[start:stop] = [ln.rsplit(" ", 1)[0] for ln in lines[start:stop]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="expected 3" if every else "malformed"):
            svr.load_model(path)

    @pytest.mark.parametrize(
        "line, value",
        [
            (0, "gamma nan"),
            (0, "gamma -3"),
            (0, "gamma inf"),
            (3, "intercept nan"),
            (2, "0.5 nan"),
            (2, "nan 1.0"),
            (2, "0.5 0"),
        ],
    )
    def test_non_finite_or_invalid_values_rejected(self, tmp_path, line, value):
        x, y = smooth_problem(16)
        model = svr.fit(x, y)
        path = tmp_path / "model.txt"
        svr.save_model(model, path)
        text = path.read_text().splitlines()
        assert text[1] == "scaler 1" and text[3].startswith("intercept ")
        if line == 0:
            text[0] = "nonmarkov-svr v1 " + value
        else:
            text[line] = value
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(text) + "\n")
        with pytest.raises(ConfigError):
            svr.load_model(bad)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(1, 4),
    m=st.integers(0, 5),
    data=st.data(),
)
def test_model_round_trip_is_bit_exact(tmp_path_factory, d, m, data):
    # any finite float64 blocks read back bit for bit; the dual coefficients
    # are made to sum to zero, as load_model checks
    # bounded so that no sum of coefficients overflows
    block = data.draw(hnp.arrays(np.float64, (m, 1 + d), elements=st.floats(-1e300, 1e300)))
    coefs = np.concatenate([block[:, 0], -block[:, 0]])
    svs = np.concatenate([block[:, 1:], block[:, 1:]])
    pos = st.floats(min_value=1e-300, max_value=1e300)
    scaler = dataset.Scaler(
        data.draw(hnp.arrays(np.float64, d, elements=finite)),
        data.draw(hnp.arrays(np.float64, d, elements=pos)),
    )
    model = svr.SvrModel(svs, coefs, data.draw(finite), data.draw(pos), scaler)
    path = tmp_path_factory.mktemp("rt") / "model.txt"
    svr.save_model(model, path)
    back = svr.load_model(path)
    for got, want in [
        (back.support_vectors, svs),
        (back.dual_coefs, coefs),
        (back.scaler.mean, scaler.mean),
        (back.scaler.scale, scaler.scale),
        (np.float64(back.intercept), np.float64(model.intercept)),
        (np.float64(back.kernel_gamma), np.float64(model.kernel_gamma)),
    ]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
