import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nonmarkov import channels, dataset, measures, qmath
from nonmarkov.channels import AmplitudeDamping, DrivenAmplitudeDamping, PhaseDamping
from nonmarkov.errors import ConfigError, DataFormatError

import oracles


class TestGrids:
    def test_lambda_grid_counts(self):
        grid = dataset.param_grid("ad")
        assert len(grid) == 2900
        assert grid[0] == pytest.approx(0.1)
        assert grid[1] - grid[0] == pytest.approx(1e-3)
        assert grid[-1] < 3.0

    def test_tau_grid_counts(self):
        grid = dataset.param_grid("pd")
        assert len(grid) == 4000
        assert grid[1] - grid[0] == pytest.approx(1e-4)
        assert grid[-1] < 0.5

    @pytest.mark.parametrize(
        "kind, count, step, end",
        [("ad", 2900, 1e-3, 3.0), ("pd", 4000, 1e-4, 0.5), ("driven", 290, 1e-2, 3.0)],
    )
    def test_paper_grid_of_each_kind(self, kind, count, step, end):
        grid = dataset.param_grid(kind)
        assert len(grid) == count == dataset.KINDS[kind].count
        assert grid[0] == 0.1 and grid[1] - grid[0] == pytest.approx(step)
        assert grid[-1] == pytest.approx(end - step)
        # any count spans the same [0.1, end)
        assert dataset.param_grid(kind, 7) == pytest.approx(0.1 + np.arange(7) * (end - 0.1) / 7)

    def test_grid_rejects_bad_kind_and_count(self):
        with pytest.raises(ConfigError):
            dataset.param_grid("bogus")
        with pytest.raises(ConfigError):
            dataset.param_grid("ad", 0)

    def test_omega_grid_enumeration(self):
        grid = dataset.omega_grid()
        want = [round(0.01 * i, 2) for i in range(1, 21)] + [0.3, 0.4, 0.5]
        assert len(grid) == 23
        assert np.allclose(grid, want)
        assert len(np.unique(grid)) == 23


def features_at(ch, times):
    """A table row's features: the Bloch vectors of the evolved |+>, concatenated."""
    return ch.bloch_plus(times).reshape(-1)


class TestFeaturesAt:
    def test_time_zero_is_plus_state(self):
        for ch in (PhaseDamping(0.3), AmplitudeDamping(1.2)):
            feats = features_at(ch, (0.0,))
            assert np.abs(feats - [1.0, 0.0, 0.0]).max() < 1e-12

    def test_ad_features_formula(self):
        lam, t = 0.7, 3.0
        feats = features_at(AmplitudeDamping(lam), (t,))
        g = AmplitudeDamping(lam).coherence(t)
        assert np.abs(feats - [g, 0.0, g * g - 1.0]).max() < 1e-12

    def test_pd_features_formula(self):
        tau, nu = 0.5, 3.0
        feats = features_at(PhaseDamping(tau), (nu,))
        assert np.abs(feats - [PhaseDamping(tau).coherence(nu), 0.0, 0.0]).max() < 1e-12

    @pytest.mark.parametrize("ch", [AmplitudeDamping(0.37), AmplitudeDamping(2.6), PhaseDamping(0.41)])
    def test_closed_form_features_match_kraus_oracle(self, ch):
        # the closed-form Bloch vector against the Kraus map applied to |+>;
        # the two routes round differently, by up to a few ULP of 1
        times = (0.0, 0.5, 1.5, 3.0, 7.0)
        plus = qmath.ket2dm(qmath.KET_PLUS)
        want = []
        for t in times:
            if isinstance(ch, PhaseDamping):
                rho = oracles.pd_apply(plus, t, ch.tau)
            else:
                rho = oracles.ad_apply(plus, t, ch.lam)
            want += [np.trace(qmath.SIGMA_X @ rho).real, 0.0, (rho[0, 0] - rho[1, 1]).real]
        assert np.abs(features_at(ch, times) - want).max() <= 4e-16

    def test_driven_features_reduce_to_closed_form(self):
        lam = 0.8
        feats = features_at(DrivenAmplitudeDamping(lam, 0.0), (1.0, 2.0))
        g1, g2 = AmplitudeDamping(lam).coherence([1.0, 2.0])
        want = [g1, 0.0, g1 * g1 - 1.0, g2, 0.0, g2 * g2 - 1.0]
        assert np.abs(feats - want).max() < 1e-6

    def test_rejects_bad_times(self):
        with pytest.raises(ConfigError):
            dataset.generate("ad", times=(), count=2)
        with pytest.raises(ConfigError):
            dataset.generate("ad", times=(-1.0,), count=2)
        with pytest.raises(ConfigError):
            features_at(AmplitudeDamping(1.0), (-1.0,))


class TestGeneratePure:
    def test_ad_table(self):
        table = dataset.generate("ad", "entanglement", count=30)
        assert len(table) == 30
        lams = table.params[:, 0]
        assert np.array_equal(lams, dataset.param_grid("ad", 30))
        # weak-coupling rows are Markovian
        for i in np.flatnonzero(lams >= 2.0):
            assert table.targets[i] <= 1e-8
        # strong-coupling row target matches the measures route exactly
        assert table.targets[0] == measures.n_entanglement(AmplitudeDamping(lams[0])).value
        assert np.all(np.abs(table.features) <= 1.0 + 1e-12)

    def test_pd_table(self):
        table = dataset.generate("pd", "trace", count=25)
        assert len(table) == 25
        taus = table.params[:, 0]
        for i in np.flatnonzero(taus <= 0.25):
            assert table.targets[i] <= 1e-8
        for i in np.flatnonzero(taus > 0.26):
            assert table.targets[i] > 1e-8
        want = measures.n_trace_distance(PhaseDamping(float(taus[-1]))).value
        assert table.targets[-1] == want

    def test_regeneration_is_identical(self):
        a = dataset.generate("ad", "trace", count=10)
        b = dataset.generate("ad", "trace", count=10)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_injectivity_window(self):
        # at t_c = 1/gamma0 the O_x feature is strictly monotone in lambda
        table = dataset.generate("ad", "trace", times=(1.0,))
        ox = table.features[:, 0]
        assert np.all(np.diff(ox) < 0.0)


class TestGenerate:
    @pytest.mark.parametrize(
        "kind, omegas, time, column",
        [("ad", None, 3.0, "param_lambda"), ("pd", None, 1.5, "param_tau"),
         ("driven", (0.0,), 3.0, "param_lambda")],
    )
    def test_kind_defaults(self, kind, omegas, time, column):
        # the default tomography time and the parameter column come from KINDS
        table = dataset.generate(kind, count=2, omegas=omegas)
        assert table.schema.times == (time,) == (dataset.KINDS[kind].time,)
        assert table.schema.columns[-2:] == [column, "param_omega"]
        assert np.array_equal(table.params[:, 0], dataset.param_grid(kind, 2))
        assert np.array_equal(table.params[:, 1], [0.0, 0.0])


class TestGenerateDriven:
    def test_tiny_table_and_measure_consistency(self):
        table = dataset.generate("driven", times=(3.0,), count=2, omegas=(0.05,))
        assert len(table) == 2
        assert table.schema.times == (3.0,)
        assert np.all(table.targets >= 0.0)
        # one route: the library measure and driven_entanglement give the
        # row's target
        ch = DrivenAmplitudeDamping(float(table.params[0, 0]), 0.05)
        full = measures.n_entanglement(ch)
        assert full.grid_error >= 0.0
        assert table.targets[0] == full.value == measures.driven_entanglement(ch)[0].value
        # features at a time evaluated alone match the grid-free |+> route
        want = features_at(ch, (3.0,))
        assert np.abs(table.features[0] - want).max() < 1e-12
        # a driven table's times lie within the measure horizon, whatever its
        # drives, although a zero-drive row never runs the engine
        for omegas in ((0.05,), (0.0,)):
            with pytest.raises(ConfigError, match="horizon"):
                dataset.generate("driven", times=(3.0, 20.5), count=1, omegas=omegas)

    def test_zero_drive_rows_are_the_undriven_rows(self):
        # one route per row: a driven row without drive takes the closed form
        # of amplitude damping, bit for bit, with no grid error
        driven = dataset.generate("driven", times=(3.0, 6.0), count=7, omegas=(0.0,))
        undriven = dataset.generate("ad", times=(3.0, 6.0), count=7)
        assert np.array_equal(driven.targets, undriven.targets)
        assert np.array_equal(driven.features, undriven.features)
        assert np.array_equal(driven.grid_errors, np.zeros(7))
        # so does a drive below channels.DRIVE_CUT, and the cut itself drives
        for omega in (0.0, 1e-100, np.nextafter(channels.DRIVE_CUT, 0.0)):
            assert isinstance(dataset.make_channel("driven", 0.5, omega), AmplitudeDamping)
        for omega in (channels.DRIVE_CUT, np.nextafter(channels.DRIVE_CUT, 1.0)):
            assert isinstance(dataset.make_channel("driven", 0.5, omega), DrivenAmplitudeDamping)
        with pytest.raises(ConfigError, match="omega must be finite and >= 0"):
            dataset.make_channel("driven", 0.5, -1e-12)

    def test_rows_are_omega_major(self):
        table = dataset.generate("driven", times=(3.0,), count=2, omegas=(0.1, 0.2))
        assert np.allclose(table.params[:, 1], [0.1, 0.1, 0.2, 0.2])
        assert np.all(np.abs(table.features) <= 1.0 + 1e-9)

    def test_regeneration_is_identical(self):
        a = dataset.generate("driven", times=(3.0,), count=1, omegas=(0.15,))
        b = dataset.generate("driven", times=(3.0,), count=1, omegas=(0.15,))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_truncation_ladder_handles_strong_drive(self):
        # lambda = 0.1, omega = 0.5 trips the n_fock = 8 guard; the ladder
        # retries at a larger Fock space instead of failing
        table = dataset.generate("driven", times=(3.0,), count=1, omegas=(0.5,))
        assert len(table) == 1
        assert np.isfinite(table.features).all()

    def test_select_times(self):
        table = dataset.generate("driven", times=(3.0, 5.0), count=1, omegas=(0.1,))
        sub = dataset.select_times(table, (5.0,))
        assert sub.schema.times == (5.0,)
        assert np.array_equal(sub.features, table.features[:, 3:6])
        assert np.array_equal(sub.targets, table.targets)
        with pytest.raises(ConfigError):
            dataset.select_times(table, (4.0,))
        with pytest.raises(ConfigError, match="distinct"):
            dataset.select_times(table, (3.0, 3.0))

    def test_filter_omega(self):
        table = dataset.generate("driven", times=(3.0,), count=2, omegas=(0.1, 0.2))
        sub = dataset.filter_omega(table, 0.2)
        assert len(sub) == 2
        assert np.all(sub.params[:, 1] == 0.2)
        with pytest.raises(ConfigError):
            dataset.filter_omega(table, 0.33)


def toy_table(features, targets=None):
    features = np.asarray(features, dtype=float)
    n, d = features.shape
    assert d % 3 == 0
    schema = dataset.TableSchema("ad", "trace", tuple(3.0 + i for i in range(d // 3)))
    targets = np.zeros(n) if targets is None else np.asarray(targets, dtype=float)
    return dataset.DataTable(schema, features, targets, np.zeros((n, 2)))


class TestScaler:
    def test_two_point_standardization(self):
        table = toy_table([[1.0, 0.0, 1.0], [3.0, 1.0, 2.0]])
        scaler = dataset.scaler_fit(table)
        assert scaler.mean[0] == pytest.approx(2.0)
        assert scaler.scale[0] == pytest.approx(1.0)  # population convention
        out = scaler.transform(table.features)
        assert np.allclose(out[:, 0], [-1.0, 1.0])

    def test_fit_then_apply_centers_and_scales(self):
        rng = np.random.default_rng(0)
        table = toy_table(rng.uniform(-1, 1, size=(40, 3)))
        scaler = dataset.scaler_fit(table)
        out = scaler.transform(table.features)
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-10

    def test_constant_columns_are_centred_with_unit_scale(self):
        table = toy_table([[1.0, 2.0, 5.0], [1.0, 3.0, 5.0]])
        scaler = dataset.scaler_fit(table)
        assert scaler.scale[0] == 1.0 and scaler.scale[2] == 1.0
        out = scaler.transform(table.features)
        assert np.allclose(out[:, 0], 0.0)

    @pytest.mark.parametrize(
        "mean, scale",
        [([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan]), ([0.0, 0.0], [1.0, np.inf])],
    )
    def test_rejects_non_finite_entries(self, mean, scale):
        with pytest.raises(ConfigError):
            dataset.Scaler(np.array(mean), np.array(scale))


class TestDataTable:
    @pytest.mark.parametrize("target", [np.nan, np.inf, -0.5])
    def test_rejects_bad_targets(self, target):
        with pytest.raises(ConfigError):
            toy_table([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]], [0.1, target])

    def test_rejects_non_finite_features(self):
        with pytest.raises(ConfigError):
            toy_table([[1.0, 0.0, np.nan], [0.5, 0.0, 0.0]], [0.1, 0.2])

    @pytest.mark.parametrize("param", [np.nan, np.inf])
    def test_rejects_non_finite_params(self, param):
        table = toy_table([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]], [0.1, 0.2])
        params = table.params.copy()
        params[1, 0] = param
        with pytest.raises(ConfigError):
            dataset.DataTable(table.schema, table.features, table.targets, params)


class TestSplit:
    def test_sizes(self):
        table = toy_table(np.arange(30.0).reshape(10, 3))
        train, test = dataset.split(table, seed=1)
        assert len(train) == 7 and len(test) == 3

    def test_same_seed_identical(self):
        table = toy_table(np.arange(60.0).reshape(20, 3))
        a1, b1 = dataset.split(table, seed=5)
        a2, b2 = dataset.split(table, seed=5)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.features, b2.features)

    def test_union_is_original_multiset(self):
        rng = np.random.default_rng(1)
        table = toy_table(rng.standard_normal((17, 3)), rng.uniform(0, 1, 17))
        train, test = dataset.split(table, seed=3)
        merged = np.vstack([train.features, test.features])
        key = np.lexsort(merged.T)
        orig_key = np.lexsort(table.features.T)
        assert np.array_equal(merged[key], table.features[orig_key])


class TestTableIO:
    def test_roundtrip_exact(self, tmp_path):
        table = dataset.generate("ad", "entanglement", count=7)
        path = tmp_path / "t.csv"
        dataset.save_table(table, path, seed=11)
        back = dataset.load_table(path)
        assert back.schema == table.schema
        assert np.array_equal(back.features, table.features)
        assert np.array_equal(back.targets, table.targets)
        assert np.array_equal(back.params, table.params)

    def test_meta_records_horizon(self, tmp_path):
        path = tmp_path / "t.csv"
        dataset.save_table(dataset.generate("pd", "trace", count=3), path)
        meta = path.read_text().splitlines()[0].split()
        assert "horizon=20" in meta and measures.DEFAULT_T_MAX == 20.0

    def test_meta_records_driven_grid_error(self, tmp_path):
        # the largest stated error of the rows a driven table holds, also
        # after filter_omega; zero-drive rows take the exact closed form and
        # record 0, and pure tables record none
        table = dataset.generate("driven", times=(3.0,), count=2, omegas=(0.0, 0.05))
        errors = [
            measures.n_entanglement(dataset.make_channel("driven", lam, om)).grid_error
            for lam, om in table.params
        ]
        assert np.array_equal(table.grid_errors, errors)
        assert errors[:2] == [0.0, 0.0] and max(errors[2:]) > 0.0

        def meta(tab):
            dataset.save_table(tab, tmp_path / "t.csv")
            line = (tmp_path / "t.csv").read_text().splitlines()[0]
            return dict(item.split("=", 1) for item in line.split()[1:])

        assert float(meta(table)["grid_error"]) == max(errors)
        assert float(meta(dataset.filter_omega(table, 0.05))["grid_error"]) == max(errors[2:])
        assert "grid_error" not in meta(dataset.generate("ad", "entanglement", count=3))

    def test_driven_grid_error_survives_round_trip(self, tmp_path):
        # #meta holds the largest error, which a loaded table states for
        # every row; saving it again gives the same file
        table = dataset.generate("driven", times=(3.0,), count=2, omegas=(0.05,))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dataset.save_table(table, p1)
        back = dataset.load_table(p1)
        assert np.array_equal(back.grid_errors, np.full(2, table.grid_errors.max()))
        dataset.save_table(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        pure = tmp_path / "pure.csv"
        dataset.save_table(dataset.generate("ad", "entanglement", count=3), pure)
        assert dataset.load_table(pure).grid_errors is None
        stated = f"grid_error={table.grid_errors.max():.17g}"
        for bad in ("-1e-9", "nan", "inf", "x"):
            p2.write_text(p1.read_text().replace(stated, f"grid_error={bad}"))
            with pytest.raises(DataFormatError, match="#meta"):
                dataset.load_table(p2)

    def test_meta_param_must_match_channel(self, tmp_path):
        # a PD table is in tau: #meta param=lambda with a matching header is
        # refused, not loaded as a table of lambda
        path = tmp_path / "t.csv"
        dataset.save_table(dataset.generate("pd", "trace", count=3), path)
        text = path.read_text().replace(" param=tau ", " param=lambda ")
        path.write_text(text.replace("param_tau", "param_lambda"))
        with pytest.raises(DataFormatError, match="param=lambda"):
            dataset.load_table(path)

    def test_driven_trace_table_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        dataset.save_table(dataset.generate("driven", count=1, omegas=(0.0,)), path)
        path.write_text(path.read_text().replace(" measure=entanglement ", " measure=trace "))
        with pytest.raises(DataFormatError, match="entanglement"):
            dataset.load_table(path)

    def test_rewrite_is_byte_identical(self, tmp_path):
        table = dataset.generate("pd", "trace", count=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dataset.save_table(table, p1)
        dataset.save_table(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_header_rejected(self, tmp_path):
        table = dataset.generate("ad", "trace", count=3)
        path = tmp_path / "t.csv"
        dataset.save_table(table, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("ox_t1", "bogus")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError):
            dataset.load_table(bad)

    def test_truncated_row_rejected(self, tmp_path):
        table = dataset.generate("ad", "trace", count=3)
        path = tmp_path / "t.csv"
        dataset.save_table(table, path)
        text = path.read_text()
        truncated = tmp_path / "trunc.csv"
        truncated.write_text(text[: text.rfind(",")])
        with pytest.raises(DataFormatError):
            dataset.load_table(truncated)

    def test_header_is_schema_columns(self, tmp_path):
        table = dataset.generate("driven", times=(3.0, 6.0), count=1, omegas=[0.0])
        path = tmp_path / "t.csv"
        dataset.save_table(table, path)
        header = path.read_text().splitlines()[1]
        assert header == "target,ox_t1,oy_t1,oz_t1,ox_t2,oy_t2,oz_t2,param_lambda,param_omega"
        assert header.split(",") == table.schema.columns

    @pytest.mark.parametrize("keep", [0, 3, 29])
    def test_rows_short_of_meta_rejected(self, tmp_path, keep):
        path = tmp_path / "t.csv"
        dataset.save_table(dataset.generate("ad", "trace", count=30), path)
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(path.read_text().splitlines()[: 2 + keep]) + "\n")
        with pytest.raises(DataFormatError, match="rows=30"):
            dataset.load_table(cut)

    @pytest.mark.parametrize("rows", [None, "x", "4"])
    def test_meta_rows_key_required_and_checked(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        dataset.save_table(dataset.generate("ad", "trace", count=3), path)
        lines = path.read_text().splitlines()
        meta = [item for item in lines[0].split() if not item.startswith("rows=")]
        lines[0] = " ".join(meta + ([] if rows is None else [f"rows={rows}"]))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError):
            dataset.load_table(bad)

    @pytest.mark.parametrize("cells", [-1, 1])
    def test_every_row_one_cell_off_rejected(self, tmp_path, cells):
        # numpy reads a block whose rows are all one cell short (or long) as
        # a narrower (or wider) table; the width check refuses it
        path = tmp_path / "t.csv"
        dataset.save_table(dataset.generate("ad", "trace", count=3), path)
        lines = path.read_text().splitlines()
        rows = [",".join(ln.split(",")[:-1] if cells < 0 else [ln, "0"]) for ln in lines[2:]]
        path.write_text("\n".join(lines[:2] + rows) + "\n")
        with pytest.raises(DataFormatError, match="expected 6"):
            dataset.load_table(path)

    @pytest.mark.parametrize("cell", ["x", "", "#1", "1_0"])
    def test_non_numeric_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        dataset.save_table(dataset.generate("ad", "trace", count=3), path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = cell
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError):
            dataset.load_table(path)

    @pytest.mark.parametrize("times", ["nan", "inf", "3,nan", "-1"])
    def test_non_finite_or_negative_meta_times_rejected(self, tmp_path, times):
        path = tmp_path / "t.csv"
        dataset.save_table(dataset.generate("ad", "trace", count=3), path)
        path.write_text(path.read_text().replace(" times=3 ", f" times={times} "))
        with pytest.raises(DataFormatError, match="finite, non-negative"):
            dataset.load_table(path)

    def test_repeated_meta_times_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        dataset.save_table(dataset.generate("ad", "trace", times=(3.0, 5.0), count=3), path)
        path.write_text(path.read_text().replace(" times=3,5 ", " times=3,3 "))
        with pytest.raises(DataFormatError, match="distinct"):
            dataset.load_table(path)

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("target,ox_t1\n0,1\n")
        with pytest.raises(DataFormatError):
            dataset.load_table(path)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    data=hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(6)), elements=finite),
    times=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=1),
)
def test_table_round_trip_is_bit_exact(tmp_path_factory, data, times):
    # any finite float64 table, -0.0 and subnormals included, reads back bit
    # for bit; targets must be >= 0
    data[:, 0] = np.abs(data[:, 0])
    schema = dataset.TableSchema("ad", "trace", tuple(times))
    table = dataset.DataTable(schema, data[:, 1:4], data[:, 0], data[:, 4:])
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    dataset.save_table(table, path)
    # the rows are the per-cell formatting of the columns, in schema order
    want = [",".join("%.17g" % v for v in row) for row in data]
    assert path.read_text().splitlines()[2:] == want
    back = dataset.load_table(path)
    assert back.schema == schema
    for got, want in [
        (back.targets, table.targets), (back.features, table.features), (back.params, table.params)
    ]:
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


# values whose 17-digit text is easy to get wrong: the signed zero, the
# least subnormal, the largest float and integral floats
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
           3.0, -7.0, 2.0**53, 1e22, 0.1]


@settings(max_examples=100, deadline=None)
@given(
    block=hnp.arrays(
        np.float64,
        st.one_of(st.tuples(st.integers(0, 9)), st.tuples(st.integers(0, 9), st.integers(1, 6))),
        elements=st.one_of(finite, st.sampled_from(SPECIAL)),
    ),
    delimiter=st.sampled_from([",", " "]),
    header=st.sampled_from(["", "target,ox_t1", "#meta rows=3\ntarget,ox_t1"]),
)
def test_write_block_is_savetxt(block, delimiter, header):
    # one % call over the whole block writes what savetxt writes row by row
    want = io.StringIO()
    np.savetxt(want, block, fmt=dataset.FMT, delimiter=delimiter, header=header, comments="")
    got = io.StringIO()
    dataset.write_block(got, block, delimiter, header)
    assert got.getvalue() == want.getvalue()
