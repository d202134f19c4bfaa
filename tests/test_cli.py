import functools
import subprocess
import sys

import numpy as np
import pytest

from nonmarkov import cli, dataset, measures, svr
from nonmarkov.channels import DrivenAmplitudeDamping


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def ad_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ad.csv"
    code = run(
        "generate", "--channel", "ad", "--measure", "entanglement",
        "--tc", "3.0", "--count", "40", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def trained_model(ad_table, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "ad.model"
    code = run("train", "--data", str(ad_table), "--out", str(path), "--seed", "7")
    assert code == 0
    return path


class TestGenerate:
    def test_row_count_and_schema(self, ad_table):
        table = dataset.load_table(ad_table)
        assert len(table) == 40
        assert table.schema.channel == "ad"
        assert table.schema.times == (3.0,)

    def test_rerun_is_byte_identical(self, ad_table, tmp_path):
        other = tmp_path / "again.csv"
        assert run(
            "generate", "--channel", "ad", "--measure", "entanglement",
            "--tc", "3.0", "--count", "40", "--out", str(other),
        ) == 0
        assert other.read_bytes() == ad_table.read_bytes()

    def test_refuses_existing_output(self, ad_table, capsys):
        code = run(
            "generate", "--channel", "ad", "--measure", "entanglement",
            "--tc", "3.0", "--count", "5", "--out", str(ad_table),
        )
        assert code == cli.EXIT_IO

    def test_repeated_times_are_config_error(self, tmp_path):
        out = tmp_path / "dup.csv"
        code = run(
            "generate", "--channel", "ad", "--tc", "3", "--tc2", "3", "--count", "5",
            "--out", str(out),
        )
        assert code == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("channel", ["ad", "pd", "driven"])
    def test_zero_count_is_config_error(self, tmp_path, channel):
        # 0 is a grid size, not "use the default grid"
        out = tmp_path / "zero.csv"
        code = run("generate", "--channel", channel, "--count", "0", "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("channel", ["ad", "pd"])
    def test_drive_of_undriven_channel_is_config_error(self, tmp_path, channel):
        # a drive the table would not use is refused, not recorded in .config
        out = tmp_path / "x.csv"
        code = run(
            "generate", "--channel", channel, "--count", "3", "--omegas", "0.3", "--out", str(out)
        )
        assert code == cli.EXIT_CONFIG
        assert not out.exists() and not (tmp_path / "x.csv.config").exists()

    def test_driven_trace_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run(
            "generate", "--channel", "driven", "--measure", "trace", "--count", "1",
            "--omegas", "0", "--out", str(out),
        )
        assert code == cli.EXIT_CONFIG
        assert not out.exists() and not (tmp_path / "x.csv.config").exists()

    def test_missing_channel_is_config_error(self, tmp_path):
        code = run("generate", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_CONFIG

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("channel=pd\nmeasure=trace\ntc=3.0\ncount=30\n")
        out = tmp_path / "pd.csv"
        assert run("generate", "--config", str(cfg), "--count", "6", "--out", str(out)) == 0
        table = dataset.load_table(out)
        assert table.schema.channel == "pd" and len(table) == 6
        resolved = (tmp_path / "pd.csv.config").read_text()
        assert "count=6" in resolved and "channel=pd" in resolved

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("channel=ad\nbogus=1\n")
        assert run("generate", "--config", str(cfg), "--out", str(tmp_path / "y.csv")) == cli.EXIT_CONFIG

    def test_driven_tiny(self, tmp_path):
        out = tmp_path / "driven.csv"
        code = run(
            "generate", "--channel", "driven", "--tc", "3.0",
            "--count", "2", "--omegas", "0.1", "--out", str(out),
        )
        assert code == 0
        assert len(dataset.load_table(out)) == 2

    def test_driven_undriven_grid_through_critical_coupling(self, tmp_path):
        # the 29-coupling grid holds lambda = 0.1 + 19 * 0.1 = 2.0, the
        # exceptional point of the undriven generator.  A drive of 1e-100,
        # below channels.DRIVE_CUT, takes the closed form as a drive of 0
        # does, whose degenerate limit w -> 0 holds there: the tables differ
        # only in their drive column
        rows = {}
        for omega in ("1e-100", "0"):
            out = tmp_path / f"driven{omega}.csv"
            code = run(
                "generate", "--channel", "driven", "--tc", "3.0",
                "--count", "29", "--omegas", omega, "--out", str(out),
            )
            assert code == 0
            table = dataset.load_table(out)
            assert len(table) == 29
            assert np.isclose(table.params[19, 0], 2.0)
            rows[omega] = [ln.rsplit(",", 1)[0] for ln in out.read_text().splitlines()[1:]]
        assert rows["1e-100"] == rows["0"]
        # the engine, built undriven at that drive, against the closed form
        closed = dataset.load_table(tmp_path / "driven0.csv")
        assert closed.grid_errors.max() == 0.0
        results = [
            measures.driven_entanglement(DrivenAmplitudeDamping(lam, 1e-100), times=(3.0,))
            for lam in closed.params[:, 0]
        ]
        grid_errors = np.array([result.grid_error for result, _ in results])
        targets = np.array([result.value for result, _ in results])
        features = np.array([features for _, features in results])
        assert grid_errors.max() > 0.0
        assert np.abs(features - closed.features).max() < 1e-10
        assert np.abs(targets - closed.targets).max() <= grid_errors.max() + 1e-6

    def test_driven_times_past_horizon_without_drive(self, tmp_path):
        # the horizon rule of a driven table does not depend on its drives
        out = tmp_path / "late.csv"
        code = run(
            "generate", "--channel", "driven", "--omegas", "0", "--tc", "25",
            "--count", "2", "--out", str(out),
        )
        assert code == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_writes_model_report_and_config(self, ad_table, trained_model):
        model = svr.load_model(trained_model)
        assert len(model.dual_coefs) > 0
        text = open(str(trained_model) + ".report").read()
        assert "kkt_residual=" in text and "support_vectors=" in text
        assert "gap=" in text and "dual_objective=" in text
        assert "seed=7" in open(str(trained_model) + ".config").read()
        # the model embeds the scaler of its training split; no sidecar file
        train, _ = dataset.split(dataset.load_table(ad_table), seed=7)
        scaler = dataset.scaler_fit(train)
        assert np.array_equal(model.scaler.mean, scaler.mean)
        assert np.array_equal(model.scaler.scale, scaler.scale)
        assert sorted(p.name for p in trained_model.parent.iterdir()) == [
            "ad.model", "ad.model.config", "ad.model.report"
        ]

    def test_default_hyperparameters_are_svr_config(self, ad_table, tmp_path, monkeypatch):
        # no hyperparameter flag: the fit gets SvrConfig()'s defaults
        configs, fit = [], svr.fit

        def recording(x, y, config, scaler):
            configs.append(config)
            return fit(x, y, config, scaler)

        monkeypatch.setattr(svr, "fit", recording)
        assert run("train", "--data", str(ad_table), "--out", str(tmp_path / "m.model")) == 0
        assert configs == [svr.SvrConfig()]

    def test_report_states_kernel_rows(self, trained_model):
        report = dict(
            field.split("=", 1)
            for line in open(str(trained_model) + ".report").read().splitlines()[1:]
            for field in line.split(" ")
        )
        assert 0 < int(report["kernel_rows"]) <= int(report["rows_train"])

    @pytest.mark.parametrize("target", ["nan", "inf"])
    def test_non_finite_target_is_schema_error(self, ad_table, tmp_path, target):
        # the target cell of one row, then its param_lambda cell
        lines = ad_table.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        for column in (0, lines[1].split(",").index("param_lambda")):
            cells = lines[5].split(",")
            cells[column] = target
            bad.write_text("\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n")
            out = tmp_path / "m"
            assert run("train", "--data", str(bad), "--out", str(out)) == cli.EXIT_CONFIG
            assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("times", ["nan", "inf"])
    def test_non_finite_meta_time_is_schema_error(self, ad_table, tmp_path, times):
        bad = tmp_path / "bad.csv"
        bad.write_text(ad_table.read_text().replace(" times=3 ", f" times={times} ", 1))
        out = tmp_path / "m"
        assert run("train", "--data", str(bad), "--out", str(out)) == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "flag, value", [("--epsilon", "nan"), ("--epsilon", "inf"), ("--gamma", "inf")]
    )
    def test_non_finite_hyperparameter_is_config_error(self, ad_table, tmp_path, flag, value):
        out = tmp_path / "m"
        code = run("train", "--data", str(ad_table), "--out", str(out), flag, value)
        assert code == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    def test_same_seed_reproduces_model_bytes(self, ad_table, tmp_path):
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        assert run("train", "--data", str(ad_table), "--out", str(p1), "--seed", "3") == 0
        assert run("train", "--data", str(ad_table), "--out", str(p2), "--seed", "3") == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_dataset_is_schema_error(self, ad_table, tmp_path):
        lines = ad_table.read_text().splitlines()
        lines[1] = lines[1].replace("target", "bogus")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run("train", "--data", str(bad), "--out", str(tmp_path / "m")) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("count", ["2", "3"])
    def test_split_without_test_row_is_config_error(self, tmp_path, count):
        # ceil(0.7 n) = n for n <= 3: no row would be left to test on
        table = tmp_path / "tiny.csv"
        assert run("generate", "--channel", "ad", "--count", count, "--out", str(table)) == 0
        before = sorted(tmp_path.iterdir())
        assert run("train", "--data", str(table), "--out", str(tmp_path / "m")) == cli.EXIT_CONFIG
        assert sorted(tmp_path.iterdir()) == before

    def test_truncated_table_is_schema_error(self, tmp_path):
        table = tmp_path / "full.csv"
        assert run("generate", "--channel", "ad", "--count", "30", "--out", str(table)) == 0
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(table.read_text().splitlines()[: 2 + 3]) + "\n")
        before = sorted(tmp_path.iterdir())
        assert run("train", "--data", str(cut), "--out", str(tmp_path / "m")) == cli.EXIT_CONFIG
        assert sorted(tmp_path.iterdir()) == before

    def test_non_convergence_is_numeric_error(self, ad_table, tmp_path, capsys):
        code = run(
            "train", "--data", str(ad_table), "--out", str(tmp_path / "m"),
            "--max-iter", "1",
        )
        assert code == cli.EXIT_NUMERIC
        assert "gap m_up - m_low" in capsys.readouterr().err


class TestEvaluate:
    def test_own_test_split(self, ad_table, trained_model, tmp_path):
        out = tmp_path / "eval.csv"
        code = run(
            "evaluate", "--model", str(trained_model), "--data", str(ad_table),
            "--split", "test", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#meta mae=")
        assert lines[1] == "target,prediction,residual"
        targets = [float(ln.split(",")[0]) for ln in lines[2:]]
        assert targets == sorted(targets, reverse=True)
        table = dataset.load_table(ad_table)
        _, test = dataset.split(table, seed=7)
        assert len(targets) == len(test)

    def test_empty_dataset_is_explicit_error(self, trained_model, tmp_path, ad_table):
        lines = ad_table.read_text().splitlines()[:2]
        empty = tmp_path / "empty.csv"
        empty.write_text("\n".join(lines) + "\n")
        code = run(
            "evaluate", "--model", str(trained_model), "--data", str(empty),
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == cli.EXIT_CONFIG


class TestPredict:
    def test_batch_predictions_order_preserving(self, ad_table, trained_model, tmp_path):
        out = tmp_path / "pred.txt"
        code = run(
            "predict", "--model", str(trained_model), "--data", str(ad_table),
            "--out", str(out),
        )
        assert code == 0
        values = [float(v) for v in out.read_text().split()]
        table = dataset.load_table(ad_table)
        model = svr.load_model(trained_model)
        want = svr.predict(model, table.features)
        assert np.array_equal(values, want)
        assert (tmp_path / "pred.txt.config").exists()

    def test_empty_table_predicts_nothing(self, ad_table, trained_model, tmp_path, capsys):
        # a 0-row table gives an empty file and empty stdout, no blank line
        empty = tmp_path / "empty.csv"
        meta, header = ad_table.read_text().splitlines()[:2]
        empty.write_text(meta.replace(" rows=40 ", " rows=0 ") + "\n" + header + "\n")
        out = tmp_path / "pred.txt"
        argv = ["predict", "--model", str(trained_model), "--data", str(empty)]
        assert run(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == b""
        capsys.readouterr()
        assert run(*argv) == 0
        assert capsys.readouterr().out == ""

    def test_single_vector(self, trained_model, capsys):
        assert run("predict", "--model", str(trained_model), "--features", "0.5,0,-0.7") == 0
        out = capsys.readouterr().out.strip()
        float(out)

    @pytest.mark.parametrize(
        "line, value",
        [(0, "nonmarkov-svr v1 gamma nan"), (0, "nonmarkov-svr v1 gamma -3"), (5, "intercept nan")],
    )
    def test_invalid_model_values_are_schema_errors(self, trained_model, tmp_path, line, value):
        lines = trained_model.read_text().splitlines()
        assert lines[1] == "scaler 3" and lines[5].startswith("intercept ")
        lines[line] = value
        bad = tmp_path / "bad.model"
        bad.write_text("\n".join(lines) + "\n")
        code = run("predict", "--model", str(bad), "--features", "0.5,0,-0.7")
        assert code == cli.EXIT_CONFIG

    def test_non_finite_scaler_is_schema_error(self, trained_model, tmp_path):
        lines = trained_model.read_text().splitlines()
        lines[2] = lines[2].split()[0] + " nan"
        bad = tmp_path / "bad.model"
        bad.write_text("\n".join(lines) + "\n")
        code = run("predict", "--model", str(bad), "--features", "0.5,0,-0.7")
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("features", ["0.5,nan,-0.7", "inf,0,-0.7", "0.5,x,-0.7"])
    def test_non_finite_or_malformed_features_are_config_errors(
        self, trained_model, features, capsys
    ):
        code = run("predict", "--model", str(trained_model), "--features", features)
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_wrong_length_is_schema_error(self, trained_model):
        code = run("predict", "--model", str(trained_model), "--features", "0.5,0")
        assert code == cli.EXIT_CONFIG

    def test_requires_exactly_one_source(self, trained_model):
        assert run("predict", "--model", str(trained_model)) == cli.EXIT_CONFIG


class TestSweep:
    def test_single_point_measure_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", "--kind", "measure", "--channel", "ad",
            "--measure", "entanglement", "--lambdas", "2.5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[-1]) <= 1e-8

    def test_ox_trajectory_sweep(self, tmp_path):
        out = tmp_path / "ox.csv"
        code = run(
            "sweep", "--kind", "ox", "--channel", "ad", "--lambdas", "0.5,2.0",
            "--tmax", "2.0", "--points", "5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param_lambda,param_omega,t,ox,oy,oz"
        assert len(lines) == 1 + 2 * 5

    def test_driven_ox_sweep_climbs_fock_ladder(self, tmp_path):
        # (0.1, 0.5) leaks on every rung below n_fock = 12 by t = 20; the sweep
        # climbs to 12
        out = tmp_path / "ox_driven.csv"
        code = run(
            "sweep", "--kind", "ox", "--channel", "ad", "--lambdas", "0.1",
            "--omegas", "0.5", "--tmax", "20", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 500

    @pytest.mark.parametrize(
        "argv",
        [
            # below channels.DRIVE_CUT: the closed form, not an ill-conditioned engine
            ["generate", "--channel", "driven", "--count", "5", "--omegas", "1e-13", "--tc", "3"],
            ["sweep", "--kind", "measure", "--channel", "ad", "--lambdas", "1.5", "--omegas", "3e-15"],
            # lambda = 4: a threefold cluster, found by the block search
            ["sweep", "--kind", "measure", "--channel", "ad", "--lambdas", "4", "--omegas", "1e-4"],
        ],
        ids=["generate-1e-13", "sweep-3e-15", "sweep-lambda-4"],
    )
    def test_small_drives_and_exceptional_couplings_answer(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert run(*argv, "--out", str(out)) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert len(values) == (5 if argv[0] == "generate" else 1)
        assert np.isfinite(values).all()

    @pytest.mark.parametrize("points", ["0", "1", "-3"])
    def test_fewer_than_two_points_is_config_error(self, tmp_path, points):
        out = tmp_path / "ox.csv"
        code = run(
            "sweep", "--kind", "ox", "--channel", "ad", "--lambdas", "0.5",
            "--tmax", "2.0", "--points", points, "--out", str(out),
        )
        assert code == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, values",
        # an empty list is refused like a non-finite one
        [("--omegas", "nan"), ("--lambdas", "0.5,inf"), ("--lambdas", ""), ("--omegas", ",")],
    )
    def test_non_finite_parameters_are_config_errors(self, tmp_path, flag, values):
        out = tmp_path / "m.csv"
        argv = ["sweep", "--kind", "measure", "--channel", "ad", "--out", str(out)]
        argv += ["--lambdas", "0.5"] if flag == "--omegas" else []
        assert run(*argv, flag, values) == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "channel, params",
        [("ad", ["--lambdas", "0.5", "--taus", "0.3"]), ("ad", ["--taus", "0.3"]),
         ("pd", ["--taus", "0.3", "--lambdas", "0.5"]), ("pd", ["--lambdas", "0.5"])],
    )
    def test_parameter_of_the_other_channel_is_config_error(self, tmp_path, channel, params):
        # an AD sweep runs over --lambdas and a PD sweep over --taus; the
        # other channel's list is refused, not ignored
        out = tmp_path / "m.csv"
        code = run("sweep", "--kind", "measure", "--channel", channel, *params, "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("channel, params", [("ad", "--lambdas"), ("pd", "--taus")])
    @pytest.mark.parametrize("tmax", ["nan", "inf"])
    def test_non_finite_tmax_is_config_error(self, tmp_path, tmax, channel, params):
        out = tmp_path / "ox.csv"
        code = run(
            "sweep", "--kind", "ox", "--channel", channel, params, "0.5",
            "--tmax", tmax, "--out", str(out),
        )
        assert code == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    def test_overdamped_ox_sweep_is_finite(self, tmp_path):
        # at lambda = 800, exp(-a t) underflows and cosh(w t) overflows past
        # t = 1.75; the closed form takes their decaying exponentials apart
        out = tmp_path / "x.csv"
        code = run(
            "sweep", "--kind", "ox", "--channel", "ad", "--lambdas", "800",
            "--tmax", "5", "--points", "3", "--out", str(out),
        )
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.isfinite(rows).all() and (rows[1:, 3] > 0.0).all()

    @pytest.mark.parametrize(
        "channel, flag, value", [("ad", "--lambdas", "1e300"), ("pd", "--taus", "1e200")]
    )
    @pytest.mark.parametrize("kind", ["ox", "measure"])
    def test_overflowing_rates_are_config_errors(self, tmp_path, capsys, kind, channel, flag,
                                                 value):
        out = tmp_path / "x.csv"
        code = run("sweep", "--kind", kind, "--channel", channel, flag, value, "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert "rates of its coherence overflow" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "lambdas, message",
        [("0.5,1e300", "lambda = 1e+300 is too large"),
         ("0.5,-1,1e300", "lambda must be finite and > 0, got -1.0")],
    )
    def test_bad_coupling_among_good_ones_is_named(self, tmp_path, capsys, lambdas, message):
        # one check over every coupling refuses the first bad one, writing nothing
        out = tmp_path / "m.csv"
        argv = ["sweep", "--kind", "measure", "--channel", "ad", "--lambdas", lambdas]
        assert run(*argv, "--out", str(out)) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_driven_trace_sweep_refuses_before_any_row(self, tmp_path, capsys, monkeypatch):
        # a drive at or above channels.DRIVE_CUT has no trace measure: the
        # sweep refuses it once, before its closed-form rows are computed
        calls = []

        def recording(name, work):
            def call(*args, **kwargs):
                calls.append(name)
                return work(*args, **kwargs)

            return call

        for name in ("closed_form_rows", "driven_entanglement"):
            monkeypatch.setattr(measures, name, recording(name, getattr(measures, name)))
        out = tmp_path / "m.csv"
        argv = ["sweep", "--kind", "measure", "--channel", "ad", "--measure", "trace",
                "--lambdas", "0.5,3"]
        assert run(*argv, "--omegas", "0.1", "--out", str(out)) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "the trace-distance measure is not evaluated for the driven channel" in err
        assert calls == [] and list(tmp_path.iterdir()) == []
        # a drive below the cut takes the closed form, as zero drive does
        columns = []
        for omega in ("1e-100", "0"):
            out = tmp_path / f"m{omega}.csv"
            assert run(*argv, "--omegas", omega, "--out", str(out)) == 0
            columns.append([line.split(",")[-1] for line in out.read_text().splitlines()])
        assert columns[0] == columns[1] and len(columns[0]) == 3
        assert calls == ["closed_form_rows", "closed_form_rows"]

    @pytest.mark.parametrize(
        "channel, flag, value, want",
        # q = exp(-x), x = a pi / w, rounds to 1: no revival within the
        # horizon for the weak coupling, and (1 - e^-20) / x = 1.27e17 peaks
        # of height about 1 for the long memory
        [("ad", "--lambdas", "1e-40", 0.0),
         ("pd", "--taus", "1e17", -np.expm1(-20.0) * 4e17 / np.pi)],
    )
    def test_revival_sum_where_q_rounds_to_one(self, tmp_path, channel, flag, value, want):
        out = tmp_path / "m.csv"
        argv = ["sweep", "--kind", "measure", "--channel", channel, flag, value, "--out", str(out)]
        assert run(*argv) == 0
        got = float(out.read_text().splitlines()[1].split(",")[-1])
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_ox_curves_separated_by_critical_coupling(self, tmp_path):
        # at t = 1/gamma0 every lambda < 2 curve sits above the lambda = 2
        # one, every lambda > 2 curve below
        out = tmp_path / "sep.csv"
        code = run(
            "sweep", "--kind", "ox", "--channel", "ad",
            "--lambdas", "0.1,0.5,1.0,2.0,3.0,5.0",
            "--tmax", "2.0", "--points", "3", "--out", str(out),
        )
        assert code == 0
        at_t1 = {}
        for ln in out.read_text().splitlines()[1:]:
            lam, _, t, ox = (float(v) for v in ln.split(",")[:4])
            if t == 1.0:
                at_t1[lam] = ox
        ref = at_t1[2.0]
        for lam, ox in at_t1.items():
            if lam < 2.0:
                assert ox > ref
            elif lam > 2.0:
                assert ox < ref


def small_reproduce_grids(mp):
    """Shrink every reproduce pipeline so the orchestration itself can be
    exercised; the drive grid keeps the nonzero drives of figures 3 and 4."""
    generate = dataset.generate

    def small(kind, *args, **kwargs):  # 40-row pure tables
        if kind != "driven":
            kwargs["count"] = 40
        return generate(kind, *args, **kwargs)

    mp.setattr(dataset, "generate", small)
    mp.setattr(dataset, "omega_grid", lambda: np.array([0.01, 0.05, 0.09, 0.1, 0.2, 0.3, 0.5]))
    mp.setattr(cli, "REPRODUCE_SMOKE_LAMBDAS", 2)


class TestReproduce:
    @pytest.fixture(scope="class")
    def outdir(self, tmp_path_factory):
        with pytest.MonkeyPatch.context() as mp:
            small_reproduce_grids(mp)
            outdir = tmp_path_factory.mktemp("reproduce") / "repro"
            assert run("reproduce", "--out", str(outdir)) == 0
        return outdir

    def test_unconverged_fit_is_numeric_error(self, tmp_path, monkeypatch, capsys):
        # reproduce fits through train's route, which refuses a fit that did
        # not converge, rather than save its model
        small_reproduce_grids(monkeypatch)
        monkeypatch.setattr(svr, "SvrConfig", functools.partial(svr.SvrConfig, max_iter=1))
        assert run("reproduce", "--out", str(tmp_path / "repro")) == cli.EXIT_NUMERIC
        assert "gap m_up - m_low" in capsys.readouterr().err
        assert not list((tmp_path / "repro").glob("*.model"))
        # the failed run removes the directory it made, so a rerun fails the
        # same way rather than on a half-written directory
        assert not (tmp_path / "repro").exists()
        assert run("reproduce", "--out", str(tmp_path / "repro")) == cli.EXIT_NUMERIC
        assert not (tmp_path / "repro").exists()

    def test_smoke_orchestration(self, outdir):
        names = {p.name for p in outdir.iterdir()}
        assert {"fig1_ox.csv", "fig4_ne_vs_lambda.csv", "summary.txt", "config.txt"} <= names
        for tag in ("ad_trace", "ad_entanglement", "pd_trace", "pd_entanglement"):
            assert f"fig2_{tag}.csv" in names and f"fig2_{tag}.model" in names
        for tag in ("tc3", "tc5", "tc3_6", "tc5_10"):
            assert f"fig5_{tag}.csv" in names and f"fig5_{tag}.model" in names
        summary = (outdir / "summary.txt").read_text()
        assert summary.count("fig2") == 4 and summary.count("fig5") == 4
        assert run("reproduce", "--out", str(outdir)) == cli.EXIT_IO

    @pytest.mark.parametrize("lam", ["0.5", "1", "2", "3", "5"])  # oscillating, critical, decaying
    def test_fig1_is_the_ox_sweep(self, outdir, tmp_path, lam):
        # figure 1's O_x curve of one coupling, one row of its one array call,
        # is the ox sweep's, byte for byte
        sweep = tmp_path / "ox.csv"
        assert run(
            "sweep", "--kind", "ox", "--channel", "ad", "--lambdas", lam,
            "--tmax", "5", "--points", "501", "--out", str(sweep),
        ) == 0
        rows = [ln.split(",") for ln in sweep.read_text().splitlines()[1:]]
        want = [",".join([p, t, ox]) for p, _, t, ox, _, _ in rows]
        fig1 = (outdir / "fig1_ox.csv").read_text().splitlines()
        assert fig1[0] == "param_lambda,t,ox"
        assert [ln for ln in fig1[1:] if ln.split(",")[0] == lam] == want
        assert len(want) == 501

    def test_driven_figures_read_one_table(self, outdir, tmp_path):
        # figures 3 and 4 take their driven rows from the figure-5 table; they
        # are the rows generate and sweep compute on their own, byte for byte
        table = tmp_path / "fig3.csv"
        assert run(
            "generate", "--channel", "driven", "--tc", "3", "--omegas", "0.09",
            "--count", "2", "--out", str(table),
        ) == 0
        assert (outdir / "fig3_omega0.09.csv").read_bytes() == table.read_bytes()
        fig4 = (outdir / "fig4_ne_vs_lambda.csv").read_text().splitlines()
        assert len(fig4) == 1 + 6 * 2
        lam, omega, value = fig4[1 + 2 * 2 + 1].split(",")  # omega = 0.1, second coupling
        sweep = tmp_path / "sweep.csv"
        assert run(
            "sweep", "--kind", "measure", "--lambdas", lam, "--omegas", omega,
            "--out", str(sweep),
        ) == 0
        assert sweep.read_text().splitlines()[1] == ",".join([lam, omega, value])
        # its zero-drive rows, one array pass, are the undriven sweep's
        lams = [ln.split(",")[0] for ln in fig4[1:3]]
        sweep0 = tmp_path / "sweep0.csv"
        assert run("sweep", "--kind", "measure", "--lambdas", ",".join(lams), "--out", str(sweep0)) == 0
        assert sweep0.read_text().splitlines()[1:] == fig4[1:3]


class TestRefuseBeforeWork:
    """An existing sidecar (.config, .report) refuses the command with exit 4
    before any work, so the main output is never created."""

    def commands(self, ad_table, model, out):
        return {
            "generate": ["generate", "--channel", "ad", "--count", "5", "--out", out],
            "train": ["train", "--data", str(ad_table), "--out", out],
            "evaluate": ["evaluate", "--model", str(model), "--data", str(ad_table), "--out", out],
            "predict": ["predict", "--model", str(model), "--data", str(ad_table), "--out", out],
            "sweep": ["sweep", "--kind", "measure", "--lambdas", "0.5", "--out", out],
        }

    @pytest.mark.parametrize(
        "command, sidecar",
        [(cmd, ".config") for cmd in ("generate", "train", "evaluate", "predict", "sweep")]
        + [("train", ".report")],
    )
    def test_existing_sidecar_refuses_before_work(
        self, ad_table, trained_model, tmp_path, monkeypatch, command, sidecar
    ):
        for name in ("generate", "load_table"):  # work fails loudly
            monkeypatch.setattr(dataset, name, lambda *a, **k: pytest.fail("work started"))
        for name in ("closed_form_rows", "driven_entanglement"):
            monkeypatch.setattr(measures, name, lambda *a, **k: pytest.fail("work started"))
        monkeypatch.setattr(svr, "load_model", lambda *a, **k: pytest.fail("work started"))
        out = tmp_path / "out"
        (tmp_path / ("out" + sidecar)).write_text("keep\n")
        code = run(*self.commands(ad_table, trained_model, str(out))[command])
        assert code == cli.EXIT_IO
        assert not out.exists()
        assert (tmp_path / ("out" + sidecar)).read_text() == "keep\n"


class TestOneTargetRoute:
    """sweep --kind measure and generate give a row the same 17-digit target."""

    def sweep_value(self, tmp_path, lam, omega):
        out = tmp_path / f"sweep_{omega}.csv"
        assert run(
            "sweep", "--kind", "measure", "--channel", "ad", "--measure", "entanglement",
            "--lambdas", lam, "--omegas", omega, "--out", str(out),
        ) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 1
        return rows[0].split(",")[-1]

    def test_undriven_ad_row(self, ad_table, tmp_path):
        row = ad_table.read_text().splitlines()[2 + 3].split(",")
        assert float(row[-2]) == pytest.approx(0.1 + 3 * 2.9 / 40) and row[-1] == "0"
        assert self.sweep_value(tmp_path, row[-2], "0") == row[0]

    def test_zero_drive_driven_row(self, tmp_path):
        # a driven table's zero-drive row and the undriven sweep agree
        table = tmp_path / "driven0.csv"
        assert run(
            "generate", "--channel", "driven", "--count", "29", "--omegas", "0",
            "--out", str(table),
        ) == 0
        row = table.read_text().splitlines()[2 + 3].split(",")
        assert float(row[-2]) == pytest.approx(0.4) and row[-1] == "0"
        assert self.sweep_value(tmp_path, row[-2], "0") == row[0]

    def test_driven_row(self, tmp_path):
        table = tmp_path / "driven.csv"
        assert run(
            "generate", "--channel", "driven", "--count", "29", "--omegas", "0.1",
            "--out", str(table),
        ) == 0
        row = table.read_text().splitlines()[2 + 5].split(",")
        assert float(row[-2]) == pytest.approx(0.6) and row[-1] == "0.10000000000000001"
        assert self.sweep_value(tmp_path, row[-2], "0.1") == row[0]


class TestConfigFile:
    """A config file's key=value lines are flags of the same parser: they pass
    the same checks, and a flag on the command line wins."""

    @pytest.mark.parametrize(
        "command, lines",
        [
            ("generate", ["channel=ad", "count=abc"]),
            ("generate", ["channel=driven", "omegas="]),
            ("generate", ["channel=ad", "tc2=None", "omegas=None"]),  # sidecar of old versions
            ("sweep", ["kind=measure", "lambdas=0.5", "measure=banana"]),
            ("sweep", ["kind=measure", "lambdas=0.5", "channel=banana"]),
            ("sweep", ["kind=sideways", "lambdas=0.5"]),
            ("evaluate", ["model=m", "data=d", "split=half"]),
            ("train", ["data=d", "no_scale=ture"]),
            ("train", ["data=d", "max_iter=1.5"]),
            ("train", ["data=d", "seed=-1"]),
            ("generate", ["channel=ad", "config=other.cfg"]),
            ("generate", ["chan=ad"]),  # keys must spell a flag in full
            ("generate", ["channel=ad", "count"]),
            ("generate", ["count=5"]),  # --channel is required from either source
        ],
    )
    def test_bad_entry_is_config_error(self, tmp_path, capsys, command, lines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), "--out", str(out)) == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == [cfg]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("configuration error: ")

    def test_abbreviated_flag_is_config_error(self, tmp_path):
        code = run("generate", "--chan", "ad", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text, scaled", [("true", False), ("no", True), ("1", False)])
    def test_boolean_values(self, ad_table, tmp_path, text, scaled):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no-scale={text}\n")
        out = tmp_path / "m"
        assert run("train", "--config", str(cfg), "--data", str(ad_table), "--out", str(out)) == 0
        assert f"standardized={scaled}" in (tmp_path / "m.report").read_text()

    def test_bare_flag_is_true(self, ad_table, tmp_path):
        out = tmp_path / "m"
        assert run("train", "--data", str(ad_table), "--no-scale", "--out", str(out)) == 0
        assert "standardized=False" in (tmp_path / "m.report").read_text()

    def commands(self, ad_table, model):
        return {
            "generate": ["generate", "--channel", "ad", "--measure", "trace",
                         "--tc", "2.5", "--tc2", "4", "--count", "8"],
            "train": ["train", "--data", str(ad_table), "--seed", "3", "--gamma", "0.7",
                      "--no-scale", "--max-iter", "90000"],
            "evaluate": ["evaluate", "--model", str(model), "--data", str(ad_table),
                         "--split", "test", "--seed", "7"],
            "predict": ["predict", "--model", str(model), "--data", str(ad_table)],
            "predict-features": ["predict", "--model", str(model), "--features", "0.3,0,-0.7"],
            "sweep": ["sweep", "--kind", "measure", "--lambdas", "0.5,2.5",
                      "--omegas", "0,0.1"],
        }

    @pytest.mark.parametrize(
        "command", ["generate", "train", "evaluate", "predict", "predict-features", "sweep"]
    )
    def test_sidecar_reruns_byte_identical(self, ad_table, trained_model, tmp_path, command):
        argv = self.commands(ad_table, trained_model)[command]
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(*argv, "--out", str(first)) == 0
        sidecar = tmp_path / "first.config"
        assert run(argv[0], "--config", str(sidecar), "--out", str(again)) == 0
        assert again.read_bytes() == first.read_bytes()
        assert (tmp_path / "again.config").read_text() == sidecar.read_text().replace(
            f"out={first}", f"out={again}"
        )
        assert "None" not in sidecar.read_text()
        if command == "train":
            assert (tmp_path / "again.report").read_bytes() == (
                tmp_path / "first.report"
            ).read_bytes()


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nonmarkov.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_config_from_process_arguments(self, tmp_path):
        # main(argv=None) reads sys.argv; a flag overrides the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# pure dephasing\nchannel=pd\nmeasure=trace\ncount=9\n")
        out = tmp_path / "pd.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nonmarkov.cli", "generate", "--config", str(cfg),
             "--count", "4", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        table = dataset.load_table(out)
        assert table.schema.channel == "pd" and len(table) == 4


class TestOneParser:
    """main parses every call with the parser built at import; no call leaves
    anything in it for the next one."""

    def test_main_never_rebuilds_the_parser(self, ad_table, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        table, model = tmp_path / "t.csv", tmp_path / "m"
        assert run("generate", "--channel", "pd", "--count", "8", "--out", str(table)) == 0
        assert run("train", "--data", str(ad_table), "--out", str(model)) == 0
        assert run("predict", "--model", str(model), "--data", str(ad_table),
                   "--out", str(tmp_path / "p")) == 0

    def test_command_function_is_looked_up_per_call(self, trained_model, monkeypatch, capsys):
        # a function put in place of cmd_<name> after import is the one run,
        # as a tracer's wrapper must be
        calls, predict = [], cli.cmd_predict
        monkeypatch.setattr(cli, "cmd_predict", lambda args: calls.append(args) or predict(args))
        assert run("predict", "--model", str(trained_model), "--features", "0.3,0,-0.7") == 0
        assert len(calls) == 1 and calls[0].features == (0.3, 0.0, -0.7)
        assert float(capsys.readouterr().out) == svr.predict(
            svr.load_model(trained_model), np.array([0.3, 0.0, -0.7])
        )

    def test_no_option_leaks_into_the_next_call(self, ad_table, tmp_path):
        def resolved(name):
            lines = (tmp_path / f"{name}.config").read_text().splitlines()[1:]
            return dict(line.split("=", 1) for line in lines)

        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol=0.01\nmax_iter=90000\n")
        data = ["--data", str(ad_table)]
        assert run("train", *data, "--cost", "5", "--out", str(tmp_path / "cost")) == 0
        assert run("train", "--config", str(cfg), *data, "--out", str(tmp_path / "tol")) == 0
        assert run("train", *data, "--out", str(tmp_path / "plain")) == 0
        assert resolved("cost")["cost"] == "5.0"
        assert (resolved("tol")["tol"], resolved("tol")["max_iter"]) == ("0.01", "90000")
        defaults = svr.SvrConfig()
        plain = resolved("plain")
        assert plain["cost"] == str(defaults.C) and plain["tol"] == str(defaults.tol)
        assert plain["epsilon"] == str(defaults.epsilon)
        assert plain["gamma"] == str(defaults.kernel_gamma)
        assert plain["max_iter"] == str(defaults.max_iter)
        assert plain["seed"] == str(dataset.DEFAULT_SEED) and plain["no_scale"] == "False"

    def test_call_after_a_parse_error(self, tmp_path, capsys):
        out = tmp_path / "pd.csv"
        assert run("generate", "--channel", "pd", "--count", "x", "--out", str(out)) == 2
        assert run("generate", "--channel", "pd", "--count", "4", "--out", str(out)) == 0
        assert len(dataset.load_table(out)) == 4
        assert "configuration error: " in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run("--version")
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == cli.__version__ + "\n"
