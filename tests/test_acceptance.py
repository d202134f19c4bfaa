"""Acceptance suite: one test per criterion, each printing a pass line.

The driven-channel criteria run the sanctioned smoke configuration by default
(29 couplings per drive strength, mean-error gate 2e-2); set
NONMARKOV_ACCEPT_FULL=1 for the paper-scale grids (290 couplings per drive
strength; about 80 s on one core with one BLAS thread, 60 s of it the
6 670-row driven superset, against about 20 s at the smoke grids).

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import os
import time

import numpy as np
import pytest

from nonmarkov import channels, cli, dataset, measures, qmath, svr
from nonmarkov.channels import AmplitudeDamping, DrivenAmplitudeDamping, PhaseDamping

import oracles

FULL = os.environ.get("NONMARKOV_ACCEPT_FULL", "") == "1"
N_DRIVEN = dataset.KINDS["driven"].count if FULL else 29
SEED = dataset.DEFAULT_SEED
CONFIG = svr.SvrConfig()


def _pipeline(table, standardize=True):
    # the fit route of train and reproduce: split, scale and fit, with a
    # NumericError for a fit that does not converge
    model, train, test = cli._train_pipeline(table, CONFIG, SEED, standardize)
    assert model.converged
    err = svr.mae(svr.predict(model, test.features), test.targets)
    return {
        "model": model,
        "features_train": train.features,
        "y_train": train.targets,
        "table": table,
        "mae": err,
    }


@pytest.fixture(scope="session")
def pure_pipelines():
    out = {}
    for ch in ("ad", "pd"):
        for meas in ("trace", "entanglement"):
            out[(ch, meas)] = _pipeline(dataset.generate(ch, meas))
    return out


@pytest.fixture(scope="session")
def driven_superset():
    t0 = time.time()
    table = dataset.generate("driven", times=(3.0, 5.0, 6.0, 10.0), count=N_DRIVEN)
    print(
        f"\n[setup] driven superset: {len(table)} rows "
        f"({'full' if FULL else 'smoke'} grid) in {time.time() - t0:.0f} s"
    )
    return table


@pytest.fixture(scope="session")
def driven_pipelines(driven_superset):
    out = {}
    for tag, times in (
        ("tc3", (3.0,)),
        ("tc5", (5.0,)),
        ("tc3+6", (3.0, 6.0)),
        ("tc5+10", (5.0, 10.0)),
    ):
        out[tag] = _pipeline(dataset.select_times(driven_superset, times))
    return out


def test_criterion_1_analytic_thresholds():
    for tau in np.round(np.arange(0.10, 0.2401, 0.02), 10):
        assert measures.n_trace_distance(PhaseDamping(tau)).value <= 1e-8
        assert measures.n_entanglement(PhaseDamping(tau)).value <= 1e-8
    for tau in np.round(np.arange(0.30, 0.5001, 0.02), 10):
        assert measures.n_trace_distance(PhaseDamping(tau)).value > 1e-3
        assert measures.n_entanglement(PhaseDamping(tau)).value > 1e-3
    for lam in (2.0, 2.5, 3.0):
        assert measures.n_entanglement(AmplitudeDamping(lam)).value <= 1e-8
    for lam in (0.1, 0.5, 1.0):
        assert measures.n_entanglement(AmplitudeDamping(lam)).value > 1e-3
    print("[PASS] criterion 1: analytic Markovian/non-Markovian thresholds")


def test_criterion_2_integrator_oracle():
    grid = channels.TimeGrid(20.0, 20000)
    plus = (qmath.ket2dm(qmath.KET_PLUS), "plus")
    worst = 0.0
    for lam in (0.3, 1.0, 2.5):
        # one guarded evolver; a zero-drive pair holds at most one excitation,
        # so it never reaches the top level of n_fock = 4, the first rung of
        # channels.FOCK_LADDER, and each runs at 4
        ch = DrivenAmplitudeDamping(lam, omega=0.0)
        out = channels._evolver(ch, [plus], grid.t_max)[0](grid)
        g = AmplitudeDamping(lam).coherence(grid.values)
        want = np.empty_like(out)
        want[:, 0, 0] = 0.5 * g**2
        want[:, 0, 1] = 0.5 * g
        want[:, 1, 0] = 0.5 * g
        want[:, 1, 1] = 1.0 - 0.5 * g**2
        worst = max(worst, float(np.abs(out - want).max()))
    assert worst < 1e-6
    print(f"[PASS] criterion 2: integrator matches closed form, max dev {worst:.2e}")


def test_criterion_3_measure_crosscheck():
    worst = 0.0
    for lam in np.linspace(0.1, 2.9, 10):
        d = measures.n_trace_distance(AmplitudeDamping(lam)).value
        e = measures.n_entanglement(AmplitudeDamping(lam)).value
        worst = max(worst, abs(d - e))
    assert worst < 1e-8
    print(f"[PASS] criterion 3: N_D = N_E for undriven AD, max gap {worst:.2e}")


def test_criterion_4_pure_regression(pure_pipelines):
    for key, run in pure_pipelines.items():
        assert run["mae"] <= 5e-3, f"{key}: MAE {run['mae']:.3e}"
    assert (
        pure_pipelines[("pd", "trace")]["mae"] < pure_pipelines[("ad", "trace")]["mae"]
    )
    assert (
        pure_pipelines[("pd", "entanglement")]["mae"]
        < pure_pipelines[("ad", "entanglement")]["mae"]
    )
    summary = " ".join(
        f"{ch}-{meas}={run['mae']:.1e}" for (ch, meas), run in pure_pipelines.items()
    )
    print(f"[PASS] criterion 4: pure-channel pipelines, test MAE {summary}")


def test_criterion_5_mismatch_degradation(pure_pipelines, driven_superset):
    model = pure_pipelines[("ad", "entanglement")]["model"]
    t3 = dataset.select_times(driven_superset, (3.0,))
    errs = []
    for om in (0.01, 0.05, 0.09, 0.20):
        sub = dataset.filter_omega(t3, om)
        errs.append(svr.mae(svr.predict(model, sub.features), sub.targets))
    assert all(a < b for a, b in zip(errs[:-1], errs[1:])), errs
    assert errs[0] <= 1e-2
    assert errs[-1] >= 0.1
    print(
        "[PASS] criterion 5: mismatch degradation, MAE "
        + " ".join(f"{e:.2e}" for e in errs)
    )


def test_criterion_6_drive_aware(driven_pipelines, driven_superset):
    # strong drive suppresses memory effects: the published trend point
    row = (np.abs(driven_superset.params[:, 0] - 0.3) < 1e-9) & (
        driven_superset.params[:, 1] == 0.5
    )
    assert driven_superset.targets[row].max() < 0.05

    limit_single = 1e-2 if FULL else 2e-2
    limit_pair = 5e-3 if FULL else 2e-2
    maes = {tag: run["mae"] for tag, run in driven_pipelines.items()}
    assert maes["tc3"] <= limit_single, maes
    assert maes["tc5"] > maes["tc3"], maes
    assert maes["tc3+6"] <= limit_pair and maes["tc3+6"] < maes["tc3"], maes
    assert maes["tc5+10"] <= limit_pair and maes["tc5+10"] < maes["tc5"], maes
    summary = " ".join(f"{tag}={err:.1e}" for tag, err in maes.items())
    print(f"[PASS] criterion 6: drive-aware regression, test MAE {summary}")


def test_criterion_7_solver_correctness(pure_pipelines, driven_pipelines):
    tight = svr.SvrConfig(tol=1e-8, kernel_gamma=0.7)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((10, 3))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(10)
        model = svr.fit(x, y, tight)
        got = oracles.dual_objective(model, x, y, tight)
        kern = svr.rbf_gram(x, x, 0.7)
        want = oracles.projected_gradient_svr_dual(kern, y, tight.C, tight.epsilon)
        worst = max(worst, abs(got - want))
    assert worst < 1e-6

    worst_kkt = 0.0
    for run in list(pure_pipelines.values()) + list(driven_pipelines.values()):
        decision = svr.predict(run["model"], run["features_train"])
        viol = svr.kkt_violations(run["model"], decision, run["y_train"], CONFIG)
        worst_kkt = max(worst_kkt, float(viol.max()))
    assert worst_kkt <= CONFIG.tol
    print(
        f"[PASS] criterion 7: dual objective within {worst:.2e} of the QP oracle; "
        f"KKT residual of fitted models {worst_kkt:.2e}"
    )


def test_criterion_8_standardization_direction(pure_pipelines):
    scaled_run = pure_pipelines[("ad", "entanglement")]
    raw_run = _pipeline(scaled_run["table"], standardize=False)
    scaled, raw = scaled_run["mae"], raw_run["mae"]
    gammas = (
        f"gamma raw {raw_run['model'].kernel_gamma:.4g}, "
        f"scaled {scaled_run['model'].kernel_gamma:.4g}"
    )
    assert raw >= scaled, f"raw MAE {raw:.4e} < scaled {scaled:.4e} ({gammas})"
    print(
        f"[PASS] criterion 8: disabling the scaler does not help "
        f"(raw {raw:.2e} >= scaled {scaled:.2e}; {gammas})"
    )
