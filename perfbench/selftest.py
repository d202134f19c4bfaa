"""Self-test of the benchmark, in seconds rather than minutes.

    python3 perfbench/selftest.py

It checks that the independent computations reach exact limits, that the
checks reject a corrupted output, and that each workload runs end to end on
a tiny slice with no failed operation and every metric BENCHMARK.json names.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

import run  # sets the BLAS thread count before numpy loads

import numpy as np  # noqa: E402
import oracles  # noqa: E402

H = oracles.REF_SPACING
T = np.linspace(0.0, oracles.HORIZON, 20001)


def variation(values) -> float:
    return float(np.clip(np.diff(values), 0.0, None).sum())


def check_oracle_limits() -> None:
    # Markovian parameters (lambda >= 2 gamma0, tau <= 1/4): no revival at all
    for a, w2 in (oracles.ad_rates(2.0), oracles.ad_rates(2.5),
                  oracles.pd_rates(0.25), oracles.pd_rates(0.2)):
        assert oracles.revival_band(a, w2) == (0.0, oracles.ZERO_TARGET_TOL)
        assert variation(np.abs(oracles.damped_oscillation(T, a, w2))) <= 1e-12

    # the band holds the measure on a grid 100 times finer than the program's
    fine = np.linspace(0.0, oracles.HORIZON, 2_000_001)
    for a, w2 in (oracles.ad_rates(0.1), oracles.ad_rates(1.0),
                  oracles.pd_rates(0.3), oracles.pd_rates(0.476)):
        lo, hi = oracles.revival_band(a, w2)
        value = variation(np.abs(oracles.damped_oscillation(fine, a, w2)))
        assert lo <= value <= hi, (a, w2, lo, value, hi)
        assert value - lo < 1e-3 and hi > value  # the band is not vacuous

    # the independent propagator at zero drive is the closed form: O_x = G,
    # O_z = G^2 - 1, and the Bell-pair concurrence is |G|, which is also the
    # trace distance of the |+>, |-> pair, so N_E = N_D for amplitude damping
    a, w2 = oracles.ad_rates(0.3)
    g = oracles.damped_oscillation(T, a, w2)
    oracle = oracles.DrivenOracle(0.3, 0.0, 8)
    bell, plus, top = oracle.states(oracle.uniform(0.0, H, len(T)))
    obs = oracles.bloch(plus)
    assert np.abs(obs[:, 0] - g).max() < 1e-9 and np.abs(obs[:, 1]).max() < 1e-9
    assert np.abs(obs[:, 2] - (g * g - 1.0)).max() < 1e-9
    # the square-root route resolves the zero eigenvalues of these rank-2
    # states only to sqrt(machine epsilon), about 1e-8 in the concurrence
    conc = oracles.sqrt_concurrence(bell)
    assert np.abs(conc - np.abs(g)).max() < 1e-7
    assert abs(oracles.positive_variation(conc) - variation(np.abs(g))) < 1e-7
    assert top.max() < oracles.LEAK_TOL
    ref = oracles.driven_reference(0.3, 0.0, (3.0, 6.0))
    assert ref["n_fock"] == 8 and abs(ref["measure"] - variation(np.abs(g))) < 1e-7
    assert ref["measure"] <= ref["measure_long"]

    # the kernel sum by hand for a two-vector model
    model = {"gamma": 0.5, "mean": np.array([1.0]), "scale": np.array([2.0]),
             "intercept": 0.25, "beta": np.array([0.5, -0.5]), "sv": np.array([[0.0], [1.0]])}
    value, mag = oracles.kernel_sum(model, np.array([[3.0]]))  # scaled x = 1
    assert abs(value[0] - (0.5 * np.exp(-0.5) - 0.5 + 0.25)) < 1e-15
    assert abs(mag[0] - (0.5 * np.exp(-0.5) + 0.5 + 0.25)) < 1e-15


def tiny(work: run.Workload) -> run.Workload:
    """The workload on a slice small enough for seconds; no MAE gate, since
    the gates belong to the full grids."""
    counts = {"ad": 60, "pd": 80, "driven": 2}
    tables = tuple(replace(t, count=counts[t.channel], mae_gate=None) for t in work.tables)
    return replace(work, tables=tables, cycles=2, predicts=2, singles=5,
                   recompute_rows=min(work.recompute_rows, 1))


def check_workloads() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert per_layer == {name for name, _ in run.tracing.LAYER_METRICS}
    for name, work in run.WORKLOADS.items():
        for traced in (False, True):
            result = run.run(tiny(work), seed=3, seconds=0, traced=traced,
                             label=f"selftest-{name}")
            assert result["correct"] and result["failed"] == 0, result
            assert set(result["metrics"]) == (per_layer if traced else end_to_end)
            print(f"{name} traced={traced}: {result['attempted']} operations, none failed")
    (run.OUT / "trace-selftest-pure-pipelines-seed3.json").unlink()
    (run.OUT / "trace-selftest-driven-pipeline-seed3.json").unlink()


def caught(checker: run.Checker) -> bool:
    return any(note.startswith("FAILED") for note in checker.notes)


def check_corruption_is_caught() -> None:
    """A table whose target or feature moved past the tolerances fails."""
    program = run.import_program()
    work = tiny(run.WORKLOADS["pure-pipelines"])
    workdir = run.OUT / "selftest-corrupt"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        rnd = run.run_round(program, work, 3, workdir, 1)
        gen = next(op for op in rnd.ops if op.kind == "generate")
        lines = gen.out.read_text().splitlines()
        for col, delta in ((0, 1e-2), (1, 1e-9)):  # a target, then a feature
            cells = lines[20].split(",")
            cells[col] = repr(float(cells[col]) + delta)
            bad = workdir / f"bad{col}.csv"
            bad.write_text("\n".join(lines[:20] + [",".join(cells)] + lines[21:]) + "\n")
            checker = run.Checker(work, 3)
            checker.run([run.Op("generate", gen.table, bad, out=bad)])
            assert caught(checker), checker.notes
        train = next(op for op in rnd.ops if op.kind == "train")
        model = train.out
        text = model.read_text().splitlines()
        text[-1] = " ".join([repr(float(text[-1].split()[0]) * 1.5)] + text[-1].split()[1:])
        model.write_text("\n".join(text) + "\n")
        checker = run.Checker(work, 3)
        checker.run([train])
        assert caught(checker), checker.notes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    check_oracle_limits()
    print("oracle limits: ok")
    check_corruption_is_caught()
    print("corrupted outputs are caught: ok")
    check_workloads()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
