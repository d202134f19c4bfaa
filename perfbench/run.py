"""Benchmark of the nonmarkov command line: table generation, SVR training
and prediction, run in one process through `nonmarkov.cli.main`.

    python3 perfbench/run.py --workload pure-pipelines --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
A run repeats whole rounds of its workload until `--seconds` have passed,
then checks every output against the computations in `oracles.py`, outside
the timed region.  With `--trace 0` the last line of standard output is a
JSON object with the end-to-end metrics.  With `--trace 1` the run times one
untraced round, traces the rounds after it and reports per-layer metrics
instead.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# BLAS threads: at most two, fixed before numpy is first imported.
THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402

SETUP_LAUNCHES = 4  # timed launches of the command line before and again after the rounds
SETUP_CODE = "import sys; from nonmarkov.cli import main; sys.exit(main())"
DRIVEN_OMEGAS = (0.0, 0.05, 0.5)  # no drive, weak drive, and the Fock-ladder drive
LADDER_PAIR = (0.1, 0.5)  # the one pair of the slice that needs n_fock 12, not 8


@dataclass(frozen=True)
class Table:
    """One table of a workload: its `generate` flags and its checks."""

    tag: str
    channel: str  # "ad" | "pd" | "driven"
    flags: tuple[str, ...]
    count: int  # parameter grid size (couplings per drive for "driven")
    mae_gate: float | None  # test MAE bound of the acceptance suite

    @property
    def rows(self) -> int:
        return self.count * (len(DRIVEN_OMEGAS) if self.channel == "driven" else 1)


@dataclass(frozen=True)
class Workload:
    """Tables generated once per round, and `cycles` cycles per table of:
    train on the table, then `predicts` times predict the whole table with
    that model and predict `singles` of its rows one at a time.  Cycling
    spreads the short operations over many seconds of a shared machine whose
    speed changes from second to second (see README.md, Noise)."""

    name: str
    tables: tuple[Table, ...]
    cycles: int
    predicts: int
    singles: int
    recompute_rows: int = 0  # driven rows drawn by the seed for the propagator check


WORKLOADS = {
    "pure-pipelines": Workload(
        "pure-pipelines",
        (
            Table("ad", "ad", ("--measure", "entanglement", "--tc", "3"), 2900, 5e-3),
            Table("pd", "pd", ("--measure", "trace", "--tc", "1.5"), 4000, 5e-3),
        ),
        cycles=2,
        predicts=3,
        singles=170,
    ),
    "driven-pipeline": Workload(
        "driven-pipeline",
        (
            Table(
                "driven",
                "driven",
                ("--measure", "entanglement", "--tc", "3", "--tc2", "6",
                 "--omegas", ",".join(f"{om:g}" for om in DRIVEN_OMEGAS)),
                7,
                None,  # see README: the slice's test MAE is reported, not gated
            ),
        ),
        cycles=1200,
        predicts=2,
        singles=10,
        recompute_rows=2,
    ),
}


@dataclass
class Op:
    """One attempted operation; it fails on a non-zero exit or a failed check."""

    kind: str  # "generate" | "train" | "predict" | "single"
    table: Table
    csv: Path
    out: Path | None = None  # the table, model or prediction file written
    model: Path | None = None
    pred: Path | None = None  # batch predictions a single prediction must match
    split: int = -1  # train --seed of a fit
    row: int = -1
    value: float = 0.0
    failed: bool = False


@dataclass
class Round:
    ops: list = field(default_factory=list)
    timed_s: float = 0.0  # every timed call of the round, and nothing else
    generate_s: float = 0.0
    train_s: list = field(default_factory=list)  # per cycle, over all tables
    predict_s: list = field(default_factory=list)  # per cycle: one pass over all tables
    latencies_ns: list = field(default_factory=list)


def import_program():
    """The package under `src/`; exit 2, printing no result, if it is absent."""
    if not (SRC / "nonmarkov" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nonmarkov
    import nonmarkov.cli  # noqa: F401  (loads every module the tracer wraps)

    return nonmarkov


def cli(program, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return program.cli.main(argv)


def measure_setup(launches: int) -> list[float]:
    """Wall times of `nonmarkov --version` in fresh interpreters: the
    interpreter, numpy and nonmarkov imports and the argument parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SETUP_CODE, "--version"]
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def split_seed(seed: int, cycle: int) -> int:
    """The 70/30 split of a cycle's fit.  Each cycle fits another split drawn
    from the workload seed, so that train_s is an average over splits rather
    than the SMO iteration count of one split (which varies 10-fold over
    seeds on the 21-row driven table)."""
    return 1000 * seed + cycle


def run_round(program, work: Workload, seed: int, workdir: Path, r: int) -> Round:
    """Generate each table and run its first cycle at once, so that the short
    operations of the first table also sample the time the next table takes
    to generate; then run the remaining cycles."""
    rnd = Round(train_s=[0.0] * work.cycles, predict_s=[0.0] * work.cycles)
    rng = np.random.default_rng([seed, r])  # the rows predicted one at a time

    def cycle(tab: Table, csv: Path, feats: np.ndarray, c: int) -> None:
        model = workdir / f"r{r}-{tab.tag}-{c}.model"
        split = split_seed(seed, c)
        argv = ["train", "--data", str(csv), "--out", str(model), "--seed", str(split)]
        start = time.perf_counter()
        rc = cli(program, argv)
        elapsed = time.perf_counter() - start
        rnd.train_s[c] += elapsed
        rnd.timed_s += elapsed
        rnd.ops.append(Op("train", tab, csv, out=model, split=split, failed=rc != 0))
        loaded = None
        for k in range(work.predicts):
            pred = workdir / f"r{r}-{tab.tag}-{c}-{k}.pred"
            argv = ["predict", "--model", str(model), "--data", str(csv), "--out", str(pred)]
            start = time.perf_counter()
            rc = cli(program, argv)
            elapsed = time.perf_counter() - start
            rnd.predict_s[c] += elapsed / work.predicts
            rnd.timed_s += elapsed
            rnd.ops.append(Op("predict", tab, csv, out=pred, model=model, failed=rc != 0))

            # one tomography round in, one estimate out
            rows = rng.integers(0, len(feats), work.singles)
            values = []
            start = time.perf_counter()
            loaded = loaded or program.svr.load_model(model)
            for row in rows:
                x = feats[row]
                t0 = time.perf_counter_ns()
                values.append(program.svr.predict(loaded, x))
                rnd.latencies_ns.append(time.perf_counter_ns() - t0)
            rnd.timed_s += time.perf_counter() - start
            rnd.ops.extend(
                Op("single", tab, csv, model=model, pred=pred, row=int(row), value=v)
                for row, v in zip(rows, values)
            )

    tables = []
    for tab in work.tables:
        csv = workdir / f"r{r}-{tab.tag}.csv"
        argv = ["generate", "--channel", tab.channel, *tab.flags,
                "--count", str(tab.count), "--out", str(csv)]
        start = time.perf_counter()
        rc = cli(program, argv)
        elapsed = time.perf_counter() - start
        rnd.generate_s += elapsed
        rnd.timed_s += elapsed
        rnd.ops.append(Op("generate", tab, csv, out=csv, failed=rc != 0))
        tables.append((tab, csv, oracles.read_table(csv)["features"]))  # read untimed
        cycle(*tables[-1], 0)
    for c in range(1, work.cycles):
        for tab, csv, feats in tables:
            cycle(tab, csv, feats, c)
    return rnd


# ------------------------------------------------------------------ checks


class Checker:
    """Checks every operation's output; caches what all rounds share."""

    def __init__(self, work: Workload, seed: int):
        self.work = work
        self.seed = seed
        self.notes: list[str] = []
        self.complete = True  # False if an independent computation failed itself
        self.test_mae: dict = {}  # table tag -> test MAE of every fit
        self._files: dict = {}
        self._driven_refs: dict = {}
        self._kernel: dict = {}

    def _read(self, path: Path, reader):
        if path not in self._files:
            self._files[path] = reader(path)
        return self._files[path]

    def run(self, ops: list) -> None:
        for op in ops:
            if op.failed:
                self.notes.append(f"FAILED {op.kind} {op.csv.name}: non-zero exit")
                continue
            try:
                errors = getattr(self, op.kind)(op)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                errors = [f"unreadable output: {exc!r}"]
            except oracles.OracleError as exc:
                self.complete = False
                self.notes.append(f"UNCHECKED {op.kind} {op.csv.name}: {exc}")
                continue
            if errors:
                op.failed = True
                self.notes.append(f"FAILED {op.kind} {op.csv.name}: {'; '.join(errors[:3])}")

    def generate(self, op: Op) -> list[str]:
        tab = self._read(op.out, oracles.read_table)
        if op.table.channel == "driven":
            return self._driven_table(op.table, tab)
        return self._pure_table(op.table, tab)

    def _pure_table(self, spec: Table, tab: dict) -> list[str]:
        span = 2.9 if spec.channel == "ad" else 0.4
        grid = 0.1 + np.arange(spec.count) * (span / spec.count)
        if tab["params"].shape != (spec.count, 2) or not np.allclose(
            tab["params"], np.column_stack([grid, np.zeros(spec.count)]), rtol=1e-12, atol=0
        ):
            return [f"parameter column is not the {spec.count}-point grid"]
        rates = oracles.ad_rates if spec.channel == "ad" else oracles.pd_rates
        (tc,) = tab["times"]
        errors = []
        for param, feats, target in zip(grid, tab["features"], tab["targets"]):
            a, w2 = rates(param)
            ref = oracles.pure_features(a, w2, tc, spec.channel)
            if np.abs(feats - ref).max() > oracles.PURE_FEATURE_TOL:
                errors.append(f"features at {param:.6g} differ from the closed form")
            lo, hi = oracles.revival_band(a, w2)
            if not lo <= target <= hi:
                errors.append(f"target {target:.9g} at {param:.6g} outside [{lo:.9g}, {hi:.9g}]")
        return errors

    def _driven_table(self, spec: Table, tab: dict) -> list[str]:
        lams = 0.1 + np.arange(spec.count) * (2.9 / spec.count)
        grid = np.array([(lam, om) for om in DRIVEN_OMEGAS for lam in lams])
        if tab["params"].shape != grid.shape or not np.allclose(
            tab["params"], grid, rtol=1e-12, atol=0
        ):
            return ["parameter columns are not the coupling x drive grid"]
        times, feats, targets = tab["times"], tab["features"], tab["targets"]
        errors = []
        for (lam, om), f, y in zip(grid, feats, targets):
            if np.linalg.norm(f.reshape(-1, 3), axis=1).max() > 1.0 + oracles.BLOCH_TOL or y < 0:
                errors.append(f"unphysical row at lambda={lam:g}, omega={om:g}")
            if om == 0.0:
                a, w2 = oracles.ad_rates(lam)
                ref = np.concatenate([oracles.pure_features(a, w2, t, "ad") for t in times])
                if np.abs(f - ref).max() > oracles.DRIVEN_FEATURE_TOL:
                    errors.append(f"undriven features at lambda={lam:g} differ from G(t)")
                lo, hi = oracles.revival_band(a, w2)
                if not lo <= y <= hi:
                    errors.append(f"undriven target {y:.9g} at lambda={lam:g} outside the band")

        ladder = int(np.flatnonzero(np.all(np.isclose(grid, LADDER_PAIR), axis=1))[0])
        others = [i for i in range(len(grid)) if i != ladder]
        picks = np.random.default_rng([self.seed, 2]).choice(
            others, size=min(self.work.recompute_rows, len(others)), replace=False
        )
        for i in [ladder, *sorted(int(p) for p in picks)]:
            lam, om = (float(v) for v in grid[i])
            key = (lam, om, tuple(times))
            if key not in self._driven_refs:
                self._driven_refs[key] = oracles.driven_reference(lam, om, times)
            ref = self._driven_refs[key]
            if np.abs(feats[i] - ref["features"]).max() > oracles.DRIVEN_FEATURE_TOL:
                errors.append(f"features at ({lam:g}, {om:g}) differ from the propagator")
            if not ref["measure"] - ref["tol"] <= targets[i] <= ref["measure_long"] + ref["tol"]:
                errors.append(
                    f"target {targets[i]:.9g} at ({lam:g}, {om:g}) outside "
                    f"[{ref['measure']:.9g}, {ref['measure_long']:.9g}] +- {ref['tol']:.2e}"
                )
        return errors

    def _kernel_sum(self, model_path: Path, csv: Path):
        key = (model_path, csv)
        if key not in self._kernel:
            model = self._read(model_path, oracles.read_model)
            table = self._read(csv, oracles.read_table)
            self._kernel[key] = oracles.kernel_sum(model, table["features"])
        return self._kernel[key]

    def train(self, op: Op) -> list[str]:
        table = self._read(op.csv, oracles.read_table)
        errors = oracles.check_model(self._read(op.out, oracles.read_model), table, op.split)
        mae = oracles.test_mae(self._kernel_sum(op.out, op.csv)[0], table["targets"], op.split)
        self.test_mae.setdefault(op.table.tag, []).append(mae)
        if op.table.mae_gate is not None and not mae <= op.table.mae_gate:
            errors.append(f"test MAE {mae:.3e} above {op.table.mae_gate:g}")
        return errors

    def predict(self, op: Op) -> list[str]:
        values = self._read(op.out, oracles.read_values)
        expected, mag = self._kernel_sum(op.model, op.csv)
        if values.shape != expected.shape:
            return [f"{len(values)} predictions for {len(expected)} rows"]
        rel = float((np.abs(values - expected) / mag).max())
        if rel > oracles.PREDICT_REL_TOL:
            return [f"predictions differ from the kernel sum by {rel:.3e} (relative)"]
        return []

    def single(self, op: Op) -> list[str]:
        batch = self._read(op.pred, oracles.read_values)
        _, mag = self._kernel_sum(op.model, op.csv)
        if abs(op.value - batch[op.row]) > oracles.PREDICT_REL_TOL * mag[op.row]:
            return [f"single prediction of row {op.row} differs from its batch row"]
        return []


# -------------------------------------------------------------------- run


def run(work: Workload, seed: int, seconds: float, traced: bool, label: str) -> dict:
    """Run whole rounds for `seconds`, check them, and return the result."""
    program = import_program()
    if not traced:  # the first launch may write the bytecode cache, so is not kept
        setup_times = measure_setup(SETUP_LAUNCHES + 1)[1:]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{label}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer() if traced else None
    try:
        rounds = []
        baseline = None
        if traced:  # one untraced round for the overhead figure
            baseline = run_round(program, work, seed, workdir, 0)
            tracer.install(program)
        try:
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                rounds.append(run_round(program, work, seed, workdir, len(rounds) + 1))
        finally:
            if tracer:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not traced:
            setup_times += measure_setup(SETUP_LAUNCHES)

        checker = Checker(work, seed)
        ops = [op for rnd in ([baseline] if baseline else []) + rounds for op in rnd.ops]
        checker.run(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in checker.notes:
        print(note)
    for tag, maes in checker.test_mae.items():
        print(f"test MAE {tag}: median {np.median(maes):.4e}, max {max(maes):.4e} "
              f"over {len(maes)} fits")
    if traced:
        trace_path = OUT / f"trace-{label}-seed{seed}.json"
        tracer.write(trace_path, workload=work.name, seed=seed, rounds=len(rounds))
        print(f"trace: {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}")
        timed = sum(rnd.timed_s for rnd in rounds)
        overhead = timed / len(rounds) - baseline.timed_s
        metrics = tracer.layer_metrics(len(rounds), timed, overhead)
    else:
        # Means and ratios of totals, not medians: on a shared machine whole
        # seconds run at one of two speeds, and a median flips between them.
        rows = sum(tab.rows for tab in work.tables)
        lat_us = np.array([ns for rnd in rounds for ns in rnd.latencies_ns]) / 1e3
        train_s = [t for rnd in rounds for t in rnd.train_s]
        predict_s = [t for rnd in rounds for t in rnd.predict_s]
        print(
            f"predict_one_us: mean {lat_us.mean():.2f} median {np.median(lat_us):.2f} "
            f"p99 {np.percentile(lat_us, 99):.2f} over {len(lat_us)} samples; "
            f"rounds {len(rounds)}"
        )
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.fmean(rnd.timed_s for rnd in rounds), "s"),
            "table_rows_per_s": (
                rows * len(rounds) / sum(rnd.generate_s for rnd in rounds), "rows/s"),
            "train_s": (statistics.fmean(train_s), "s"),
            "predict_rows_per_s": (rows * len(predict_s) / sum(predict_s), "rows/s"),
            "predict_one_us": (float(lat_us.mean()), "us"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {
        "correct": checker.complete,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
