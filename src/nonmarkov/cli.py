"""Command-line orchestration: dataset generation, training, evaluation,
prediction, parameter sweeps, and the figure-reproduction meta-command.

Every option is declared once, in build_parser, which runs once, when the
module is imported: main parses every call with that one parser, which
parse_args leaves as it found it.  A --config file holds key=value lines;
each becomes the flag --key=value in front of the command's own flags, so
one parser checks both and a flag wins.  Every command writes its resolved
options next to its outputs, in the same key=value form, and refuses to
overwrite existing paths.  Exit codes: 0 success, 2 configuration/schema
error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import numpy as np

from . import __version__, channels, dataset, svr
from .dataset import FMT
from .errors import ConfigError, DataFormatError, NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

REPRODUCE_SMOKE_LAMBDAS = 29  # coarse coupling grid for the default reproduce run


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values or not np.isfinite(values).all():
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _gamma_arg(text: str):
    if text == "scale":
        return "scale"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'scale', got {text!r}")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:  # numpy's generators take no negative seed
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _bool(text: str) -> bool:
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"expected one of {'/'.join(_BOOLS)}, got {text!r}")


def _config_tokens(path) -> list[str]:
    """The key=value lines of a config file as --key=value flags."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for ln_no, ln in enumerate(fh, 1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, sep, val = ln.partition("=")
            key = key.strip().replace("_", "-")
            if not sep or key == "config":
                raise ConfigError(f"{path}:{ln_no}: expected key=value of an option, got {ln!r}")
            tokens.append(f"--{key}={val.strip()}")
    return tokens


def _with_config(argv: list[str]) -> list[str]:
    """argv with the flags of each --config file put after the command name
    and before the command's own flags, which the parser reads later and so
    win."""
    tokens = []
    for i, arg in enumerate(argv[1:], 1):
        if arg.startswith("--config="):
            tokens += _config_tokens(arg[len("--config="):])
        elif arg == "--config" and i + 1 < len(argv):
            tokens += _config_tokens(argv[i + 1])
    return argv[:1] + tokens + argv[1:]


def _fresh(path, *suffixes) -> str:
    """path, once it and every path + suffix are free to create."""
    path = str(path)
    for claimed in [path] + [path + suffix for suffix in suffixes]:
        if os.path.exists(claimed):
            raise FileExistsError(f"output path exists, refusing to overwrite: {claimed}")
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise FileNotFoundError(f"output directory does not exist: {parent}")
    return path


def _write_csv(path, header: str, rows) -> None:
    """header, then each row of numbers as one line at 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        dataset.write_block(fh, rows, ",", header)


def _write_resolved(args: argparse.Namespace, path) -> None:
    """The options a command ran with, as --config input; unset ones are left
    out."""
    lines = [f"# resolved configuration (nonmarkov {__version__})"]
    resolved = vars(args)
    for key in sorted(resolved):
        val = resolved[key]
        if val is None or key in ("command", "config"):
            continue
        if isinstance(val, tuple):
            val = ",".join(FMT % v if isinstance(v, float) else str(v) for v in val)
        lines.append(f"{key}={val}")
    with open(_fresh(path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- generate


def cmd_generate(args) -> int:
    if args.tc is None:
        args.tc = dataset.KINDS[args.channel].time
    out = _fresh(args.out, ".config")
    times = (args.tc,) if args.tc2 is None else (args.tc, args.tc2)
    table = dataset.generate(args.channel, args.measure, times, args.count, args.omegas)
    dataset.save_table(table, out, seed=args.seed)
    _write_resolved(args, out + ".config")
    t = table.targets
    print(
        f"wrote {out}: rows={len(table)} target_min={t.min():.6g} "
        f"target_mean={t.mean():.6g} target_max={t.max():.6g}"
    )
    return EXIT_OK


# ------------------------------------------------------------------- train


def _train_pipeline(table, config, seed, standardize):
    """Split, scale and fit; a fit that did not converge is a NumericError."""
    train, test = dataset.split(table, seed=seed)
    if len(test) == 0:
        raise ConfigError(f"a {len(table)}-row table leaves no row to test on after the split")
    if standardize:
        scaler = dataset.scaler_fit(train)
    else:
        scaler = dataset.Scaler.identity(table.schema.n_features)
    x_train = scaler.transform(train.features)
    model = svr.fit(x_train, train.targets, config, scaler)
    if not model.converged:
        raise NumericError(
            f"SMO did not converge within {config.max_iter} iterations: "
            f"gap m_up - m_low {model.gap:.6e} >= tol {FMT % config.tol}"
        )
    return model, train, test


def cmd_train(args) -> int:
    out = _fresh(args.out, ".report", ".config")
    table = dataset.load_table(args.data)
    config = svr.SvrConfig(
        C=args.cost,
        epsilon=args.epsilon,
        tol=args.tol,
        kernel_gamma=args.gamma,
        max_iter=args.max_iter,
    )
    model, train, test = _train_pipeline(table, config, args.seed, not args.no_scale)
    svr.save_model(model, out)
    # one pass of the stored support vectors over the training rows serves
    # both the KKT certificate and the training error
    f_train = svr.predict(model, train.features)
    kkt = float(svr.kkt_violations(model, f_train, train.targets, config).max())
    mae_train = svr.mae(f_train, train.targets)
    mae_test = svr.mae(svr.predict(model, test.features), test.targets)
    report = [
        f"nonmarkov train report (version {__version__})",
        f"data={args.data}",
        f"rows_train={len(train)} rows_test={len(test)} split_seed={args.seed}",
        f"epsilon={FMT % config.epsilon} cost={FMT % config.C} "
        f"tol={FMT % config.tol} gamma={FMT % model.kernel_gamma}",
        f"standardized={not args.no_scale}",
        f"iterations={model.n_iter}",
        f"kernel_rows={model.kernel_rows}",
        f"support_vectors={len(model.dual_coefs)}",
        f"gap={model.gap:.6e}",
        f"dual_objective={FMT % model.dual_objective}",
        f"kkt_residual={kkt:.6e}",
        f"mae_train={mae_train:.6e}",
        f"mae_test={mae_test:.6e}",
    ]
    with open(_fresh(out + ".report"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report) + "\n")
    _write_resolved(args, out + ".config")
    print(f"wrote {out}: sv={len(model.dual_coefs)} kkt={kkt:.3e} mae_test={mae_test:.6e}")
    return EXIT_OK


# ---------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    out = _fresh(args.out, ".config")
    model = svr.load_model(args.model)
    table = dataset.load_table(args.data)
    if args.split != "all":
        train, test = dataset.split(table, seed=args.seed)
        table = train if args.split == "train" else test
    if len(table) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    pred = svr.predict(model, table.features)
    resid = pred - table.targets
    err = svr.mae(pred, table.targets)
    max_err = float(np.abs(resid).max())
    order = np.argsort(-table.targets, kind="stable")
    header = (
        f"#meta mae={FMT % err} max_error={FMT % max_err} rows={len(table)} "
        f"split={args.split} seed={args.seed}\ntarget,prediction,residual"
    )
    _write_csv(out, header, np.column_stack([table.targets, pred, resid])[order])
    _write_resolved(args, out + ".config")
    print(f"wrote {out}: rows={len(table)} mae={err:.6e} max_error={max_err:.6e}")
    return EXIT_OK


# ----------------------------------------------------------------- predict


def cmd_predict(args) -> int:
    if args.out is not None:
        _fresh(args.out, ".config")
    model = svr.load_model(args.model)
    if args.features is not None:
        values = svr.predict(model, np.array([args.features]))
    else:
        values = svr.predict(model, dataset.load_table(args.data).features)
    if args.out is None:
        dataset.write_block(sys.stdout, values)
        return EXIT_OK
    _write_csv(_fresh(args.out), "", values)
    _write_resolved(args, args.out + ".config")
    print(f"wrote {args.out}: {len(values)} prediction(s)")
    return EXIT_OK


# ------------------------------------------------------------------- sweep


def cmd_sweep(args) -> int:
    if args.kind == "ox" and args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    out = _fresh(args.out, ".config")
    param = dataset.KINDS[args.channel].param  # lambda or tau
    other = "tau" if param == "lambda" else "lambda"
    grid_params = getattr(args, param + "s")
    if grid_params is None or getattr(args, other + "s") is not None:
        raise ConfigError(f"{args.channel.upper()} sweeps need --{param}s and no --{other}s")
    if args.channel == "pd" and any(om != 0.0 for om in args.omegas):
        raise ConfigError("the PD channel has no drive; omit --omegas")

    pairs = [(p, om) for om in args.omegas for p in grid_params]
    if args.kind == "ox":
        chans = [dataset.make_channel(args.channel, p, om) for p, om in pairs]
        t = channels.TimeGrid(args.tmax, args.points - 1).values
        header = f"param_{param},param_omega,t,ox,oy,oz"
        obs = [ch.bloch_plus(t) for ch in chans]
        rows = np.column_stack(
            [np.repeat(pairs, len(t), axis=0), np.tile(t, len(pairs)), np.concatenate(obs)]
        )
    else:
        header = f"param_{param},param_omega,value"
        values = dataset.table_rows(args.channel, pairs, args.measure)[0]
        rows = np.column_stack([pairs, values])
    _write_csv(out, header, rows)
    _write_resolved(args, out + ".config")
    print(f"wrote {out}: {len(rows)} rows")
    return EXIT_OK


# --------------------------------------------------------------- reproduce


def cmd_reproduce(args) -> int:
    outdir = args.out
    if os.path.exists(outdir):
        raise FileExistsError(f"output directory exists: {outdir}")
    os.makedirs(outdir)
    try:  # a failed run removes the directory it made: a rerun starts clean
        return _reproduce(args, outdir)
    except BaseException:
        shutil.rmtree(outdir, ignore_errors=True)
        raise


def _reproduce(args, outdir) -> int:
    seed = args.seed
    full = args.full
    n_driven = None if full else REPRODUCE_SMOKE_LAMBDAS  # None: the paper's grid
    config = svr.SvrConfig()
    summary = [f"nonmarkov reproduce (version {__version__}, full={full}, seed={seed})"]

    def path(name):
        return os.path.join(outdir, name)

    def regression(figure, tag, table):
        """Save the table, train on it, save the model, report its test MAE."""
        dataset.save_table(table, path(f"{figure}_{tag}.csv"), seed=seed)
        model, train, test = _train_pipeline(table, config, seed, True)
        svr.save_model(model, path(f"{figure}_{tag}.model"))
        err = svr.mae(svr.predict(model, test.features), test.targets)
        summary.append(f"{figure} {tag}: test_mae={err:.6e}")
        print(f"  {tag}: test MAE {err:.3e}")
        return model

    # Expectation-value dynamics for a spread of couplings (separation curve).
    print("[1/5] expectation-value trajectories")
    fig1_lams = (0.1, 0.5, 1.0, 2.0, 3.0, 5.0)
    t = channels.TimeGrid(5.0, 500).values
    ox = channels.AmplitudeDamping.coherence_at(fig1_lams, t)  # O_x of evolved |+>
    rows = np.column_stack([np.repeat(fig1_lams, len(t)), np.tile(t, len(fig1_lams)), ox.ravel()])
    _write_csv(path("fig1_ox.csv"), "param_lambda,t,ox", rows)

    # Pure-channel regression, one pipeline per (channel, measure).
    print("[2/5] pure-channel regression")
    pure_models = {
        f"{kind}_{meas}": regression("fig2", f"{kind}_{meas}", dataset.generate(kind, meas))
        for kind in ("ad", "pd")
        for meas in dataset.MEASURES
    }

    # Mismatch degradation: pure-AD model against driven data.  Every driven
    # pair is computed once: figures 3 to 5 read their rows from this table,
    # whose drive grid holds every nonzero drive strength they use.
    print("[3/5] mismatch degradation")
    superset = dataset.generate("driven", times=(3.0, 5.0, 6.0, 10.0), count=n_driven)
    model_ad_ent = pure_models["ad_entanglement"]
    at_tc3 = dataset.select_times(superset, (3.0,))
    for om in (0.01, 0.05, 0.09, 0.20):
        table = dataset.filter_omega(at_tc3, om)
        dataset.save_table(table, path(f"fig3_omega{om:g}.csv"), seed=seed)
        err = svr.mae(svr.predict(model_ad_ent, table.features), table.targets)
        summary.append(f"fig3 omega={om:g}: mae={err:.6e}")
        print(f"  omega={om:g}: MAE {err:.3e}")

    # Measure versus coupling for several drive strengths.
    print("[4/5] measure-vs-coupling sweep")
    lams = dataset.param_grid("driven", n_driven)
    undriven = np.column_stack([lams, np.zeros(len(lams))])  # one array pass
    rows = [np.column_stack([undriven, dataset.table_rows("driven", undriven)[0]])]
    for om in (0.05, 0.1, 0.2, 0.3, 0.5):
        driven = dataset.filter_omega(superset, om)
        lam, value = driven.params[:, 0], driven.targets
        rows.append(np.column_stack([lam, np.full(len(driven), om), value]))
    rows = np.concatenate(rows)
    _write_csv(path("fig4_ne_vs_lambda.csv"), "param_lambda,param_omega,value", rows)

    # Drive-aware regression with one or two tomography times.
    print("[5/5] drive-aware regression")
    for tag, times in (
        ("tc3", (3.0,)),
        ("tc5", (5.0,)),
        ("tc3_6", (3.0, 6.0)),
        ("tc5_10", (5.0, 10.0)),
    ):
        regression("fig5", tag, dataset.select_times(superset, times))

    with open(path("summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")
    _write_resolved(args, path("config.txt"))
    print(f"wrote {outdir}/summary.txt")
    return EXIT_OK


# -------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    """A parse error is a ConfigError (exit 2), whether its option came from
    the command line or a --config file."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonmarkov",
        description="Non-Markovianity measures of qubit channels and their "
        "estimation from tomography features with epsilon-SVR.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument(
            "--config", help="key=value file; each key is an option name, flags win"
        )
        return p

    p = command("generate", "generate a feature/target dataset")
    p.add_argument("--channel", choices=("ad", "pd", "driven"), required=True)
    p.add_argument("--measure", choices=dataset.MEASURES, default="entanglement")
    p.add_argument(
        "--tc", type=float, help="tomography time (1/gamma0, or nu for PD; default 3 or 1.5)"
    )
    p.add_argument("--tc2", type=float, help="second tomography time")
    p.add_argument("--count", type=int, help="parameter grid size (default: the paper's)")
    p.add_argument("--omegas", type=_parse_floats, help="drive strengths (driven only)")
    p.add_argument("--seed", type=_seed, default=dataset.DEFAULT_SEED)
    p.add_argument("--out", required=True)

    p = command("train", "fit the epsilon-SVR on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=dataset.DEFAULT_SEED, help="70/30 split seed")
    defaults = svr.SvrConfig()
    p.add_argument("--epsilon", type=float, default=defaults.epsilon)
    p.add_argument("--cost", type=float, default=defaults.C)
    p.add_argument("--gamma", type=_gamma_arg, default=defaults.kernel_gamma)
    p.add_argument("--tol", type=float, default=defaults.tol)
    p.add_argument("--max-iter", type=int, default=defaults.max_iter)
    p.add_argument(
        "--no-scale", type=_bool, nargs="?", const=True, default=False,
        help="skip feature standardization",
    )

    p = command("evaluate", "evaluate a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("all", "train", "test"), default="all")
    p.add_argument("--seed", type=_seed, default=dataset.DEFAULT_SEED)
    p.add_argument("--out", required=True)

    p = command("predict", "predict from a feature vector or dataset")
    p.add_argument("--model", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--features", type=_parse_floats)
    source.add_argument("--data")
    p.add_argument("--out")

    p = command("sweep", "trajectory or measure-vs-parameter tables")
    p.add_argument("--kind", choices=("ox", "measure"), required=True)
    p.add_argument("--channel", choices=("ad", "pd"), default="ad")
    p.add_argument("--measure", choices=dataset.MEASURES, default="entanglement")
    p.add_argument("--lambdas", type=_parse_floats)
    p.add_argument("--taus", type=_parse_floats)
    p.add_argument("--omegas", type=_parse_floats, default=(0.0,))
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--out", required=True)

    p = command("reproduce", "run the five figure pipelines end to end")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=dataset.DEFAULT_SEED)
    p.add_argument(
        "--full", type=_bool, nargs="?", const=True, default=False,
        help="paper-scale driven grids (about 65 s on one core) instead of the coarse smoke grids",
    )
    return parser


# Built at import rather than on first use, so train's defaults are always
# those of SvrConfig() as imported, whatever a caller patches later.  The
# parser holds each command's name, not its function: main looks that up per
# call, so a function put in place of a cmd_* (a test's stub, a tracer's
# wrapper) is the one run.
_PARSER = build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(_with_config(argv))
        command = {
            "generate": cmd_generate,
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "predict": cmd_predict,
            "sweep": cmd_sweep,
            "reproduce": cmd_reproduce,
        }[args.command]
        return command(args)
    except (ConfigError, DataFormatError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
