"""Command-line orchestration: dataset generation, training, evaluation,
prediction, parameter sweeps, and the figure-reproduction meta-command.

Every command resolves its configuration (key=value config file overridden by
long-form flags), writes the resolved config next to its outputs, and refuses
to overwrite existing paths.  Exit codes: 0 success, 2 configuration/schema
error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, channels, dataset, svr
from .errors import ConfigError, DataFormatError, NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_FMT = "%.17g"
REPRODUCE_SMOKE_LAMBDAS = 29  # coarse coupling grid for the default reproduce run


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v != "")
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc
    if not np.isfinite(values).all():
        raise ConfigError(f"expected finite numbers, got {text!r}")
    return values


def _gamma_arg(text: str):
    if text == "scale":
        return "scale"
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"--gamma must be a number or 'scale', got {text!r}") from exc


def _load_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for ln_no, ln in enumerate(fh, 1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ConfigError(f"{path}:{ln_no}: expected key=value, got {ln!r}")
            key, val = ln.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _resolve(args: argparse.Namespace, spec: dict) -> dict:
    """Merge CLI flags over config-file entries over defaults."""
    from_file = _load_config_file(args.config) if args.config else {}
    unknown = set(from_file) - set(spec)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    resolved = {}
    for key, (conv, default) in spec.items():
        cli_val = getattr(args, key)
        if cli_val is not None:
            resolved[key] = cli_val
        elif key in from_file:
            raw = from_file[key]
            resolved[key] = raw if conv is str else conv(raw)
        else:
            resolved[key] = default
    return resolved


def _require(resolved: dict, *keys) -> None:
    for key in keys:
        if resolved[key] is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")


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


def _write_resolved(resolved: dict, path) -> None:
    lines = [f"# resolved configuration (nonmarkov {__version__})"]
    for key in sorted(resolved):
        val = resolved[key]
        if isinstance(val, tuple):
            val = ",".join(_FMT % v if isinstance(v, float) else str(v) for v in val)
        lines.append(f"{key}={val}")
    with open(_fresh(path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _times(resolved: dict) -> tuple[float, ...]:
    tc = resolved["tc"]
    if tc is None:
        tc = dataset.PURE_PD_TIME if resolved.get("channel") == "pd" else dataset.PURE_AD_TIME
    times = (tc,)
    if resolved.get("tc2") is not None:
        times = times + (resolved["tc2"],)
    return times


# ---------------------------------------------------------------- generate


def _generate_table(resolved: dict) -> dataset.DataTable:
    channel = resolved["channel"]
    times = _times(resolved)
    count = resolved["count"]
    if channel == "ad":
        count = dataset.PURE_AD_COUNT if count is None else count
        return dataset.generate_pure_ad(resolved["measure"], times, count)
    if channel == "pd":
        count = dataset.PURE_PD_COUNT if count is None else count
        return dataset.generate_pure_pd(resolved["measure"], times, count)
    if channel == "driven":
        if resolved["measure"] != "entanglement":
            raise ConfigError("the driven channel supports only --measure entanglement")
        n_lambda = dataset.DRIVEN_LAMBDA_COUNT if count is None else count
        return dataset.generate_driven_ad(times, n_lambda, resolved["omegas"])
    raise ConfigError(f"unknown channel {channel!r}")


def cmd_generate(args) -> int:
    spec = {
        "channel": (str, None),
        "measure": (str, "entanglement"),
        "tc": (float, None),
        "tc2": (float, None),
        "count": (int, None),
        "omegas": (_parse_floats, None),
        "seed": (int, dataset.DEFAULT_SEED),
        "out": (str, None),
    }
    resolved = _resolve(args, spec)
    _require(resolved, "channel", "out")
    resolved["tc"] = _times(resolved)[0]
    out = _fresh(resolved["out"], ".config")
    table = _generate_table(resolved)
    dataset.save_table(table, out, seed=resolved["seed"])
    _write_resolved(resolved, out + ".config")
    t = table.targets
    print(
        f"wrote {out}: rows={len(table)} target_min={t.min():.6g} "
        f"target_mean={t.mean():.6g} target_max={t.max():.6g}"
    )
    return EXIT_OK


# ------------------------------------------------------------------- train


def _svr_config(resolved: dict) -> svr.SvrConfig:
    return svr.SvrConfig(
        C=resolved["cost"],
        epsilon=resolved["epsilon"],
        tol=resolved["tol"],
        kernel_gamma=resolved["gamma"],
        max_iter=resolved["max_iter"],
    )


def _train_pipeline(table, config, seed, standardize):
    train, test = dataset.split(table, seed=seed)
    if standardize:
        scaler = dataset.scaler_fit(train, strict=False)
    else:
        scaler = dataset.Scaler.identity(table.schema.n_features)
    x_train = scaler.transform(train.features)
    model = svr.fit(x_train, train.targets, config, scaler)
    return model, train, test


def cmd_train(args) -> int:
    spec = {
        "data": (str, None),
        "out": (str, None),
        "seed": (int, dataset.DEFAULT_SEED),
        "epsilon": (float, 1e-3),
        "cost": (float, 1.0),
        "gamma": (_gamma_arg, "scale"),
        "tol": (float, 1e-3),
        "max_iter": (int, svr.DEFAULT_MAX_ITER),
        "no_scale": (lambda s: s.lower() in ("1", "true", "yes"), False),
    }
    resolved = _resolve(args, spec)
    _require(resolved, "data", "out")
    out = _fresh(resolved["out"], ".report", ".config")
    table = dataset.load_table(resolved["data"])
    if len(table) < 2:
        raise ConfigError(f"dataset {resolved['data']} has too few rows to train on")
    config = _svr_config(resolved)
    model, train, test = _train_pipeline(
        table, config, resolved["seed"], not resolved["no_scale"]
    )
    if not model.converged:
        raise NumericError(
            f"SMO did not converge within {config.max_iter} iterations: "
            f"gap m_up - m_low {model.gap:.6e} >= tol {_FMT % config.tol}"
        )
    svr.save_model(model, out)
    x_train = model.scaler.transform(train.features)
    kkt = float(svr.kkt_violations(model, x_train, train.targets, config).max())
    mae_train = svr.mae(svr.predict(model, train.features), train.targets)
    mae_test = svr.mae(svr.predict(model, test.features), test.targets)
    report = [
        f"nonmarkov train report (version {__version__})",
        f"data={resolved['data']}",
        f"rows_train={len(train)} rows_test={len(test)} split_seed={resolved['seed']}",
        f"epsilon={_FMT % config.epsilon} cost={_FMT % config.C} "
        f"tol={_FMT % config.tol} gamma={_FMT % model.kernel_gamma}",
        f"standardized={not resolved['no_scale']}",
        f"iterations={model.n_iter}",
        f"support_vectors={len(model.dual_coefs)}",
        f"gap={model.gap:.6e}",
        f"dual_objective={_FMT % model.dual_objective}",
        f"kkt_residual={kkt:.6e}",
        f"mae_train={mae_train:.6e}",
        f"mae_test={mae_test:.6e}",
    ]
    with open(_fresh(out + ".report"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report) + "\n")
    _write_resolved(resolved, out + ".config")
    print(f"wrote {out}: sv={len(model.dual_coefs)} kkt={kkt:.3e} mae_test={mae_test:.6e}")
    return EXIT_OK


# ---------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    spec = {
        "model": (str, None),
        "data": (str, None),
        "split": (str, "all"),
        "seed": (int, dataset.DEFAULT_SEED),
        "out": (str, None),
    }
    resolved = _resolve(args, spec)
    _require(resolved, "model", "data", "out")
    if resolved["split"] not in ("all", "train", "test"):
        raise ConfigError("--split must be one of all, train, test")
    out = _fresh(resolved["out"], ".config")
    model = svr.load_model(resolved["model"])
    table = dataset.load_table(resolved["data"])
    if resolved["split"] != "all":
        train, test = dataset.split(table, seed=resolved["seed"])
        table = train if resolved["split"] == "train" else test
    if len(table) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    pred = svr.predict(model, table.features)
    resid = pred - table.targets
    err = svr.mae(pred, table.targets)
    max_err = float(np.abs(resid).max())
    order = np.argsort(-table.targets, kind="stable")
    lines = [
        f"#meta mae={_FMT % err} max_error={_FMT % max_err} rows={len(table)} "
        f"split={resolved['split']} seed={resolved['seed']}",
        "target,prediction,residual",
    ]
    for i in order:
        lines.append(
            ",".join([_FMT % table.targets[i], _FMT % pred[i], _FMT % resid[i]])
        )
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_resolved(resolved, out + ".config")
    print(f"wrote {out}: rows={len(table)} mae={err:.6e} max_error={max_err:.6e}")
    return EXIT_OK


# ----------------------------------------------------------------- predict


def cmd_predict(args) -> int:
    spec = {
        "model": (str, None),
        "features": (_parse_floats, None),
        "data": (str, None),
        "out": (str, None),
    }
    resolved = _resolve(args, spec)
    _require(resolved, "model")
    if (resolved["features"] is None) == (resolved["data"] is None):
        raise ConfigError("provide exactly one of --features or --data")
    if resolved["out"] is not None:
        _fresh(resolved["out"], ".config")
    model = svr.load_model(resolved["model"])
    if resolved["features"] is not None:
        values = [svr.predict(model, np.array(resolved["features"]))]
    else:
        table = dataset.load_table(resolved["data"])
        values = list(svr.predict(model, table.features))
    text = "\n".join(_FMT % v for v in values) + "\n"
    if resolved["out"] is not None:
        with open(_fresh(resolved["out"]), "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_resolved(resolved, resolved["out"] + ".config")
        print(f"wrote {resolved['out']}: {len(values)} prediction(s)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------------- sweep


def _sweep_channel(kind_channel, param, omega):
    if kind_channel == "pd":
        return channels.PhaseDamping(param)
    if kind_channel == "ad" and omega == 0.0:
        return channels.AmplitudeDamping(param)
    return channels.DrivenAmplitudeDamping(param, omega)


def cmd_sweep(args) -> int:
    spec = {
        "kind": (str, None),
        "channel": (str, "ad"),
        "measure": (str, "entanglement"),
        "lambdas": (_parse_floats, None),
        "taus": (_parse_floats, None),
        "omegas": (_parse_floats, (0.0,)),
        "tmax": (float, 5.0),
        "points": (int, 500),
        "out": (str, None),
    }
    resolved = _resolve(args, spec)
    _require(resolved, "kind", "out")
    if resolved["kind"] == "ox" and resolved["points"] < 2:
        raise ConfigError(f"--points must be >= 2, got {resolved['points']}")
    out = _fresh(resolved["out"], ".config")
    channel_kind = resolved["channel"]
    if channel_kind == "pd":
        if resolved["taus"] is None:
            raise ConfigError("PD sweeps need --taus")
        if any(om != 0.0 for om in resolved["omegas"]):
            raise ConfigError("the PD channel has no drive; omit --omegas")
        grid_params = resolved["taus"]
        pname = "param_tau"
    else:
        if resolved["lambdas"] is None:
            raise ConfigError("AD sweeps need --lambdas")
        grid_params = resolved["lambdas"]
        pname = "param_lambda"

    lines = []
    if resolved["kind"] == "ox":
        tgrid = channels.TimeGrid(resolved["tmax"], resolved["points"] - 1)
        lines.append(f"{pname},param_omega,t,ox,oy,oz")
        for om in resolved["omegas"]:
            for p in grid_params:
                ch = _sweep_channel(channel_kind, p, om)
                obs = dataset.features_at(ch, tgrid.values).reshape(-1, 3)
                for t, (ox, oy, oz) in zip(tgrid.values, obs):
                    lines.append(
                        ",".join(
                            [_FMT % p, _FMT % om, _FMT % t, _FMT % ox, _FMT % oy, _FMT % oz]
                        )
                    )
    elif resolved["kind"] == "measure":
        lines.append(f"{pname},param_omega,value")
        for om in resolved["omegas"]:
            for p in grid_params:
                ch = _sweep_channel(channel_kind, p, om)
                value = dataset.measure_value(ch, resolved["measure"])
                lines.append(",".join([_FMT % p, _FMT % om, _FMT % value]))
    else:
        raise ConfigError("--kind must be 'ox' or 'measure'")

    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_resolved(resolved, out + ".config")
    print(f"wrote {out}: {len(lines) - 1} rows")
    return EXIT_OK


# --------------------------------------------------------------- reproduce


def cmd_reproduce(args) -> int:
    spec = {
        "out": (str, None),
        "seed": (int, dataset.DEFAULT_SEED),
        "full": (lambda s: s.lower() in ("1", "true", "yes"), False),
    }
    resolved = _resolve(args, spec)
    _require(resolved, "out")
    outdir = resolved["out"]
    if os.path.exists(outdir):
        raise FileExistsError(f"output directory exists: {outdir}")
    os.makedirs(outdir)
    seed = resolved["seed"]
    full = resolved["full"]
    n_driven = dataset.DRIVEN_LAMBDA_COUNT if full else REPRODUCE_SMOKE_LAMBDAS
    config = svr.SvrConfig()
    summary = [f"nonmarkov reproduce (version {__version__}, full={full}, seed={seed})"]

    def path(name):
        return os.path.join(outdir, name)

    # Expectation-value dynamics for a spread of couplings (separation curve).
    print("[1/5] expectation-value trajectories")
    fig1_lams = (0.1, 0.5, 1.0, 2.0, 3.0, 5.0)
    tgrid = channels.TimeGrid(5.0, 500)
    lines = ["param_lambda,t,ox"]
    for lam in fig1_lams:
        ox = channels.ad_amplitude(tgrid.values, lam)  # O_x of evolved |+>
        for t, v in zip(tgrid.values, ox):
            lines.append(",".join([_FMT % lam, _FMT % t, _FMT % v]))
    with open(path("fig1_ox.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    # Pure-channel regression, one pipeline per (channel, measure).
    print("[2/5] pure-channel regression")
    pure_models = {}
    for ch_kind in ("ad", "pd"):
        for meas in ("trace", "entanglement"):
            tag = f"{ch_kind}_{meas}"
            if ch_kind == "ad":
                table = dataset.generate_pure_ad(meas)
            else:
                table = dataset.generate_pure_pd(meas)
            dataset.save_table(table, path(f"fig2_{tag}.csv"), seed=seed)
            model, train, test = _train_pipeline(table, config, seed, True)
            svr.save_model(model, path(f"fig2_{tag}.model"))
            err = svr.mae(svr.predict(model, test.features), test.targets)
            pure_models[tag] = model
            summary.append(f"fig2 {tag}: test_mae={err:.6e}")
            print(f"  {tag}: test MAE {err:.3e}")

    # Mismatch degradation: pure-AD model against driven data.  Every driven
    # pair is computed once: figures 3 to 5 read their rows from this table,
    # whose drive grid holds every nonzero drive strength they use.
    print("[3/5] mismatch degradation")
    superset = dataset.generate_driven_ad((3.0, 5.0, 6.0, 10.0), n_driven)
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
    lines = ["param_lambda,param_omega,value"]
    for lam in dataset.lambda_grid(n_driven, span=2.9):
        value = dataset.measure_value(channels.AmplitudeDamping(float(lam)), "entanglement")
        lines.append(",".join([_FMT % lam, _FMT % 0.0, _FMT % value]))
    for om in (0.05, 0.1, 0.2, 0.3, 0.5):
        rows = dataset.filter_omega(superset, om)
        for lam, value in zip(rows.params[:, 0], rows.targets):
            lines.append(",".join([_FMT % lam, _FMT % om, _FMT % value]))
    with open(path("fig4_ne_vs_lambda.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    # Drive-aware regression with one or two tomography times.
    print("[5/5] drive-aware regression")
    for tag, times in (
        ("tc3", (3.0,)),
        ("tc5", (5.0,)),
        ("tc3_6", (3.0, 6.0)),
        ("tc5_10", (5.0, 10.0)),
    ):
        table = dataset.select_times(superset, times)
        dataset.save_table(table, path(f"fig5_{tag}.csv"), seed=seed)
        model, train, test = _train_pipeline(table, config, seed, True)
        svr.save_model(model, path(f"fig5_{tag}.model"))
        err = svr.mae(svr.predict(model, test.features), test.targets)
        summary.append(f"fig5 {tag}: test_mae={err:.6e}")
        print(f"  {tag}: test MAE {err:.3e}")

    with open(path("summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")
    _write_resolved(resolved, path("config.txt"))
    print(f"wrote {outdir}/summary.txt")
    return EXIT_OK


# -------------------------------------------------------------------- main


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value configuration file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonmarkov",
        description="Non-Markovianity measures of qubit channels and their "
        "estimation from tomography features with epsilon-SVR.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a feature/target dataset")
    p.add_argument("--channel", choices=("ad", "pd", "driven"))
    p.add_argument("--measure", choices=("trace", "entanglement"))
    p.add_argument("--tc", type=float, help="tomography time (1/gamma0, or nu for PD)")
    p.add_argument("--tc2", type=float, help="second tomography time")
    p.add_argument("--count", type=int, help="parameter grid size override")
    p.add_argument("--omegas", type=_parse_floats, help="drive strengths (driven only)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit the epsilon-SVR on a dataset")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, help="70/30 split seed")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--cost", type=float)
    p.add_argument("--gamma", type=_gamma_arg)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument(
        "--no-scale", dest="no_scale", action="store_const", const=True,
        help="skip feature standardization",
    )
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model on a dataset")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--split", choices=("all", "train", "test"))
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict from a feature vector or dataset")
    p.add_argument("--model")
    p.add_argument("--features", type=_parse_floats)
    p.add_argument("--data")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="trajectory or measure-vs-parameter tables")
    p.add_argument("--kind", choices=("ox", "measure"))
    p.add_argument("--channel", choices=("ad", "pd"))
    p.add_argument("--measure", choices=("trace", "entanglement"))
    p.add_argument("--lambdas", type=_parse_floats)
    p.add_argument("--taus", type=_parse_floats)
    p.add_argument("--omegas", type=_parse_floats)
    p.add_argument("--tmax", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="run the five figure pipelines end to end")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--full", action="store_const", const=True,
        help="paper-scale driven grids (hours) instead of the coarse smoke grids",
    )
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:  # the type converters (_parse_floats, _gamma_arg) raise ConfigError
        args = parser.parse_args(argv)
        return args.func(args)
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
