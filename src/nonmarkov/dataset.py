"""Dataset generation: parameter sweeps, tomography features at fixed times,
measure targets, standardization, splitting, and CSV persistence.

One generator builds every table.  KINDS holds, per channel kind, the name
of its parameter, the span of its grid from 0.1, the paper's grid size, the
default tomography time and the closed-form channel class of its undriven
rows; generate takes a row per parameter value (per drive strength and
coupling for the driven kind).  Features are the Pauli expectation values
O_k = Tr[sigma_k rho(t)] of the state evolved from |+> (the +1 eigenstate of
sigma_x, inferred from the initial value O_x(0) = 1), concatenated over the
tomography times.  Targets are the non-Markovianity measures up to the
horizon in #meta.  table_rows is the one place that routes a row, for
tables, measure sweeps and fig4 alike.  A row takes the closed form wherever
make_channel builds an undriven channel, where the drive is below
channels.DRIVE_CUT; table_rows computes all such rows of a table in one
array pass of measures.closed_form_rows (exact revival-peak sums and closed
forms), and each driven row by measures.driven_entanglement (the refined
concurrence sum and the features from one propagator build).  A driven
table's #meta also records the largest stated grid error of its targets.
write_block writes every table, model block and command-line CSV, a whole
block in one % call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import measures
from .channels import DRIVE_CUT, AmplitudeDamping, Channel, DrivenAmplitudeDamping, PhaseDamping
from .errors import ConfigError, DataFormatError

FEATURE_INITIAL_STATE = "+x"  # recorded in metadata; see ledger
DEFAULT_SEED = 7
TRAIN_FRACTION = 0.7

FMT = "%.17g"  # 17 significant digits: every float64 reads back exactly


@dataclass(frozen=True)
class Kind:
    """What a table of one channel kind is built from."""

    param: str  # the channel parameter's name, param_<param> in the header
    span: float  # the grid covers [0.1, 0.1 + span)
    count: int  # the paper's grid size; step span / count
    time: float  # default tomography time
    closed_form: type  # the channel class of its rows below DRIVE_CUT


# PD time is nu: the dephasing factor stays injective in tau over the grid
# for nu <= ~2 but folds at nu = 3 (tau ~ 0.399); see ledger for the
# time-unit reading behind 1.5.  AD times are in units of 1/gamma0.
KINDS = {
    "ad": Kind("lambda", 2.9, 2900, 3.0, AmplitudeDamping),  # lambda/gamma0, step 1e-3
    "pd": Kind("tau", 0.4, 4000, 1.5, PhaseDamping),  # step 1e-4
    "driven": Kind("lambda", 2.9, 290, 3.0, AmplitudeDamping),  # step 1e-2, per drive strength
}


def param_grid(kind: str, count: int | None = None) -> np.ndarray:
    """count values 0.1 + i * (span/count) of the kind's parameter; the
    default count is the paper's."""
    if kind not in KINDS:
        raise ConfigError(f"unknown channel kind {kind!r}")
    spec = KINDS[kind]
    count = spec.count if count is None else count
    if count < 1:
        raise ConfigError("count must be >= 1")
    return 0.1 + np.arange(count) * (spec.span / count)


def omega_grid() -> np.ndarray:
    """Drive strengths: 0.01..0.20 step 0.01, then 0.3, 0.4, 0.5 (23 values;
    the overlapping 0.2 belongs to the fine sub-grid)."""
    fine = np.round(0.01 * np.arange(1, 21), 2)
    return np.concatenate([fine, [0.3, 0.4, 0.5]])


@dataclass(frozen=True)
class TableSchema:
    channel: str  # a key of KINDS
    measure: str  # 'trace' | 'entanglement'
    times: tuple[float, ...]

    def __post_init__(self):
        if self.channel not in KINDS:
            raise ConfigError(f"unknown channel kind {self.channel!r}")
        if self.measure not in ("trace", "entanglement"):
            raise ConfigError(f"unknown measure kind {self.measure!r}")
        if self.channel == "driven" and self.measure != "entanglement":
            raise ConfigError("the driven channel supports only the entanglement measure")
        if not self.times or not all(math.isfinite(t) and t >= 0 for t in self.times):
            raise ConfigError("tomography times must be finite, non-negative and non-empty")
        if self.channel == "driven" and max(self.times) > measures.DEFAULT_T_MAX:  # drive or not
            raise ConfigError(f"tomography times {self.times} must lie within the horizon")
        if len(set(self.times)) < len(self.times):
            raise ConfigError(f"tomography times must be distinct, got {self.times}")

    @property
    def param_name(self) -> str:
        return KINDS[self.channel].param

    @property
    def feature_names(self) -> list[str]:
        return [
            f"o{ax}_t{i + 1}" for i in range(len(self.times)) for ax in ("x", "y", "z")
        ]

    @property
    def n_features(self) -> int:
        return 3 * len(self.times)

    @property
    def columns(self) -> list[str]:
        """The CSV header: target, features, channel parameter, drive."""
        return ["target"] + self.feature_names + [f"param_{self.param_name}", "param_omega"]


@dataclass(frozen=True)
class DataTable:
    """Columnar table of samples with a uniform schema."""

    schema: TableSchema
    features: np.ndarray  # (n, 3 * len(times))
    targets: np.ndarray  # (n,)
    params: np.ndarray  # (n, 2): channel parameter, drive strength
    # (n,): stated target grid errors (driven rows); #meta keeps only the
    # largest, so a loaded table states that bound for every row
    grid_errors: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.targets)
        if self.features.shape != (n, self.schema.n_features):
            raise ConfigError(
                f"feature block {self.features.shape} does not match schema "
                f"({n} x {self.schema.n_features})"
            )
        if self.params.shape != (n, 2):
            raise ConfigError(f"params block {self.params.shape} must be ({n}, 2)")
        if self.grid_errors is not None and self.grid_errors.shape != (n,):
            raise ConfigError(f"grid errors {self.grid_errors.shape} must be ({n},)")
        finite = all(np.isfinite(a).all() for a in (self.features, self.targets, self.params))
        if n and (not finite or self.targets.min() < 0):
            raise ConfigError(
                "features, targets and parameters must be finite, targets non-negative"
            )

    def __len__(self) -> int:
        return len(self.targets)

    def subset(self, indices) -> "DataTable":
        indices = np.asarray(indices)
        return DataTable(
            self.schema,
            self.features[indices].copy(),
            self.targets[indices].copy(),
            self.params[indices].copy(),
            None if self.grid_errors is None else self.grid_errors[indices].copy(),
        )


def _undriven(kind: str, omega):
    """Where a row of kind at drive omega (a float or an array) takes a
    closed form: every PD row, and every other row whose drive lies in
    [0, DRIVE_CUT)."""
    return (kind == "pd") | ((0.0 <= omega) & (omega < DRIVE_CUT))


def make_channel(kind: str, param: float, omega: float) -> Channel:
    """The channel of a row of kind (a key of KINDS) at (param, omega):
    amplitude damping, whose closed form is exact, wherever the drive is
    below DRIVE_CUT, for the driven kind too, and the driven channel
    otherwise, which refuses a negative drive."""
    if _undriven(kind, omega):
        return KINDS[kind].closed_form(param)
    return DrivenAmplitudeDamping(param, omega)


def table_rows(kind: str, pairs, measure: str = "entanglement", times=()):
    """The targets, their stated grid errors and the features of the rows of
    kind at each (param, omega) pair, one row each: the one place that routes
    a row.  The rows that make_channel takes undriven are one array pass of
    measures.closed_form_rows, with grid error 0; each driven pair is one
    measures.driven_entanglement call on its make_channel channel.  Every
    driven channel is built first, and a trace measure with any driven pair
    is refused then, so a bad drive or measure is refused before any row is
    computed."""
    params, omegas = np.asarray(pairs, dtype=float).reshape(-1, 2).T
    undriven = _undriven(kind, omegas)
    driven = [
        (i, make_channel(kind, float(params[i]), float(omegas[i])))
        for i in np.flatnonzero(~undriven)
    ]
    if driven and measure != "entanglement":
        raise ConfigError("the trace-distance measure is not evaluated for the driven channel")
    targets, grid_errors = np.zeros(len(params)), np.zeros(len(params))
    features = np.empty((len(params), 3 * len(times)))
    targets[undriven], _, features[undriven] = measures.closed_form_rows(
        KINDS[kind].closed_form, params[undriven], times
    )
    for i, channel in driven:
        result, features[i] = measures.driven_entanglement(channel, times=times)
        targets[i], grid_errors[i] = result.value, result.grid_error
    return targets, grid_errors, features


def generate(
    kind: str, measure: str = "entanglement", times=None, count: int | None = None, omegas=None
) -> DataTable:
    """The table of a channel kind: a row per value of param_grid(kind,
    count), for the driven kind per drive strength too (default omega_grid()),
    at the tomography times (default the kind's), computed by table_rows:
    its target, grid error and features."""
    params = param_grid(kind, count)
    times = (KINDS[kind].time,) if times is None else tuple(float(t) for t in times)
    schema = TableSchema(kind, measure, times)
    driven = kind == "driven"
    if omegas is None:
        omegas = omega_grid() if driven else (0.0,)
    elif not driven:
        raise ConfigError(f"the {kind} channel has no drive; omit the drive strengths")
    omegas = np.asarray(omegas, dtype=float)
    pairs = np.column_stack([np.tile(params, len(omegas)), np.repeat(omegas, len(params))])
    targets, grid_errors, feats = table_rows(kind, pairs, measure, times)
    return DataTable(schema, feats, targets, pairs, grid_errors if driven else None)


def select_times(table: DataTable, times) -> DataTable:
    """Restrict a table to a subset of its tomography times."""
    times = tuple(float(t) for t in times)
    missing = [t for t in times if t not in table.schema.times]
    if missing:
        raise ConfigError(f"times {missing} not present in table {table.schema.times}")
    cols = []
    for t in times:
        j = table.schema.times.index(t)
        cols.extend(range(3 * j, 3 * j + 3))
    return DataTable(
        replace(table.schema, times=times),
        table.features[:, cols].copy(),
        table.targets.copy(),
        table.params.copy(),
        table.grid_errors,
    )


def filter_omega(table: DataTable, omega: float) -> DataTable:
    """Rows whose drive strength equals omega (to within 1e-12)."""
    mask = np.abs(table.params[:, 1] - omega) <= 1e-12
    if not mask.any():
        raise ConfigError(f"no rows with omega={omega}")
    return table.subset(np.flatnonzero(mask))


@dataclass(frozen=True)
class Scaler:
    """Per-feature affine map to zero mean and (population) unit variance."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.scale.shape or self.mean.ndim != 1:
            raise ConfigError("scaler mean/scale must be matching vectors")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.scale).all()):
            raise ConfigError("scaler mean and scale entries must be finite")
        if np.any(self.scale <= 0):
            raise ConfigError("scaler scale entries must be positive")

    def transform(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.shape[-1] != len(self.mean):
            raise ConfigError(
                f"feature length {features.shape[-1]} does not match scaler "
                f"({len(self.mean)})"
            )
        return (features - self.mean) / self.scale

    @classmethod
    def identity(cls, n_features: int) -> "Scaler":
        return cls(np.zeros(n_features), np.ones(n_features))


def scaler_fit(table: DataTable) -> Scaler:
    """Fit means and population standard deviations on (training) rows.

    A constant column is centred and recorded with s_k = 1 (pure-channel
    tables have identically-zero O_y / O_z columns; see ledger).
    """
    if len(table) < 2:
        raise ConfigError("need at least 2 rows to fit a scaler")
    mean = table.features.mean(axis=0)
    var = table.features.var(axis=0)
    zero = var < 1e-30
    scale = np.sqrt(var)
    scale[zero] = 1.0
    return Scaler(mean, scale)


def split(table: DataTable, seed: int = DEFAULT_SEED) -> tuple[DataTable, DataTable]:
    """Deterministic shuffled partition: ceil(TRAIN_FRACTION * n) train, rest test."""
    n = len(table)
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(math.ceil(round(TRAIN_FRACTION * n, 9)))
    return table.subset(perm[:n_train]), table.subset(perm[n_train:])


def _meta_line(table: DataTable, seed: int) -> str:
    from . import __version__

    schema = table.schema
    omegas = np.unique(table.params[:, 1])
    items = [
        ("channel", schema.channel),
        ("measure", schema.measure),
        ("times", ",".join(FMT % t for t in schema.times)),
        ("initial_state", FEATURE_INITIAL_STATE),
        ("measure_inputs", "bell-phi+" if schema.measure == "entanglement" else "plus-minus-pair"),
        ("horizon", FMT % measures.DEFAULT_T_MAX),
        ("param", schema.param_name),
        ("rows", str(len(table))),
        ("omegas", ",".join(FMT % o for o in omegas)),
        ("seed", str(seed)),
        ("version", __version__),
    ]
    if table.grid_errors is not None:  # how well the worst target is resolved
        items.append(("grid_error", FMT % table.grid_errors.max(initial=0.0)))
    return "#meta " + " ".join(f"{k}={v}" for k, v in items)


def save_table(table: DataTable, path, seed: int = DEFAULT_SEED) -> None:
    """CSV with a #meta provenance line, a header, and 17-significant-digit
    numbers for exact round-tripping."""
    block = np.column_stack([table.targets, table.features, table.params])
    header = _meta_line(table, seed) + "\n" + ",".join(table.schema.columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_block(fh, block, ",", header)


def write_block(fh, block, delimiter: str = " ", header: str = "") -> None:
    """The header line, if any, then each row of a 2-D block, or each value
    of a 1-D one, as one line of FMT numbers: byte for byte what numpy's
    savetxt writes with fmt=FMT, that delimiter and header and comments="",
    formatted by one % call instead of one per row."""
    block = np.asarray(block, dtype=float)
    if block.ndim == 1:
        block = block[:, None]
    if header:
        fh.write(header + "\n")
    line = delimiter.join([FMT] * block.shape[1]) + "\n"
    fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def read_block(lines: list[str], width: int, delimiter: str | None = None) -> np.ndarray:
    """The (len(lines), width) array of numbers the lines hold, one row each."""
    if not lines:
        return np.empty((0, width))
    try:  # no comment character: a '#' in a cell is an error, not a comment
        block = np.loadtxt(lines, delimiter=delimiter, ndmin=2, comments=None)
    except ValueError as exc:
        raise DataFormatError(f"malformed numeric block: {exc}") from exc
    if block.shape[1] != width:  # loadtxt takes rows that are all as short or long
        raise DataFormatError(f"rows have {block.shape[1]} numbers, expected {width}")
    return block


def load_table(path) -> DataTable:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln]
    if len(lines) < 2 or not lines[0].startswith("#meta "):
        raise DataFormatError("dataset file must start with a #meta line and a header")
    meta = {}
    for item in lines[0][len("#meta ") :].split():
        if "=" not in item:
            raise DataFormatError(f"malformed #meta entry {item!r}")
        key, val = item.split("=", 1)
        meta[key] = val
    for key in ("channel", "measure", "times", "param", "rows"):
        if key not in meta:
            raise DataFormatError(f"#meta line missing {key!r}")
    try:
        times = tuple(float(t) for t in meta["times"].split(","))
        schema = TableSchema(meta["channel"], meta["measure"], times)
        n_rows = int(meta["rows"])
        grid_error = float(meta["grid_error"]) if "grid_error" in meta else None
    except (ValueError, ConfigError) as exc:
        raise DataFormatError(f"invalid #meta: {exc}") from exc
    if meta["param"] != schema.param_name:
        raise DataFormatError(
            f"#meta param={meta['param']} but a {schema.channel} table is in {schema.param_name}"
        )
    if grid_error is not None and not (np.isfinite(grid_error) and grid_error >= 0.0):
        raise DataFormatError(f"#meta grid_error={grid_error} must be finite and >= 0")
    header = lines[1].split(",")
    expected = schema.columns
    if header != expected:
        raise DataFormatError(f"header {header} does not match schema {expected}")
    if len(lines) - 2 != n_rows:
        raise DataFormatError(f"#meta rows={n_rows} but the file holds {len(lines) - 2} rows")
    block = read_block(lines[2:], len(expected), ",")
    d = schema.n_features
    return DataTable(
        schema,
        block[:, 1 : 1 + d].copy(),
        block[:, 0].copy(),
        block[:, 1 + d :].copy(),
        None if grid_error is None else np.full(n_rows, grid_error),
    )
