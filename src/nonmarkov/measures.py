"""Non-Markovianity measures on [0, horizon]: accumulated positive increments
of distinguishability (trace distance) or of system-ancilla entanglement.

The optimal inputs replace the optimization over initial states: the pair
|+>, |-> for the trace distance, the Bell state (|gg> + |ee>)/sqrt(2) with an
untouched ancilla for entanglement.  Under the undriven channels both series
are |coherence|, a damped oscillation exp(-a t) [cos(w t) + (a/w) sin(w t)]
whose |maxima| sit at t_k = k pi / w with height q^k, q = exp(-a pi / w), so
both measures are one exact sum over those revival peaks (revival_measure),
with no time grid and a bound on what lies past the horizon.  The driven
channel has no closed form: its entanglement series is the Bell-pair
concurrence from the pseudomode propagator, summed on a grid doubled until
the value settles; its trace-distance measure is not evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .channels import Channel, TimeGrid
from .errors import ConfigError, ConvergenceError

DEFAULT_T_MAX = 20.0  # the horizon: t <= 20/gamma0 (AD, driven) or nu <= 20 (PD)
DEFAULT_N_STEPS = 20000
CONVERGENCE_TOL = 1e-4
MAX_DOUBLINGS = 3


@dataclass(frozen=True)
class MeasureSeries:
    """Sampled D(t) or C(t) values on a time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_steps + 1,):
            raise ConfigError(
                f"series length {values.shape} does not match grid "
                f"({self.grid.n_steps + 1} samples)"
            )
        if values.min() < -1e-9 or values.max() > 1.0 + 1e-9:
            raise ConfigError("series values must lie in [0, 1]")
        object.__setattr__(self, "values", np.clip(values, 0.0, 1.0))


@dataclass(frozen=True)
class MeasureResult:
    """Value on [0, horizon], exact or grid-converged; tail_bound: the most it
    gains past the horizon (None: no bound established, the driven channel)."""

    value: float
    converged: bool
    horizon: float
    tail_bound: float | None = None


def default_grid() -> TimeGrid:
    """Default accumulation horizon: t (or nu) in [0, 20], 20000 intervals."""
    return TimeGrid(DEFAULT_T_MAX, DEFAULT_N_STEPS)


def revival_measure(channel: Channel, horizon: float = DEFAULT_T_MAX) -> MeasureResult:
    """Exact positive variation of |coherence| of an undriven channel: the
    K = floor(horizon w / pi) peaks give q (1 - q^K) / (1 - q), plus |coherence(horizon)|
    past the zero z_K = (pi - atan(w/a) + K pi) / w; 0 for w^2 <= 0."""
    if not horizon >= 0:
        raise ConfigError(f"horizon must be >= 0, got {horizon}")
    a, w2 = channel.rates
    if w2 <= 0.0:
        return MeasureResult(0.0, True, horizon, 0.0)
    w = math.sqrt(w2)
    q = math.exp(-a * math.pi / w)
    k = math.floor(horizon * w / math.pi)
    value = q * (1.0 - q**k) / (1.0 - q)
    if horizon > (math.pi - math.atan(w / a) + k * math.pi) / w:
        value += abs(float(channel.coherence(horizon)))
    return MeasureResult(value, True, horizon, q / (1.0 - q) - value)


def entanglement_series(channel: Channel, grid: TimeGrid) -> MeasureSeries:
    """Bell-pair concurrence series of the driven channel (undriven: revival_measure)."""
    return MeasureSeries(grid, qmath.concurrence(channel.bell_and_plus(grid)[0]))


def accumulate(series: MeasureSeries) -> MeasureResult:
    """Sum of positive increments of the series; converged=False, since one
    grid cannot tell (n_entanglement doubles it)."""
    diffs = np.diff(series.values)
    value = float(np.clip(diffs, 0.0, None).sum())
    return MeasureResult(value, False, series.grid.t_max)


def n_trace_distance(channel: Channel, grid: TimeGrid | None = None) -> MeasureResult:
    """Trace-distance measure of an undriven channel on [0, grid.t_max]
    (revival_measure; only the grid's horizon matters)."""
    if not channel.closed_form:
        raise ConfigError("the trace-distance measure is not evaluated for the driven channel")
    return revival_measure(channel, (grid or default_grid()).t_max)


def n_entanglement(
    channel: Channel,
    grid: TimeGrid | None = None,
    max_doublings: int = MAX_DOUBLINGS,
) -> MeasureResult:
    """Entanglement measure on [0, grid.t_max]: revival_measure for the
    undriven channels, grid doubling until converged for the driven one."""
    grid = grid or default_grid()
    if channel.closed_form:
        return revival_measure(channel, grid.t_max)
    prev = accumulate(entanglement_series(channel, grid))
    change = float("inf")
    for _ in range(max_doublings):
        grid = grid.doubled()
        cur = accumulate(entanglement_series(channel, grid))
        change = abs(cur.value - prev.value)
        if change < CONVERGENCE_TOL:
            return MeasureResult(cur.value, True, grid.t_max)
        prev = cur
    raise ConvergenceError(
        f"measure did not converge after {max_doublings} grid doublings "
        f"(last change {change:.3e})"
    )
