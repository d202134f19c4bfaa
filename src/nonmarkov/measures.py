"""Non-Markovianity measures: accumulated positive increments of
distinguishability (trace distance) or of system-ancilla entanglement.

The optimization over initial states in both definitions is replaced by the
known optimal inputs: the sigma_x eigenstate pair |+>, |-> for the trace
distance, and the Bell state (|gg> + |ee>)/sqrt(2) with an untouched ancilla
for the entanglement measure.

For the pure channels both functionals have exact closed forms in the
channel's coherence factor, used here directly: the evolved |+>, |-> pair
differs only in its off-diagonals, so D(t) = |Lambda(nu)| (PD) or |G(t)| =
sqrt(P_t) (AD); the one-sided channels turn the Bell state into an X-state
whose Wootters concurrence reduces to the same expression.  The Kraus maps
and the generic eigensolver routes in qmath serve as independent oracles in
the test suite.  The driven channel has no closed form: its entanglement
series is the concurrence of the Bell pair from the spectral pseudomode
propagator and its Fock ladder, and its trace-distance measure is not
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .channels import Channel, TimeGrid
from .errors import ConfigError, ConvergenceError

DEFAULT_T_MAX = 20.0
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
    """Accumulated measure value, its series, and the grid-convergence flag."""

    value: float
    series: MeasureSeries
    converged: bool


def default_grid() -> TimeGrid:
    """Default accumulation horizon: t (or nu) in [0, 20], 20000 intervals."""
    return TimeGrid(DEFAULT_T_MAX, DEFAULT_N_STEPS)


def trace_distance_series(channel: Channel, grid: TimeGrid) -> MeasureSeries:
    """D(t) = |coherence| between the evolutions of |+><+| and |-><-|."""
    if not channel.closed_form:
        raise ConfigError("the trace-distance measure is not evaluated for the driven channel")
    return MeasureSeries(grid, np.abs(channel.coherence(grid.values)))


def entanglement_series(channel: Channel, grid: TimeGrid) -> MeasureSeries:
    """Concurrence of the Bell pair under one-sided evolution: |coherence|
    in closed form, else the concurrence of the propagated pair."""
    if channel.closed_form:
        values = np.abs(channel.coherence(grid.values))
    else:
        values = qmath.concurrence(channel.bell_and_plus(grid)[0])
    return MeasureSeries(grid, values)


def accumulate(series: MeasureSeries) -> MeasureResult:
    """Sum of positive increments of the series.

    The converged flag cannot be established from a single series; the
    n_trace_distance / n_entanglement drivers set it by recomputing on a
    doubled grid.
    """
    diffs = np.diff(series.values)
    value = float(np.clip(diffs, 0.0, None).sum())
    return MeasureResult(value, series, False)


def _accumulate_until_converged(series_fn, grid, max_doublings):
    prev = accumulate(series_fn(grid))
    change = float("inf")
    for _ in range(max_doublings):
        grid = grid.doubled()
        cur = accumulate(series_fn(grid))
        change = abs(cur.value - prev.value)
        if change < CONVERGENCE_TOL:
            return MeasureResult(cur.value, cur.series, True)
        prev = cur
    raise ConvergenceError(
        f"measure did not converge after {max_doublings} grid doublings "
        f"(last change {change:.3e})"
    )


def n_trace_distance(
    channel: Channel,
    grid: TimeGrid | None = None,
    max_doublings: int = MAX_DOUBLINGS,
) -> MeasureResult:
    """Trace-distance measure with automatic grid doubling until converged."""
    grid = grid or default_grid()
    return _accumulate_until_converged(
        lambda g: trace_distance_series(channel, g), grid, max_doublings
    )


def n_entanglement(
    channel: Channel,
    grid: TimeGrid | None = None,
    max_doublings: int = MAX_DOUBLINGS,
) -> MeasureResult:
    """Entanglement measure with automatic grid doubling until converged."""
    grid = grid or default_grid()
    return _accumulate_until_converged(
        lambda g: entanglement_series(channel, g), grid, max_doublings
    )
