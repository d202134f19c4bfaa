"""Non-Markovianity measures on [0, horizon]: accumulated positive increments
of distinguishability (trace distance) or of system-ancilla entanglement.

The optimal inputs replace the optimization over initial states: the pair
|+>, |-> for the trace distance, the Bell state (|gg> + |ee>)/sqrt(2) with an
untouched ancilla for entanglement.  Under the undriven channels both series
are |coherence|, a damped oscillation exp(-a t) [cos(w t) + (a/w) sin(w t)]
whose |maxima| sit at t_k = k pi / w with height q^k, q = exp(-a pi / w), so
both measures are one exact sum over those revival peaks (_revival), with
no time grid and a bound on what lies past the horizon, taken for a whole
table's channels in one array pass.  The driven channel has no closed
form.  Its entanglement measure is the sum of the
rises of the Bell-pair concurrence C(t) between its turning points
(driven_entanglement, which also yields the tomography features from the
same propagator).  The propagator evaluates any time exactly, so C is
sampled on a coarse grid and then refined, in a few vectorised rounds, only
at the turning points and in the last interval; the stated grid_error is a
first-order estimate of what the final brackets miss, not a bound.  Turns
whose error is below REFINE_FLOOR, which rounding noise of the concurrence
alone cannot reach, are not refined: the rounding floor (CONCURRENCE_FLOOR)
is stated, not chased.  qmath.concurrence takes eigenvalues of rho rho~ at
or below eps times their state's largest as 0, so a true one below that cut
can bias C high by up to 3 sqrt(eps), about 4.5e-8.  That bias cannot reach
a sample whose partial transpose has a determinant above qmath.PPT_DET_CUT:
such a state is separable, and qmath.concurrence returns exactly 0 for it
without an eigensolve.  The driven trace-distance measure is not evaluated.
A row takes one of two routes: closed_form_rows gives every undriven row of
a table in one array pass, and driven_entanglement one driven row.
dataset.table_rows picks the route of each table row, sweep value and fig4
point; n_entanglement and n_trace_distance, the library measures, pick it
for one channel, and take the undriven one as the one-element case of
closed_form_rows, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels, qmath
from .channels import DEFAULT_T_MAX, Channel, DrivenAmplitudeDamping, TimeGrid
from .errors import ConfigError

DEFAULT_N_STEPS = 1000  # the driven measure's coarse grid
REFINE_ROUNDS = 4  # refinement rounds at the turning points of the driven concurrence
REFINE_SPLIT = 8  # each interval next to a turning point splits into this many
CONCURRENCE_FLOOR = 1e-8  # stated noise floor of qmath.concurrence near rank-deficient states
# twice the largest error contribution 0.75 |C[k+1] - C[k-1]| that two samples
# each off by CONCURRENCE_FLOOR can fake: smaller turns are not refined
REFINE_FLOOR = 3 * CONCURRENCE_FLOOR


@dataclass(frozen=True)
class MeasureResult:
    """Value on [0, horizon]; grid_error: the estimated gap to the
    continuous-time measure on the same horizon (0.0 for the exact revival
    sums); tail_bound: the most it gains past the horizon (None: no bound
    established, the driven channel)."""

    value: float
    grid_error: float
    horizon: float
    tail_bound: float | None = None


def default_grid() -> TimeGrid:
    """t (or nu) in [0, 20], 1000 intervals: the horizon of every measure,
    and the coarse grid of the driven one."""
    return TimeGrid(DEFAULT_T_MAX, DEFAULT_N_STEPS)


def _revival(a, w2, k, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The exact positive variation of |coherence| on [0, horizon] and its
    tail bound, the most it gains past the horizon, at each channel's rates
    (a, w2, k) of channels._oscillation, arrays of one shape, in one array
    pass.  The K = floor(horizon w / pi) peaks give q (1 - q^K) / (1 - q),
    plus |coherence(horizon)| past the zero z_K = (pi - atan(w/a) + K pi) / w;
    both are 0 for w^2 <= 0."""
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ConfigError(f"horizon must be finite and >= 0, got {horizon}")
    value, tail = np.zeros(a.shape), np.zeros(a.shape)
    up = w2 > 0.0
    a, w2, k = a[up], w2[up], k[up]
    w = np.sqrt(w2)
    x = a * math.pi / w
    q = np.exp(-x)
    peaks = np.floor(horizon * w / math.pi)
    # where q rounds to 1 (lambda below 2.5e-33, tau above 1.4e16), 1 - q^j is -expm1(-j x)
    below = q < 1.0
    rest = np.where(below, 1.0 - q**peaks, -np.expm1(-peaks * x))
    gap = np.where(below, 1.0 - q, -np.expm1(-x))
    sums = np.where(peaks > 0.0, q * rest / gap, 0.0)
    past = horizon > (math.pi - np.arctan(w / a) + peaks * math.pi) / w
    at = np.full(np.count_nonzero(past), horizon)
    sums[past] += np.abs(channels._oscillation(at, a[past], w2[past], k[past]))
    value[up], tail[up] = sums, q / gap - sums
    return value, tail


def _turns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Over the interior samples k of a series C: where the increments change
    sign, except minima at exactly 0, and the error contributions
    0.75 |C[k+1] - C[k-1]|."""
    diffs = np.diff(values)
    turning = (diffs[:-1] * diffs[1:] < 0.0) & (values[1:-1] != 0.0)
    return turning, 0.75 * np.abs(values[2:] - values[:-2])


def positive_increments(values) -> tuple[float, float]:
    """Sum of the positive increments of a sampled series C, and its grid
    error 0.75 sum_k |C[k+1] - C[k-1]| over the interior samples k where the
    increments change sign.

    The samples miss the part of each turning point that falls between them.
    At a cusp (a zero of |G|, where C dips to 0 between samples) that is, to
    first order in the spacing, half of |C[k+1] - C[k-1]|; at a smooth
    extremum it is at most an eighth of it; the factor 0.75 adds half again
    as margin.  Where C sits at exactly 0 (sudden death) the rise restarts
    from a sample and nothing is missed, so such minima count no error.  The
    estimate assumes the samples resolve every turning point, no two within
    one interval; for driven_entanglement that is the coarse grid, since
    refinement only looks where they turn and in the last interval.  It is a
    first-order estimate, not a bound: for the driven pair (1.35, 0) a cusp's
    lowest sample lies 2.8e-4 from its zero; the turn states 3.0e-9, misses 6.4e-8.
    """
    values = np.asarray(values, dtype=float)
    turning, error = _turns(values)
    return float(np.clip(np.diff(values), 0.0, None).sum()), float(error[turning].sum())


def _bell_concurrence(evaluate, grid: TimeGrid) -> np.ndarray:
    """Concurrence of the evolved Bell pair (evaluate: a guarded evaluator of
    channels._evolver) on the grid refined at its turning points, in time
    order.

    Each round takes every turning sample k of _turns whose error
    contribution is at least REFINE_FLOOR (below it the turn may be rounding
    noise, which splitting would only sample more often) and splits both
    intervals next to k into REFINE_SPLIT, so the bracket around the turning
    point, and its error contribution, shrinks by REFINE_SPLIT per round.
    A turn inside the last interval changes the sign of no increment, so the
    last sample counts as one, with 0.75 |C[-1] - C[-2]|, unless C is 0 there.
    """
    times = grid.values
    values = qmath.concurrence(evaluate(grid))
    steps = np.arange(1, REFINE_SPLIT) / REFINE_SPLIT
    for _ in range(REFINE_ROUNDS):
        turning, error = _turns(values)
        turning = np.append(turning, values[-1] != 0.0)
        error = np.append(error, 0.75 * abs(values[-1] - values[-2]))
        k = np.flatnonzero(turning & (error >= REFINE_FLOOR))  # turns at samples k + 1
        if not k.size:
            break
        # split [t_i, t_(i+1)] for i in left, the intervals next to each turn
        left = np.unique(np.minimum(np.concatenate([k, k + 1]), len(times) - 2))
        new = (times[left, None] + np.diff(times)[left, None] * steps).reshape(-1)
        times = np.concatenate([times, new])
        values = np.concatenate([values, qmath.concurrence(evaluate(new))])
        order = np.argsort(times)
        times, values = times[order], values[order]
    return values


def driven_entanglement(
    channel: DrivenAmplitudeDamping, grid: TimeGrid | None = None, times=()
) -> tuple[MeasureResult, np.ndarray]:
    """Entanglement measure of the driven channel on [0, grid.t_max], and the
    Bloch vectors of the evolved |+> at the tomography times, concatenated
    (the features of its table row).

    One mode build, on the Fock ladder, serves both states, and their
    leak and drift guards run over the whole horizon before any state is
    assembled: a target does not depend on which features are asked with
    it, and a truncation that leaks costs no states.  The Bell pair is
    evaluated on the coarse grid (default DEFAULT_N_STEPS intervals) and then
    at its turning points and in its last interval, REFINE_ROUNDS rounds deep
    (_bell_concurrence); |+> only at times, which must lie within the horizon.
    The value and its grid_error are positive_increments of the concurrence
    on the merged samples.  The value also carries the stated floor
    CONCURRENCE_FLOOR: turns below REFINE_FLOOR are not refined, and their
    share stays in grid_error.
    """
    grid = grid or default_grid()
    times = tuple(float(t) for t in times)
    if not all(0.0 <= t <= grid.t_max for t in times):
        raise ConfigError(f"tomography times {times} must lie within [0, {grid.t_max}]")
    bell, plus = channels._evolver(channel, channels._DRIVEN_STATES, grid.t_max)
    value, grid_error = positive_increments(_bell_concurrence(bell, grid))
    features = qmath.bloch_vector(plus(times)).reshape(-1)
    return MeasureResult(value, grid_error, grid.t_max), features


def closed_form_rows(cls, params, times=(), horizon: float = DEFAULT_T_MAX):
    """The table rows of an undriven channel class (PhaseDamping or
    AmplitudeDamping) at each parameter value, in one array pass: the values
    and tail bounds of _revival on [0, horizon], and the features, the Bloch
    vectors of the evolved |+> at times concatenated, one row each."""
    params = np.asarray(params, dtype=float).reshape(-1)
    value, tail = _revival(*cls.rates_at(params), horizon)
    features = cls.plus_from(cls.coherence_at(params, times))
    return value, tail, features.reshape(len(params), 3 * np.size(times))


def n_trace_distance(channel: Channel, grid: TimeGrid | None = None) -> MeasureResult:
    """Trace-distance measure of an undriven channel on [0, grid.t_max]: under
    both undriven channels the same revival sum as n_entanglement."""
    if not channel.closed_form:
        raise ConfigError("the trace-distance measure is not evaluated for the driven channel")
    return n_entanglement(channel, grid)


def n_entanglement(channel: Channel, grid: TimeGrid | None = None) -> MeasureResult:
    """Entanglement measure on [0, grid.t_max]: the one-element case of
    closed_form_rows for an undriven channel, and driven_entanglement on grid
    (the coarse grid) for the driven one."""
    grid = grid or default_grid()
    if not channel.closed_form:
        return driven_entanglement(channel, grid)[0]
    value, tail, _ = closed_form_rows(type(channel), channel.param, horizon=grid.t_max)
    return MeasureResult(float(value[0]), 0.0, grid.t_max, float(tail[0]))
