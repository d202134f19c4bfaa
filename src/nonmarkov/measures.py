"""Non-Markovianity measures on [0, horizon]: accumulated positive increments
of distinguishability (trace distance) or of system-ancilla entanglement.

The optimal inputs replace the optimization over initial states: the pair
|+>, |-> for the trace distance, the Bell state (|gg> + |ee>)/sqrt(2) with an
untouched ancilla for entanglement.  Under the undriven channels both series
are |coherence|, a damped oscillation exp(-a t) [cos(w t) + (a/w) sin(w t)]
whose |maxima| sit at t_k = k pi / w with height q^k, q = exp(-a pi / w), so
both measures are one exact sum over those revival peaks (revival_measure),
with no time grid and a bound on what lies past the horizon.  The driven
channel has no closed form: its entanglement measure is the positive-increment
sum of the Bell-pair concurrence on one time grid, with a stated grid error
(driven_entanglement, which also yields the tomography features from the same
propagator); its trace-distance measure is not evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels, qmath
from .channels import Channel, DrivenAmplitudeDamping, TimeGrid
from .errors import ConfigError

DEFAULT_T_MAX = 20.0  # the horizon: t <= 20/gamma0 (AD, driven) or nu <= 20 (PD)
DEFAULT_N_STEPS = 20000


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
        return MeasureResult(0.0, 0.0, horizon, 0.0)
    w = math.sqrt(w2)
    q = math.exp(-a * math.pi / w)
    k = math.floor(horizon * w / math.pi)
    value = q * (1.0 - q**k) / (1.0 - q)
    if horizon > (math.pi - math.atan(w / a) + k * math.pi) / w:
        value += abs(float(channel.coherence(horizon)))
    return MeasureResult(value, 0.0, horizon, q / (1.0 - q) - value)


def positive_increments(values) -> tuple[float, float]:
    """Sum of the positive increments of a sampled series C, and its grid
    error 0.75 sum_k |C[k+1] - C[k-1]| over the interior samples k where the
    increments change sign.

    The grid misses the part of each turning point that falls between
    samples.  At a cusp (a zero of |G|, where C dips to 0 between samples)
    that is, to first order in the spacing, half of |C[k+1] - C[k-1]|; at a
    smooth extremum it is at most an eighth of it; the factor 0.75 adds half
    again as margin.  Where C sits at exactly 0 (sudden death) the rise
    restarts from a sample and nothing is missed.  The estimate assumes the
    grid resolves every turning point (no two within one interval).
    """
    values = np.asarray(values, dtype=float)
    diffs = np.diff(values)
    turning = diffs[:-1] * diffs[1:] < 0.0
    grid_error = 0.75 * float(np.abs(values[2:] - values[:-2])[turning].sum())
    return float(np.clip(diffs, 0.0, None).sum()), grid_error


def driven_entanglement(
    channel: DrivenAmplitudeDamping, grid: TimeGrid | None = None, times=()
) -> tuple[MeasureResult, np.ndarray]:
    """Entanglement measure of the driven channel on [0, grid.t_max], and the
    Bloch vectors of the evolved |+> at the tomography times, concatenated
    (the features of its table row).

    One propagator build, through the Fock ladder, serves both: the Bell pair
    is evaluated at every grid sample, |+> only at times (which must lie
    within the horizon), and both states are guarded over the whole horizon
    whatever times holds, so a target does not depend on which features are
    asked with it.  The value is the positive-increment sum of the Bell-pair
    concurrence on the grid (positive_increments, with its grid_error).  On
    top of grid_error the value carries a rounding floor of about 1e-8:
    qmath.concurrence loses about half its digits near rank-deficient states,
    and the sum picks up that noise wherever C is flat.
    """
    grid = grid or default_grid()
    times = tuple(float(t) for t in times)
    if not all(0.0 <= t <= grid.t_max for t in times):
        raise ConfigError(f"tomography times {times} must lie within [0, {grid.t_max}]")
    requests = [
        (qmath.ket2dm(qmath.KET_BELL), grid, "driven evolution (bell)"),
        (qmath.ket2dm(qmath.KET_PLUS), times, "driven evolution (plus)"),
    ]
    bell, plus = channels.fock_ladder(lambda ch: channels._evolve(ch, requests), channel)
    value, grid_error = positive_increments(qmath.concurrence(bell))
    return MeasureResult(value, grid_error, grid.t_max), qmath.bloch_vector(plus).reshape(-1)


def n_trace_distance(channel: Channel, grid: TimeGrid | None = None) -> MeasureResult:
    """Trace-distance measure of an undriven channel on [0, grid.t_max]
    (revival_measure; only the grid's horizon matters)."""
    if not channel.closed_form:
        raise ConfigError("the trace-distance measure is not evaluated for the driven channel")
    return revival_measure(channel, (grid or default_grid()).t_max)


def n_entanglement(channel: Channel, grid: TimeGrid | None = None) -> MeasureResult:
    """Entanglement measure on [0, grid.t_max]: revival_measure for the
    undriven channels, driven_entanglement on the grid for the driven one."""
    grid = grid or default_grid()
    if channel.closed_form:
        return revival_measure(channel, grid.t_max)
    return driven_entanglement(channel, grid)[0]
