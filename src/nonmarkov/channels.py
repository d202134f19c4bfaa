"""Time evolution under the three channel back-ends.

Each channel class answers for its own physics: the Bloch vector of the
evolved |+> (bloch_plus, the tomography features) and, for the two undriven
channels, the coherence factor that scales the off-diagonals (coherence;
closed_form = True).  Both undriven coherences are one damped oscillation,
exp(-a t) [cos(w t) + (a/w) sin(w t)] (_oscillation), and each class states
only its rates (a, w^2) and, exactly, a^2 + w^2, at an array of its
parameter (rates_at), and its Bloch vector of |+> as a function of its
coherence (plus_from).  _oscillation takes arrays of rates, one channel
each, and picks each channel's branch by masks, so a whole table's
coherences are one array pass (coherence_at), and every method of one
channel is its one-element case, bit for bit; a channel's rates are rates_at
of its param.  Phase damping dephases with Lambda(nu), a = 1 and
w^2 = (4 tau)^2 - 1 at dimensionless time nu, so |+> goes to (Lambda, 0, 0).
Undriven amplitude damping scales coherences with the signed amplitude G(t),
a = lambda/2 and w^2 = (2 lambda - lambda^2)/4, and the excited population
with P_t = G^2, so |+> goes to (G, 0, G^2 - 1); lambda is in units of the
coupling gamma0 and t in units of 1/gamma0, for both amplitude-damping
channels.  Where w^2 < 0 the hyperbolic rewrite keeps every output
manifestly real, and where some a t exceeds 700, past which exp(-a t)
underflows and cosh(w t) overflows, it is evaluated as its two decaying
exponentials, the slow rate a - w as (a^2 + w^2) / (a + w); the degenerate
points 4 tau = 1 and lambda = 2 take the analytic limit.  A parameter whose
rates overflow (lambda above 1.3e154, tau above 3.3e153) is a ConfigError,
and one check over an array of them names the first bad value.

The driven case has no closed form (closed_form = False) and is solved as a
qubit coupled to a damped pseudomode oscillator,
d rho/dt = -i[H, rho] + lambda (2 b rho b+ - b+b rho - rho b+b),
H = Omega (s+ + s-) + sqrt(lambda / 2) (s+ b + b+ s-),
in a frame rotating with the drive.  The generator is time independent and
linear in its parameters, L = lambda D + sqrt(lambda / 2) G + Omega W, and
real in an orthonormal Hermitian operator basis B_k; its parts (dissipator,
coupling, drive), the matrices Tr(B_j P(B_k)), are built once per n_fock
(_pseudomode), and a pair (lambda, omega) only sums them (_generator).
The four initial operators |a><b| (x) |0><0| evolve together, and a state's
trajectory is their combination, folded into their amplitudes before any
sample is formed (_fold).  The propagator exp(L t) is
exact by eigendecomposition of L, evaluated at any set of times with no time
step.  Where L is defective or nearly so (the exceptional points
omega = 0, lambda = 2N, and their neighbourhood), each cluster of
coalescing eigenvalues enters as an invariant-subspace block instead, with
the Taylor series of its nilpotent part.  L commutes with
S(X) = sz X^T sz (sz on the qubit, the identity on the pseudomode), which
is +1 or -1 on each element of the Hermitian basis, so L splits into an even
sector of n(2n + 1) coordinates and an odd one of n(2n - 1) at n_fock = n
(136 and 120 at 8, 300 and 276 at 12), each decomposed on its own; each part
is checked once to have no entry between them.  The top-level and trace
readouts are diagonal, so even: the leak and drift guard reads the even
sector alone, and the odd one is decomposed only once every state has passed
it.  The guard folds each state's qubit part into the even sector's
top-level and trace amplitudes before any sample is formed, so one pass over
the guard samples checks every state (_guard_rows).  Those amplitudes also
bound each row at every t from a time s on, as sum_m |A_m| times the largest
|f_m| on [s, t_max]; the guard samples in time order only until every state
is either certified by that bound from its next sample on or fails at a
sample, and its outcome is that of checking every sample (_check_physical).

One mode build (_evolver) serves several states and any number of calls at
arbitrary times within its horizon, for instance the Bell pair on the
measure's coarse grid and at its refinements, and |+> at the tomography
times.  Every driven result passes four guards: the spectral form must
reproduce the initial operators at t = 0 (RECONSTRUCTION_TOL); the top Fock
level must stay below LEAK_TOL and the trace within TRACE_DRIFT_TOL of 1 at
samples at least every GUARD_STEP over the whole horizon, each sample checked
or bounded, before any state is assembled; and the reduced states must be
valid density matrices.
_evolver, the one driven route, truncates the pseudomode at the first
n_fock of FOCK_LADDER (4, 6, 8, 12, 16) whose leak guard passes, under the
one LEAK_TOL = 1e-8 on every rung.  The truncation error this leaves is
stated against the next rung: over the 667-pair smoke grid (lambda from 0.1
in steps of 0.1, every drive of dataset.omega_grid, tomography times 3, 5,
6 and 10), features moved by at most 2.3e-7 (at (0.7, 0.5), rungs 6 and 8)
and targets by at most 2.0e-8 (at (0.2, 0.11)), so the stated bounds are
30 LEAK_TOL for a feature and 3 LEAK_TOL for a target.  369 of those pairs
settle on 4, 262 on 6, 30 on 8 and 6 on 12.  The target bound also covers
the concurrence's rounding floor: at zero drive every rung is exact (one
excitation never reaches level 2), yet (0.3, 0) moves by 2.1e-8 from 4 to 6.

A drive below DRIVE_CUT = LEAK_TOL / (2 DEFAULT_T_MAX) = 2.5e-10 is left
out, by _generator and by dataset.make_channel and dataset.table_rows, which
take the closed form of amplitude damping there (dataset.KINDS names each
kind's closed-form class).  The drive part -i omega [sx, .] has trace-norm
gain at most 2 omega, and the truncated generator is a Lindblad generator,
whose semigroup contracts the trace norm; so by Duhamel's formula
||rho_omega(t) - rho_0(t)||_1 <= 2 omega t, and on [0, 20] no feature moves
by more than 40 omega <= LEAK_TOL.  No such bound is claimed for a target,
the concurrence's positive variation.  Kept, drives from 1e-15 to 3.2e-11
fail the density check or the drift guard at 355 of 500 pairs (lambda from
0.1 to 9.9).  The block search solves with gen - sigma I instead of
inverting it: a backward-stable solve puts its error into the subspace
sought (Peters & Wilkinson, SIAM Rev. 21, 339 (1979)), so the residual
reaches _BLOCK_TOL at lambda = 2N too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import qmath
from .errors import ConfigError, NumericError, TruncationLeakError

DEFAULT_T_MAX = 20.0  # the horizon: t <= 20/gamma0 (AD, driven) or nu <= 20 (PD)
FOCK_LADDER = (4, 6, 8, 12, 16)  # pseudomode truncations n_fock, tried in order on a leak
LEAK_TOL = 1e-8
TRACE_DRIFT_TOL = 1e-8
DRIVE_CUT = LEAK_TOL / (2 * DEFAULT_T_MAX)  # the least drive kept: it moves a feature by <= 2 omega t
RECONSTRUCTION_TOL = 1e-10  # spectral trajectory vs initial operators at t = 0
GUARD_STEP = 1e-3  # largest spacing of the leak and drift checks (units 1/gamma0)
_DEGENERATE_TOL = 1e-6  # switch to the limit w -> 0 when |w| falls below
_CHUNK = 256  # times per block of a TimeGrid: the exp(w t) table is 256 x D^2
_CLUSTER_TOL = 1e-2  # eigenvalues this close may share a nearly defective block
_DEPENDENT_TOL = 1e-3  # ... when their unit eigenvectors' least singular value is below
_BLOCK_TOL = 1e-12  # invariant-subspace residual, relative to the largest generator entry
_BLOCK_ITERATIONS = 60
_MAX_TERMS = 60  # Taylor terms of exp(N t) for one block
_FACTORIALS = np.array([float(math.factorial(p)) for p in range(_MAX_TERMS)])  # p! of a mode's power p
# every driven evolution guards a table row's Bell pair (target) and |+> (features)
_DRIVEN_STATES = (
    (qmath.ket2dm(qmath.KET_BELL), "driven evolution (bell)"),
    (qmath.ket2dm(qmath.KET_PLUS), "driven evolution (plus)"),
)


def _check(values: np.ndarray, square: np.ndarray, name: str) -> None:
    """A ConfigError naming the first of the parameter values that is not
    finite and > 0, or whose square (the rates' square, computed with
    overflow to inf) overflows."""
    domain = ~(np.isfinite(values) & (values > 0))
    bad = np.flatnonzero(domain | ~np.isfinite(square))
    if not bad.size:
        return
    value = float(values.flat[bad[0]])
    if domain.flat[bad[0]]:
        raise ConfigError(f"{name} must be finite and > 0, got {value}")
    raise ConfigError(f"{name} = {value:g} is too large: the rates of its coherence overflow")


class _Undriven:
    """What both undriven channels share.  A subclass states its one
    parameter (param), its rates at an array of parameter values (rates_at)
    and the Bloch vector of |+> as a function of its coherence (plus_from);
    coherence_at evaluates a whole table of them in one array pass, and every
    method of a channel is its one-element case."""

    closed_form: ClassVar[bool] = True

    def __post_init__(self):
        self.rates_at(self.param)

    @classmethod
    def coherence_at(cls, params, times):
        """The coherence at each parameter value (shape S) and each of times
        (shape T), shape S + T; a float where both are scalars."""
        a, w2, k = cls.rates_at(params)
        times = np.asarray(times, dtype=float)
        return _oscillation(np.broadcast_to(times, a.shape + times.shape), a, w2, k)

    def coherence(self, t):
        """The coherence at the time or times t."""
        return self.coherence_at(self.param, t)

    def bloch_plus(self, times) -> np.ndarray:
        """(O_x, O_y, O_z) of the evolved |+>, one row per time."""
        return self.plus_from(self.coherence(times))


@dataclass(frozen=True)
class PhaseDamping(_Undriven):
    """Colored dephasing with memory parameter tau (> 0); time is nu = t/2tau.
    Its coherence is the dephasing factor Lambda(nu)."""

    tau: float

    @property
    def param(self) -> float:
        return self.tau

    @staticmethod
    def rates_at(tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, w^2, a^2 + w^2) = (1, (4 tau)^2 - 1, (4 tau)^2) of Lambda(nu)
        at each tau; a tau that is not finite and > 0, or whose rates
        overflow, is a ConfigError naming the first."""
        tau = np.asarray(tau, dtype=float)
        with np.errstate(over="ignore"):
            k = (4.0 * tau) * (4.0 * tau)  # a product: ** of a numpy scalar may call pow
        _check(tau, k, "tau")
        return np.ones_like(k), k - 1.0, k

    @staticmethod
    def plus_from(lam) -> np.ndarray:
        """(Lambda, 0, 0), along a new last axis."""
        return np.stack([lam, np.zeros_like(lam), np.zeros_like(lam)], axis=-1)


@dataclass(frozen=True)
class AmplitudeDamping(_Undriven):
    """Lorentzian-reservoir decay with width lam (> 0), in units of gamma0.
    Its coherence is the signed excited-state amplitude G(t); P_t = G^2, and G
    goes negative past its zeros in the strong-coupling regime."""

    lam: float

    @property
    def param(self) -> float:
        return self.lam

    @staticmethod
    def rates_at(lam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, w^2, a^2 + w^2) = (lambda/2, (2 lambda - lambda^2)/4, lambda/2)
        of G(t) at each lambda; a lambda that is not finite and > 0, or whose
        rates overflow, is a ConfigError naming the first."""
        lam = np.asarray(lam, dtype=float)
        with np.errstate(over="ignore"):
            square = lam * lam
        _check(lam, square, "lambda")
        return lam / 2.0, (2.0 * lam - square) / 4.0, lam / 2.0

    @staticmethod
    def plus_from(g) -> np.ndarray:
        """(G, 0, P_t - 1), along a new last axis."""
        return np.stack([g, np.zeros_like(g), g * g - 1.0], axis=-1)


@dataclass(frozen=True)
class DrivenAmplitudeDamping:
    """Amplitude damping plus a resonant drive of strength omega (>= 0)."""

    lam: float
    omega: float
    closed_form: ClassVar[bool] = False

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lambda must be finite and > 0, got {self.lam}")
        if not (math.isfinite(self.omega) and self.omega >= 0):
            raise ConfigError(f"omega must be finite and >= 0, got {self.omega}")

    def bloch_plus(self, times) -> np.ndarray:
        """(O_x, O_y, O_z) of the evolved |+>, one row per time (TimeGrid or
        sequence).  Guarded as a table row is, so both settle on one rung: its
        states over the measure horizon DEFAULT_T_MAX, and past it up to the
        last time."""
        t_max = max(DEFAULT_T_MAX, _last_time(times))
        return qmath.bloch_vector(_evolver(self, _DRIVEN_STATES, t_max)[1](times))


Channel = PhaseDamping | AmplitudeDamping | DrivenAmplitudeDamping


@dataclass(frozen=True)
class TimeGrid:
    """Uniform samples 0 = t_0 < ... < t_max with n_steps intervals."""

    t_max: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max >= 0):
            raise ConfigError(f"t_max must be finite and >= 0, got {self.t_max}")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ConfigError(f"n_steps must be an integer >= 1, got {self.n_steps}")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)

    @property
    def spacing(self) -> float:
        return self.t_max / self.n_steps


def _oscillation(t, a, w2, k):
    """exp(-a t) [cos(w t) + (a/w) sin(w t)], w = sqrt(w2), at times t >= 0:
    the coherence of both undriven channels, given their rates and
    k = a^2 + w2, exact.  The rates are arrays of one shape S, a channel
    each, and t has shape S + T: its trailing axes are that channel's times.
    Each channel takes its own branch.  For w2 < 0 the hyperbolic rewrite
    with sqrt(-w2) keeps the value manifestly real, and where some a t of the
    channel exceeds 700 it is taken as
    ((1 + a/w) exp(-(a - w) t) + (1 - a/w) exp(-(a + w) t)) / 2,
    with a - w = k / (a + w), which does not cancel;
    where |w2| < _DEGENERATE_TOL^2 the limit exp(-a t) (1 + a t) is taken."""
    t = np.asarray(t, dtype=float)
    if not (t >= 0).all():
        raise ConfigError("times must be >= 0")
    trailing = (...,) + (None,) * (t.ndim - a.ndim)  # a channel's rates against its times

    def part(rows):
        return t[rows], *(r[rows][trailing] for r in (a, w2, k))

    flat = np.abs(w2) < _DEGENERATE_TOL**2
    under = ~flat & (w2 > 0.0)
    near = ~flat & ~under & (a * t.max(axis=tuple(range(a.ndim, t.ndim)), initial=0.0) <= 700.0)
    far = ~flat & ~under & ~near
    out = np.empty(t.shape)
    if flat.any():
        tr, ar, _, _ = part(flat)
        out[flat] = np.exp(-ar * tr) * (1.0 + ar * tr)
    if under.any():
        tr, ar, wr2, _ = part(under)
        w = np.sqrt(wr2)
        out[under] = np.exp(-ar * tr) * (np.cos(w * tr) + (ar / w) * np.sin(w * tr))
    if near.any():
        tr, ar, wr2, _ = part(near)
        w = np.sqrt(-wr2)
        out[near] = np.exp(-ar * tr) * (np.cosh(w * tr) + (ar / w) * np.sinh(w * tr))
    if far.any():
        # past a t = 700 exp(-a t) leaves the normal range and cosh(w t)
        # overflows; w < a for both channels, so both exponentials decay
        tr, ar, wr2, kr = part(far)
        w = np.sqrt(-wr2)
        slow, fast = np.exp(-kr / (ar + w) * tr), np.exp(-(ar + w) * tr)
        out[far] = ((1.0 + ar / w) * slow + (1.0 - ar / w) * fast) / 2.0
    return float(out) if out.ndim == 0 else out


@functools.cache
def _pseudomode(n: int):
    """What the pseudomode problem at n Fock levels keeps for every (lambda,
    omega), read-only: (even, c0, red, start, parts).

    Operators of qubit (x) pseudomode, d = 2n (index a * n + i for qubit a,
    Fock level i), have coordinates Tr(B_k X) in the orthonormal Hermitian
    basis B_k: E_pp, then (E_pq + E_qp)/sqrt(2) and i(E_pq - E_qp)/sqrt(2)
    for p < q, so X_pp, (X_pq + X_qp)/sqrt(2) and i(X_qp - X_pq)/sqrt(2).
    S(X) keeps the elements that even marks and negates the others: with
    s_p = +1 on the excited block and -1 on the ground block, it takes E_pp
    to itself, the symmetric element to s_p s_q times it and the
    antisymmetric one to -s_p s_q times it.  c0 holds the coordinates of the
    initial operators |a><b| (x) |0><0|, ab = ee, eg, ge, gg, one column
    each; red the six read-outs of the B_k, one row each: the qubit-reduced
    entries ee, eg, ge, gg, the top Fock level population and the trace
    (diagonal, so even); start the same read-outs of the initial operators,
    the exact rows at t = 0, one row per operator.  parts holds the
    dissipator D(X) = 2 b X b+ - b+b X - X b+b, the coupling
    G(X) = -i[s+ b + b+ s-, X] and the drive W(X) = -i[sx, X], each as the
    nonzero entries (where, values) of Tr(B_j P(B_k)), P applied to 2n basis
    matrices at a time, and checked to couple no even element to an odd one
    (H is real, sz H sz flips the sign of the drive and the coupling, and b
    is real)."""
    d = 2 * n
    p, q = np.triu_indices(d, 1)
    diag, r = np.arange(d), 1.0 / math.sqrt(2.0)
    # B_k holds entry[k] at (first[k], second[k]) and its conjugate at
    # (second[k], first[k]), which is the same place for E_pp
    first, second = np.concatenate([diag, p, p]), np.concatenate([diag, q, q])
    entry = np.concatenate([np.ones(d), np.full(len(p), r), np.full(len(p), 1j * r)])
    same = (p < n) == (q < n)  # s_p s_q = +1
    even = np.concatenate([np.ones(d, dtype=bool), same, ~same])

    def coords(x):  # Tr(B_k x) of each operator of a stack, k along the last axis
        upper, lower = x[:, p, q], x[:, q, p]
        return np.concatenate([x[:, diag, diag], r * (upper + lower), 1j * r * (lower - upper)], 1)

    def basis(k):  # B_k, ..., B_{k + d - 1}; all d^2 at once are 16.8 MB at n = 16
        at = slice(k, k + d)
        out = np.zeros((d, d, d), dtype=complex)
        out[diag, first[at], second[at]] = entry[at]
        out[diag, second[at], first[at]] = entry[at].conj()
        return out

    def nonzero(apply):  # Tr(B_j P(B_k)), P applied to 2n basis matrices B_k at a time
        gen = np.empty((d * d, d * d))
        for k in range(0, d * d, d):
            gen[:, k : k + d] = coords(apply(basis(k))).real.T
        where = np.nonzero(gen)
        values = gen[where]
        cross = np.abs(values[even[where[0]] != even[where[1]]])
        if cross.size:
            raise NumericError(f"pseudomode generator couples the sectors of S by {max(cross):.3e}")
        for array in (*where, values):
            array.flags.writeable = False
        return where, values

    b = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    low = np.kron(qmath.IDENTITY_2, b)
    num = low.T @ low
    hop = np.kron([[0.0, 1.0], [0.0, 0.0]], b)  # s+ b
    hop += hop.T
    drive = np.kron(qmath.SIGMA_X, np.eye(n))
    parts = tuple(
        nonzero(apply)
        for apply in (
            lambda x: 2.0 * low @ x @ low.T - num @ x - x @ num,
            lambda x: -1j * (hop @ x - x @ hop),
            lambda x: -1j * (drive @ x - x @ drive),
        )
    )
    fock = np.eye(n)
    units = np.eye(4).reshape(4, 2, 2)  # |a><b|, ab = ee, eg, ge, gg
    ops = np.array([np.kron(u, np.diag(fock[0])) for u in units])
    reads = [np.kron(u.T, fock) for u in units]  # entry ab: Tr((|b><a| (x) 1) X)
    reads = np.array([*reads, np.kron(np.eye(2), np.diag(fock[-1])), np.eye(d)])
    frame = (even, coords(ops).T, coords(reads), np.einsum("jab,rba->jr", ops, reads))
    for array in frame:
        array.flags.writeable = False
    return (*frame, parts)


def _generator(channel: DrivenAmplitudeDamping, n: int) -> np.ndarray:
    """The generator lambda D + sqrt(lambda / 2) G + omega W of the parts of
    _pseudomode(n), a real matrix in its Hermitian basis.  A drive below
    DRIVE_CUT is left out."""
    even, *_, ((d_at, d_val), (g_at, g_val), (w_at, w_val)) = _pseudomode(n)
    gen = np.zeros((len(even), len(even)))
    gen[d_at] += channel.lam * d_val
    gen[g_at] += math.sqrt(channel.lam / 2.0) * g_val
    if channel.omega >= DRIVE_CUT:
        gen[w_at] += channel.omega * w_val
    return gen


def _invariant_blocks(gen: np.ndarray, w: np.ndarray, vecs: np.ndarray) -> list:
    """Invariant subspaces (q, mu, nil) of gen, together spanning the
    operator space, with gen q = q (diag(mu) + nil).  The first holds every
    eigenvector (nil = None).  Eigenvalues within _CLUSTER_TOL of each other
    (chained) whose unit eigenvectors are nearly dependent, the numerical
    image of a defective eigenvalue as at an exceptional point, share one
    subspace instead, with mu their mean and nil nearly nilpotent.  Their
    eigenvectors only start the search: subspace iteration with
    (gen - sigma)^-1, sigma a tenth of the gap to the nearest other
    eigenvalue away from mu, gains about a factor 10 per step and does not
    collapse the cluster onto its one true eigenvector.  Each step solves
    with gen - sigma, whose backward error lies in the subspace sought."""
    near = np.abs(w[:, None] - w[None, :]) < _CLUSTER_TOL
    label = np.arange(len(w))  # each index ends on the least label it reaches
    while not np.array_equal(label, new := np.where(near, label, len(w)).min(axis=1)):
        label = new
    labels, counts = np.unique(label, return_counts=True)
    regular, blocks = np.ones(len(w), dtype=bool), []
    for idx in (np.flatnonzero(label == lab) for lab in labels[counts > 1]):
        if np.linalg.svd(vecs[:, idx], compute_uv=False)[-1] >= _DEPENDENT_TOL:
            continue
        regular[idx] = False
        mu = w[idx].mean()
        sigma = mu + np.abs(np.delete(w, idx) - mu).min() / 10.0
        shifted = gen - sigma * np.eye(len(gen))
        q = np.linalg.qr(vecs[:, idx])[0]
        for _ in range(_BLOCK_ITERATIONS):
            block = q.conj().T @ gen @ q
            if np.abs(gen @ q - q @ block).max() <= _BLOCK_TOL * np.abs(gen).max():
                break
            q = np.linalg.qr(np.linalg.solve(shifted, q))[0]
        else:
            raise NumericError(f"no invariant subspace for the eigenvalues near {mu:.6g}")
        blocks.append((q, np.full(len(idx), mu), block - mu * np.eye(len(idx))))
    return [(vecs[:, regular], w[regular], None)] + blocks


def _sector_modes(gen, c0, red, sector: np.ndarray, t_max: float):
    """Modes (w, p, A) of the invariant sector (a mask) of the generator gen
    (_generator), with rows(t) = sum_m A[:, :, m] f_m(t) for 0 <= t <= t_max,
    f_m(t) = exp(w_m t) t^p_m / p_m!: A[j, r] for each initial operator x_j,
    a column of c0, and each row r of red (both of _pseudomode).  The
    eigendecomposition V diag(w) V^-1 gives A = (R V) o (V^-1 x_j), each mode
    with p = 0.  A nearly defective eigenvalue cluster (see
    _invariant_blocks) enters instead as an invariant subspace Q with block
    mu + N: its modes are the columns of (R Q) o (N^k y) with rate mu and
    p = k, y = Q^-1 x_j, the Taylor series of exp(N t) y taken until its tail
    is below rounding at t_max."""
    gen, c0, red = gen[np.ix_(sector, sector)], c0[sector], red[:, sector]
    try:
        blocks = _invariant_blocks(gen, *np.linalg.eig(gen))
        basis = np.concatenate([q for q, _, _ in blocks], axis=1)
        coefs = np.linalg.solve(basis, c0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"pseudomode generator eigendecomposition failed: {exc}") from exc
    err = float(np.abs(basis @ coefs - c0).max())
    if not err <= RECONSTRUCTION_TOL:
        raise NumericError(
            f"spectral propagator misses the initial operators at t = 0 by {err:.3e} "
            f"(tolerance {RECONSTRUCTION_TOL:g})"
        )
    rates, powers, amps, start = [], [], [], 0
    for q, mu, nil in blocks:  # the Taylor series of exp(nil t) y, cut below rounding at t_max
        y, reduced = coefs[start : start + len(mu)], red @ q
        start += len(mu)
        size, bound, terms = np.abs(y).max(), 1.0, []
        while True:
            terms.append(y.T[:, None, :] * reduced[None, :, :])
            if nil is None:
                break
            y = nil @ y
            bound *= t_max / len(terms)  # t_max^k / k! for the next term k
            if np.abs(y).max() * bound <= 1e-16 * size:
                break
            if len(terms) == _MAX_TERMS:
                raise NumericError(f"exp(N t) series near {mu[0]:.6g} does not converge")
        amps.append(np.stack(terms, axis=-1).reshape(len(y.T), len(red), -1))  # chains contiguous
        rates.append(np.repeat(mu, len(terms)))
        powers.append(np.tile(np.arange(len(terms)), len(mu)))
    return np.concatenate(rates), np.concatenate(powers), np.concatenate(amps, axis=-1)


def _trajectories(modes, times):
    """Rows of modes (w, p, A, start) at times, yielded in time order as
    groups of shape (samples, j, k), for A of shape (j, k, modes) and start,
    the exact rows at t = 0, of shape (j, k): the four initial operators or
    the entries |x><y| of a folded state's ancilla (_fold), each with k = 4
    rows (ee, eg, ge, gg), and j states with k = 2 rows (top level, trace)
    for the guard.  times is a TimeGrid or a sequence of times >= 0;
    at least one group is yielded, empty when times is.

    Within one mode chain f_k(s + d) = sum_q f_q(s) f_(k-q)(d), which for
    p = 0 is exp(w s) exp(w d): a table of f(d) over the offsets d of one
    block of times serves every block start s, so a TimeGrid costs _CHUNK
    exponentials per mode rather than one per sample (other times are
    blocks of one).  A group is one block of a TimeGrid, so a caller that
    stops early forms no sample past the block it stopped in; other times
    come as many at once as fill the room of the table.  Each block is one
    matrix product of the table with its start's own coefficients, so a
    time's rows do not depend on the other times asked with it, nor on how
    the blocks are grouped.
    """
    w, power, amps, start_rows = modes
    amps_t = amps.reshape(-1, len(w)).T
    if isinstance(times, TimeGrid):
        count, h = times.n_steps + 1, times.spacing
        starts = h * _CHUNK * np.arange(-(-count // _CHUNK))
        offsets = h * np.arange(_CHUNK)
    else:
        count, starts, offsets = len(times), np.asarray(times, dtype=float), np.zeros(1)
    table = np.exp(np.outer(offsets, w))
    chains = [(q, np.flatnonzero(power >= q)) for q in range(1, power.max(initial=0) + 1)]
    if chains:  # d^p / p! is exactly 1 where every p = 0
        table *= offsets[:, None] ** power / _FACTORIALS[power]
    # starts per group: one block of a TimeGrid, or single times whose
    # coefficients fill _CHUNK x modes
    step = max(1, _CHUNK // (len(offsets) * amps_t.shape[1]))
    for b in range(0, max(1, len(starts)), step):
        s = starts[b : b + step]
        scale = np.exp(s[:, None] * w)
        coef = amps_t * scale[:, :, None]
        for q, src in chains:  # chain term i gains A_(i+q) f_q(s)
            s_q = np.array([x**q for x in s])  # scalar powers: numpy's array power rounds apart
            rise = scale[:, src] * s_q[:, None] / math.factorial(q)
            coef[:, src - q] += amps_t[src] * rise[..., None]
        out = np.matmul(table, coef)
        if not s.all():
            # exp(L 0) is the identity; the spectral sum matches it only to
            # rounding, which can lie above the concurrence's eps cut and
            # which its square roots would then amplify to ~1e-8
            out[(s == 0)[:, None] & (offsets == 0)] = start_rows.reshape(-1)
        yield out.reshape(-1, *start_rows.shape)[: count - b * len(offsets)]


def _envelope(w, power, size, t_from, t_max: float) -> np.ndarray:
    """sum_m size[..., m] sup |f_m(t)| over t_from <= t <= t_max, for modes
    f_m(t) = exp(w_m t) t^p_m / p_m! and size = |A| (..., modes), at each of
    the times t_from (first axis): a bound on |sum_m A_m f_m(t)| at every
    such t.  |f_m| = exp(a t) t^p / p!, a = Re w_m, rises up to t = p / -a
    where a < 0 and throughout where a >= 0 (chains at exceptional points
    and rates rounded above 0 included), so its supremum is its value there,
    clipped to the interval."""
    a = w.real
    peak = np.divide(power, -a, out=np.full(len(w), t_max), where=a < 0)
    peak = np.clip(peak, np.asarray(t_from)[..., None], t_max)
    return (np.exp(a * peak) * peak**power / _FACTORIALS[power]) @ size.reshape(-1, len(w)).T


def _last_time(times) -> float:
    """The last of times (a TimeGrid or a 1-D sequence of times >= 0; 0.0 if empty)."""
    if isinstance(times, TimeGrid):
        return times.t_max
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(times >= 0):
        raise ConfigError("times must be a TimeGrid or a 1-D sequence of values >= 0")
    return float(times.max(initial=0.0))


def _check_physical(guard, n: int, whats) -> None:
    """The outcome of the leak and drift checks on every sample of guard
    (_guard_rows), for the states named whats: the first state in order that
    fails raises, its leak (top level above LEAK_TOL) before its drift
    (trace more than TRACE_DRIFT_TOL from 1).  guard is read only until the
    outcome is decided: a state's check is decided by a sample that fails it
    or by a bound on every sample still to come that passes it.  An error
    quotes the largest value sampled up to that point."""
    tol = np.array([LEAK_TOL, TRACE_DRIFT_TOL])
    peak = np.full((len(whats), 2), -np.inf)
    for rows, bound in guard:
        peak = np.maximum(peak, rows.max(axis=0, initial=-np.inf))
        fails = (peak > tol).ravel()
        first = (fails | ~(bound <= tol).ravel()).argmax()  # checks in order: state, then leak, drift
        if fails[first]:
            what, value = whats[first // 2], peak.flat[first]
            if first % 2 == 0:
                raise TruncationLeakError(
                    f"{what}: top Fock level population {value:.3e} at n_fock = {n} "
                    f"exceeds {LEAK_TOL:g}"
                )
            raise NumericError(f"{what}: trace drift {value:.3e} exceeds {TRACE_DRIFT_TOL:g}")
        if bound.flat[first] <= tol[first % 2]:
            return


def _evolver(channel: DrivenAmplitudeDamping, states, t_max: float) -> list:
    """Guarded evolution of system states rho (x) |0><0| on [0, t_max]: one
    evaluate(times) per (rho, context) in states, which returns the reduced
    states at times (a TimeGrid or a sequence of times in [0, t_max]).

    Each rho is a qubit state (2 x 2) or an untouched ancilla followed by the
    qubit (4 x 4); by linearity its trajectory combines those of the four
    operators |a><b| (x) |0><0| of _pseudomode's c0, and each state is folded
    into their amplitudes once (_fold), so a call evaluates its own rows only.
    One mode build serves every state and every call.  Every rho passes the
    leak and drift checks at samples no further apart than GUARD_STEP over
    all of [0, t_max], each sampled or bounded from the spectral amplitudes,
    on the even sector's top-level and trace rows, before the odd sector is
    decomposed: a truncation that leaks costs no state.
    Each call validates the density of the states it returns, under the
    state's context name.  Strong drive on a weakly damped pseudomode can
    leak past a small truncation, so the pseudomode is truncated at each
    n_fock of FOCK_LADDER in turn: only a TruncationLeakError moves to the
    next rung, and the last rung's leak is raised.
    """
    for n in FOCK_LADDER[:-1]:
        try:
            return _guarded(channel, n, states, t_max)
        except TruncationLeakError:  # unbound: its traceback holds this rung's modes
            pass
    return _guarded(channel, FOCK_LADDER[-1], states, t_max)


def _fold(weights, modes):
    """Modes (w, p, A, start) of the initial operators recombined: those of
    sum_j weights[i, j] x_j for each row i of weights (rows, operators)."""
    w, power, amps, start = modes
    return w, power, np.tensordot(weights, amps, axes=1), weights @ start


def _guard_rows(modes, rhos, t_max: float):
    """Top-level population and distance of the trace from 1 of each
    rho (x) |0><0| in rhos at the samples i GUARD_STEP' over [0, t_max],
    GUARD_STEP' <= GUARD_STEP, from modes (w, p, A, start) of _sector_modes
    on the even sector, with A and start cut to the top-level and trace rows.
    Yields (rows, bound) in time order: rows (samples, state, 2), one block
    of _trajectories at a time after an empty first one, and bound
    (state, 2), a bound on both at every sample not yet yielded (0 after the
    last).

    A state's rows are sum_ab q_ab (rows of |a><b|) over the four initial
    operators, for its qubit part q = Tr_ancilla rho, and are real.  Each q
    is folded into the amplitudes and into the exact rows at t = 0 before any
    sample is formed (_fold, with weights q.ravel()), so one pass evaluates
    every state.

    The bound from a block's first time on is the envelope (_envelope) of
    the top row, and for the trace row |A_k - 1| + |A_k| (exp(|w_k| t_max) - 1)
    for its stationary mode k plus the envelope of its other modes; the
    exact rows at t = 0 enter the first bound.  Each envelope is raised by a
    rounding allowance, the factor 1 + (modes + 16 + 4 (t_max max|Re w| +
    max p)) eps, which covers the floating-point sum over the modes of a
    sample and the rounding of its exponents and of its time."""
    parts = [np.einsum("xaxb->ab", rho.reshape(len(rho) // 2, 2, -1, 2)) for rho in rhos]
    w, power, amps, start = _fold(np.array([q.ravel() for q in parts]), modes)
    slack = (len(w) + 16 + 4 * (t_max * np.abs(w.real).max() + power.max())) * np.finfo(float).eps
    live = (1.0 + slack) * np.abs(amps)  # the enveloped modes: all but the stationary trace mode
    k = np.argmax(np.where(power == 0, live[:, 1], -1.0), axis=-1)  # each trace row's stationary mode
    stationary = amps[np.arange(len(k)), 1, k]
    live[np.arange(len(k)), 1, k] = 0.0
    fixed = np.zeros((len(rhos), 2))
    fixed[:, 1] = np.abs(stationary - 1.0) + np.abs(stationary) * (
        (1.0 + slack) * np.exp(np.abs(w[k]) * t_max) - 1.0
    )
    grid = TimeGrid(t_max, max(1, math.ceil(t_max / GUARD_STEP - 1e-9)))
    firsts = grid.spacing * np.arange(0, grid.n_steps + 1, _CHUNK)  # each block's first time
    bounds = fixed + _envelope(w, power, live, firsts, t_max).reshape(-1, *fixed.shape)
    bounds = np.concatenate([bounds, np.zeros((1, *fixed.shape))])
    excess = np.stack([start[:, 0].real, np.abs(start[:, 1].real - 1.0)], axis=-1)
    yield np.empty((0, *fixed.shape)), np.maximum(bounds[0], excess)
    for rows, bound in zip(_trajectories((w, power, amps, start), grid), bounds[1:]):
        excess = rows.real.copy()
        excess[..., 1] = np.abs(excess[..., 1] - 1.0)
        yield excess, bound


def _guarded(channel: DrivenAmplitudeDamping, n: int, states, t_max: float) -> list:
    """_evolver at one truncation, n Fock levels.  Every state passes its
    guard (_guard_rows, _check_physical), in the order of states, on the
    even sector's top-level and trace rows before the odd sector is
    decomposed; a state reads the reduced-state rows of both."""
    even, c0, red, start, _ = _pseudomode(n)
    gen = _generator(channel, n)
    w, power, amps = _sector_modes(gen, c0, red, even, t_max)
    guard = _guard_rows((w, power, amps[:, 4:], start[:, 4:]), [rho for rho, _ in states], t_max)
    _check_physical(guard, n, [what for _, what in states])
    odd = _sector_modes(gen, c0, red[:4], ~even, t_max)
    modes = [np.concatenate(part, axis=-1) for part in zip((w, power, amps[:, :4]), odd)]
    modes.append(start[:, :4])

    def evaluator(rho, what):
        k = rho.shape[0] // 2
        # rho[(x, a), (y, b)] as weights of |x><y| (x) |a><b|: rows (x, y), columns ab
        folded = _fold(rho.reshape(k, 2, k, 2).transpose(0, 2, 1, 3).reshape(k * k, 4), modes)

        def evaluate(times) -> np.ndarray:
            if _last_time(times) > t_max:
                raise ConfigError(f"{what}: times past the guarded horizon {t_max}")
            rows = np.concatenate([*_trajectories(folded, times)])  # (time, xy, cd)
            m = rows.shape[0]
            state = rows.reshape(m, k, k, 2, 2).transpose(0, 1, 3, 2, 4).reshape(m, 2 * k, 2 * k)
            state += qmath.dag(state)  # scrub 1e-16 asymmetry
            state *= 0.5
            return qmath.validate_density(state, what) if m else state

        return evaluate

    return [evaluator(rho, what) for rho, what in states]
