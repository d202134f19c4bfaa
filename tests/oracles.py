"""Independent oracle implementations used only by the tests.

Each routine deliberately takes a different computational route from the
package code it checks: concurrence via the square-root decomposition instead
of the eigenvalues of rho * rho_tilde, the SVR dual via projected gradient
instead of SMO (and its objective with a kernel from pairwise differences
instead of svr.rbf_gram's expansion), the RBF Gram as one plain expression
instead of svr.rbf_gram's in-place build, measure accumulation via a scalar
loop instead of vectorized diffs, the trace distance of two evolved states
from the eigenvalues of their difference instead of |coherence|, the
undriven channels as Kraus maps on density matrices instead of the closed
forms of their coherence factor, the overdamped coherence in 400-digit
decimal arithmetic instead of from rounded float rates, their measures as
grid sums of sampled series and as |coherence| read off at the revival
peaks instead of the geometric peak sum, the driven channel via scipy's expm of a separately
built generator instead of its eigendecomposition, and the outcome of the
leak and drift guard from every one of its samples instead of from a bound
on the samples it does not take.
"""

import decimal
import math

import numpy as np
import scipy.linalg

from nonmarkov import channels, qmath
from nonmarkov.errors import ConfigError, NumericError, TruncationLeakError

# index 0 = excited |e>, index 1 = ground |g>, as in the package
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
KET_E = np.array([1.0, 0.0], dtype=complex)
KET_G = np.array([0.0, 1.0], dtype=complex)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)

SY2 = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def matmul_concurrence(rho):
    """Wootters concurrence with rho_tilde = (sy x sy) rho* (sy x sy) formed
    by matrix products; otherwise the steps of qmath.concurrence."""
    rho_tilde = SY2.real @ np.conj(rho) @ SY2.real
    w = np.linalg.eigvals(rho @ rho_tilde).real
    w[w <= np.finfo(float).eps * w.max(axis=-1, keepdims=True)] = 0.0
    lam = np.sort(np.sqrt(w), axis=-1)
    c = lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]
    return np.maximum(c, 0.0)


def sqrtm_psd(a):
    """Matrix square root of a PSD Hermitian matrix via eigendecomposition."""
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def wootters_concurrence(rho):
    """Concurrence via R = sqrt(sqrt(rho) rho_tilde sqrt(rho))."""
    rho_tilde = SY2 @ rho.conj() @ SY2
    rt = sqrtm_psd(rho)
    inner = rt @ rho_tilde @ rt
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None))
    return max(0.0, 2.0 * lam.max() - lam.sum())


def trace_distance(rho1, rho2):
    """D = (1/2) Tr|rho1 - rho2| via eigenvalues of the Hermitian difference."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ConfigError(f"dimension mismatch {rho1.shape} vs {rho2.shape}")
    d = 0.5 * np.abs(np.linalg.eigvalsh(rho1 - rho2)).sum(axis=-1)
    return float(d) if d.ndim == 0 else d


def positive_increment_sum(values):
    """Scalar brute-force accumulation of positive increments."""
    total = 0.0
    for prev, cur in zip(values[:-1], values[1:]):
        if cur > prev:
            total += cur - prev
    return total


def trace_distance_series(channel, grid):
    """Grid-sampled D(t) = |coherence| of the |+>, |-> pair under an undriven
    channel; the Bell-pair concurrence is the same series."""
    if not channel.closed_form:
        raise ConfigError("the grid-sum oracle covers the undriven channels only")
    return np.abs(channel.coherence(grid.values))


entanglement_series = trace_distance_series


def grid_measure(channel, horizon, n_steps):
    """Positive-increment sum of the sampled series on n_steps intervals."""
    values = trace_distance_series(channel, channels.TimeGrid(horizon, n_steps))
    rises = values[1:] - values[:-1]
    return float(rises[rises > 0.0].sum())


def damped_rates(channel):
    """(a, w^2) of the coherence exp(-a t) [cos(w t) + (a/w) sin(w t)], from
    the channel parameters."""
    if isinstance(channel, channels.PhaseDamping):
        return 1.0, (4.0 * channel.tau) ** 2 - 1.0
    gamma0 = 1.0  # the channels' unit: lambda in gamma0, t in 1/gamma0
    return channel.lam / 2.0, (2.0 * gamma0 * channel.lam - channel.lam**2) / 4.0


def revival_peak_sum(channel, horizon):
    """|coherence| read off at its maxima t_k = k pi / w inside the horizon,
    plus |coherence(horizon)| when the horizon lies past the next zero, i.e.
    when coherence(horizon) has the opposite sign to the last peak."""
    a, w2 = damped_rates(channel)
    if w2 <= 0.0:
        return 0.0
    w = math.sqrt(w2)
    peaks = np.arange(1, math.floor(horizon * w / math.pi) + 1) * math.pi / w
    total = float(np.abs(channel.coherence(peaks)).sum()) if len(peaks) else 0.0
    last_sign = (-1.0) ** len(peaks)
    end = float(channel.coherence(horizon))
    return total + abs(end) if end * last_sign < 0.0 else total


def scalar_coherence(a, w2, t):
    """exp(-a t) [cos(w t) + (a/w) sin(w t)] of one channel at one time, with
    the math module (cosh and sinh for w2 < 0, exp(-a t) (1 + a t) at
    w2 = 0): the one-at-a-time reference of the closed forms' array pass,
    away from a t = 700."""
    if w2 == 0.0:
        return math.exp(-a * t) * (1.0 + a * t)
    if w2 > 0.0:
        w = math.sqrt(w2)
        return math.exp(-a * t) * (math.cos(w * t) + (a / w) * math.sin(w * t))
    w = math.sqrt(-w2)
    return math.exp(-a * t) * (math.cosh(w * t) + (a / w) * math.sinh(w * t))


def scalar_revival_sum(a, w2, horizon):
    """The revival-peak sum of measures.revival_measure for one channel, with
    the math module: q (1 - q^K) / (1 - q), plus |coherence(horizon)| past
    the K-th zero."""
    if w2 <= 0.0:
        return 0.0
    w = math.sqrt(w2)
    q = math.exp(-a * math.pi / w)
    k = math.floor(horizon * w / math.pi)
    value = q * (1.0 - q**k) / (1.0 - q)
    if horizon > (math.pi - math.atan(w / a) + k * math.pi) / w:
        value += abs(scalar_coherence(a, w2, horizon))
    return value


def grid_tolerance(channel, horizon, spacing):
    """Bound on what a grid of this spacing misses of the measure: after each
    zero z_k of the coherence at most half the rise h |f'(z_k)|, with
    |f'(z_k)| = exp(-a z_k) sqrt(a^2 + w^2); the factor 1.5 leaves a third of
    margin, and 1e-6 covers the missed peak tops."""
    a, w2 = damped_rates(channel)
    if w2 <= 0.0:
        return 1e-6
    w = math.sqrt(w2)
    zeros = (math.pi - math.atan(w / a) + math.pi * np.arange(horizon * w / math.pi + 1)) / w
    zeros = zeros[zeros <= horizon]
    return 1.5 * spacing * float(np.exp(-a * zeros).sum()) * math.sqrt(a * a + w2) + 1e-6


def random_density(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def ad_closed_form(rho0, t, lam, gamma0=1.0):
    """Undriven AD matrix map written out entry by entry."""
    d_sq = 2.0 * gamma0 * lam - lam**2
    if d_sq > 0:
        d = np.sqrt(d_sq)
        g = np.exp(-lam * t / 2) * (np.cos(d * t / 2) + (lam / d) * np.sin(d * t / 2))
    elif d_sq < 0:
        d = np.sqrt(-d_sq)
        g = np.exp(-lam * t / 2) * (np.cosh(d * t / 2) + (lam / d) * np.sinh(d * t / 2))
    else:
        g = np.exp(-lam * t / 2) * (1.0 + lam * t / 2)
    p = g * g
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = rho0[0, 0] * p
    out[0, 1] = rho0[0, 1] * g
    out[1, 0] = rho0[1, 0] * g
    out[1, 1] = rho0[1, 1] + rho0[0, 0] * (1.0 - p)
    return out


def ad_survival(t, lam):
    """Excited-state survival probability P_t = G(t)^2."""
    out = np.asarray(channels.AmplitudeDamping(lam).coherence(t)) ** 2
    return float(out) if out.ndim == 0 else out


def pd_apply(rho, nu, tau):
    """Kraus map of the dephasing channel: populations fixed, coherences
    scaled by Lambda(nu)."""
    rho = qmath.validate_density(rho, "pd_apply input")
    if rho.shape != (2, 2):
        raise ConfigError(f"pd_apply needs a single-qubit state, got {rho.shape}")
    lam_nu = channels.PhaseDamping(tau).coherence(float(nu))
    m1 = math.sqrt((1.0 + lam_nu) / 2.0) * qmath.IDENTITY_2
    m2 = math.sqrt(max(0.0, (1.0 - lam_nu) / 2.0)) * SIGMA_Z
    out = m1 @ rho @ qmath.dag(m1) + m2 @ rho @ qmath.dag(m2)
    return qmath.validate_density(out, "pd_apply output")


def overdamped_coherence(a, k, t):
    """((1 + a/w) exp(-(a - w) t) + (1 - a/w) exp(-(a + w) t)) / 2 with
    w = sqrt(a^2 - k), for k < a^2 (k = a^2 + w^2 of the channels' rates),
    in 400-digit decimal arithmetic from a, k and t taken exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        a, k, t = (decimal.Decimal(x) for x in (a, k, t))
        w = (a * a - k).sqrt()
        return float(((1 + a / w) * (-(a - w) * t).exp() + (1 - a / w) * (-(a + w) * t).exp()) / 2)


def ad_kraus(g):
    """Kraus pair of amplitude damping at signed amplitude g (|g| <= 1)."""
    m1 = np.array([[g, 0.0], [0.0, 1.0]], dtype=complex)
    m2 = np.array([[0.0, 0.0], [math.sqrt(max(0.0, 1.0 - g * g)), 0.0]], dtype=complex)
    return m1, m2


def ad_apply(rho, t, lam):
    """Undriven AD map at time t (units of 1/gamma0) as a Kraus sum:
    populations scale with P_t, coherences with the signed amplitude G(t)."""
    rho = qmath.validate_density(rho, "ad_apply input")
    if rho.shape != (2, 2):
        raise ConfigError(f"ad_apply needs a single-qubit state, got {rho.shape}")
    m1, m2 = ad_kraus(channels.AmplitudeDamping(lam).coherence(float(t)))
    out = m1 @ rho @ qmath.dag(m1) + m2 @ rho @ qmath.dag(m2)
    return qmath.validate_density(out, "ad_apply output")


def projected_gradient_svr_dual(kern, y, c, eps, max_iter=200_000):
    """Dense brute-force solution of the epsilon-SVR dual (box QP over
    (alpha, alpha*)) by projected gradient, run to tight tolerance.

    Returns the optimal dual objective (the maximized form)."""
    l = len(y)
    q = np.block([[kern, -kern], [-kern, kern]])
    p = np.concatenate([eps - y, eps + y])
    z = np.concatenate([np.ones(l), -np.ones(l)])
    lip = float(np.linalg.eigvalsh(q).max()) + 1e-9

    def project(v):
        lo, hi = -(c + np.abs(v).max()), c + np.abs(v).max()
        for _ in range(100):
            theta = 0.5 * (lo + hi)
            if z @ np.clip(v - theta * z, 0.0, c) > 0:
                lo = theta
            else:
                hi = theta
        return np.clip(v - 0.5 * (lo + hi) * z, 0.0, c)

    a = np.zeros(2 * l)
    prev_obj = np.inf
    for it in range(max_iter):
        grad = q @ a + p
        a = project(a - grad / lip)
        if it % 500 == 499:
            obj = 0.5 * a @ q @ a + p @ a
            if abs(prev_obj - obj) < 1e-15 * max(1.0, abs(obj)):
                break
            prev_obj = obj
    return -float(0.5 * a @ q @ a + p @ a)


def naive_rbf_gram(x, y, gamma):
    """exp(-gamma max(|x_i|^2 + |y_j|^2 - 2 x_i.y_j, 0)) as one plain
    expression, with its temporaries; svr.rbf_gram builds it in place."""
    sq = (x**2).sum(axis=1)[:, None] + (y**2).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
    return np.exp(-gamma * np.clip(sq, 0.0, None))


def dual_objective(model, x, y, config):
    """Beta-form dual objective -1/2 b K b - eps |b|_1 + y.b of a model
    returned by svr.fit on rows x (standardized) and targets y, with b
    scattered back to the training rows by the model's support indices and K
    built from pairwise differences."""
    beta = np.zeros(len(y))
    beta[model.support_indices] = model.dual_coefs
    diff = x[:, None, :] - x[None, :, :]
    kern = np.exp(-model.kernel_gamma * (diff * diff).sum(axis=-1))
    return float(-0.5 * beta @ kern @ beta - config.epsilon * np.abs(beta).sum() + y @ beta)


def pseudomode_expm_evolve(rho_sys, times, lam, omega, n_fock, gamma0=1.0):
    """Reduced system states of rho_sys (x) |0><0| under the pseudomode master
    equation, by scipy.linalg.expm.  The generator is built on pseudomode (x)
    system (system = qubit, or ancilla (x) qubit) and acts on column-stacked
    operators, vec(A X B) = (B^T kron A) vec X."""
    d_sys = rho_sys.shape[0]
    eye_m, eye_s, eye_anc = np.eye(n_fock), np.eye(d_sys), np.eye(d_sys // 2)
    b = np.kron(np.diag(np.sqrt(np.arange(1.0, n_fock)), 1), eye_s)
    s_plus = np.kron(eye_m, np.kron(eye_anc, [[0.0, 1.0], [0.0, 0.0]]))  # |e><g|
    s_x = np.kron(eye_m, np.kron(eye_anc, [[0.0, 1.0], [1.0, 0.0]]))
    g = np.sqrt(lam * gamma0 / 2.0)
    ham = omega * s_x + g * (s_plus @ b + b.T @ s_plus.T)
    num = b.T @ b
    eye = np.eye(n_fock * d_sys)
    gen = -1j * (np.kron(eye, ham) - np.kron(ham.T, eye)) + lam * (
        2.0 * np.kron(b, b) - np.kron(eye, num) - np.kron(num.T, eye)
    )
    vac = np.zeros((n_fock, n_fock))
    vac[0, 0] = 1.0
    dim = n_fock * d_sys
    x0 = np.kron(vac, rho_sys).reshape(-1, order="F")
    out = []
    for t in times:
        x = (scipy.linalg.expm(gen * t) @ x0).reshape(dim, dim, order="F")
        out.append(np.einsum("iaib->ab", x.reshape(n_fock, d_sys, n_fock, d_sys)))
    return np.array(out)


def full_guard_decision(channel, n_fock, states, t_max):
    """The leak and drift guard of channels._guarded at one truncation,
    decided from every one of its samples, as before the guard bounded its
    tail: every state's top-level population and trace at all samples
    i GUARD_STEP' over [0, t_max] (20 001 on the measure horizon), each
    state's qubit part folded into the even sector's amplitudes as the guard
    folds it.  Returns None if every state passes, else (error class, state
    name, largest value) of the first state in order that fails, its leak
    before its drift."""
    even, c0, red, start, _ = channels._pseudomode(n_fock)
    gen = channels._generator(channel, n_fock)
    w, power, amps = channels._sector_modes(gen, c0, red, even, t_max)
    checks = max(1, math.ceil(t_max / channels.GUARD_STEP - 1e-9))
    grid = channels.TimeGrid(t_max, checks)
    parts = [np.einsum("xaxb->ab", rho.reshape(len(rho) // 2, 2, -1, 2)) for rho, _ in states]
    fold = np.array([q.ravel() for q in parts])  # weights of |a><b|, ab = ee, eg, ge, gg
    folded = (w, power, np.tensordot(fold, amps[:, 4:], axes=1), fold @ start[:, 4:])
    rows = np.concatenate([*channels._trajectories(folded, grid)]).real
    for (_, what), top, trace in zip(states, rows[:, :, 0].T, rows[:, :, 1].T):
        if top.max() > channels.LEAK_TOL:
            return TruncationLeakError, what, top.max()
        drift = np.abs(trace - 1.0).max()
        if drift > channels.TRACE_DRIFT_TOL:
            return NumericError, what, drift
    return None
