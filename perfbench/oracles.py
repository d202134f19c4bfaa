"""Computations made apart from the program, used to check its outputs.

Nothing here imports `nonmarkov`. Each check takes its own route:

- pure channels: the closed forms written out below, and the revival-peak
  sums that bound the memory measures from both sides;
- driven channel: a Liouvillian built here (pseudomode before qubit,
  column-stacked vectorisation), propagated exactly through its
  eigendecomposition and cross-checked against `scipy.linalg.expm`, with the
  Wootters concurrence taken by the square-root route;
- fitted models: the model file, CSV tables and prediction files are parsed
  here, the 70/30 split and the scaler are rebuilt from their documented
  rules, and the RBF kernel sum is taken by direct differences.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

HORIZON = 20.0  # the program's measure horizon t <= 20/gamma0 (nu <= 20 for PD)
REF_SPACING = HORIZON / 20000  # the coarsest grid the program samples a measure on
LONG_HORIZON = 10 * HORIZON  # upper-bound horizon for the driven recomputation
BAND_FLOOR = 1e-6  # covers the missed tops of the revival peaks on REF_SPACING
ZERO_TARGET_TOL = 1e-8  # Markovian parameters: no revival at all
PURE_FEATURE_TOL = 1e-12
DRIVEN_FEATURE_TOL = 1e-6
BLOCH_TOL = 1e-9
LEAK_TOL = 1e-6  # the program's documented truncation guard
EXPM_AGREEMENT = 1e-10  # eigendecomposition route against expm at checkpoints
PREDICT_REL_TOL = 1e-12

_SY2 = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float
)


class OracleError(RuntimeError):
    """An independent computation could not certify its own accuracy."""


# ------------------------------------------------------------ pure channels
#
# Both pure channels act through one damped oscillation
#     f(t) = exp(-a t) [cos(w t) + (a / w) sin(w t)],
# with a = lambda/2, w^2 = (2 gamma0 lambda - lambda^2)/4 for amplitude
# damping (f = G, time t) and a = 1, w^2 = (4 tau)^2 - 1 for phase damping
# (f = Lambda, time nu).  For w^2 < 0 the same expression is real through
# cos(i k t) = cosh(k t).


def ad_rates(lam: float, gamma0: float = 1.0) -> tuple[float, float]:
    return lam / 2.0, (2.0 * gamma0 * lam - lam * lam) / 4.0


def pd_rates(tau: float) -> tuple[float, float]:
    return 1.0, (4.0 * tau) ** 2 - 1.0


def damped_oscillation(t, a: float, w2: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if w2 == 0.0:
        return np.exp(-a * t) * (1.0 + a * t)
    w = np.sqrt(complex(w2))
    z = np.cos(w * t) + a * np.sin(w * t) / w
    return np.exp(-a * t) * z.real


def pure_features(a: float, w2: float, t: float, channel: str) -> np.ndarray:
    """(O_x, O_y, O_z) of |+> after the channel: (G, 0, G^2 - 1) for AD and
    (Lambda, 0, 0) for PD."""
    f = float(damped_oscillation(t, a, w2))
    if channel == "pd":
        return np.array([f, 0.0, 0.0])
    return np.array([f, 0.0, f * f - 1.0])


def revival_band(a: float, w2: float, horizon: float = HORIZON) -> tuple[float, float]:
    """Interval that must hold the measure sum_k (positive increments of |f|).

    The maxima of |f| sit at t_k = k pi / w with height q^k, q = exp(-a pi / w),
    and its zeros at z_k = (pi - atan(w / a) + k pi) / w.  The lower edge is
    the peak sum over the horizon plus the rise of a last lobe cut by it; the
    upper edge is the untruncated series q / (1 - q).  Both are widened by the
    grid tolerance: a grid of spacing h misses at most half the rise
    h |f'(z_k)| after each zero, and |f'(z_k)| = exp(-a z_k) sqrt(a^2 + w^2);
    the factor 1.5 on REF_SPACING leaves a third of margin over that bound
    even for the coarsest grid the program uses.
    """
    if w2 <= 0.0:
        return 0.0, ZERO_TARGET_TOL
    w = math.sqrt(w2)
    q = math.exp(-a * math.pi / w)
    k_max = int(math.floor(horizon * w / math.pi))
    lower = sum(q**k for k in range(1, k_max + 1))
    zeros = (math.pi - math.atan(w / a) + math.pi * np.arange(k_max + 1)) / w
    zeros = zeros[zeros <= horizon]
    if len(zeros) > k_max:  # the horizon cuts a rising lobe
        lower += abs(float(damped_oscillation(horizon, a, w2)))
    slope_sum = float(np.sum(np.exp(-a * zeros))) * math.sqrt(a * a + w2)
    tol = 1.5 * REF_SPACING * slope_sum + BAND_FLOOR
    return lower - tol, q / (1.0 - q) + tol


# ---------------------------------------------------------- driven channel


def _lowering(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def pseudomode_liouvillian(lam: float, omega: float, n_fock: int, gamma0: float = 1.0):
    """Generator of d rho/dt = -i[H, rho] + lam (2 b rho b+ - {b+ b, rho}) with
    H = omega sigma_x + sqrt(lam gamma0 / 2)(sigma_+ b + b+ sigma_-), on
    pseudomode (x) qubit, acting on column-stacked operators
    (vec(A X C) = (C^T kron A) vec X).  Qubit index 0 is the excited state."""
    eye_m = np.eye(n_fock)
    eye_q = np.eye(2)
    b = np.kron(_lowering(n_fock), eye_q)
    s_minus = np.kron(eye_m, np.array([[0.0, 0.0], [1.0, 0.0]]))  # |g><e|
    s_x = np.kron(eye_m, np.array([[0.0, 1.0], [1.0, 0.0]]))
    coupling = math.sqrt(lam * gamma0 / 2.0) * (s_minus.T @ b)
    ham = omega * s_x + coupling + coupling.T
    num = b.T @ b
    eye = np.eye(2 * n_fock)
    return -1j * (np.kron(eye, ham) - np.kron(ham.T, eye)) + lam * (
        2.0 * np.kron(b, b) - np.kron(eye, num) - np.kron(num.T, eye)
    )


def _initial_columns(n_fock: int) -> np.ndarray:
    """vec(|0><0| (x) |j><k|) for (j, k) = (e, e), (e, g), (g, g)."""
    dim = 2 * n_fock
    cols = np.zeros((dim * dim, 3), dtype=complex)
    for col, (j, k) in enumerate(((0, 0), (0, 1), (1, 1))):
        cols[j + dim * k, col] = 1.0  # row j, column k of the mode-vacuum block
    return cols


def _reduction(n_fock: int) -> np.ndarray:
    """Rows (a, b) of the qubit operator, sum_i X[(i, a), (i, b)], and a fifth
    row with the population of the top Fock level, sum_a X[(n-1, a), (n-1, a)]."""
    dim = 2 * n_fock
    red = np.zeros((5, dim * dim))
    for i in range(n_fock):
        for a in range(2):
            for b in range(2):
                red[2 * a + b, (2 * i + a) + dim * (2 * i + b)] = 1.0
    for a in range(2):
        top = 2 * (n_fock - 1) + a
        red[4, top + dim * top] = 1.0
    return red


class DrivenOracle:
    """Exact propagation of the three operator trajectories |0><0| (x) |j><k|,
    (j, k) = (e, e), (e, g), (g, g), reduced to the qubit."""

    def __init__(self, lam: float, omega: float, n_fock: int):
        liouvillian = pseudomode_liouvillian(lam, omega, n_fock)
        cols0 = _initial_columns(n_fock)
        red = _reduction(n_fock)
        self.eigvals, vecs = scipy.linalg.eig(liouvillian)
        coefs = np.linalg.solve(vecs, cols0)  # (D^2, 3)
        modes = red @ vecs  # (5, D^2)
        self._amps = (modes[None, :, :] * coefs.T[:, None, :]).reshape(15, -1)
        for t in (3.0, HORIZON):
            exact = red @ (scipy.linalg.expm(liouvillian * t) @ cols0)
            spectral = self.at(np.array([t]))[:, 0].reshape(3, 5).T
            err = float(np.abs(exact - spectral).max())
            if err > EXPM_AGREEMENT:
                raise OracleError(
                    f"eigendecomposition disagrees with expm by {err:.3e} at t={t}"
                )

    def at(self, times: np.ndarray) -> np.ndarray:
        """(15, len(times)) rows (operator, entry) at arbitrary times."""
        return self._amps @ np.exp(np.outer(self.eigvals, times))

    def uniform(self, t0: float, h: float, n: int, chunk: int = 4096) -> np.ndarray:
        """(15, n) rows (operator, entry) at t0 + i h, i < n: one table of
        exp(w i h) serves every chunk, rescaled by exp(w t_start)."""
        base = np.exp(np.outer(self.eigvals, h * np.arange(chunk)))
        out = np.empty((15, n), dtype=complex)
        for s in range(0, n, chunk):
            m = min(chunk, n - s)
            amps = self._amps * np.exp(self.eigvals * (t0 + s * h))
            out[:, s : s + m] = amps @ base[:, :m]
        return out

    @staticmethod
    def states(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bell pair (ancilla (x) qubit) and |+> states, and the larger of their
        top-Fock-level populations, from (15, m) rows."""
        r = rows.reshape(3, 5, -1)
        top_ee, top_eg, top_gg = r[:, 4].real
        top = 0.5 * np.maximum(top_ee + top_gg, top_ee + top_gg + 2.0 * top_eg)
        r = r[:, :4].reshape(3, 2, 2, -1).transpose(0, 3, 1, 2)
        r_ee, r_eg, r_gg = r
        r_ge = np.conj(np.swapaxes(r_eg, -1, -2))
        m = r.shape[1]
        bell = np.empty((m, 2, 2, 2, 2), dtype=complex)
        bell[:, 0, :, 0, :] = r_ee
        bell[:, 0, :, 1, :] = r_eg
        bell[:, 1, :, 0, :] = r_ge
        bell[:, 1, :, 1, :] = r_gg
        plus = 0.5 * (r_ee + r_eg + r_ge + r_gg)
        return 0.5 * bell.reshape(m, 4, 4), plus, top


def bloch(plus: np.ndarray) -> np.ndarray:
    """(O_x, O_y, O_z) of a batch of qubit states."""
    return np.stack(
        [
            2.0 * plus[..., 0, 1].real,
            -2.0 * plus[..., 0, 1].imag,
            (plus[..., 0, 0] - plus[..., 1, 1]).real,
        ],
        axis=-1,
    )


def sqrt_concurrence(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4), l_i the eigenvalues of
    sqrt(sqrt(rho) rho~ sqrt(rho)), batched over the leading axis."""
    rho = 0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2)))
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.conj(
        np.swapaxes(v, -1, -2)
    )
    tilde = _SY2 @ np.conj(rho) @ _SY2
    inner = root @ tilde @ root
    inner = 0.5 * (inner + np.conj(np.swapaxes(inner, -1, -2)))
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None))
    return np.maximum(0.0, 2.0 * lam[..., -1] - lam.sum(axis=-1))


def positive_variation(values: np.ndarray) -> float:
    """Sum of the positive increments of a sampled series, by a scalar loop."""
    total = 0.0
    prev = float(values[0])
    for v in values[1:]:
        v = float(v)
        if v > prev:
            total += v - prev
        prev = v
    return total


def grid_tolerance(values: np.ndarray) -> float:
    """Largest shortfall a grid of REF_SPACING can show against the series
    sampled here on REF_SPACING: at each local minimum the larger neighbouring
    step estimates h |C'| at a kink, of which a grid misses at most half; the
    factor 1.5 matches revival_band."""
    c = np.asarray(values)
    left = c[:-2] - c[1:-1]
    right = c[2:] - c[1:-1]
    minima = (left > 0) & (right >= 0)
    return 1.5 * float(np.maximum(left, right)[minima].sum()) + BAND_FLOOR


def driven_reference(lam: float, omega: float, times) -> dict:
    """Features at the tomography times and the entanglement measure on
    REF_SPACING over the program's horizon, and its continuation to
    LONG_HORIZON on 4 REF_SPACING (a sum of non-negative increments, so never
    below the first).  The pseudomode is truncated at the first n_fock in
    8, 12, 16 whose top level stays at or below LEAK_TOL over the horizon."""
    n_short = int(round(HORIZON / REF_SPACING))
    n_tail = int(round((LONG_HORIZON - HORIZON) / (4 * REF_SPACING)))
    for n_fock in (8, 12, 16):
        oracle = DrivenOracle(lam, omega, n_fock)
        bell, _, top = oracle.states(oracle.uniform(0.0, REF_SPACING, n_short + 1))
        if top.max() <= LEAK_TOL:
            break
    else:
        raise OracleError(f"pseudomode truncation leaks at n_fock={n_fock}")
    _, plus, _ = oracle.states(oracle.at(np.asarray(times, dtype=float)))
    short = sqrt_concurrence(bell)
    tail_bell, _, _ = oracle.states(
        oracle.uniform(HORIZON + 4 * REF_SPACING, 4 * REF_SPACING, n_tail)
    )
    tail = np.concatenate([short[-1:], sqrt_concurrence(tail_bell)])
    measure = float(np.clip(np.diff(short), 0.0, None).sum())
    return {
        "n_fock": n_fock,
        "features": bloch(plus).reshape(-1),
        "measure": measure,
        "measure_long": measure + float(np.clip(np.diff(tail), 0.0, None).sum()),
        "tol": grid_tolerance(short),
    }


# -------------------------------------------------------------- files


def read_table(path) -> dict:
    """A dataset CSV: '#meta' line, header, then rows of numbers."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    meta = dict(item.split("=", 1) for item in lines[0].split()[1:])
    header = lines[1].split(",")
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])
    n_feat = sum(1 for h in header if h.startswith("o"))
    return {
        "meta": meta,
        "times": [float(t) for t in meta["times"].split(",")],
        "targets": data[:, 0],
        "features": data[:, 1 : 1 + n_feat],
        "params": data[:, 1 + n_feat :],
    }


def read_model(path) -> dict:
    """The plain-text model: gamma, scaler block, intercept, (beta, sv) rows."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    gamma = float(lines[0][-1])
    d = int(lines[1][1])
    scaler = np.array([[float(v) for v in ln] for ln in lines[2 : 2 + d]])
    intercept = float(lines[2 + d][1])
    m = int(lines[3 + d][1])
    rows = np.array([[float(v) for v in ln] for ln in lines[4 + d : 4 + d + m]])
    rows = rows.reshape(m, d + 1)
    return {
        "gamma": gamma,
        "mean": scaler[:, 0],
        "scale": scaler[:, 1],
        "intercept": intercept,
        "beta": rows[:, 0],
        "sv": rows[:, 1:],
    }


def read_values(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([float(ln) for ln in fh if ln.strip()])


# -------------------------------------------------------------- models


def split_rows(n: int, seed: int, fraction: float = 0.7) -> tuple[np.ndarray, np.ndarray]:
    """The documented split: a seeded permutation, ceil(0.7 n) rows to train."""
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(math.ceil(round(fraction * n, 9)))
    return perm[:n_train], perm[n_train:]


def kernel_sum(model: dict, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(x) = sum_j beta_j exp(-gamma |scale(x) - sv_j|^2) + b, by direct
    differences; also the sum of the magnitudes of its terms."""
    x = (np.atleast_2d(features) - model["mean"]) / model["scale"]
    out = np.empty(len(x))
    mag = np.empty(len(x))
    for s in range(0, len(x), 512):
        diff = x[s : s + 512, None, :] - model["sv"][None, :, :]
        terms = model["beta"] * np.exp(-model["gamma"] * np.einsum("ijk,ijk->ij", diff, diff))
        out[s : s + 512] = terms.sum(axis=1) + model["intercept"]
        mag[s : s + 512] = np.abs(terms).sum(axis=1) + abs(model["intercept"])
    return out, mag


def check_model(
    model: dict, table: dict, seed: int, c: float = 1.0, epsilon: float = 1e-3, tol: float = 1e-3
) -> list[str]:
    """Failures of a fitted model against its training rows.  The defaults are
    the program's SVR defaults, which `train` uses."""
    errors = []
    train, _ = split_rows(len(table["targets"]), seed)
    x_train = table["features"][train]
    mean = x_train.mean(axis=0)
    var = x_train.var(axis=0)
    scale = np.where(var < 1e-30, 1.0, np.sqrt(var))
    if not (
        np.allclose(model["mean"], mean, rtol=1e-12, atol=1e-14)
        and np.allclose(model["scale"], scale, rtol=1e-12, atol=0)
    ):
        errors.append("scaler differs from the training rows' mean and deviation")
    beta = model["beta"]
    if abs(beta.sum()) > 1e-9 * max(1.0, np.abs(beta).sum()):
        errors.append(f"sum of dual coefficients {beta.sum():.3e} is not 0")
    if np.abs(beta).max(initial=0.0) > c * (1.0 + 1e-12):
        errors.append(f"|beta| {np.abs(beta).max():.6g} exceeds C = {c:g}")

    # every support vector is a distinct training row; the others have beta = 0
    z_train = (x_train - model["mean"]) / model["scale"]
    full_beta = np.zeros(len(train))
    for j, sv in enumerate(model["sv"]):
        dist = np.abs(z_train - sv).max(axis=1)
        i = int(np.argmin(dist))
        if dist[i] > 1e-9 or full_beta[i] != 0.0:
            return errors + ["a support vector is not a distinct training row"]
        full_beta[i] = beta[j]
    resid = table["targets"][train] - kernel_sum(model, x_train)[0]
    sign = np.sign(full_beta)
    zero = full_beta == 0.0
    bound = np.abs(full_beta) >= c - 1e-9
    free = ~zero & ~bound
    viol = np.zeros(len(train))
    viol[zero] = np.abs(resid[zero]) - epsilon
    viol[bound] = epsilon - resid[bound] * sign[bound]
    viol[free] = np.abs(resid[free] - epsilon * sign[free])
    if viol.max() > tol + 1e-9:
        errors.append(f"epsilon-KKT violation {viol.max():.3e} exceeds tol {tol:g}")
    return errors


def test_mae(predictions: np.ndarray, targets: np.ndarray, seed: int) -> float:
    """Mean absolute error on the rows the split leaves out of training."""
    _, test = split_rows(len(targets), seed)
    return float(np.abs(predictions[test] - targets[test]).mean())
