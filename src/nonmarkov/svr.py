"""Epsilon-insensitive support vector regression with an RBF kernel.

The dual problem in beta_i = alpha_i - alpha_i* is

    maximize  -1/2 sum_ij beta_i beta_j K_ij - eps sum_i |beta_i| + sum_i y_i beta_i
    s.t.      sum_i beta_i = 0,   -C <= beta_i <= C,

solved as the equivalent smooth box QP over a = (alpha, alpha*) by an
SMO-type two-variable decomposition with the standard m - M < tol stopping
rule.  The working set is chosen by second-order information (Fan, Chen &
Lin, "Working set selection using second order information for training
SVM", JMLR 6 (2005); the LIBSVM default, Chang & Lin, ACM TIST 2 (2011)):
i maximally violates from I_up, and j in I_low maximizes the gain
b_j^2 / quad_j, with b_j = m - crit_j and quad_j = K_ii + K_jj - 2 K_ij.
Every step follows one rule, whatever the signs z = +1 (alpha) and -1
(alpha*) of the pair: z_i a_i rises and z_j a_j falls by
t = min(b_j / quad_j, rise_i, fall_j), where room(v) = (rise_v, fall_v) is
how far z_v a_v can move up and down with a_v in [0, C].  The same room
decides membership, I_up = {rise > 0} and I_low = {fall > 0}.

Kernel rows are built on first use and kept, keyed by training index, as
LIBSVM computes kernel columns on demand (Chang & Lin 2011, section 5): SMO
reads only the rows of the points that enter a working set, often a small
share of the l x l Gram matrix, and no row is built twice.  K_tt = 1, the
exact RBF diagonal.  The intercept comes from the gradient SMO keeps, as
LIBSVM's rho does.  fit reports the final gap m - M, the dual objective it
reached and the number of kernel rows it built.

predict evaluates f(x) = sum_i beta_i k(sv_i, scale(x)) + b through
rbf_gram, the one place that expands |x|^2 + |y|^2 - 2 x.y, for a single
vector, a call of up to _BLOCK rows and each block of a larger call alike.
The squared norms |sv_i|^2 are constants of the model: SvrModel sums them
once, when it is built, as LIBSVM keeps them once per data set for its RBF
kernel (Chang & Lin 2011), and every predict call reads them instead of
summing them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import FMT, Scaler, read_block, write_block
from .errors import ConfigError, DataFormatError

DEFAULT_MAX_ITER = 10_000_000
SUPPORT_TOL = 1e-12  # dual coefficients at or below this are dropped
_BLOCK = 256  # rows per kernel block of predict: two 256 x m buffers serve every block
_MODEL_MAGIC = "nonmarkov-svr v1"


@dataclass(frozen=True)
class SvrConfig:
    """Hyperparameters: defaults are the published eps/C/tol settings."""

    C: float = 1.0
    epsilon: float = 1e-3
    tol: float = 1e-3
    kernel_gamma: float | str = "scale"
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if not self.C > 0:
            raise ConfigError(f"C must be > 0, got {self.C}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and > 0, got {self.tol}")
        if isinstance(self.kernel_gamma, str):
            if self.kernel_gamma != "scale":
                raise ConfigError("kernel_gamma must be positive or 'scale'")
        elif not (np.isfinite(self.kernel_gamma) and self.kernel_gamma > 0):
            raise ConfigError(f"kernel_gamma must be finite and > 0, got {self.kernel_gamma}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ConfigError(f"max_iter must be an integer >= 1, got {self.max_iter}")


def resolve_gamma(config_gamma, features: np.ndarray) -> float:
    """'scale' resolves to 1 / (n_features * variance of all feature entries).

    This is scikit-learn's rule: the variance is taken over every entry of the
    matrix, so column offsets count, not only the spread within each column.
    It is computed as the mean within-column variance plus the variance of the
    column means (law of total variance over equal-size columns); on
    column-centred features the second term vanishes and the result equals
    the per-column mean bit for bit.
    """
    if not isinstance(config_gamma, str):
        return float(config_gamma)
    var = float(features.var(axis=0).mean() + features.mean(axis=0).var())
    if var <= 0:
        return 1.0
    return 1.0 / (features.shape[1] * var)


def rbf_gram(
    x: np.ndarray,
    y: np.ndarray,
    gamma: float,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
    y_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel matrix k(x_i, y_j), shape (len(x), len(y)), built in buffers
    (out, scratch) of that shape when given, else in two new ones.

    The one place that expands |x_i - y_j|^2 = |x_i|^2 + |y_j|^2 - 2 x_i.y_j.
    y_sq, the squared norms (y**2).sum(axis=1) of the rows of y, are summed
    here unless the caller has them, as predict has its model's sv_sq.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[1] != y.shape[1]:
        raise ConfigError(f"feature length mismatch {x.shape} vs {y.shape}")
    # built in place: the same rounding as the plain expression
    x_sq = (x**2).sum(axis=1)
    if y_sq is None:
        y_sq = (y**2).sum(axis=1)
    sq, cross = buffers or (None, None)  # out=None allocates
    sq = np.add.outer(x_sq, y_sq, out=sq)
    cross = np.matmul(x, y.T, out=cross)
    cross *= 2.0
    sq -= cross
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


@dataclass(frozen=True)
class SvrModel:
    """Fitted regressor: f(x) = sum_i beta_i k(sv_i, scale(x)) + b.

    However it is built (by fit, load_model, direct construction or
    dataclasses.replace), the model holds its own read-only copies of the
    support vectors and dual coefficients, and sv_sq, the squared norms
    |sv_i|^2 of the support vectors, summed once then.  A write into either
    array raises, so sv_sq cannot go stale.
    """

    support_vectors: np.ndarray  # (m, d), in standardized feature space
    dual_coefs: np.ndarray  # (m,) beta_i
    intercept: float
    kernel_gamma: float
    scaler: Scaler
    converged: bool = True
    n_iter: int = 0
    # set by fit, not serialized: the training-row index of each support
    # vector, the final m_up - m_low, the dual objective reached and the
    # number of kernel rows built
    support_indices: np.ndarray | None = field(default=None, compare=False)
    gap: float | None = field(default=None, compare=False)
    dual_objective: float | None = field(default=None, compare=False)
    kernel_rows: int | None = field(default=None, compare=False)
    # derived in __post_init__, not serialized: (m,) |sv_i|^2
    sv_sq: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("support_vectors", "dual_coefs"):
            own = np.array(getattr(self, name), dtype=float, order="C")
            own.flags.writeable = False
            object.__setattr__(self, name, own)
        sv_sq = (self.support_vectors**2).sum(axis=1)
        sv_sq.flags.writeable = False
        object.__setattr__(self, "sv_sq", sv_sq)


def fit(
    x: np.ndarray,
    y: np.ndarray,
    config: SvrConfig = SvrConfig(),
    scaler: Scaler | None = None,
) -> SvrModel:
    """Train on (already standardized) features x and targets y.

    The scaler used to standardize x is kept on the model so predictions
    accept raw features; pass scaler=None for identity scaling.  A model that
    hits max_iter is returned with converged=False, never silently.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ConfigError(f"bad training shapes {x.shape}, {y.shape}")
    l = x.shape[0]
    if l < 2:
        raise ConfigError("need at least 2 training rows")
    if scaler is None:
        scaler = Scaler.identity(x.shape[1])
    gamma = resolve_gamma(config.kernel_gamma, x)
    c, eps, tol = config.C, config.epsilon, config.tol

    # Kernel rows on first use, kept by training index.  -gamma |x_s - x_t|^2
    # over all s is one matrix-vector product, (2 gamma x_s, -gamma |x_s|^2, 1)
    # . (x_t, 1, -gamma |x_t|^2), then clamped at 0 and exponentiated.
    sq = -gamma * (x * x).sum(axis=1)
    lhs = np.column_stack([2.0 * gamma * x, sq, np.ones(l)])
    rhs = np.column_stack([x, np.ones(l), sq])
    rows = {}

    def row(t):
        r = rows.get(t)
        if r is None:
            r = rows[t] = lhs @ rhs[t]
            np.minimum(r, 0.0, out=r)
            np.exp(r, out=r)
        return r

    # a = (alpha, alpha*) in [0, C]^{2l}; minimize 1/2 a^T Q a + p^T a with
    # Q = [[K, -K], [-K, K]], p = (eps - y, eps + y), subject to z^T a = 0.
    # Everything indexed by the 2l variables is held as a (2, l) array, row 0
    # for alpha (z = +1) and row 1 for alpha* (z = -1), so one length-l
    # kernel row serves both halves.  crit = -z * grad; up and low hold crit
    # on I_up (z_v a_v can rise) and I_low (z_v a_v can fall) and -inf / +inf
    # elsewhere.
    a = np.zeros((2, l))
    z = (1.0, -1.0)  # by row of a
    crit = np.stack([y - eps, y + eps])
    up = np.stack([crit[0], np.full(l, -np.inf)])  # alpha < C; alpha* > 0
    low = np.stack([np.full(l, np.inf), crit[1]])  # alpha > 0; alpha* < C
    flat_a, flat_crit, flat_up, flat_low = a.ravel(), crit.ravel(), up.ravel(), low.ravel()
    quad = np.empty(l)
    score = np.empty((2, l))

    def room(v):
        """How far z_v a_v can rise and fall with a_v in [0, C]."""
        a_v = flat_a[v]
        return (c - a_v, a_v) if v < l else (a_v, c - a_v)

    n_iter = 0
    converged = False
    while True:
        i = int(np.argmax(flat_up))
        m_up = flat_up[i]
        gap = m_up - low.min()
        if gap < tol:
            converged = True
            break
        if n_iter >= config.max_iter:
            break

        # second-order choice of j (Fan, Chen & Lin 2005): over I_low with
        # b_v = m_up - crit_v > 0, maximize b_v^2 / (K_ii + K_vv - 2 K_iv),
        # where K_ii = K_vv = 1
        ki = row(i % l)
        np.multiply(ki, -2.0, out=quad)
        quad += 2.0
        np.maximum(quad, 1e-12, out=quad)
        np.subtract(m_up, low, out=score)
        np.maximum(score, 0.0, out=score)
        score *= score
        score /= quad
        j = int(np.argmax(score))
        kj = row(j % l)

        # one step rule: z_i a_i rises and z_j a_j falls by the same t, which
        # keeps z^T a = 0; t is the Newton step b_j / quad_j, cut to the room
        # the box leaves both
        t = min((m_up - flat_crit[j]) / quad[j % l], room(i)[0], room(j)[1])
        flat_a[i] += z[i // l] * t
        flat_a[j] -= z[j // l] * t
        update = t * ki - t * kj
        crit -= update
        up -= update
        low -= update
        for v in (i, j):
            # keep box bounds exact so the working-set masks stay crisp
            if flat_a[v] < 1e-14:
                flat_a[v] = 0.0
            elif flat_a[v] > c - 1e-14:
                flat_a[v] = c
            rise, fall = room(v)
            flat_up[v] = flat_crit[v] if rise > 0 else -np.inf
            flat_low[v] = flat_crit[v] if fall > 0 else np.inf
        n_iter += 1

    # minimized objective 1/2 a.(grad + p) with grad = -z crit, p = (eps - y, eps + y)
    grad_plus_p = np.stack([eps - y - crit[0], eps + y + crit[1]])
    dual_objective = -0.5 * float(flat_a @ grad_plus_p.ravel())
    # b from crit = y - K beta -+ eps: its mean over the free variables, on
    # which the KKT conditions make it b, or else the midpoint of the
    # interval [max up, min low] they allow, as LIBSVM takes its rho
    free = (a > 0.0) & (a < c)
    intercept = float(crit[free].mean() if free.any() else (m_up + low.min()) / 2.0)
    beta = a[0] - a[1]
    keep = np.flatnonzero(np.abs(beta) > SUPPORT_TOL)
    return SvrModel(
        support_vectors=x[keep],
        dual_coefs=beta[keep],
        intercept=intercept,
        kernel_gamma=gamma,
        scaler=scaler,
        converged=converged,
        n_iter=n_iter,
        support_indices=keep,
        gap=float(gap),
        dual_objective=dual_objective,
        kernel_rows=len(rows),
    )


def predict(model: SvrModel, features: np.ndarray):
    """f(x) of one feature vector, as a float, or of each row of a matrix,
    as an array.  The stored scaler checks and scales the features once;
    then every row goes through rbf_gram with the model's sv_sq.  Up to
    _BLOCK rows are one kernel block in buffers of their own size; past
    _BLOCK rows the kernel is built _BLOCK rows at a time in one pair of
    buffers, not all at once in two (rows, support vectors) arrays."""
    x_std = model.scaler.transform(features)
    one = x_std.ndim == 1
    if one:
        x_std = x_std[None]
    sv, sv_sq, beta = model.support_vectors, model.sv_sq, model.dual_coefs
    gamma = model.kernel_gamma
    if len(x_std) <= _BLOCK:  # one block, in buffers of its own size
        out = rbf_gram(x_std, sv, gamma, y_sq=sv_sq) @ beta + model.intercept
    else:
        out = np.empty(len(x_std))
        sq, cross = np.empty((_BLOCK, len(sv))), np.empty((_BLOCK, len(sv)))
        for start in range(0, len(x_std), _BLOCK):
            x = x_std[start : start + _BLOCK]
            kernel = rbf_gram(x, sv, gamma, (sq[: len(x)], cross[: len(x)]), sv_sq)
            np.matmul(kernel, beta, out=out[start : start + len(x)])
        out += model.intercept
    return float(out[0]) if one else out


def mae(predictions, truths) -> float:
    """Mean absolute error."""
    predictions = np.asarray(predictions, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if predictions.shape != truths.shape:
        raise ConfigError(f"shape mismatch {predictions.shape} vs {truths.shape}")
    return float(np.mean(np.abs(predictions - truths)))


def kkt_violations(
    model: SvrModel, decision: np.ndarray, y: np.ndarray, config: SvrConfig
) -> np.ndarray:
    """Per-point epsilon-KKT violation magnitudes of a fitted model.

    beta = 0 requires |r| <= eps; |beta| = C requires r sign(beta) >= eps;
    free requires r = eps sign(beta), with r = y - f(x).  y are the training
    targets of the model returned by fit, in the order fit saw them, and
    decision is predict(model, features) on the matching raw rows: the
    stored support vectors evaluated afresh, never the kernel rows of the
    fit, so the residuals certify the model as saved.
    """
    if model.support_indices is None:
        raise ConfigError("KKT residuals need the model returned by fit, not a loaded one")
    decision = np.asarray(decision, dtype=float)
    if decision.shape != np.shape(y):
        raise ConfigError(f"shape mismatch {decision.shape} vs {np.shape(y)}")
    beta = np.zeros(len(y))
    beta[model.support_indices] = model.dual_coefs
    resid = y - decision
    eps, c = config.epsilon, config.C
    viol = np.empty(len(y))
    zero = np.abs(beta) <= SUPPORT_TOL
    bound = np.abs(beta) >= c - 1e-9
    free = ~zero & ~bound
    viol[zero] = np.clip(np.abs(resid[zero]) - eps, 0.0, None)
    viol[bound] = np.clip(eps - resid[bound] * np.sign(beta[bound]), 0.0, None)
    viol[free] = np.abs(resid[free] - eps * np.sign(beta[free]))
    return viol


def save_model(model: SvrModel, path) -> None:
    """Versioned plain-text serialization at 17 significant digits."""
    scaler = np.column_stack([model.scaler.mean, model.scaler.scale])
    support = np.column_stack([model.dual_coefs, model.support_vectors])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_MODEL_MAGIC} gamma {FMT % model.kernel_gamma}\nscaler {len(scaler)}\n")
        write_block(fh, scaler)
        fh.write(f"intercept {FMT % model.intercept}\nsupport_vectors {len(support)}\n")
        write_block(fh, support)


def load_model(path) -> SvrModel:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError("empty model file")
    head = lines[0].rsplit(" gamma ", 1)
    if len(head) != 2 or head[0] != _MODEL_MAGIC:
        raise DataFormatError(f"not a model file of version '{_MODEL_MAGIC}'")
    try:
        gamma = float(head[1])
        pos = 1
        tag, count = lines[pos].split()
        if tag != "scaler":
            raise DataFormatError("expected scaler block")
        d = int(count)
        pairs = read_block(lines[pos + 1 : pos + 1 + d], 2)
        scaler = Scaler(pairs[:, 0].copy(), pairs[:, 1].copy())
        pos += 1 + d
        tag, val = lines[pos].split()
        if tag != "intercept":
            raise DataFormatError("expected intercept line")
        intercept = float(val)
        pos += 1
        tag, count = lines[pos].split()
        if tag != "support_vectors":
            raise DataFormatError("expected support_vectors block")
        m = int(count)
        if pos + 1 + m != len(lines):
            raise DataFormatError("trailing or missing lines in model file")
        support = read_block(lines[pos + 1 :], 1 + d)
    except DataFormatError:
        raise
    except (ValueError, IndexError) as exc:
        raise DataFormatError(f"malformed model file: {exc}") from exc
    coefs, svs = support[:, 0], support[:, 1:]  # the model keeps copies
    if not (np.isfinite(coefs).all() and np.isfinite(svs).all() and np.isfinite(intercept)):
        raise DataFormatError("non-finite values in model file")
    if not (np.isfinite(gamma) and gamma > 0):
        raise DataFormatError(f"kernel gamma must be finite and > 0, got {gamma}")
    if m and abs(coefs.sum()) > 1e-3 * max(1.0, np.abs(coefs).sum()):
        raise DataFormatError("dual coefficients violate the equality constraint")
    return SvrModel(svs, coefs, intercept, gamma, scaler)
