"""Dense complex linear algebra and the one entanglement functional, the
Wootters concurrence.

States are plain complex ndarrays. Anything returned as a density matrix can
be checked with `validate_density`, which enforces Hermiticity and unit trace
to 1e-10 and eigenvalues >= -1e-9; violations raise instead of being clipped.
Positivity is checked by one batched Cholesky factorization of
rho - PSD_TOL * I, which exists exactly when every eigenvalue is above
PSD_TOL; only a batch it fails on is diagonalized, to decide and word the
error.

`concurrence` screens before it diagonalizes: a two-qubit state is entangled
if and only if its partial transpose has a negative determinant, so a state
whose partial-transpose determinant exceeds PPT_DET_CUT has concurrence
exactly 0 and costs no eigensolve.

Most functions broadcast over a leading batch axis, so a whole time series of
states can be processed in one call.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, StateValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9
# partial-transpose determinant above which a two-qubit state is separable
# (see concurrence): 1e3 eps, above the rounding of the determinant
PPT_DET_CUT = 1e3 * np.finfo(float).eps

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Basis convention: index 0 = excited |e>, index 1 = ground |g>, so that
# rho[0, 0] is the excited population and O_z = rho[0, 0] - rho[1, 1].
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

# (|ee> + |gg>)/sqrt(2) in the 4-dim ancilla (x) system space.
KET_BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

# (sy x sy) X (sy x sy) = (s s^T) o X[::-1, ::-1] for 4x4 X, with s = (-1, 1, 1, -1)
_SYSY_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, batch-aware."""
    return np.conj(np.swapaxes(a, -1, -2))


def ket2dm(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| from a normalized state vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """[O_x, O_y, O_z] = Tr[sigma_k rho] of a single-qubit state (batch-aware)."""
    ox = 2.0 * rho[..., 0, 1].real
    oy = -2.0 * rho[..., 0, 1].imag
    oz = (rho[..., 0, 0] - rho[..., 1, 1]).real
    return np.stack([ox, oy, oz], axis=-1)


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit state.

    max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy), where eigenvalues at or
    below eps * their state's largest are taken as 0.

    A state whose partial transpose has a determinant above PPT_DET_CUT is
    taken as 0 without that eigensolve.  The partial transpose of a
    two-qubit state has at most one negative eigenvalue, so the state is
    entangled if and only if that determinant is negative (Augusiak,
    Demianowicz & Horodecki, PRA 77, 030301(R) (2008)); a positive one
    makes the partial transpose positive definite, and the state separable
    with concurrence 0 (Peres, PRL 77, 1413 (1996)).  The cut is 1e3 eps:
    the determinant (_pt_det) sums 24 products of four entries, each of
    modulus at most 1 in a state, through 2 x 2 minors, so each product
    carries at most about 6 eps of rounding and the sum at most 24 x 6 eps,
    below the cut.  Every other state takes the eigensolve.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ConfigError(f"concurrence needs a 4x4 state, got {rho.shape}")
    batch = rho.reshape(-1, 4, 4)
    c = np.zeros(len(batch))
    rest = np.flatnonzero(~(_pt_det(batch) > PPT_DET_CUT))  # a NaN takes the eigensolve
    if rest.size:
        c[rest] = _wootters(batch[rest])
    c = c.reshape(rho.shape[:-2])
    return float(c) if c.ndim == 0 else c


def _pt_det(rho: np.ndarray) -> np.ndarray:
    """Determinant of the partial transpose on the second qubit of each
    (n, 4, 4) state, by Laplace expansion along rows (0, 1); real, as the
    partial transpose of a Hermitian matrix is Hermitian."""
    pt = rho.reshape(-1, 2, 2, 2, 2).swapaxes(-1, -3).reshape(-1, 4, 4)
    i, j = np.triu_indices(4, 1)  # column pairs (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)
    minors = pt[:, 0::2, i] * pt[:, 1::2, j] - pt[:, 0::2, j] * pt[:, 1::2, i]
    # the complementary minor of rows (2, 3) sits at the mirrored position
    return (minors[:, 0] * minors[:, 1, ::-1]).real @ np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def _wootters(rho: np.ndarray) -> np.ndarray:
    """The eigensolve route of concurrence, for a nonempty (n, 4, 4) batch."""
    rho_tilde = _SYSY_SIGNS * np.conj(rho)[..., ::-1, ::-1]
    w = np.linalg.eigvals(rho @ rho_tilde).real
    # eigenvalues are real and non-negative up to round-off; those at or below
    # eps * max(w) of their state are round-off, whose square root would cost
    # up to ~1e-8, and count as 0
    w[w <= np.finfo(float).eps * w.max(axis=-1, keepdims=True)] = 0.0
    lam = np.sort(np.sqrt(w), axis=-1)
    c = lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]
    return np.maximum(c, 0.0)


def validate_density(rho: np.ndarray, context: str = "state") -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace and positivity; raise on violation.

    Positivity: one Cholesky factorization of rho - PSD_TOL * I over the
    batch; only if it fails are the eigenvalues computed, and the least of
    them below PSD_TOL is the error.  Accepts a single matrix or a batch;
    returns the input untouched so it can be used inline.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise StateValidationError(f"{context}: not a square matrix {rho.shape}")
    if not np.isfinite(rho).all():  # a NaN passes every comparison below
        raise StateValidationError(f"{context}: non-finite entry")
    herm = np.abs(rho - dag(rho)).max()
    if herm > HERMITICITY_TOL:
        raise StateValidationError(f"{context}: Hermiticity deviation {herm:.3e}")
    tr_dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max()
    if tr_dev > TRACE_TOL:
        raise StateValidationError(f"{context}: trace deviation {tr_dev:.3e}")
    # the factor of rho - PSD_TOL * I exists when every eigenvalue is above
    # PSD_TOL; where it does not (or is not finite) the eigenvalues decide
    try:
        if np.isfinite(np.linalg.cholesky(rho - PSD_TOL * np.eye(rho.shape[-1]))).all():
            return rho
    except np.linalg.LinAlgError:
        pass
    w_min = np.linalg.eigvalsh(rho)[..., 0].min()
    if w_min < PSD_TOL:
        raise StateValidationError(f"{context}: negative eigenvalue {w_min:.3e}")
    return rho
