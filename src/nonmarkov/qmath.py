"""Dense complex linear algebra and the one entanglement functional, the
Wootters concurrence.

States are plain complex ndarrays. Anything returned as a density matrix can
be checked with `validate_density`, which enforces Hermiticity and unit trace
to 1e-10 and eigenvalues >= -1e-9; violations raise instead of being clipped.

Most functions broadcast over a leading batch axis, so a whole time series of
states can be processed in one call.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, StateValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9

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
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ConfigError(f"concurrence needs a 4x4 state, got {rho.shape}")
    rho_tilde = _SYSY_SIGNS * np.conj(rho)[..., ::-1, ::-1]
    w = np.linalg.eigvals(rho @ rho_tilde).real
    # eigenvalues are real and non-negative up to round-off; those at or below
    # eps * max(w) of their state are round-off, whose square root would cost
    # up to ~1e-8, and count as 0
    w[w <= np.finfo(float).eps * w.max(axis=-1, keepdims=True)] = 0.0
    lam = np.sort(np.sqrt(w), axis=-1)
    c = lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]
    c = np.maximum(c, 0.0)
    return float(c) if c.ndim == 0 else c


def validate_density(rho: np.ndarray, context: str = "state") -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity; raise on violation.

    Accepts a single matrix or a batch; returns the input untouched so it can
    be used inline.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise StateValidationError(f"{context}: not a square matrix {rho.shape}")
    herm = np.abs(rho - dag(rho)).max()
    if herm > HERMITICITY_TOL:
        raise StateValidationError(f"{context}: Hermiticity deviation {herm:.3e}")
    tr_dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max()
    if tr_dev > TRACE_TOL:
        raise StateValidationError(f"{context}: trace deviation {tr_dev:.3e}")
    w_min = np.linalg.eigvalsh(rho)[..., 0].min()
    if w_min < PSD_TOL:
        raise StateValidationError(f"{context}: negative eigenvalue {w_min:.3e}")
    return rho
