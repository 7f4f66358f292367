"""Dense complex-Hermitian eigen kernels used by every design routine.

All operations are pure functions on small (dim <= ~64) dense matrices:
validate, factorize, return plain numpy arrays.  Eigenvectors are returned
with a deterministic phase (largest-magnitude entry rotated to the positive
real axis) so that fixtures and seeded tests are bit-stable.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DefinitenessError, DimensionError, ValidationError

__all__ = [
    "EigenPairSet",
    "cholesky_reduce",
    "hermitian_eig",
    "generalized_eigh",
    "generalized_eig_extremes",
    "left_singular_basis",
    "phase_normalize",
    "validate_hermitian",
]

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12
# A Cholesky pivot below this fraction of trace/dim means "numerically
# singular": reject instead of regularizing, the caller owns noise floors.
CHOLESKY_PIVOT_RTOL = 1e-12


def phase_normalize(v):
    """Rotate ``v`` so its largest-magnitude entry is real and positive."""
    v = np.asarray(v)
    k = int(np.argmax(np.abs(v)))
    mag = np.abs(v[k])
    if mag == 0.0:
        return v.copy()
    return v * (np.conj(v[k]) / mag)


def _phase_normalize_columns(v):
    """Column-wise phase normalization, in place."""
    idx = np.argmax(np.abs(v), axis=0)
    pivots = v[idx, np.arange(v.shape[1])]
    mags = np.abs(pivots)
    phases = np.where(mags > 0, np.conj(pivots) / np.where(mags > 0, mags, 1.0), 1.0)
    v *= phases[None, :]
    return v


def validate_hermitian(a, name="matrix"):
    """Check Hermitian symmetry and finiteness; return the Hermitian part.

    Raises ValidationError when the conjugate-symmetry defect exceeds
    ``HERMITIAN_RTOL`` relative to the largest entry magnitude.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    mags = np.abs(a)
    if not np.all(np.isfinite(mags)):
        raise ValidationError(f"{name} contains non-finite entries")
    scale = float(np.max(mags)) if a.size else 0.0
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > HERMITIAN_RTOL * scale:
        raise ValidationError(
            f"{name} is not Hermitian: defect {defect:.3e} > "
            f"{HERMITIAN_RTOL:.0e} * scale {scale:.3e}"
        )
    return 0.5 * (a + a.conj().T)


@dataclass
class EigenPairSet:
    """Full spectrum of a Hermitian matrix, eigenvalues sorted descending.

    ``vectors[:, i]`` is the unit-norm, phase-normalized eigenvector paired
    with ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self):
        return self.values.shape[0]


def hermitian_eig(a):
    """Eigendecompose a Hermitian matrix; spectrum sorted descending.

    Guarantees ``a = sum_i values[i] * v_i v_i^H`` to within 1e-9 * ||a||
    and pairwise-orthonormal eigenvectors.
    """
    a = validate_hermitian(a, "eigendecomposition input")
    w, v = np.linalg.eigh(a)
    w = np.ascontiguousarray(w[::-1])
    v = np.ascontiguousarray(v[:, ::-1])
    return EigenPairSet(values=w, vectors=_phase_normalize_columns(v))


def _cholesky_pd(b, name):
    """Cholesky of a Hermitian positive definite matrix with pivot check."""
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"{name} is not positive definite") from exc
    dim = b.shape[0]
    pivot_floor = CHOLESKY_PIVOT_RTOL * np.trace(b).real / dim
    smallest = np.min(np.diag(chol).real) ** 2
    if smallest < pivot_floor:
        raise DefinitenessError(
            f"{name} is numerically singular: smallest Cholesky pivot "
            f"{smallest:.3e} < {pivot_floor:.3e}"
        )
    return chol


def cholesky_reduce(a, b):
    """Reduce the pencil ``(a, b)``, ``a`` Hermitian and ``b`` HPD, to standard form.

    Validates both matrices, factors ``b = L L^H`` with the pivot check and
    returns ``(L, L^-1 a L^-H)``, the second exactly Hermitian.  The
    generalized eigenpairs are ``(lambda, L^-H y)`` for the eigenpairs
    ``(lambda, y)`` of the reduced matrix.
    """
    a = validate_hermitian(a, "pencil numerator")
    b = validate_hermitian(b, "pencil denominator")
    if a.shape != b.shape:
        raise DimensionError(f"pencil shapes differ: {a.shape} vs {b.shape}")
    chol = _cholesky_pd(b, "pencil denominator")
    x = scipy.linalg.solve_triangular(chol, a, lower=True, check_finite=False)
    mid = scipy.linalg.solve_triangular(
        chol, x.conj().T, lower=True, check_finite=False
    ).conj().T
    return chol, 0.5 * (mid + mid.conj().T)


def generalized_eigh(a, b):
    """Solve ``a p = lambda b p`` for Hermitian ``a`` and HPD ``b``.

    Reduces by Cholesky ``b = L L^H`` to an ordinary Hermitian problem on
    ``L^-1 a L^-H``.  Returns an EigenPairSet with eigenvalues descending and
    eigenvectors normalized to unit Euclidean norm (they are not mutually
    orthogonal in the Euclidean sense, only B-orthogonal).
    """
    chol, mid = cholesky_reduce(a, b)
    w, y = np.linalg.eigh(mid)
    p = scipy.linalg.solve_triangular(chol.conj().T, y, lower=False, check_finite=False)
    w = np.ascontiguousarray(w[::-1])
    p = np.ascontiguousarray(p[:, ::-1])
    p /= np.linalg.norm(p, axis=0, keepdims=True)
    return EigenPairSet(values=w, vectors=_phase_normalize_columns(p))


def generalized_eig_extremes(a, b):
    """Extreme generalized eigenpairs of the Hermitian pencil ``(a, b)``.

    Returns ``(min_pair, max_pair)`` where each pair is
    ``(eigenvalue, unit_vector)`` and min_pair attains the minimum of the
    generalized Rayleigh quotient over the full spectrum.
    """
    pairs = generalized_eigh(a, b)
    min_pair = (float(pairs.values[-1]), pairs.vectors[:, -1].copy())
    max_pair = (float(pairs.values[0]), pairs.vectors[:, 0].copy())
    return min_pair, max_pair


def left_singular_basis(v):
    """Full left singular basis of a tall matrix ``v`` of shape (L, K).

    Returns ``(singular_values, u)`` where ``singular_values`` has length L
    (padded with zeros past min(L, K)) sorted descending and the columns of
    ``u`` form an orthonormal basis; columns past the numerical rank span the
    orthogonal complement of the column space of ``v``.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {v.shape}")
    rows, cols = v.shape
    if rows <= cols:
        raise DimensionError(
            f"need strictly more rows than columns, got {rows}x{cols}"
        )
    if not np.all(np.isfinite(v.view(float))):
        raise ValidationError("singular basis input contains non-finite entries")
    u, s, _ = np.linalg.svd(v, full_matrices=True)
    padded = np.zeros(rows)
    padded[: s.shape[0]] = s
    return padded, _phase_normalize_columns(np.ascontiguousarray(u))
