"""Dense complex-Hermitian eigen kernels used by every design routine.

All operations are pure functions on small (dim <= ~64) dense matrices:
validate, factorize, return plain numpy arrays.  Eigenpairs come as
ascending ``(values, vectors)``, as ``np.linalg.eigh`` returns them, with
``vectors[..., i]`` paired with ``values[..., i]``; eigenvectors carry a
deterministic phase (largest-magnitude entry rotated to the positive
real axis) so that fixtures and seeded tests are bit-stable.

Every kernel also takes a stack of matrices (leading trial axes).  A stack
does not raise for one matrix that fails a definiteness check: that
matrix's results are NaN, and the same call on it alone raises.
"""

import numpy as np

from .errors import DefinitenessError, DimensionError, ValidationError

__all__ = [
    "cholesky",
    "cholesky_reduce",
    "hermitian_eig",
    "generalized_eigh",
    "hermitian_part",
    "left_singular_basis",
    "phase_normalize",
    "quadratic_form",
    "validate_hermitian",
]

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12
# A Cholesky pivot below this fraction of trace/dim means "numerically
# singular": reject instead of regularizing, the caller owns noise floors.
CHOLESKY_PIVOT_RTOL = 1e-12


def phase_normalize(v):
    """Rotate complex ``v``, or each vector of a stack along its last axis,
    so its largest-magnitude entry is real and positive."""
    return _phase_normalize_columns(np.array(v)[..., None])[..., 0]


def _phase_normalize_columns(v):
    """Column-wise phase normalization of a (stack of) matrices, in place."""
    idx = np.argmax(np.abs(v), axis=-2)
    pivots = np.take_along_axis(v, idx[..., None, :], axis=-2)
    mags = np.abs(pivots)
    phases = np.where(mags > 0, np.conj(pivots) / np.where(mags > 0, mags, 1.0), 1.0)
    v *= phases
    return v


def hermitian_part(a):
    """(a + a^H) / 2 of a (stack of) square matrices, always C-ordered with
    one stack-sized temporary, so a matrix's later products round the same
    whatever the size or layout of the stack it sits in."""
    h = np.conj(a.swapaxes(-1, -2), order="C")
    h += a
    h *= 0.5
    return h


def validate_hermitian(a, name="matrix"):
    """Check Hermitian symmetry and finiteness; return the Hermitian part.

    Raises ValidationError when the conjugate-symmetry defect exceeds
    ``HERMITIAN_RTOL`` relative to the largest entry magnitude.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    mags = np.abs(a)
    if not np.isfinite(mags).all():
        raise ValidationError(f"{name} contains non-finite entries")
    scale = mags.max(axis=(-2, -1), initial=0.0)
    defect = np.abs(a - np.swapaxes(a, -1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    if (defect > HERMITIAN_RTOL * scale).any():
        raise ValidationError(
            f"{name} is not Hermitian: defect {np.max(defect):.3e} > "
            f"{HERMITIAN_RTOL:.0e} * scale {np.max(scale):.3e}"
        )
    return hermitian_part(a)


def hermitian_eig(a):
    """Eigendecompose a Hermitian matrix: ascending ``(values, vectors)``.

    Guarantees ``a = sum_i values[i] * v_i v_i^H`` to within 1e-9 * ||a||
    and pairwise-orthonormal eigenvectors.
    """
    w, v = np.linalg.eigh(validate_hermitian(a, "eigendecomposition input"))
    return w, _phase_normalize_columns(v)


def cholesky(a, message):
    """Lower Cholesky factors of a (stack of) Hermitian matrices, and the
    mask of those that are not positive definite: their factor is the
    identity, so a stack stays usable for the others.  An unstacked
    failure raises DefinitenessError(``message``)."""
    try:
        return np.linalg.cholesky(a), np.zeros(a.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError as exc:
        if a.ndim == 2:
            raise DefinitenessError(message) from exc
    factor, failed = np.empty_like(a), np.zeros(a.shape[:-2], dtype=bool)
    for index in np.ndindex(a.shape[:-2]):
        try:
            factor[index] = np.linalg.cholesky(a[index])
        except np.linalg.LinAlgError:
            factor[index], failed[index] = np.eye(a.shape[-1]), True
    return factor, failed


def quadratic_form(q, s):
    """Real part of s^H Q s for a (stack of) Hermitian Q and vectors s."""
    return np.real(s.conj()[..., None, :] @ q @ s[..., :, None])[..., 0, 0]


def _cholesky_pd(b, name):
    """``cholesky`` of Hermitian positive definite matrices, pivots below
    the floor also failing."""
    chol, failed = cholesky(b, f"{name} is not positive definite")
    pivot_floor = CHOLESKY_PIVOT_RTOL * np.trace(b, axis1=-2, axis2=-1).real / b.shape[-1]
    smallest = np.min(np.diagonal(chol, axis1=-2, axis2=-1).real, axis=-1) ** 2
    singular = ~failed & (smallest < pivot_floor)
    if b.ndim == 2 and singular:
        raise DefinitenessError(
            f"{name} is numerically singular: smallest Cholesky pivot "
            f"{smallest:.3e} < {pivot_floor:.3e}"
        )
    chol[singular] = np.eye(b.shape[-1])
    return chol, failed | singular


def cholesky_reduce(a, b):
    """Reduce the pencil ``(a, b)``, ``a`` Hermitian and ``b`` HPD, to standard form.

    Validates both matrices, factors ``b = L L^H`` with the pivot check and
    returns ``(L^-1, L^-1 a L^-H, failed)``, the second exactly Hermitian
    (the identity where a stacked ``b`` failed).  The generalized eigenpairs
    are ``(lambda, L^-H y)`` for the eigenpairs ``(lambda, y)`` of the
    reduced matrix.
    """
    a = validate_hermitian(a, "pencil numerator")
    b = validate_hermitian(b, "pencil denominator")
    if a.shape != b.shape:
        raise DimensionError(f"pencil shapes differ: {a.shape} vs {b.shape}")
    chol, failed = _cholesky_pd(b, "pencil denominator")
    linv = np.linalg.inv(chol)
    mid = hermitian_part(linv @ a @ np.swapaxes(linv, -1, -2).conj())
    mid[failed] = np.eye(a.shape[-1])
    return linv, mid, failed


def generalized_eigh(a, b):
    """Solve ``a p = lambda b p`` for Hermitian ``a`` and HPD ``b``.

    Reduces by Cholesky ``b = L L^H`` to an ordinary Hermitian problem on
    ``L^-1 a L^-H``.  Returns ascending ``(values, vectors)``, the
    eigenvectors normalized to unit Euclidean norm (they are not mutually
    orthogonal in the Euclidean sense, only B-orthogonal).  A stacked ``b``
    that is not positive definite gets NaN eigenpairs.
    """
    linv, mid, failed = cholesky_reduce(a, b)
    w, y = np.linalg.eigh(mid)
    p = np.swapaxes(linv, -1, -2).conj() @ y
    p /= np.linalg.norm(p, axis=-2, keepdims=True)
    w[failed] = p[failed] = np.nan
    return w, _phase_normalize_columns(p)


def left_singular_basis(v):
    """Full left singular basis of a tall matrix ``v`` of shape (L, K).

    Returns ``(singular_values, u)`` where ``singular_values`` has length L
    (padded with zeros past min(L, K)) sorted descending and the columns of
    ``u`` form an orthonormal basis; columns past the numerical rank span the
    orthogonal complement of the column space of ``v``.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim < 2:
        raise DimensionError(f"expected a matrix, got shape {v.shape}")
    rows, cols = v.shape[-2:]
    if rows <= cols:
        raise DimensionError(
            f"need strictly more rows than columns, got {rows}x{cols}"
        )
    if not np.all(np.isfinite(v.view(float))):
        raise ValidationError("singular basis input contains non-finite entries")
    u, s, _ = np.linalg.svd(v, full_matrices=True)
    padded = np.zeros(v.shape[:-2] + (rows,))
    padded[..., :cols] = s
    return padded, _phase_normalize_columns(np.ascontiguousarray(u))
