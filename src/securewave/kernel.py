"""Dense complex-Hermitian eigen kernels used by every design routine.

All operations are pure functions on small (dim <= ~64) dense matrices:
validate, factorize, return plain numpy arrays.  Eigenpairs come as
ascending ``(values, vectors)``, as ``np.linalg.eigh`` returns them, with
``vectors[..., i]`` paired with ``values[..., i]``; eigenvectors carry a
deterministic phase (largest-magnitude entry rotated to the positive
real axis) so that fixtures and seeded tests are bit-stable.

Every kernel also takes a stack of matrices (leading trial axes).  On a
stack, a definiteness check returns per matrix None or the error that the
call on that matrix alone raises, and fills its results (identity factor,
NaN eigenpairs); the unstacked call is the stack of one.
"""

import numpy as np

from .errors import DefinitenessError, DimensionError, ValidationError
from .util import batch_of_one, first_errors

__all__ = [
    "cholesky",
    "cholesky_reduce",
    "hermitian_eig",
    "generalized_eigh",
    "hermitian_part",
    "left_singular_basis",
    "per_matrix",
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
    v = np.array(v)
    rows = v.reshape(-1, v.shape[-1])
    pivots = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=-1)]
    rows *= _unit_phases(pivots)[:, None]
    return v


def _phase_normalize_columns(v):
    """Column-wise phase normalization of a (stack of) matrices, in place."""
    idx = np.argmax(np.abs(v), axis=-2)
    v *= _unit_phases(np.take_along_axis(v, idx[..., None, :], axis=-2))
    return v


def _unit_phases(pivots):
    """conj(p) / |p| for each pivot p, and 1 for a zero pivot."""
    mags = np.abs(pivots)
    return np.where(mags > 0, np.conj(pivots) / np.where(mags > 0, mags, 1.0), 1.0)


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


def per_matrix(factorize, a):
    """``factorize(a)`` of a stack of finite matrices, and the mask of the
    matrices whose call alone raises LinAlgError.  Those are factored as
    the identity, so the results stay finite, and every other matrix gets
    what its call alone gives.  Inputs must be finite: ``np.linalg.svd`` of
    a matrix holding inf may never return (one holding NaN raises)."""
    failed = np.zeros(a.shape[:-2], dtype=bool)
    try:
        return factorize(a), failed
    except np.linalg.LinAlgError:
        pass
    for index in np.ndindex(failed.shape):
        try:
            factorize(a[index])
        except np.linalg.LinAlgError:
            failed[index] = True
    a = a.copy()
    a[failed] = np.eye(a.shape[-1])
    return factorize(a), failed


def cholesky(a, message):
    """Lower Cholesky factors of a (stack of) Hermitian matrices, and per
    matrix None or DefinitenessError(``message``): a matrix that is not
    positive definite gets the identity factor, so a stack stays usable."""
    if a.ndim == 2:
        return batch_of_one(cholesky(a[None], message))
    factor, failed = per_matrix(np.linalg.cholesky, a)
    return factor, first_errors((failed, lambda _: DefinitenessError(message)))


def quadratic_form(q, s):
    """Real part of s^H Q s for a (stack of) Hermitian Q and vectors s."""
    return np.real(s.conj()[..., None, :] @ q @ s[..., :, None])[..., 0, 0]


def cholesky_reduce(a, b):
    """Reduce the pencil ``(a, b)``, ``a`` Hermitian and ``b`` HPD, to standard form.

    Validates both matrices, factors ``b = L L^H`` (a pivot below the floor
    also failing) and returns ``(L^-1, L^-1 a L^-H, errors)``, the second
    exactly Hermitian (the identity where a stacked ``b`` failed).  The
    generalized eigenpairs are ``(lambda, L^-H y)`` for the eigenpairs
    ``(lambda, y)`` of the reduced matrix.
    """
    a = validate_hermitian(a, "pencil numerator")
    b = validate_hermitian(b, "pencil denominator")
    if a.shape != b.shape:
        raise DimensionError(f"pencil shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        return batch_of_one(cholesky_reduce(a[None], b[None]))
    chol, errors = cholesky(b, "pencil denominator is not positive definite")
    pivot_floor = CHOLESKY_PIVOT_RTOL * np.trace(b, axis1=-2, axis2=-1).real / b.shape[-1]
    smallest = np.min(np.diagonal(chol, axis1=-2, axis2=-1).real, axis=-1) ** 2
    singular = smallest < pivot_floor
    chol[singular] = np.eye(b.shape[-1])
    errors = first_errors(errors, (singular, lambda i: DefinitenessError(
        "pencil denominator is numerically singular: smallest Cholesky pivot "
        f"{smallest[i]:.3e} < {pivot_floor[i]:.3e}")))
    linv = np.linalg.inv(chol)
    mid = hermitian_part(linv @ a @ np.swapaxes(linv, -1, -2).conj())
    mid[np.not_equal(errors, None)] = np.eye(a.shape[-1])
    return linv, mid, errors


def generalized_eigh(a, b):
    """Solve ``a p = lambda b p`` for Hermitian ``a`` and HPD ``b``.

    Reduces by Cholesky ``b = L L^H`` to an ordinary Hermitian problem on
    ``L^-1 a L^-H``.  Returns ascending ``(values, vectors)``, the
    eigenvectors normalized to unit Euclidean norm (they are not mutually
    orthogonal in the Euclidean sense, only B-orthogonal).  A stacked call
    also returns the errors of ``cholesky_reduce``, those trials' eigenpairs
    being NaN.
    """
    linv, mid, errors = cholesky_reduce(a, b)
    w, y = np.linalg.eigh(mid)
    p = np.swapaxes(linv, -1, -2).conj() @ y
    p /= np.linalg.norm(p, axis=-2, keepdims=True)
    failed = np.not_equal(errors, None)
    w[failed] = p[failed] = np.nan
    pairs = w, _phase_normalize_columns(p)
    return pairs if mid.ndim == 2 else pairs + (errors,)


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
