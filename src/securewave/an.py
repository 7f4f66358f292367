"""Unknown-eavesdropper designs: minimum-energy waveform and artificial noise.

Without the eavesdropper's channel, the transmitter whispers: it uses the
top eigenvector of Q_b at the minimum energy meeting the SINR target, then
spends the leftover budget on artificial noise (AN) confined to directions
the intended receiver's effective channel cannot see, so the receiver's SINR
is untouched while any eavesdropper soaks up the extra disturbance.
Both pipelines also run on stacks of trials, the design returning each
trial's error (see ``WaveformDesign``); such a trial sends no AN.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError, NoTransmitError, ValidationError
from .kernel import hermitian_eig, hermitian_part, left_singular_basis
from .p2p import _CAP_SLACK, WaveformDesign
from .util import batch_of_one, first_errors

__all__ = ["AnCovariance", "min_energy_design", "an_covariance",
           "an_pipeline_single", "an_pipeline_multicast"]


@dataclass
class AnCovariance:
    """Artificial-noise covariance R_w with its trace budget.

    ``matrix`` is (E_AN / d) W W^H where the columns of W are an orthonormal
    basis of the orthogonal complement of the blocked directions and d is the
    complement dimension; ``factor`` = sqrt(E_AN/d) W maps i.i.d. unit
    circular Gaussians to AN samples with exactly this covariance.  ``dim``
    is d: the last d columns of ``factor`` are the trial's own, the ones
    before them the zero padding of a stack that mixes ranks (None: all).
    """

    matrix: np.ndarray
    budget: float
    factor: np.ndarray = field(repr=False)
    dim: Optional[np.ndarray] = field(default=None, repr=False)


def min_energy_design(q_bob, gamma, e_max):
    """Whispering design: s = top eigenvector of Q_b, E = gamma / lambda_1.

    Raises NoTransmitError when even the minimum energy exceeds the cap.
    On a stack, ``gamma`` and ``e_max`` are scalars or one value per trial,
    and the stack returns those errors; an unstacked call is the stack of one.
    """
    q = np.asarray(q_bob, dtype=complex)
    if not np.all((np.asarray(gamma) > 0) & np.isfinite(gamma)):
        raise ValidationError(f"gamma must be positive and finite, got {gamma}")
    if not np.all((np.asarray(e_max) > 0) & np.isfinite(e_max)):
        raise ValidationError(f"e_max must be positive and finite, got {e_max}")
    values, vectors = hermitian_eig(q)
    single = values.ndim == 1
    if single:
        values, vectors = values[None], vectors[None]
    top = values[..., -1]
    energy = gamma / top
    cap = np.broadcast_to(e_max, energy.shape)
    errors = first_errors(
        (top <= 0, lambda t: ValidationError("Q_b must be positive definite")),
        (energy > cap, lambda t: NoTransmitError(
            f"minimum energy {energy[t]:.6g} exceeds the budget {cap[t]:.6g}")))
    energy = np.where(np.equal(errors, None), energy, np.nan)
    design = WaveformDesign(waveform=vectors[..., -1].copy(), energy=energy,
                            branch="min-energy", errors=errors)
    return batch_of_one(design) if single else design


def an_covariance(blocking, budget):
    """Isotropic AN covariance on the complement of the blocked directions.

    ``blocking`` is a sequence of K vectors v_1..v_K of length L (K < L)
    that the AN must annihilate: v_k^H R_w = 0; L, the dimension of R_w, is
    read from them.  The available energy is spread evenly over the
    orthogonal complement of their span; if the blocking matrix is rank
    deficient (rank r < K) the complement has dimension L - r and the
    per-dimension share divides by L - r so the trace still equals the
    budget.  On a stack each trial has its own rank; a trial below the
    stack's full rank widens every trial's ``factor``, whose extra columns
    are zero in the trials of higher rank; ``dim`` gives each trial's own.
    """
    v = np.stack([np.asarray(b, dtype=complex) for b in blocking], axis=-1)
    dim, k = v.shape[-2:]
    if dim <= k:
        raise DimensionError(f"need dim >= K+1 to block {k} directions at dim {dim}")
    budget = np.asarray(budget, dtype=float)
    checked = ~np.isnan(budget) if budget.ndim else np.True_
    if np.any(checked & ~((budget >= 0) & np.isfinite(budget))):
        raise ValidationError(f"AN budget must be >= 0 and finite, got {budget}")
    singulars, basis = left_singular_basis(v)
    top = singulars[..., :1]
    tol = max(dim, k) * np.finfo(float).eps * np.where(top > 0, top, 1.0)
    ranks = np.count_nonzero(singulars > tol, axis=-1)
    # A trial's complement is the last L - r columns of its basis.  A stack
    # takes the columns from its lowest rank r over the trials that send AN,
    # and zeroes in each trial the columns of its own span.
    first = int(np.min(ranks, where=checked, initial=k))
    in_complement = np.arange(first, dim) >= ranks[..., None, None]
    complement = np.where(in_complement, basis[..., first:], 0.0)
    # A trial with a NaN budget gets no AN, keeping the stack finite.
    share = np.nan_to_num(budget) / (dim - ranks)
    factor = np.sqrt(share)[..., None, None] * complement
    matrix = hermitian_part(factor @ np.swapaxes(factor, -1, -2).conj())
    budget = float(budget) if budget.ndim == 0 else budget
    dims = dim - ranks
    return AnCovariance(matrix=matrix, budget=budget, factor=factor,
                        dim=int(dims) if dims.ndim == 0 else dims)


def an_pipeline_single(q_bob, gamma, e_max):
    """Min-energy waveform plus AN on the leftover budget for one receiver:
    ``an_pipeline_multicast`` with the receiver's Q_b the only blocker, so
    the receiver's SINR is exactly preserved."""
    design = min_energy_design(q_bob, gamma, e_max)
    return design, an_pipeline_multicast(design, [q_bob], e_max)


def an_pipeline_multicast(design, q_bobs, e_max):
    """AN covariance blocking every intended receiver's effective direction.

    ``design`` is the (already computed) min-energy design; the blocked
    directions are v_k = Q_{b,k} s and the leftover budget max(e_max - E, 0)
    is spread isotropically over their joint complement.  On a stack,
    ``e_max`` is a scalar or one value per trial, and a trial with NaN
    energy (one that sends nothing) gets a NaN budget.  A design more than
    ``_CAP_SLACK`` (relative) over e_max, in any trial, is rejected.
    """
    energy, cap = np.broadcast_arrays(np.atleast_1d(design.energy), e_max)
    over = np.flatnonzero(energy > cap * (1.0 + _CAP_SLACK))
    if len(over):
        raise ValidationError(
            f"design energy {energy[over[0]]:.6g} exceeds the budget {cap[over[0]]:.6g}"
        )
    s = design.waveform[..., None]
    blocked = [(np.asarray(q, dtype=complex) @ s)[..., 0] for q in q_bobs]
    return an_covariance(blocked, np.maximum(e_max - design.energy, 0.0))
