"""Small shared helpers: dB conversion, circular complex Gaussians, and the
per-trial entries of stacked results."""

from dataclasses import is_dataclass

import numpy as np

__all__ = ["db_to_linear", "linear_to_db", "complex_normal", "complex_from_normals",
           "take", "batch_of_one", "first_errors"]


def db_to_linear(x_db):
    """Convert a power ratio from dB to linear scale."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    """Convert a linear power ratio to dB."""
    return 10.0 * np.log10(x)


def complex_normal(rng, shape=()):
    """Draw i.i.d. circularly symmetric complex Gaussians with unit variance.

    Real and imaginary parts are independent N(0, 1/2), so E|x|^2 = 1 per
    entry.  One underlying real draw of shape (2,) + shape, real block
    first, keeps seeded streams reproducible.
    """
    if not isinstance(shape, tuple):
        shape = (shape,)
    return complex_from_normals(rng.standard_normal((2,) + shape))


def complex_from_normals(block, axis=0):
    """complex_normal's values from its real draw, real half first on ``axis``."""
    block = np.moveaxis(block, axis, 0)
    return (block[0] + 1j * block[1]) / np.sqrt(2.0)


def take(stacked, index):
    """Entry ``index`` of a stacked result: every array in it, through
    nested dataclasses, tuples and dicts, indexed on its leading axis."""
    if isinstance(stacked, np.ndarray):
        return stacked[index]
    if isinstance(stacked, tuple):
        return tuple(take(item, index) for item in stacked)
    if isinstance(stacked, dict):
        return {key: take(item, index) for key, item in stacked.items()}
    if not is_dataclass(stacked):
        return stacked
    # Fields were checked on the stack: build without running __init__.
    entry = object.__new__(type(stacked))
    vars(entry).update({name: take(item, index) for name, item in vars(stacked).items()})
    return entry


def batch_of_one(stacked):
    """An unstacked call's answer from its stack of one: raise the trial's
    error (the last item of a tuple, else ``stacked.errors``) or take it."""
    errors = stacked[-1] if isinstance(stacked, tuple) else stacked.errors
    if errors[0] is not None:
        raise errors[0]
    return take(stacked, 0)


def first_errors(*checks):
    """Per trial, the first error of ``checks`` in the order given: each an
    array of errors and None (or None for no errors), or a pair ``(mask,
    build)`` giving ``build(index)`` where ``mask`` holds and none came before."""
    first = None
    for check in checks:
        if isinstance(check, tuple):
            mask, build = check
            check = np.full(np.shape(mask), None)
            for index in zip(*np.nonzero(mask & np.equal(first, None))):
                check[index] = build(index)
        if check is not None:
            first = check if first is None else np.where(np.equal(first, None), check, first)
    return first
