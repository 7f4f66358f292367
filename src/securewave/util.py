"""Small shared helpers: dB conversion, circular complex Gaussians."""

import numpy as np

__all__ = ["db_to_linear", "linear_to_db", "complex_normal", "complex_from_normals"]


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
