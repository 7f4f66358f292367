"""Kernel tests: eigendecompositions, generalized pencils, singular bases."""

import numpy as np
import numpy.testing as npt
import pytest

from securewave.errors import DefinitenessError, DimensionError, ValidationError
from securewave.kernel import (
    cholesky,
    cholesky_reduce,
    generalized_eigh,
    hermitian_eig,
    hermitian_part,
    left_singular_basis,
    per_matrix,
    phase_normalize,
)


def random_hermitian(rng, dim, scale=1.0):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return scale * 0.5 * (g + g.conj().T)


def random_hpd(rng, dim, floor=0.1):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return g @ g.conj().T + floor * np.eye(dim)


def charpoly_eigenvalues(a):
    """Independent oracle: Faddeev-LeVerrier characteristic polynomial
    coefficients followed by polynomial root finding."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return np.sort(np.roots(coeffs).real)[::-1]


# Spectrum of random_hermitian(default_rng(2024), 8), computed once with the
# charpoly oracle above and frozen.
FROZEN_SPECTRUM_8 = np.array([
    2.644362578882586,
    2.214053673177059,
    1.427024153866850,
    0.183812292156463,
    -0.445488184706131,
    -0.568944972094308,
    -1.663425847195181,
    -2.464681034027587,
])


class TestHermitianEig:
    def test_identity(self):
        values, vectors = hermitian_eig(np.eye(3, dtype=complex))
        npt.assert_allclose(values, np.ones(3))
        npt.assert_allclose(vectors @ vectors.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        values, vectors = hermitian_eig(np.diag([4.0 + 0j, 1.0]))
        values, vectors = values[::-1], vectors[:, ::-1]
        npt.assert_allclose(values, [4.0, 1.0])
        npt.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-12)
        assert vectors[0, 0].real > 0 and vectors[1, 1].real > 0

    def test_charpoly_oracle_frozen(self):
        a = random_hermitian(np.random.default_rng(2024), 8)
        values, _ = hermitian_eig(a)
        scale = np.max(np.abs(values))
        npt.assert_allclose(values[::-1], FROZEN_SPECTRUM_8, atol=1e-8 * scale)
        # oracle stays runnable and must agree with its own frozen output
        npt.assert_allclose(charpoly_eigenvalues(a), FROZEN_SPECTRUM_8, atol=1e-8 * scale)

    def test_reconstruction_200_seeds(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = random_hermitian(rng, int(rng.integers(2, 13)))
            values, vectors = hermitian_eig(a)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.linalg.norm(rebuilt - a) <= 1e-9 * max(np.linalg.norm(a), 1e-30)
            assert np.all(np.diff(values) >= 0)
            gram = vectors.conj().T @ vectors
            assert np.max(np.abs(gram - np.eye(len(values)))) <= 1e-9

    def test_eigenpair_residuals(self):
        a = random_hermitian(np.random.default_rng(7), 10)
        values, vectors = hermitian_eig(a)
        for lam, vec in zip(values, vectors.T):
            assert np.linalg.norm(a @ vec - lam * vec) <= 1e-9 * np.linalg.norm(a)

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValidationError):
            hermitian_eig(bad)

    def test_rejects_non_finite(self):
        bad = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValidationError):
            hermitian_eig(bad)

    def test_phase_convention_deterministic(self):
        a = random_hermitian(np.random.default_rng(11), 6)
        _, first = hermitian_eig(a)
        _, second = hermitian_eig(a.copy())
        npt.assert_array_equal(first, second)
        for vec in first.T:
            k = np.argmax(np.abs(vec))
            assert vec[k].real > 0 and abs(vec[k].imag) <= 1e-12


class TestHermitianPart:
    @pytest.mark.parametrize("count", [1, 300])
    def test_c_ordered_and_equal_to_each_matrix_alone(self, count):
        # 300 complex 8 x 8 matrices (300 KiB) pass NumPy's 256 KiB
        # threshold for reusing a temporary.
        rng = np.random.default_rng(21)
        stack = rng.standard_normal((count, 8, 8)) + 1j * rng.standard_normal((count, 8, 8))
        for a in (stack, np.swapaxes(stack, -1, -2)):
            h = hermitian_part(a)
            assert h.flags.c_contiguous
            npt.assert_array_equal(h, 0.5 * (a + np.swapaxes(a, -1, -2).conj()))
            for t in range(0, count, 37):
                npt.assert_array_equal(h[t], hermitian_part(a[t]))
            npt.assert_array_equal(h, np.swapaxes(h, -1, -2).conj())


class TestGeneralizedEig:
    def test_equal_matrices(self):
        b = random_hpd(np.random.default_rng(0), 5)
        values, _ = generalized_eigh(b, b)
        npt.assert_allclose(values[[0, -1]], [1.0, 1.0], atol=1e-10)

    def test_diagonal_ratio(self):
        a = np.diag([1.0 + 0j, 2.0])
        b = np.diag([2.0 + 0j, 1.0])
        values, vectors = generalized_eigh(a, b)
        npt.assert_allclose(values[[0, -1]], [0.5, 2.0], atol=1e-12)
        npt.assert_allclose(np.abs(vectors[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_random_sampling_oracle(self):
        rng = np.random.default_rng(42)
        a = random_hpd(rng, 6)
        b = random_hpd(rng, 6)
        lo = generalized_eigh(a, b)[0][0]
        samples = rng.standard_normal((100_000, 6)) + 1j * rng.standard_normal((100_000, 6))
        num = np.einsum("ij,jk,ik->i", samples.conj(), a, samples).real
        den = np.einsum("ij,jk,ik->i", samples.conj(), b, samples).real
        assert lo <= np.min(num / den) + 1e-12

    def test_residuals_both_extremes(self):
        rng = np.random.default_rng(3)
        a = random_hpd(rng, 7)
        b = random_hpd(rng, 7)
        tol = 1e-9 * (np.linalg.norm(a) + np.linalg.norm(b))
        values, vectors = generalized_eigh(a, b)
        for lam, vec in zip(values[[0, -1]], vectors[:, [0, -1]].T):
            assert np.linalg.norm(a @ vec - lam * (b @ vec)) <= tol
            npt.assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-12)

    def test_full_spectrum_ascending_and_b_orthogonal(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 6) + 3 * np.eye(6)
        b = random_hpd(rng, 6)
        values, vectors = generalized_eigh(a, b)
        assert np.all(np.diff(values) >= 0)
        for lam, vec in zip(values, vectors.T):
            resid = np.linalg.norm(a @ vec - lam * (b @ vec))
            assert resid <= 1e-9 * (np.linalg.norm(a) + np.linalg.norm(b))

    def test_indefinite_b_rejected(self):
        a = np.eye(3, dtype=complex)
        b = np.diag([1.0 + 0j, -1.0, 1.0])
        with pytest.raises(DefinitenessError):
            generalized_eigh(a, b)

    def test_near_singular_b_rejected(self):
        b = np.diag([1.0 + 0j, 1.0, 1e-16])
        with pytest.raises(DefinitenessError):
            generalized_eigh(np.eye(3, dtype=complex), b)


class TestStackedErrors:
    """A stack returns per matrix the error its single call raises."""

    @staticmethod
    def stack():
        rng = np.random.default_rng(8)
        good = random_hpd(rng, 3)
        indefinite = np.diag([1.0 + 0j, -1.0, 1.0])
        # Positive definite, but its last pivot 1e-16 is under the floor.
        floored = np.diag([1.0 + 0j, 1.0, 1e-16])
        return np.stack([good, indefinite, floored, good]), random_hermitian(rng, 3)

    @staticmethod
    def described(error):
        return None if error is None else (type(error), str(error), error.diagnostics)

    def alone(self, call):
        try:
            call()
        except DefinitenessError as exc:
            return self.described(exc)
        return None

    def test_cholesky(self):
        b, _ = self.stack()
        factor, errors = cholesky(b, "b is not positive definite")
        assert [self.described(error) for error in errors] == [
            self.alone(lambda: cholesky(m, "b is not positive definite")) for m in b]
        assert [error is None for error in errors] == [True, False, True, True]
        npt.assert_array_equal(factor[1], np.eye(3))
        npt.assert_array_equal(factor[0], np.linalg.cholesky(b[0]))

    def test_cholesky_reduce_and_generalized_eigh(self):
        b, a = self.stack()
        a = np.stack([a] * len(b))
        linv, mid, errors = cholesky_reduce(a, b)
        values, vectors, eig_errors = generalized_eigh(a, b)
        expected = [self.alone(lambda: cholesky_reduce(a[t], b[t])) for t in range(len(b))]
        assert expected[1][1] == "pencil denominator is not positive definite"
        assert expected[2][1].startswith("pencil denominator is numerically singular: "
                                         "smallest Cholesky pivot 1.000e-16 < ")
        for these in (errors, eig_errors):
            assert [self.described(error) for error in these] == expected
        for t in (1, 2):
            npt.assert_array_equal(mid[t], np.eye(3))
            assert np.isnan(values[t]).all() and np.isnan(vectors[t]).all()
        for t in (0, 3):
            single = cholesky_reduce(a[t], b[t])
            npt.assert_array_equal(mid[t], single[1])
            assert single[2] is None
            npt.assert_array_equal(values[t], generalized_eigh(a[t], b[t])[0])


class TestPerMatrix:
    """A stack's matrices whose call alone raises are found and factored as
    the identity; every other matrix gets its call alone."""

    @staticmethod
    def check(factorize, a, bad):
        def parts(results):
            return results if isinstance(results, tuple) else (results,)

        results, failed = per_matrix(factorize, a)
        assert failed.tolist() == [t == bad for t in range(len(a))]
        for t, m in enumerate(a):
            alone = factorize(np.eye(len(m), dtype=a.dtype) if t == bad else m)
            for got, want in zip(parts(results), parts(alone), strict=True):
                assert np.array_equal(got[t], want), t

    def test_cholesky_of_an_indefinite_matrix(self):
        rng = np.random.default_rng(3)
        a = np.stack([random_hpd(rng, 4) for _ in range(5)])
        a[2] = np.diag([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        self.check(np.linalg.cholesky, a, 2)

    def test_svd_of_a_nan_matrix(self):
        rng = np.random.default_rng(4)
        a = np.stack([random_hermitian(rng, 4) for _ in range(4)])
        a[1, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd(a[1])
        self.check(np.linalg.svd, a, 1)

    def test_a_stack_without_failure_gets_the_stacked_call(self):
        rng = np.random.default_rng(5)
        a = np.stack([random_hpd(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
        (values, vectors), failed = per_matrix(np.linalg.eigh, a)
        assert failed.shape == (2, 3) and not failed.any()
        stacked = np.linalg.eigh(a)
        assert np.array_equal(values, stacked[0]) and np.array_equal(vectors, stacked[1])


class TestLeftSingularBasis:
    def test_canonical_vector(self):
        v = np.zeros((3, 1), dtype=complex)
        v[0, 0] = 1.0
        singulars, basis = left_singular_basis(v)
        npt.assert_allclose(singulars, [1.0, 0.0, 0.0], atol=1e-12)
        span = basis[:, 1:]
        assert np.max(np.abs(span[0, :])) <= 1e-12

    def test_rank_deficient_duplicate_columns(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = np.column_stack([col, col])
        singulars, basis = left_singular_basis(v)
        assert np.sum(singulars > 1e-9 * singulars[0]) == 1
        complement = basis[:, 1:]
        assert np.max(np.abs(v.conj().T @ complement)) <= 1e-9

    def test_random_complement_orthogonality(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        singulars, basis = left_singular_basis(v)
        for i in range(8):
            npt.assert_allclose(np.linalg.norm(v.conj().T @ basis[:, i]), singulars[i], atol=1e-9)
        gram = v.conj().T @ basis[:, 3:]
        assert np.max(np.abs(gram)) <= 1e-9
        npt.assert_allclose(basis.conj().T @ basis, np.eye(8), atol=1e-12)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            left_singular_basis(np.ones((3, 3), dtype=complex))
        with pytest.raises(DimensionError):
            left_singular_basis(np.ones((2, 3), dtype=complex))


def test_phase_normalize_zero_vector():
    v = np.zeros(4, dtype=complex)
    npt.assert_array_equal(phase_normalize(v), v)
