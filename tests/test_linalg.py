"""Dense linear-algebra kernel: pseudoinverse, eigendecomposition, matrix
exponential / logarithm.  The least-squares fit built on the pseudoinverse is
tested on ``edmd_fit`` in test_koopman.py."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopid import BranchCutError, eig, expm, logm, pinv
from koopid.errors import IllConditionedWarning, InvalidInputError, require_array
from koopid.linalg import CONDITION_WARN_THRESHOLD, matrix_rank


def random_matrix(seed: int, m: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


class TestPinv:
    @given(seed=st.integers(0, 50), m=st.integers(1, 8), n=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_moore_penrose_identities(self, seed, m, n):
        a = random_matrix(seed, m, n)
        p = pinv(a)
        assert np.allclose(a @ p @ a, a, atol=1e-9)
        assert np.allclose(p @ a @ p, p, atol=1e-9)
        assert np.allclose((a @ p).T.conj(), a @ p, atol=1e-9)
        assert np.allclose((p @ a).T.conj(), p @ a, atol=1e-9)

    def test_rank_deficient_truncation(self):
        # rank-1 matrix: pinv must not blow up and identities must still hold
        a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        p = pinv(a)
        assert np.allclose(a @ p @ a, a, atol=1e-9)
        assert matrix_rank(a) == 1

    def test_float32_rank_matches_pinv_truncation(self):
        # float32 round-off leaves singular values near 1e-7 * sigma_max, which
        # a float64 cutoff would count as rank
        a = np.outer(np.arange(1, 7), [1.0, 0.3, -2.0, 0.7]).astype(np.float32)
        p = pinv(a)
        assert p.dtype == np.float32
        # a @ pinv(a) projects onto the kept singular directions: trace = their count
        assert np.trace(a @ p) == pytest.approx(1.0, abs=1e-3)
        assert matrix_rank(a) == 1

    def test_complex64_rank_matches_pinv_truncation(self):
        # numpy's rank tolerance takes the epsilon of the singular values'
        # dtype, float32 here, and pinv's cutoff must take the same
        a = (np.outer(np.arange(1, 7), [1.0, 0.3, -2.0, 0.7]) * (1 + 1j)).astype(np.complex64)
        p = pinv(a)
        assert abs(np.trace(a @ p)) == pytest.approx(1.0, abs=1e-3)
        assert matrix_rank(a) == 1

    @given(seed=st.integers(0, 20), c=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_pinv_scaling(self, seed, c):
        a = random_matrix(seed, 5, 3)
        assert np.allclose(pinv(c * a), pinv(a) / c, atol=1e-10 * np.linalg.norm(pinv(a)))

    def test_orthogonal_matrix_pinv_is_transpose(self):
        theta = 0.3
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert np.allclose(pinv(q), q.T, atol=1e-12)


class TestEig:
    @given(seed=st.integers(0, 50), n=st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_eigen_residuals(self, seed, n):
        a = random_matrix(seed, n, n)
        dec = eig(a)
        for i in range(n):
            lam = dec.eigenvalues[i]
            v = dec.right_eigenvectors[:, i]
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * max(1.0, np.linalg.norm(a))

    def test_known_spectrum(self):
        a = np.diag([3.0, -1.0, 0.5])
        dec = eig(a)
        assert np.allclose(sorted(dec.eigenvalues.real), [-1.0, 0.5, 3.0], atol=1e-12)

    def test_non_convergence_is_invalid_input(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        with pytest.raises(InvalidInputError, match="^eigendecomposition did not converge: "
                                                    "Eigenvalues did not converge$"):
            eig(np.eye(3))


class TestInputChecks:
    """The shape and value checks that every public kernel runs first."""

    @pytest.mark.parametrize("kernel", [pinv, matrix_rank, eig, expm, logm])
    @pytest.mark.parametrize("a, shape", [
        (np.ones(3), "(3,)"), (np.ones((2, 2, 2)), "(2, 2, 2)"), (np.ones((0, 3)), "(0, 3)"),
    ], ids=["1-D", "3-D", "empty"])
    def test_not_2d_or_empty(self, kernel, a, shape):
        with pytest.raises(InvalidInputError, match=(
                r"^matrix must be 2-D with at least one row and column, got shape "
                + re.escape(shape) + "$")):
            kernel(a)

    @pytest.mark.parametrize("kernel", [pinv, matrix_rank, eig, expm, logm])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, kernel, bad):
        a = np.eye(2)
        a[0, 1] = bad
        with pytest.raises(InvalidInputError, match="^matrix contains non-finite entries$"):
            kernel(a)

    @pytest.mark.parametrize("kernel", [pinv, matrix_rank, eig, expm, logm])
    @pytest.mark.parametrize("a, dtype", [
        ([["a"]], "<U1"), ([[None]], "object"), ([[True]], "bool"),
    ], ids=["text", "none", "bool"])
    def test_non_numeric(self, kernel, a, dtype):
        # numpy raised its own TypeError ("ufunc 'isfinite' not supported")
        with pytest.raises(InvalidInputError, match=f"^matrix must hold numbers, got dtype {dtype}$"):
            kernel(a)

    @pytest.mark.parametrize("a, index", [
        ([[1, True], [0, 2]], [0, 1]), ([[0.5, 0.0], (1.0, False)], [1, 1]),
        ([[2.0, 0.0], [np.True_, 0.5]], [1, 0]),
    ], ids=["int-list", "tuple-row", "numpy-bool"])
    def test_bool_among_numbers(self, a, index):
        # numpy reads these lists as numbers, the bool as 0 or 1
        entry = "True" if index != [1, 1] else "False"
        with pytest.raises(InvalidInputError) as exc:
            require_array("matrix", a, (2,))
        assert str(exc.value) == f"matrix must hold numbers, got {entry} at index {index}"

    def test_numbers_equal_to_zero_or_one_pass(self):
        assert np.array_equal(require_array("values", [1, 0.5], (1,)), [1.0, 0.5])
        assert np.array_equal(require_array("matrix", [[0, 1.0], (1, 0.0)], (2,), float),
                              [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("kernel", [pinv, matrix_rank, eig, expm, logm])
    def test_ragged(self, kernel):
        # numpy raised its own ValueError ("... inhomogeneous shape ...")
        with pytest.raises(InvalidInputError,
                           match="^matrix must be a rectangular array of numbers$"):
            kernel([[1, 2], [3]])

    def test_complex_refused_only_for_a_real_dtype(self):
        a = np.array([[1.0, 1j], [0.0, 2.0]])
        assert require_array("matrix", a, (2,)) is a
        assert pinv(a).dtype == complex
        with pytest.raises(InvalidInputError, match="^matrix must be real, got dtype complex128$"):
            require_array("matrix", a, (2,), float)

    @pytest.mark.parametrize("kernel", [eig, expm, logm])
    def test_non_square(self, kernel):
        with pytest.raises(InvalidInputError, match=r"^matrix must be square, got shape \(2, 3\)$"):
            kernel(np.ones((2, 3)))

    def test_complex_logm_input(self):
        with pytest.raises(InvalidInputError, match="^logm expects a real matrix$"):
            logm(np.eye(2) * (1.0 + 1.0j))


class TestExpmLogm:
    @given(seed=st.integers(0, 50), n=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_logm_of_expm_roundtrip(self, seed, n):
        # scaled random generator: expm(a) stays well away from the branch cut
        a = 0.3 * random_matrix(seed, n, n)
        b = logm(expm(a))
        assert np.allclose(b, a, atol=1e-8)

    def test_expm_of_logm_roundtrip(self):
        rng = np.random.default_rng(7)
        a = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
        assert np.allclose(expm(logm(a)), a, atol=1e-8)

    def test_logm_diagonal_oracle(self):
        a = np.diag([1.0, 2.0, 0.5])
        assert np.allclose(logm(a), np.diag(np.log([1.0, 2.0, 0.5])), atol=1e-12)

    def test_negative_real_eigenvalue_raises(self):
        with pytest.raises(BranchCutError):
            logm(np.diag([1.0, -2.0]))

    def test_singular_matrix_raises(self):
        with pytest.raises(BranchCutError):
            logm(np.diag([1.0, 0.0]))

    def test_ill_conditioned_logm_falls_back_to_schur(self):
        # exp of a matrix similar to a perturbed 6x6 Jordan block: its
        # eigenvector matrix has cond about 1e13, where V log(w) V^-1 loses
        # about 1e-4 relative and scipy's Schur-based logm does not
        rng = np.random.default_rng(0)
        s = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        jordan = np.diag(0.1 + 1e-3 * np.arange(6)) + np.diag(np.full(5, 0.5), 1)
        b = s @ jordan @ np.linalg.inv(s)
        a = expm(b)
        assert np.linalg.cond(np.linalg.eig(a)[1]) > CONDITION_WARN_THRESHOLD
        with pytest.warns(IllConditionedWarning):
            got = logm(a)
        assert np.linalg.norm(got - b) <= 1e-10 * np.linalg.norm(b)

    def test_fallback_warns_before_discarding_imaginary_part(self, monkeypatch):
        # the Schur route's result passes the same imaginary-part check as
        # the eigen route before its real part is returned
        import scipy.linalg

        a = np.diag([2.0, 3.0]) + np.diag([1.0], 1)
        fake = np.array([[0.7, 0.4], [0.0, 1.1]]) + 0.1j
        monkeypatch.setattr(scipy.linalg, "logm", lambda m: fake)
        monkeypatch.setattr("koopid.linalg.CONDITION_WARN_THRESHOLD", 0.0)
        with pytest.warns(IllConditionedWarning) as record:
            got = logm(a)
        assert any("discarding imaginary part" in str(w.message) for w in record)
        assert np.array_equal(got, fake.real)

    def test_complex_pair_uses_principal_branch(self):
        # rotation by 90 degrees: eigenvalues +-i, log = +-i pi/2
        r = np.array([[0.0, -1.0], [1.0, 0.0]])
        b = logm(r)
        assert np.allclose(b, np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]]), atol=1e-10)
