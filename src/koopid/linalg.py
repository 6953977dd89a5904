"""Dense linear-algebra kernels: pseudoinverse, numerical rank,
eigendecomposition, matrix exponential and principal matrix logarithm.

The pseudoinverse, rank, eigendecomposition and matrix exponential delegate
to LAPACK-backed numpy/scipy routines behind the package's error contracts.
The principal logarithm is computed by eigendecomposition,
``V log(diag(w)) V^{-1}``, which is adequate for the near-identity matrices
produced by short-sampling-time fits; an ill-conditioned eigenvector matrix
triggers a warning rather than a failure, and the logarithm then falls back
to ``scipy.linalg.logm``.

Every kernel checks its matrix by ``errors.require_array``, the rule for
numeric arrays that node values share, and names it ``matrix``.

Only :func:`expm` and that fallback need scipy.  They import ``scipy.linalg``
when called, so importing this module loads no scipy module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, IllConditionedWarning, InvalidInputError, require_array

#: cond(V) above which logm/eig results carry an IllConditionedWarning.
CONDITION_WARN_THRESHOLD = 1e8

#: relative tolerance of :func:`branch_cut_mask`
BRANCH_CUT_TOL = 1e-12


def _check_square(a):
    a = require_array("matrix", a, (2,))
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"matrix must be square, got shape {a.shape}")
    return a


def _rcond(a: np.ndarray) -> float:
    """The relative singular-value cutoff of :func:`pinv` and
    :func:`matrix_rank`: ``max(rows, cols)`` times the machine epsilon of
    ``a``'s singular values (float64 for a non-float dtype), numpy's default
    rank tolerance."""
    return max(a.shape) * np.finfo(a.dtype if a.dtype.kind in "fc" else np.float64).eps


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular-value truncation.

    Singular values at or below ``_rcond(a) * sigma_max`` are treated as
    zero, the standard rank-revealing choice.
    """
    a = require_array("matrix", a, (2,))
    return np.linalg.pinv(a, rcond=_rcond(a))


def matrix_rank(a: np.ndarray) -> int:
    """Numerical rank: the number of singular values that :func:`pinv`
    keeps, those above ``_rcond(a) * sigma_max`` (numpy's default
    tolerance)."""
    return int(np.linalg.matrix_rank(require_array("matrix", a, (2,))))


@dataclass(frozen=True)
class EigenDecomposition:
    """Right eigenpairs of a square matrix.

    ``eigenvalues[i]`` pairs with column ``i`` of ``right_eigenvectors``;
    ``condition`` is the 2-norm condition number of ``right_eigenvectors``
    (inf when it is singular).
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    condition: float


def eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a real square matrix.

    Complex eigenvalues of real input appear in conjugate pairs (LAPACK
    guarantee).  A conditioning warning is attached when the eigenvector
    matrix has condition number above ``CONDITION_WARN_THRESHOLD``.
    """
    a = _check_square(a)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # QR iteration failed to converge
        raise InvalidInputError(f"eigendecomposition did not converge: {exc}") from exc
    try:
        cond = float(np.linalg.cond(v, 2))
    except np.linalg.LinAlgError:
        cond = float("inf")
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; eigenvectors may be inaccurate",
            IllConditionedWarning,
            stacklevel=2,
        )
    return EigenDecomposition(eigenvalues=w, right_eigenvectors=v, condition=cond)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade approximation)."""
    a = _check_square(a)
    import scipy.linalg

    return scipy.linalg.expm(a)


def branch_cut_mask(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues ``w`` lie on the closed negative real axis, where the
    principal logarithm is undefined.

    An eigenvalue counts as on it when its modulus, or its imaginary part
    with a nonpositive real part, is no larger than ``BRANCH_CUT_TOL *
    max(max |w|, 1)``.
    """
    w = np.asarray(w)
    tol = BRANCH_CUT_TOL * max(float(np.max(np.abs(w))), 1.0)
    return (np.abs(w) <= tol) | ((w.real <= 0.0) & (np.abs(w.imag) <= tol))


def logm(a: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm of a real square matrix.

    Requires that no eigenvalue of ``a`` lies on the closed negative real
    axis (including zero) by the rule of :func:`branch_cut_mask`; otherwise
    a :class:`BranchCutError` is raised, which for sampled-flow matrices
    signals a sampling time too large or degenerate data, and says so.  The
    result is real for real input off the branch cut.  Where the eigenvector
    matrix is ill-conditioned (the ``IllConditionedWarning`` of
    :func:`eig`), the result comes from
    ``scipy.linalg.logm`` (inverse scaling and squaring on the Schur form)
    instead, which does not invert the eigenvectors.  On either route a
    residual imaginary part is discarded after a consistency check, which
    warns when it exceeds 1e-6 of the real part.
    """
    a = _check_square(a)
    if np.iscomplexobj(a):
        raise InvalidInputError("logm expects a real matrix")
    dec = eig(a)
    w = dec.eigenvalues
    on_cut = branch_cut_mask(w)
    if np.any(on_cut):
        bad = w[on_cut]
        raise BranchCutError(
            "principal logarithm undefined: eigenvalue(s) on the closed negative "
            f"real axis or numerically zero: {bad}; for a sampled-flow matrix: "
            "sampling time too large or data degenerate"
        )
    if dec.condition > CONDITION_WARN_THRESHOLD:
        import scipy.linalg

        b = scipy.linalg.logm(a)
    else:
        v = dec.right_eigenvectors
        b = v @ (np.log(w)[:, None] * np.linalg.inv(v))
    imag_norm = np.linalg.norm(np.imag(b))
    real_norm = max(np.linalg.norm(np.real(b)), 1.0)
    if imag_norm > 1e-6 * real_norm:
        warnings.warn(
            f"discarding imaginary part of size {imag_norm:.3e} in matrix logarithm",
            IllConditionedWarning,
            stacklevel=2,
        )
    return np.ascontiguousarray(np.real(b))
