"""Dense linear-algebra kernels: pseudoinverse, numerical rank,
eigendecomposition, matrix exponential and principal matrix logarithm.

The pseudoinverse, rank and eigendecomposition delegate to LAPACK-backed
numpy routines behind the package's error contracts.  The matrix exponential
is Higham's scaling and squaring of the degree-13 Pade approximant (SIAM J.
Matrix Anal. Appl. 26(4), 2005), written in numpy.
The principal logarithm is computed by eigendecomposition,
``V log(diag(w)) V^{-1}``, which is adequate for the near-identity matrices
produced by short-sampling-time fits; an ill-conditioned eigenvector matrix
triggers a warning rather than a failure, and the logarithm then falls back
to ``scipy.linalg.logm``.

Every kernel checks its matrix by ``errors.require_array``, the rule for
numeric arrays that node values share, and names it ``matrix``.

Only that fallback needs scipy here, and it imports ``scipy.linalg`` when
called, so importing this module loads no scipy module; the one other scipy
user in the package is the pivoted QR with which ``identify`` names the
dependent columns of a rank-deficient lift.
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


#: Higham's degree-13 Pade coefficients b0..b13 and the 1-norm up to which
#: that approximant needs no scaling (SIAM J. Matrix Anal. Appl. 26(4), 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the degree-13 Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005), in numpy.

    ``a`` is scaled by ``2^-s``, the least power that brings its 1-norm to
    at most ``_THETA13``; the approximant ``r = (V - U)^-1 (V + U)`` is
    formed as ``I + 2 (V - U)^-1 U`` and squared ``s`` times.  Each sum is
    built in ascending powers of ``a``.  Integer input is taken as float64;
    complex input gives a complex result.  No scipy is loaded: only
    :func:`logm`'s Schur fallback and ``identify``'s pivoted QR need it.
    """
    a = _check_square(a)
    norm = float(np.linalg.norm(a, 1))
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > 0.0 else 0
    a = a * 2.0**-s  # a float copy of integer input
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[9] * a2 + b[11] * a4 + b[13] * a6)
             + (b[1] * ident + b[3] * a2 + b[5] * a4 + b[7] * a6))
    v = (a6 @ (b[8] * a2 + b[10] * a4 + b[12] * a6)
         + (b[0] * ident + b[2] * a2 + b[4] * a4 + b[6] * a6))
    x = 2.0 * np.linalg.solve(v - u, u)
    x[np.diag_indices_from(x)] += 1.0
    for _ in range(s):
        x = x @ x
    return x


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
