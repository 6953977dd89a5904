"""Generalized EDMD over functional bases: data matrices, operator fit and
spectrum extraction.

The fitted matrix acts on basis coefficients from the right: row k of the
data matrices collects the functional values on snapshot k, and the fit is
the minimum-norm least-squares solution of ``Xi1 @ U ~ Xi2``.  Eigenvalues
of the fitted matrix approximate the sampled-flow operator spectrum; dividing
the principal complex log by the sampling time gives generator-scale
eigenvalues.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (InsufficientDataError, InvalidInputError, KoopidError, RankDeficiencyWarning,
                     require_array)
from .linalg import branch_cut_mask, eig, matrix_rank, pinv
from .observables import FunctionalSpec, functional_values
from .simulate import SnapshotDataset, _check_time


def build_data_matrices(
    dataset: SnapshotDataset, basis: Sequence[FunctionalSpec]
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate every basis functional on every snapshot pair.

    Returns (Xi1, Xi2), both m x n: rows follow the dataset order, columns the
    basis order; Xi1 holds values on the initial snapshots, Xi2 on the
    advanced ones.  Each functional is evaluated once, on the batch of all 2m
    snapshots (the initial ones, then the advanced ones), and its column is
    split into the two matrices.  Finite data on which a functional overflows
    raises InvalidInputError naming the first such functional.
    """
    if len(basis) == 0:
        raise InvalidInputError("basis must be nonempty")
    m = len(dataset)
    snapshots = np.concatenate((dataset.u, dataset.u_next))
    xi = np.empty((2 * m, len(basis)))
    grid, dirichlet = dataset.grid, dataset.dirichlet
    # an overflowing functional is reported below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for i, spec in enumerate(basis):
            try:
                xi[:, i] = functional_values(spec, snapshots, grid, dirichlet)
            except KoopidError as exc:
                raise type(exc)(f"functional {i} failed: {exc}") from exc
    finite = np.isfinite(xi).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvalidInputError(f"functional {i} is not finite on the data (overflow)")
    return xi[:m], xi[m:]


@dataclass(frozen=True, eq=False)
class KoopmanFit:
    """Least-squares fit of the sampled-flow operator on a functional basis:
    the one record of a fit, which :class:`SpectrumResult` and
    :class:`~koopid.identify.IdentificationResult` both hold.

    ``xi1`` and ``xi2`` (m x n) are the data matrices, ``U`` (n x n) the
    minimum-norm solution of ``Xi1 @ U ~ Xi2``, ``t_s`` the sampling time,
    ``rank_used`` the retained rank of ``Xi1`` and ``residual`` the relative
    misfit ``||Xi1 U - Xi2|| / ||Xi2||`` (0 when ``Xi2`` is zero).
    """

    xi1: np.ndarray
    xi2: np.ndarray
    U: np.ndarray
    t_s: float
    rank_used: int
    residual: float


def edmd_fit(xi1: np.ndarray, xi2: np.ndarray, t_s: float) -> KoopmanFit:
    """Fit ``U = pinv(Xi1) @ Xi2``, the minimum-norm least-squares solution,
    and report retained rank and residual.

    ``Xi1`` and ``Xi2`` must be finite, real 2-D matrices of one shape by the
    rule of ``errors.require_array``, and ``t_s`` a sampling time by the rule
    of ``simulate._check_time``; anything else raises InvalidInputError.
    Requires at least as many snapshot pairs as basis functionals; a
    retained rank below the column count raises a RankDeficiencyWarning.
    """
    t_s = _check_time("sampling time", t_s)
    xi1 = require_array("Xi1", xi1, (2,), float)
    xi2 = require_array("Xi2", xi2, (2,), float)
    if xi1.shape != xi2.shape:
        raise InvalidInputError(f"Xi2 must have the shape of Xi1, {xi1.shape}, got {xi2.shape}")
    m, n = xi1.shape
    if m < n:
        raise InsufficientDataError(f"insufficient data: m < n ({m} < {n})")
    rank = matrix_rank(xi1)
    if rank < n:
        warnings.warn(
            f"data matrix rank {rank} < {n} columns; fit uses the truncated pseudoinverse",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    u_mat = pinv(xi1) @ xi2
    denom = np.linalg.norm(xi2)
    residual = float(np.linalg.norm(xi1 @ u_mat - xi2) / denom) if denom > 0 else 0.0
    return KoopmanFit(
        xi1=xi1,
        xi2=xi2,
        U=u_mat,
        t_s=t_s,
        rank_used=rank,
        residual=residual,
    )


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Eigenpairs of a fitted operator, all arrays in rank order.

    ``lambda_u`` (k,) holds the eigenvalues of ``U``.  ``lambda_l`` (k,) holds
    the generator-scale eigenvalues ``log(lambda_u)/t_s`` via the principal
    branch, NaN where ``lambda_u`` lies on the closed negative real axis by
    the rule of :func:`linalg.branch_cut_mask`, which ``logm`` shares.
    Column i of ``coefficients`` (n x k) is the eigenvector of mode i.
    ``residual_scores`` (k,) holds the data-consistency residuals
    ``||Xi2 v - lambda_u Xi1 v|| / ||lambda_u Xi1 v||``, used to rank
    plausibility (never as a hard filter); the denominator scale keeps
    strongly decaying modes from ranking well merely because their one-step
    prediction is close to zero.  ``fit`` is the :class:`KoopmanFit` the
    eigenpairs were read from.
    """

    lambda_u: np.ndarray
    lambda_l: np.ndarray
    coefficients: np.ndarray
    residual_scores: np.ndarray
    fit: KoopmanFit


#: modes with |lambda_u| below this fraction of the largest |lambda_u| rank
#: last: in generator units Re lambda_l < ln(TAIL_FRACTION) / t_s + max Re
#: lambda_l, which is 17.5 below the top at t_s = 0.2.  Their residual scores
#: divide by |lambda_u| and sit at the level of rounding on an ill-conditioned
#: lift, so a 1-ulp change in the data would reorder them
TAIL_FRACTION = 3e-2


def spectrum(fit: KoopmanFit) -> SpectrumResult:
    """Eigenvalues and eigenfunctional coefficients of a fitted operator.

    Modes with |lambda_u| >= TAIL_FRACTION * max |lambda_u| come first, by
    residual score ascending, then by |Re lambda_l| ascending (undefined
    generator eigenvalues sort last within a score tie).  The rest follow by
    |lambda_u| descending.  Exact ties in either group put Im lambda_u > 0
    before its conjugate.
    """
    dec = eig(fit.U)
    lam, v = dec.eigenvalues, dec.right_eigenvectors
    mag = np.abs(lam)
    x1v = fit.xi1 @ v
    denom = mag * np.linalg.norm(x1v, axis=0)
    misfit = np.linalg.norm(fit.xi2 @ v - lam * x1v, axis=0)
    scores = np.full(len(lam), np.inf)
    np.divide(misfit, denom, out=scores, where=denom > 0)
    lam_l = np.array([
        np.nan if cut else cmath.log(z) / fit.t_s
        for z, cut in zip(lam, branch_cut_mask(lam))
    ], dtype=complex)
    tail = mag < TAIL_FRACTION * mag.max()
    conjugate_last = -np.sign(lam.imag)
    generator = np.where(np.isnan(lam_l), np.inf, np.abs(lam_l.real))
    # lexsort's last key is its first; a stable sort keeps eig's order on ties
    order = np.lexsort((
        np.where(tail, 0.0, conjugate_last),
        np.where(tail, conjugate_last, generator),
        np.where(tail, -mag, scores),
        tail,
    ))
    return SpectrumResult(
        lambda_u=lam.astype(complex)[order],
        lambda_l=lam_l[order],
        coefficients=v[:, order],
        residual_scores=scores[order],
        fit=fit,
    )
