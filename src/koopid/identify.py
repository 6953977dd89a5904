"""Coefficient identification of dictionary dynamics from snapshot pairs.

Two routes are provided over the same lifted functional basis
``xi_i(u) = <W_i(u), w>``:

* the lifting method: fit the sampled-flow matrix by least squares, take the
  principal matrix logarithm scaled by the sampling time, and read the
  estimates from the first column;
* a direct baseline: forward-difference the linear functional ``<u, w>`` in
  time and regress it on the lifted functional values (no smoothing).

A sampling-time sweep rerunning the lifting pipeline on freshly generated
data reports how the coefficient error shrinks as the sampling time
decreases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    BranchCutError,
    IllConditionedWarning,
    InsufficientDataError,
    PreconditionError,
    RankDeficiencyError,
)
from .fields import Field
from .koopman import build_data_matrices, edmd_fit
from .linalg import logm, matrix_rank
from .observables import WeightSpec, build_lifting_basis, lifting_order
from .operators import Dictionary, apply_rhs
from .simulate import ICFamily, Model, SnapshotDataset, _pair_datasets
# benchmarks/tracing.py times the simulate layer at this module's name
from .simulate import generate_pairs  # noqa: F401


@dataclass(frozen=True, eq=False)
class IdentificationResult:
    """Coefficient estimates for a candidate dictionary.

    ``estimates[i]`` corresponds to ``dictionary.terms[i]`` (input order).
    ``l_tilde`` is the scaled-logarithm generator estimate in lifted-basis
    order (identity-first) and is None for the direct method.
    """

    dictionary: Dictionary
    estimates: np.ndarray
    t_s: float
    l_tilde: Optional[np.ndarray]
    rank_used: int
    residual: float
    logm_warning: bool = False


def _lifted_fit_inputs(dataset: SnapshotDataset, dictionary: Dictionary, weight: WeightSpec):
    basis = build_lifting_basis(dictionary, weight)
    order = lifting_order(dictionary)
    xi1, xi2 = build_data_matrices(dataset, basis)
    m, n = xi1.shape
    if m < n:
        raise InsufficientDataError(f"insufficient data: m < n ({m} < {n})")
    rank = matrix_rank(xi1)
    if rank < n:
        # name the dependent columns via column-pivoted QR
        _, _, piv = scipy.linalg.qr(xi1, mode="economic", pivoting=True)
        dependent = sorted(int(p) for p in piv[rank:])
        raise RankDeficiencyError(
            f"lifted data matrix has rank {rank} < {n}; dependent columns "
            f"(lifted-basis order): {dependent}",
            columns=dependent,
        )
    return xi1, xi2, order


def _unpermute(column: np.ndarray, order: Sequence[int]) -> np.ndarray:
    out = np.empty_like(column)
    for basis_pos, dict_pos in enumerate(order):
        out[dict_pos] = column[basis_pos]
    return out


def lifting_identify(
    dataset: SnapshotDataset, dictionary: Dictionary, weight: WeightSpec
) -> IdentificationResult:
    """Estimate dictionary coefficients via the matrix-logarithm lifting.

    The dictionary must contain the identity term W(u) = u.  Raises a
    BranchCutError (annotated with a remediation hint) when the fitted matrix
    has an eigenvalue on the closed negative real axis, which signals a
    sampling time too large or degenerate data.
    """
    xi1, xi2, order = _lifted_fit_inputs(dataset, dictionary, weight)
    fit = edmd_fit(xi1, xi2, dataset.sampling_time)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IllConditionedWarning)
        try:
            l_tilde = logm(fit.U) / dataset.sampling_time
        except BranchCutError as exc:
            raise BranchCutError(
                f"sampling time too large or data degenerate: {exc}"
            ) from exc
    ill = any(issubclass(w.category, IllConditionedWarning) for w in caught)
    estimates = _unpermute(l_tilde[:, 0], order)
    return IdentificationResult(
        dictionary=dictionary,
        estimates=estimates,
        t_s=dataset.sampling_time,
        l_tilde=l_tilde,
        rank_used=fit.rank_used,
        residual=fit.residual,
        logm_warning=ill,
    )


def direct_identify(
    dataset: SnapshotDataset, dictionary: Dictionary, weight: WeightSpec
) -> IdentificationResult:
    """Forward-difference baseline: regress the time increment of ``<u, w>``
    on the lifted functional values, by least squares."""
    xi1, xi2, order = _lifted_fit_inputs(dataset, dictionary, weight)
    rate = (xi2[:, 0] - xi1[:, 0]) / dataset.sampling_time
    coeffs, _, _, _ = np.linalg.lstsq(xi1, rate, rcond=None)
    residual = float(np.linalg.norm(xi1 @ coeffs - rate))
    return IdentificationResult(
        dictionary=dictionary,
        estimates=_unpermute(coeffs, order),
        t_s=dataset.sampling_time,
        l_tilde=None,
        rank_used=matrix_rank(xi1),
        residual=residual,
    )


def true_coefficients(model: Model, dictionary: Dictionary) -> np.ndarray:
    """Model coefficients mapped onto a candidate dictionary (0 for terms the
    model does not contain)."""
    lookup = dict(zip(model.dictionary.terms, model.dictionary.coefficients))
    return np.array([lookup.get(term, 0.0) for term in dictionary.terms])


@dataclass(frozen=True)
class ConvergenceEntry:
    t_s: float
    errors: np.ndarray  # per-term absolute error, dictionary order
    max_error: float


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    entries: Tuple[ConvergenceEntry, ...]
    monotone: bool  # error at the smallest sampling time < error at the largest


def ts_convergence_study(
    model: Model,
    dictionary: Dictionary,
    weight: WeightSpec,
    ts_list: Sequence[float],
    family: ICFamily,
    num_trajectories: int,
    total_pairs: int,
    seed: int,
    burn_in: float = 0.0,
) -> ConvergenceReport:
    """Rerun the lifting identification on freshly generated data for each
    sampling time and compare against the model's true coefficients.

    ``ts_list`` must hold at least three strictly decreasing values.  The
    trajectories share one seed and one burn-in, run once; each sampling
    time's dataset equals ``generate_pairs`` with the same arguments.
    """
    ts_list = [float(t) for t in ts_list]
    if len(ts_list) < 3:
        raise PreconditionError(f"need at least 3 sampling times, got {len(ts_list)}")
    if any(b >= a for a, b in zip(ts_list, ts_list[1:])):
        raise PreconditionError("sampling times must be strictly decreasing")
    truth = true_coefficients(model, dictionary)
    entries: List[ConvergenceEntry] = []
    for dataset in _pair_datasets(
        model, family, num_trajectories, total_pairs, ts_list, seed, burn_in
    ):
        result = lifting_identify(dataset, dictionary, weight)
        errors = np.abs(result.estimates - truth)
        entries.append(ConvergenceEntry(
            t_s=dataset.sampling_time, errors=errors, max_error=float(errors.max())
        ))
    monotone = entries[-1].max_error < entries[0].max_error
    return ConvergenceReport(entries=tuple(entries), monotone=monotone)


def reconstruct_operator(result: IdentificationResult, u: Field) -> Field:
    """Evaluate the estimated right-hand side on a field."""
    dic = Dictionary(result.dictionary.terms, tuple(result.estimates))
    return apply_rhs(dic, u, dirichlet=u.dirichlet)


def weak_residual(
    result: IdentificationResult,
    reference: Model,
    states: Sequence[Field],
    weight: WeightSpec,
) -> float:
    """Sum of squared weighted mismatches between the reconstructed and the
    reference right-hand side over the given states."""
    from .fields import inner_product
    from .observables import weight_values

    total = 0.0
    for u in states:
        est = reconstruct_operator(result, u)
        ref = apply_rhs(reference.dictionary, u, dirichlet=reference.dirichlet)
        w = Field(u.grid, weight_values(weight, u.grid))
        total += inner_product(Field(u.grid, est.values - ref.values), w) ** 2
    return total
