"""Coefficient identification of dictionary dynamics from snapshot pairs.

Both routes read one least-squares fit ``U`` of the sampled-flow matrix over
the same lifted functional basis ``xi_i(u) = <W_i(u), w>``, and take the
estimates from the column of the linear functional ``<u, w>`` of a generator
estimate ``l_tilde``:

* the lifting method: the principal matrix logarithm scaled by the sampling
  time, ``logm(U) / t_s``;
* a direct baseline: its first-order form ``(U - I) / t_s``, which is the
  least-squares regression of the forward difference of ``<u, w>`` on the
  lifted functional values (no smoothing).

Either result holds that fit, the ``KoopmanFit`` of :func:`koopman.edmd_fit`,
so its data matrices, ``U``, rank and residual can be read from the result.

A sampling-time sweep rerunning the lifting pipeline on freshly generated
data reports how the coefficient error shrinks as the sampling time
decreases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, RankDeficiencyError
from .koopman import KoopmanFit, build_data_matrices, edmd_fit
from .linalg import logm, matrix_rank
from .observables import WeightSpec, build_lifting_basis, identity_index
from .operators import Dictionary
from .simulate import ICFamily, Model, SnapshotDataset, _check_time, _pair_datasets
# benchmarks/tracing.py times the simulate layer at this module's name
from .simulate import generate_pairs  # noqa: F401


@dataclass(frozen=True, eq=False)
class IdentificationResult:
    """Coefficient estimates for a candidate dictionary.

    ``estimates[i]`` corresponds to ``dictionary.terms[i]``.  ``l_tilde`` is
    the generator estimate of either method, rows and columns in dictionary
    order.  ``fit`` is the :class:`~koopid.koopman.KoopmanFit` that
    ``edmd_fit`` returned: the data matrices, ``U``, the sampling time, the
    retained rank and the residual ``||Xi1 U - Xi2|| / ||Xi2||``.
    """

    dictionary: Dictionary
    estimates: np.ndarray
    l_tilde: np.ndarray
    fit: KoopmanFit


def _identify(
    dataset: SnapshotDataset,
    dictionary: Dictionary,
    weight: WeightSpec,
    generator: Callable[[np.ndarray], np.ndarray],
) -> IdentificationResult:
    """Assemble the lifted data matrices, check them, fit ``U`` and read the
    estimates from the identity column of ``l_tilde = generator(U) / t_s``.

    Fewer pairs than terms raise InsufficientDataError; then a lifted data
    matrix of rank below the term count raises RankDeficiencyError, naming
    the dependent columns found by column-pivoted QR.
    """
    xi1, xi2 = build_data_matrices(dataset, build_lifting_basis(dictionary, weight))
    m, n = xi1.shape
    if m < n:
        raise InsufficientDataError(f"insufficient data: m < n ({m} < {n})")
    rank = matrix_rank(xi1)
    if rank < n:
        import scipy.linalg

        _, _, piv = scipy.linalg.qr(xi1, mode="economic", pivoting=True)
        dependent = sorted(int(p) for p in piv[rank:])
        raise RankDeficiencyError(
            f"lifted data matrix has rank {rank} < {n}; dependent columns "
            f"(dictionary order): {dependent}",
            columns=dependent,
        )
    fit = edmd_fit(xi1, xi2, dataset.sampling_time)
    l_tilde = generator(fit.U) / dataset.sampling_time
    return IdentificationResult(dictionary, l_tilde[:, identity_index(dictionary)], l_tilde, fit)


def lifting_identify(
    dataset: SnapshotDataset, dictionary: Dictionary, weight: WeightSpec
) -> IdentificationResult:
    """Estimate dictionary coefficients via the matrix-logarithm lifting,
    ``l_tilde = logm(U) / t_s``.

    The dictionary must contain the identity term W(u) = u.  ``logm``
    raises a BranchCutError when the fitted matrix has an eigenvalue on the
    closed negative real axis, which signals a sampling time too large or
    degenerate data.  The IllConditionedWarning that ``logm`` issues for an
    ill-conditioned eigenbasis or a discarded imaginary part reaches the
    caller.
    """
    return _identify(dataset, dictionary, weight, logm)


def direct_identify(
    dataset: SnapshotDataset, dictionary: Dictionary, weight: WeightSpec
) -> IdentificationResult:
    """Forward-difference baseline, ``l_tilde = (U - I) / t_s``: the first-order
    form of the lifting's ``logm(U) / t_s`` on the same fit.

    Its identity column is the least-squares regression of the time increment
    of ``<u, w>`` on the lifted functional values, since the lifted data
    matrix has full column rank.
    """
    return _identify(dataset, dictionary, weight, lambda u: u - np.eye(len(u)))


def true_coefficients(model: Model, dictionary: Dictionary) -> np.ndarray:
    """Model coefficients mapped onto a candidate dictionary (0 for terms the
    model does not contain)."""
    lookup = dict(zip(model.dictionary.terms, model.dictionary.coefficients))
    return np.array([lookup.get(term, 0.0) for term in dictionary.terms])


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-term absolute errors of a sampling-time sweep: row i of ``errors``
    (k x n, dictionary order) belongs to sampling time ``t_s[i]``.
    ``monotone`` says whether the largest error at the smallest sampling time
    is below the largest error at the largest one."""

    t_s: np.ndarray
    errors: np.ndarray
    monotone: bool


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

    ``ts_list`` must hold at least three strictly decreasing sampling times,
    each a finite real number above MIN_SUBSTEP; anything else raises
    InvalidInputError.  The trajectories share one seed and one
    burn-in, run once; each sampling time's dataset equals ``generate_pairs``
    with the same arguments.
    """
    ts_list = [_check_time("sampling time", t) for t in ts_list]
    if len(ts_list) < 3:
        raise InvalidInputError(f"need at least 3 sampling times, got {len(ts_list)}")
    if any(b >= a for a, b in zip(ts_list, ts_list[1:])):
        raise InvalidInputError("sampling times must be strictly decreasing")
    truth = true_coefficients(model, dictionary)
    errors = np.array([
        np.abs(lifting_identify(dataset, dictionary, weight).estimates - truth)
        for dataset in _pair_datasets(
            model, family, num_trajectories, total_pairs, ts_list, seed, burn_in
        )
    ])
    peak = errors.max(axis=1)
    return ConvergenceReport(
        t_s=np.array(ts_list), errors=errors, monotone=bool(peak[-1] < peak[0])
    )
