"""Exception and warning types shared across the package, and the checks
every constructor shares: integer, real-number and flag arguments, numeric
arrays (node values and fit matrices) and input kinds.  The file readers
leave every number, flag and array to these rules."""

import math
from numbers import Integral, Real
from typing import get_args

import numpy as np


class KoopidError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(KoopidError):
    """An argument or input file is unusable: a bad value (non-finite
    entries, bad order, ...), inconsistent array shapes, a domain a term
    cannot live on (graphon terms need [0, 1]) or a numerical routine that
    did not converge on it."""


def require_int(name: str, value, low: int, high=None) -> int:
    """``value`` as a Python int, or InvalidInputError unless it is an integer
    in ``low..high`` (no upper bound when ``high`` is None).  A ``bool`` is
    not an integer here, as a JSON boolean is not one in an input file."""
    if isinstance(value, bool) or not (
        isinstance(value, Integral) and low <= value and (high is None or value <= high)
    ):
        bound = (f"in {low}..{high}" if high is not None
                 else "a non-negative integer" if low == 0 else f"an integer >= {low}")
        raise InvalidInputError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def require_real(name: str, value) -> float:
    """``value`` as a Python float, or InvalidInputError unless it is a real
    number (a Python or numpy int or float, not a ``bool``) that a float
    holds finitely: no NaN, no infinity and no int beyond the float range.
    The caller checks its range."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return x


def require_bool(name: str, value) -> bool:
    """``value`` as a Python bool, or InvalidInputError unless it is a Python
    or numpy ``bool``: no number, string or ``None`` stands for a flag."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidInputError(f"{name} must be a boolean, got {value!r}")
    return bool(value)


def require_array(name: str, value, ndims, dtype=None) -> np.ndarray:
    """``value`` as an array (of ``dtype`` when given), or InvalidInputError
    naming ``name`` unless it is a rectangular array whose numpy dtype is an
    integer, float or complex one (real when ``dtype`` is), with as many axes
    as one of ``ndims``, no empty axis and only finite entries.  An ndarray
    that needs no conversion comes back as itself, not a copy.

    Text, ``bool`` and object dtypes are refused, and so is a ``bool``
    among the numbers of a nested list or tuple: numpy reads ``[True,
    0.5]`` as ``[1.0, 0.5]``, so the entries it reads as 0 or 1 are looked
    up in ``value`` by index and their Python type checked.  Only those
    are, since no other entry can have been a bool; an ndarray needs no
    scan.
    """
    try:
        a = np.asarray(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{name} must be a rectangular array of numbers") from None
    if a.dtype.kind not in "iufc":
        raise InvalidInputError(f"{name} must hold numbers, got dtype {a.dtype}")
    if isinstance(value, (list, tuple)):
        # flat indices, unravelled: np.argwhere (np.nonzero) of a 2-D mask costs
        # several times more, as much as the rest of the scan on node values
        hits = np.unravel_index(np.flatnonzero((a == 0) | (a == 1)), a.shape)
        for index in np.transpose(hits).tolist():
            entry = value
            for i in index:
                entry = entry[i]
            if isinstance(entry, (bool, np.bool_)):
                raise InvalidInputError(f"{name} must hold numbers, got {entry} at index {index}")
    if a.dtype.kind == "c" and dtype is not None and np.dtype(dtype).kind != "c":
        # numpy would drop the imaginary part with only a ComplexWarning
        raise InvalidInputError(f"{name} must be real, got dtype {a.dtype}")
    a = np.asarray(a, dtype=dtype)
    if a.ndim not in ndims or 0 in a.shape:
        dims = " or ".join(f"{d}-D" for d in ndims)
        raise InvalidInputError(f"{name} must be {dims} with at least one row and column, "
                                f"got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def require_kind(what: str, value, kinds) -> None:
    """Raise InvalidInputError unless ``value`` is an instance of one member of
    the ``Union`` alias ``kinds``."""
    if not isinstance(value, get_args(kinds)):
        raise InvalidInputError(f"unknown {what}: {value!r}")


class BranchCutError(KoopidError):
    """The principal matrix logarithm is undefined: an eigenvalue lies on the
    closed negative real axis (or is numerically zero)."""


class BlowUpError(KoopidError):
    """Time integration produced a non-finite state.

    Attributes carry the failure time and, when applicable, the trajectory
    index within a dataset-generation run.
    """

    def __init__(self, message, time=None, trajectory=None):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


class InsufficientDataError(KoopidError):
    """Fewer snapshot pairs than basis functionals (m < n)."""


class PreconditionError(KoopidError):
    """A documented precondition of an operation is not met."""


class RankDeficiencyError(PreconditionError):
    """The lifted data matrix has linearly dependent columns.

    ``columns`` lists the indices of the dependent columns (0-based, in
    dictionary order: column i is the lift of ``dictionary.terms[i]``).
    """

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class IllConditionedWarning(UserWarning):
    """Eigenvector matrix is badly conditioned; results may lose accuracy."""


class RankDeficiencyWarning(UserWarning):
    """Least-squares fit retained fewer singular values than columns."""
