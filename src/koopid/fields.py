"""Uniform 1-D grids, checks on node values, trapezoidal quadrature and
finite-difference derivatives.

A state is an array of node values whose last axis samples a grid; leading
axes index a batch of states.  Derivatives are second-order accurate central
differences, written down once as coefficients in ``_STENCILS`` and built
into one cached ``scipy.sparse`` CSR matrix per grid size, spacing, order and
boundary rule (:func:`diff_matrix`); :func:`diff_values`, the right-hand-side
plan of :mod:`koopid.operators` and the exact linear flow of
:mod:`koopid.simulate` all multiply by it.  ``scipy.sparse`` is loaded on
first use, when the first such matrix is built, so work without derivatives
never imports it.  For homogeneous-Dirichlet values the stencils reach across
the boundary through odd-reflection ghost nodes (``u(x_min - d) =
-u(x_min + d)``), which keeps the boundary-adjacent truncation error at
O(h^2); other values use one-sided second-order stencils at the ends.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidInputError, PreconditionError, require_int


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with nodes at both boundaries."""

    x_min: float
    x_max: float
    num_points: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise InvalidInputError("grid endpoints must be finite")
        if self.x_max <= self.x_min:
            raise InvalidInputError(f"x_max ({self.x_max}) must exceed x_min ({self.x_min})")
        require_int("num_points", self.num_points, 8)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.num_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.num_points)


def grid_values(grid: Grid1D, values, dirichlet: bool, ndims: Tuple[int, ...]) -> np.ndarray:
    """``values`` as a read-only float copy with as many axes as one of
    ``ndims``, the last one sampling ``grid``.

    The values must be finite and, when ``dirichlet`` is set, exactly zero at
    both boundaries; anything else raises InvalidInputError.
    """
    try:
        v = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError("values must be a rectangular array of numbers") from None
    if v.ndim not in ndims or v.shape[-1] != grid.num_points:
        raise InvalidInputError(
            f"values must have {' or '.join(map(str, ndims))} axes, the last of length "
            f"{grid.num_points}, got shape {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("values must be finite")
    if dirichlet and (np.any(v[..., 0] != 0.0) or np.any(v[..., -1] != 0.0)):
        raise InvalidInputError("dirichlet-tagged values must vanish at both boundaries")
    v.setflags(write=False)
    return v


def trapezoid_weights(grid: Grid1D) -> np.ndarray:
    """Composite-trapezoid quadrature weights on the grid nodes."""
    h = grid.spacing
    q = np.full(grid.num_points, h)
    q[0] = q[-1] = 0.5 * h
    return q


#: second-order stencils by derivative order k: the centred numerators at
#: offsets -r..r, and the one-sided rows of the first r nodes of a
#: non-Dirichlet grid (row i reads nodes 0, 1, ...), all over the order's
#: denominator 2h, h^2 or 2h^3
_STENCILS = {
    1: ((-1.0, 0.0, 1.0), ((-3.0, 4.0, -1.0),)),
    2: ((1.0, -2.0, 1.0), ((2.0, -5.0, 4.0, -1.0),)),
    3: ((-1.0, 2.0, 0.0, -2.0, 1.0), ((-5.0, 18.0, -24.0, 14.0, -3.0), (-3.0, 10.0, -12.0, 6.0, -1.0))),
}


@functools.lru_cache(maxsize=32)
def diff_matrix(n: int, h: float, order: int, dirichlet: bool) -> scipy.sparse.csr_array:
    """The ``(n, n)`` CSR matrix ``D_k`` of the order-k derivative on n nodes of
    spacing h, built from ``_STENCILS``.

    Centred rows at interior nodes.  Under ``dirichlet`` every row is centred
    and a ghost node beyond a boundary folds onto its mirror node with a minus
    sign (odd reflection); otherwise the first r rows are one-sided and the
    last r mirror them with sign ``(-1)^k``.  The matrices are cached and
    shared, so their arrays are read-only.
    """
    if order not in _STENCILS:
        raise InvalidInputError(f"derivative order must be in {{1, 2, 3}}, got {order}")
    if n < 2 * order + 2:
        raise PreconditionError(f"need at least {2 * order + 2} nodes for order {order}, got {n}")
    import scipy.sparse

    centred, one_sided = _STENCILS[order]
    r = len(one_sided)
    first, last = (0, n) if dirichlet else (r, n - r)
    rows = np.repeat(np.arange(first, last), 2 * r + 1)
    cols = rows + np.tile(np.arange(-r, r + 1), last - first)
    nums = np.tile(centred, last - first)
    if dirichlet:
        # odd reflection: the ghost u(x_min - d) is -u(x_min + d), likewise at x_max
        ghost = (cols < 0) | (cols >= n)
        nums[ghost] *= -1.0
        cols = np.where(cols < 0, -cols, np.where(cols >= n, 2 * (n - 1) - cols, cols))
    else:
        for i, row in enumerate(one_sided):
            span = np.arange(len(row))
            rows = np.concatenate([rows, np.full(len(row), i), np.full(len(row), n - 1 - i)])
            cols = np.concatenate([cols, span, n - 1 - span])
            nums = np.concatenate([nums, row, (-1.0) ** order * np.array(row)])
    # numerators of duplicate entries (folded ghosts) sum exactly before the division
    d = scipy.sparse.csr_array((nums, (rows, cols)), shape=(n, n))
    d.data /= (2.0 * h, h * h, 2.0 * h**3)[order - 1]
    d.eliminate_zeros()
    for a in (d.data, d.indices, d.indptr):
        a.setflags(write=False)
    return d


def diff_values(values: np.ndarray, h: float, order: int, dirichlet: bool) -> np.ndarray:
    """Finite-difference derivative along the last axis of ``values``: the
    product with :func:`diff_matrix`."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    return (diff_matrix(n, h, order, dirichlet) @ v.reshape(-1, n).T).T.reshape(v.shape)
