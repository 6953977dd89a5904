"""Uniform 1-D grids, checks on node values, trapezoidal quadrature and
finite-difference derivatives.

:func:`grid_values` takes node values through ``errors.require_array``, the
one rule for numeric arrays that the fit matrices of :mod:`koopid.linalg`
share, and adds the grid's last axis and the Dirichlet boundary zeros.

A state is an array of node values whose last axis samples a grid; leading
axes index a batch of states.  Derivatives are second-order accurate central
differences, written down once as coefficients in ``_STENCILS`` and built
into a numpy :class:`BandedOperator`: the centred taps of the interior rows
and two small dense blocks for the rows at the ends.  :func:`diff_operator`
caches one per grid size, spacing, order and boundary rule, and
:func:`stencil_operator` builds a sum ``sum_k c_k D_k``;
:func:`diff_values`, the right-hand-side plan of :mod:`koopid.operators` and
the exact linear flow of :mod:`koopid.simulate` all apply them.
:meth:`BandedOperator.matrix` writes one out as a dense matrix: the flow's
generator, and the plan's operators on grids of at most
``operators.DENSE_STENCIL_NODES`` (128) nodes, where one BLAS product costs
less than the ten or so numpy calls of the taps.  They need
numpy alone: importing ``scipy.sparse`` costs a fresh process about 0.14 s
and 21 MB, more than most CLI calls spend on their work.  For
homogeneous-Dirichlet values the stencils reach across the boundary through
odd-reflection ghost nodes (``u(x_min - d) = -u(x_min + d)``), which keeps
the boundary-adjacent truncation error at O(h^2); other values use one-sided
second-order stencils at the ends.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidInputError, PreconditionError, require_array, require_int, require_real


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with nodes at both boundaries."""

    x_min: float
    x_max: float
    num_points: int

    def __post_init__(self):
        x_min = require_real("grid endpoint x_min", self.x_min)
        x_max = require_real("grid endpoint x_max", self.x_max)
        if x_max <= x_min:
            raise InvalidInputError(f"x_max ({x_max}) must exceed x_min ({x_min})")
        # Python numbers, which a dataset file can hold, in place of numpy scalars
        object.__setattr__(self, "x_min", x_min)
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "num_points", require_int("num_points", self.num_points, 8))

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.num_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.num_points)


def grid_values(grid: Grid1D, values, dirichlet: bool, ndims: Tuple[int, ...]) -> np.ndarray:
    """``values`` as a read-only float copy with as many axes as one of
    ``ndims``, the last one sampling ``grid``.

    The values must pass ``errors.require_array`` (finite, real numbers, no
    empty axis) and, when ``dirichlet`` is set, be exactly zero at both
    boundaries; anything else raises InvalidInputError.
    """
    v = require_array("values", values, ndims, float)
    if v.shape[-1] != grid.num_points:
        raise InvalidInputError(f"values must have a last axis of length {grid.num_points}, "
                                f"got shape {v.shape}")
    if dirichlet and (np.any(v[..., 0] != 0.0) or np.any(v[..., -1] != 0.0)):
        raise InvalidInputError("dirichlet-tagged values must vanish at both boundaries")
    # a list was converted to a new array; anything else may share the caller's memory
    v = v if isinstance(values, list) else v.copy(order="K")
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


class BandedOperator:
    """An ``(n, n)`` banded matrix ``A`` applied along the last axis of node
    values: ``A(values)[..., i] = sum_l A[i, l] values[..., l]``.

    Rows r..n-r-1 share the centred ``taps``, ``(offset, value)`` pairs in
    ascending offset with the zero ones left out.  The first r rows are the
    transpose of the ``(w, r)`` block ``head`` on columns 0..w-1, and the
    last r rows that of ``tail`` on columns n-w..n-1.  Operators may be
    cached and shared, so the blocks are read-only.
    """

    def __init__(self, n: int, taps: tuple, head: np.ndarray, tail: np.ndarray):
        self.n, self.taps, self.head, self.tail = n, taps, head, tail
        self._first, self._rest = taps[0], taps[1:]
        head.setflags(write=False)
        tail.setflags(write=False)

    def __call__(self, values) -> np.ndarray:
        """``A`` applied to each row of ``values`` (last axis of length n): a
        new C-contiguous array of the shape of ``values``.

        The taps are applied as shifted slices of the flattened batch, in
        ascending offset, the order in which a CSR product sums a row, so
        rows r..n-r-1 do not depend on the rest of the batch.  A slice reads
        into the next row where a row's first or last r entries are computed,
        and the blocks then overwrite those entries; BLAS may round them
        differently for different batch sizes.
        """
        v = np.ascontiguousarray(values, dtype=float)
        n, (w, r) = self.n, self.head.shape
        flat = v.reshape(-1)
        size = flat.size
        out = np.empty(v.shape)
        inner, scratch = out.reshape(-1)[r:size - r], np.empty(size - 2 * r)
        first, t = self._first
        np.multiply(flat[r + first:size - r + first], t, inner)
        for offset, t in self._rest:
            np.add(inner, np.multiply(flat[r + offset:size - r + offset], t, scratch), inner)
        np.matmul(v[..., :w], self.head, out[..., :r])
        np.matmul(v[..., n - w:], self.tail, out[..., n - r:])
        return out

    def matrix(self) -> np.ndarray:
        """``A`` as a dense ``(n, n)`` array, a new one on each call: ``A``
        applied to row i of the identity is column i of ``A``, and each entry
        is a tap or block value exactly."""
        return self(np.eye(self.n)).T


def _numerators(order: int, dirichlet: bool, r: int, w: int) -> np.ndarray:
    """The ``_STENCILS`` numerators of the first r rows of ``D_order`` on
    columns 0..w-1, with the numerators of one entry summed.

    Under ``dirichlet`` every row is centred and a ghost node beyond the
    boundary folds onto its mirror node with a minus sign (odd reflection:
    ``u(x_min - d) = -u(x_min + d)``); otherwise the order's first rows are
    one-sided.
    """
    centred, one_sided = _STENCILS[order]
    half = len(one_sided)
    block = np.zeros((r, w))
    for i in range(r):
        if i < half and not dirichlet:
            block[i, :len(one_sided[i])] = one_sided[i]
            continue
        for offset, c in zip(range(-half, half + 1), centred):
            block[i, abs(i + offset)] += c if i + offset >= 0 else -c
    return block


def stencil_operator(n: int, h: float, orders: dict, dirichlet: bool) -> BandedOperator:
    """``sum_k c_k D_k`` for ``orders`` = {k: c_k}, with ``D_k`` the order-k
    derivative on n nodes of spacing h from ``_STENCILS``.

    Centred rows at interior nodes.  Under ``dirichlet`` every row is centred
    and ghosts fold onto their mirror nodes (``_numerators``); otherwise the
    first r rows of order k are one-sided and its last r mirror them with
    sign ``(-1)^k``.  Each ``D_k`` entry is its summed numerators over the
    order's denominator; the entries of the ``c_k D_k`` are added in
    ``orders`` order, and a tap that sums to zero is left out.
    """
    for order in orders:
        if order not in _STENCILS:
            raise InvalidInputError(f"derivative order must be in {{1, 2, 3}}, got {order}")
        if n < 2 * order + 2:
            raise PreconditionError(f"need at least {2 * order + 2} nodes for order {order}, got {n}")
    # the r rows and w columns that every order's boundary rows fit in
    r = max(len(_STENCILS[k][1]) for k in orders)
    w = max([2 * r] + [len(row) for k in orders for row in _STENCILS[k][1] if not dirichlet])
    taps: dict = {}
    left = right = 0.0
    for order, c in orders.items():
        centred, one_sided = _STENCILS[order]
        den = (2.0 * h, h * h, 2.0 * h**3)[order - 1]
        for offset, num in zip(range(-len(one_sided), len(one_sided) + 1), centred):
            if num:
                taps[offset] = taps.get(offset, 0.0) + c * (num / den)
        block = _numerators(order, dirichlet, r, w) / den
        left = left + c * block
        right = right + c * ((-1.0) ** order * block[::-1, ::-1])
    taps = tuple((offset, t) for offset, t in sorted(taps.items()) if t != 0.0)
    return BandedOperator(n, taps, np.ascontiguousarray(left.T), np.ascontiguousarray(right.T))


@functools.lru_cache(maxsize=32)
def diff_operator(n: int, h: float, order: int, dirichlet: bool) -> BandedOperator:
    """The order-k derivative ``D_k`` on n nodes of spacing h, cached."""
    return stencil_operator(n, h, {order: 1.0}, dirichlet)


def diff_values(values: np.ndarray, h: float, order: int, dirichlet: bool) -> np.ndarray:
    """Finite-difference derivative along the last axis of ``values``: the
    :func:`diff_operator` applied to each row."""
    v = np.asarray(values, dtype=float)
    return diff_operator(v.shape[-1], h, order, dirichlet)(v)
