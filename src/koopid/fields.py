"""Uniform 1-D grids, checks on node values, trapezoidal quadrature and
finite-difference derivatives.

A state is an array of node values whose last axis samples a grid; leading
axes index a batch of states.  Derivatives are second-order accurate central
differences.  For homogeneous-Dirichlet values the stencils reach across the
boundary through odd-reflection ghost nodes (``u(x_min - d) = -u(x_min +
d)``), which keeps the boundary-adjacent truncation error at O(h^2); other
values use one-sided second-order stencils at the ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidInputError, PreconditionError, ShapeError


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
        if self.num_points < 8:
            raise InvalidInputError(f"num_points must be >= 8, got {self.num_points}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.num_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.num_points)


def grid_values(grid: Grid1D, values, dirichlet: bool, ndims: Tuple[int, ...]) -> np.ndarray:
    """``values`` as a read-only float copy with as many axes as one of
    ``ndims``, the last one sampling ``grid``.

    The values must be finite and, when ``dirichlet`` is set, exactly zero at
    both boundaries; anything else raises ShapeError or InvalidInputError.
    """
    try:
        v = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError("values must be a rectangular array of numbers") from None
    if v.ndim not in ndims or v.shape[-1] != grid.num_points:
        raise ShapeError(
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


def diff_values(values: np.ndarray, h: float, order: int, dirichlet: bool) -> np.ndarray:
    """Finite-difference derivative along the last axis of ``values``.

    Second-order central stencils at interior nodes; boundary closure by odd
    reflection (``dirichlet=True``) or one-sided second-order stencils.
    """
    if order not in (1, 2, 3):
        raise InvalidInputError(f"derivative order must be in {{1, 2, 3}}, got {order}")
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    if n < 2 * order + 2:
        raise PreconditionError(f"need at least {2 * order + 2} nodes for order {order}, got {n}")

    if dirichlet:
        p = np.concatenate([-v[..., 2:0:-1], v, -v[..., -2:-4:-1]], axis=-1)
        if order == 1:
            return (p[..., 3 : n + 3] - p[..., 1 : n + 1]) / (2.0 * h)
        if order == 2:
            return (p[..., 3 : n + 3] - 2.0 * v + p[..., 1 : n + 1]) / (h * h)
        return (
            p[..., 4 : n + 4]
            - 2.0 * p[..., 3 : n + 3]
            + 2.0 * p[..., 1 : n + 1]
            - p[..., 0:n]
        ) / (2.0 * h**3)

    out = np.empty_like(v)
    if order == 1:
        out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
        out[..., 0] = (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * h)
        out[..., -1] = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)
    elif order == 2:
        out[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / (h * h)
        out[..., 0] = (2.0 * v[..., 0] - 5.0 * v[..., 1] + 4.0 * v[..., 2] - v[..., 3]) / (h * h)
        out[..., -1] = (
            2.0 * v[..., -1] - 5.0 * v[..., -2] + 4.0 * v[..., -3] - v[..., -4]
        ) / (h * h)
    else:
        h3 = h**3
        out[..., 2:-2] = (
            v[..., 4:] - 2.0 * v[..., 3:-1] + 2.0 * v[..., 1:-3] - v[..., :-4]
        ) / (2.0 * h3)
        out[..., 0] = (
            -2.5 * v[..., 0] + 9.0 * v[..., 1] - 12.0 * v[..., 2] + 7.0 * v[..., 3] - 1.5 * v[..., 4]
        ) / h3
        out[..., 1] = (
            -1.5 * v[..., 0] + 5.0 * v[..., 1] - 6.0 * v[..., 2] + 3.0 * v[..., 3] - 0.5 * v[..., 4]
        ) / h3
        out[..., -1] = (
            2.5 * v[..., -1] - 9.0 * v[..., -2] + 12.0 * v[..., -3] - 7.0 * v[..., -4] + 1.5 * v[..., -5]
        ) / h3
        out[..., -2] = (
            1.5 * v[..., -1] - 5.0 * v[..., -2] + 6.0 * v[..., -3] - 3.0 * v[..., -4] + 0.5 * v[..., -5]
        ) / h3
    return out
