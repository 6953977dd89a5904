"""Scalar observable functionals on fields and the basis builders used by the
spectrum and identification pipelines.

Three functional families are supported:

* ``InnerProductPower(a, b, state_power, outer_power)`` --
  ``<cos(a*(pi*x/2) + b*pi/2), u^k>^l``,
* ``PointEvaluation(x_j)`` -- linear interpolation of ``u`` at ``x_j``,
* ``LiftedTerm(term, weight)`` -- ``<W_term(u), w>`` for a weighting function
  from the ``WeightSpec`` family.

Functionals evaluate on node values whose last axis is space, so one call
evaluates a functional on a whole ``(m, N)`` batch of snapshots and returns
its m values; data-matrix assembly makes one such call per basis column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from .errors import InvalidInputError, PreconditionError
from .fields import Field, Grid1D, trapezoid_weights
from .operators import IDENTITY_TERM, Dictionary, TermSpec, _int_power, term_values


@dataclass(frozen=True)
class Bump:
    """Compact bump ``w(x) = exp(-1/(1-(x/L)^2))`` for ``|x| < L``, else 0.

    With ``recentered=True`` the argument is ``2x/L - 1``, giving a symmetric
    bump on ``[0, L]`` instead of the literal half-bump.
    """

    L: float
    recentered: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0):
            raise InvalidInputError(f"bump radius L must be positive, got {self.L}")


@dataclass(frozen=True)
class PowerLaw:
    """w(x) = x^p."""

    p: int

    def __post_init__(self):
        if self.p < 0:
            raise InvalidInputError(f"power-law exponent must be >= 0, got {self.p}")


@dataclass(frozen=True)
class ConstantWeight:
    """w(x) = 1."""


WeightSpec = Union[Bump, PowerLaw, ConstantWeight]


def weight_values(weight: WeightSpec, grid: Grid1D) -> np.ndarray:
    """Weighting function sampled on the grid nodes."""
    x = grid.nodes()
    if isinstance(weight, Bump):
        t = (2.0 * x / weight.L - 1.0) if weight.recentered else x / weight.L
        w = np.zeros_like(x)
        inside = np.abs(t) < 1.0
        w[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    elif isinstance(weight, PowerLaw):
        w = x**weight.p
    elif isinstance(weight, ConstantWeight):
        w = np.ones_like(x)
    else:
        raise InvalidInputError(f"unknown weight spec: {weight!r}")
    return w


@dataclass(frozen=True)
class InnerProductPower:
    """xi(u) = <cos(a*(pi*x/2) + b*pi/2), u^k>^l."""

    a: float
    b: float
    state_power: int = 1
    outer_power: int = 1

    def __post_init__(self):
        if self.state_power < 1 or self.outer_power < 1:
            raise InvalidInputError("state_power and outer_power must be >= 1")


@dataclass(frozen=True)
class PointEvaluation:
    """xi(u) = u(x_j) by linear interpolation between nodes."""

    x_j: float


@dataclass(frozen=True)
class LiftedTerm:
    """xi(u) = <W_term(u), w>."""

    term: TermSpec
    weight: WeightSpec


FunctionalSpec = Union[InnerProductPower, PointEvaluation, LiftedTerm]


def functional_values(spec: FunctionalSpec, values: np.ndarray, grid: Grid1D, dirichlet: bool):
    """Evaluate a functional on raw node values (last axis = space); a batch
    of snapshots gives one value per snapshot."""
    v = np.asarray(values, dtype=float)
    q = trapezoid_weights(grid)
    x = grid.nodes()
    if isinstance(spec, InnerProductPower):
        g = np.cos(spec.a * (np.pi * x / 2.0) + spec.b * np.pi / 2.0)
        return _int_power(_int_power(v, spec.state_power) @ (q * g), spec.outer_power)
    if isinstance(spec, PointEvaluation):
        if not (grid.x_min <= spec.x_j <= grid.x_max):
            raise InvalidInputError(
                f"evaluation point {spec.x_j} outside domain [{grid.x_min}, {grid.x_max}]"
            )
        # nodes j and j + 1 bracket x_j; the weights reproduce node values exactly
        j = min(int(np.searchsorted(x, spec.x_j, side="right")) - 1, grid.num_points - 2)
        t = (spec.x_j - x[j]) / (x[j + 1] - x[j])
        return (1.0 - t) * v[..., j] + t * v[..., j + 1]
    if isinstance(spec, LiftedTerm):
        w = weight_values(spec.weight, grid)
        t = term_values(spec.term, v, grid, dirichlet)
        return t @ (q * w)
    raise InvalidInputError(f"unknown functional spec: {spec!r}")


def eval_functional(spec: FunctionalSpec, u: Field) -> float:
    """Evaluate a functional on a field."""
    return float(functional_values(spec, u.values, u.grid, u.dirichlet))


def build_burgers_basis(seed: int) -> List[FunctionalSpec]:
    """The 27-functional nonlinear basis ``<cos(a_j pi x/2 + b_j pi/2), u^k>^l``
    for ``(j, k, l)`` over ``{1,2,3}^3``.

    One ``(a_j, b_j)`` pair is drawn per ``j`` (uniform on [0, 1]) and reused
    across the nine ``(k, l)`` combinations of that group; the list is
    deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    specs: List[FunctionalSpec] = []
    for _ in range(3):
        a, b = rng.random(2)
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                specs.append(InnerProductPower(a=float(a), b=float(b), state_power=k, outer_power=l))
    return specs


def build_lifting_basis(dictionary: Dictionary, weight: WeightSpec) -> List[FunctionalSpec]:
    """Lifted basis ``xi_i(u) = <W_i(u), w>`` in dictionary order, with the
    identity term moved to the front.

    The identity operator W(u) = u must be present so that the linear
    functional ``<u, w>`` belongs to the basis; its lifted functional becomes
    position 1.
    """
    order = lifting_order(dictionary)
    return [LiftedTerm(dictionary.terms[i], weight) for i in order]


def lifting_order(dictionary: Dictionary) -> Tuple[int, ...]:
    """Dictionary indices in lifted-basis order (identity first)."""
    try:
        idx = dictionary.terms.index(IDENTITY_TERM)
    except ValueError:
        raise PreconditionError(
            "lifting basis requires the identity term W(u) = u "
            "(add it to the dictionary, possibly with coefficient 0)"
        ) from None
    return (idx,) + tuple(i for i in range(len(dictionary)) if i != idx)
