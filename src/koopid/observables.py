"""Scalar observable functionals of the state and the basis builders used by
the spectrum and identification pipelines.

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
from typing import List, Union

import numpy as np

from .errors import (InvalidInputError, PreconditionError, require_bool, require_int,
                     require_kind, require_real)
from .fields import Grid1D, trapezoid_weights
from .operators import IDENTITY_TERM, MAX_POWER, Dictionary, TermSpec, _int_power, term_values


@dataclass(frozen=True)
class Bump:
    """Compact bump ``w(x) = exp(-1/(1-(x/L)^2))`` for ``|x| < L``, else 0.

    With ``recentered=True`` the argument is ``2x/L - 1``, giving a symmetric
    bump on ``[0, L]`` instead of the literal half-bump; ``recentered`` must
    be a bool.
    """

    L: float
    recentered: bool = False

    def __post_init__(self):
        object.__setattr__(self, "L", require_real("bump radius L", self.L))
        object.__setattr__(self, "recentered", require_bool("recentered", self.recentered))
        if not self.L > 0:
            raise InvalidInputError(f"bump radius L must be positive, got {self.L}")


@dataclass(frozen=True)
class PowerLaw:
    """w(x) = x^p for an integer p >= 0; p = 0 is the constant weight w(x) = 1."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", require_int("power-law exponent", self.p, 0))


WeightSpec = Union[Bump, PowerLaw]


def weight_values(weight: WeightSpec, grid: Grid1D) -> np.ndarray:
    """Weighting function sampled on the grid nodes."""
    x = grid.nodes()
    if isinstance(weight, PowerLaw):
        return x**weight.p
    t = (2.0 * x / weight.L - 1.0) if weight.recentered else x / weight.L
    w = np.zeros_like(x)
    inside = np.abs(t) < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return w


@dataclass(frozen=True)
class InnerProductPower:
    """xi(u) = <cos(a*(pi*x/2) + b*pi/2), u^k>^l, with k and l in 1..MAX_POWER."""

    a: float
    b: float
    state_power: int = 1
    outer_power: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", require_real("cosine coefficient a", self.a))
        object.__setattr__(self, "b", require_real("cosine coefficient b", self.b))
        for name in ("state_power", "outer_power"):
            object.__setattr__(self, name, require_int(name, getattr(self, name), 1, MAX_POWER))


@dataclass(frozen=True)
class PointEvaluation:
    """xi(u) = u(x_j) by linear interpolation between nodes; ``x_j`` must lie
    in the grid's domain, which is checked at evaluation."""

    x_j: float

    def __post_init__(self):
        object.__setattr__(self, "x_j", require_real("evaluation point x_j", self.x_j))


@dataclass(frozen=True)
class LiftedTerm:
    """xi(u) = <W_term(u), w>, for a ``TermSpec`` term and a ``WeightSpec``
    weight; any other kind is refused here, before the first evaluation."""

    term: TermSpec
    weight: WeightSpec

    def __post_init__(self):
        require_kind("term type", self.term, TermSpec)
        require_kind("weight spec", self.weight, WeightSpec)


FunctionalSpec = Union[InnerProductPower, PointEvaluation, LiftedTerm]


def functional_values(spec: FunctionalSpec, values: np.ndarray, grid: Grid1D, dirichlet: bool):
    """Evaluate a functional on raw node values (last axis = space, of the
    grid's N nodes); a batch of snapshots gives one value per snapshot."""
    v = np.asarray(values, dtype=float)
    n = grid.num_points
    if v.shape[-1:] != (n,):
        raise InvalidInputError(f"values must have a last axis of length {n}, got shape {v.shape}")
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
        j = min(int(np.searchsorted(x, spec.x_j, side="right")) - 1, n - 2)
        t = (spec.x_j - x[j]) / (x[j + 1] - x[j])
        return (1.0 - t) * v[..., j] + t * v[..., j + 1]
    if isinstance(spec, LiftedTerm):
        w = weight_values(spec.weight, grid)
        t = term_values(spec.term, v, grid, dirichlet)
        return t @ (q * w)
    raise InvalidInputError(f"unknown functional spec: {spec!r}")


def build_burgers_basis(seed: int) -> List[FunctionalSpec]:
    """The 27-functional nonlinear basis ``<cos(a_j pi x/2 + b_j pi/2), u^k>^l``
    for ``(j, k, l)`` over ``{1,2,3}^3``.

    One ``(a_j, b_j)`` pair is drawn per ``j`` (uniform on [0, 1]) and reused
    across the nine ``(k, l)`` combinations of that group; the list is
    deterministic per seed.  A negative seed raises InvalidInputError.
    """
    require_int("basis seed", seed, 0)
    rng = np.random.default_rng(seed)
    specs: List[FunctionalSpec] = []
    for _ in range(3):
        a, b = rng.random(2)
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                specs.append(InnerProductPower(a, b, state_power=k, outer_power=l))
    return specs


def build_lifting_basis(dictionary: Dictionary, weight: WeightSpec) -> List[FunctionalSpec]:
    """Lifted basis ``xi_i(u) = <W_i(u), w>``, one functional per dictionary
    term, in dictionary order.

    The identity operator W(u) = u must be present so that the linear
    functional ``<u, w>`` belongs to the basis; its position is
    :func:`identity_index`.
    """
    identity_index(dictionary)  # raises PreconditionError without it
    return [LiftedTerm(term, weight) for term in dictionary.terms]


def identity_index(dictionary: Dictionary) -> int:
    """Position of the identity term W(u) = u in the dictionary."""
    try:
        return dictionary.terms.index(IDENTITY_TERM)
    except ValueError:
        raise PreconditionError(
            "lifting basis requires the identity term W(u) = u "
            "(add it to the dictionary, possibly with coefficient 0)"
        ) from None
