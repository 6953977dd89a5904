"""Candidate nonlinear operators and their evaluation on sampled fields.

A dictionary is an ordered list of terms from a closed family:

* ``Constant`` -- the constant-1 operator,
* ``MonomialDerivative(j, k)`` -- ``u^j * d^k u / dx^k``,
* ``GraphonKernel(kernel)`` -- nonlocal coupling
  ``(W u)(x) = int_0^1 f(x, y) (u(y) - u(x)) dy`` with an affine kernel
  ``f(x, y) = c0 + cx*x + cy*y``.

The affine kernel integral separates, so graphon terms are evaluated in
O(N) per field via the moments ``int u dy`` and ``int y u(y) dy`` (trapezoid
weights throughout, so results are bit-reproducible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import DomainError, InvalidInputError, ShapeError
from .fields import Field, Grid1D, diff_values, trapezoid_weights


@dataclass(frozen=True)
class KernelSpec:
    """Affine graphon kernel ``f(x, y) = c0 + cx*x + cy*y``."""

    c0: float
    cx: float
    cy: float

    def __post_init__(self):
        if not all(np.isfinite([self.c0, self.cx, self.cy])):
            raise InvalidInputError("kernel coefficients must be finite")

    @classmethod
    def one(cls) -> "KernelSpec":
        return cls(1.0, 0.0, 0.0)

    @classmethod
    def coord_x(cls) -> "KernelSpec":
        return cls(0.0, 1.0, 0.0)

    @classmethod
    def coord_y(cls) -> "KernelSpec":
        return cls(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Constant:
    """W(u) = 1."""


@dataclass(frozen=True)
class MonomialDerivative:
    """W(u) = u^j * d^k u / dx^k, with j >= 0 and k in 0..3."""

    j: int
    k: int

    def __post_init__(self):
        if self.j < 0:
            raise InvalidInputError(f"monomial power j must be >= 0, got {self.j}")
        if self.k not in (0, 1, 2, 3):
            raise InvalidInputError(f"derivative order k must be in 0..3, got {self.k}")
        if self.j == 0 and self.k == 0:
            raise InvalidInputError("u^0 with no derivative is the constant term; use Constant()")


@dataclass(frozen=True)
class GraphonKernel:
    """W(u)(x) = int_0^1 f(x, y) (u(y) - u(x)) dy on the unit interval."""

    kernel: KernelSpec


TermSpec = Union[Constant, MonomialDerivative, GraphonKernel]

#: the identity operator W(u) = u, required first in every lifting basis
IDENTITY_TERM = MonomialDerivative(j=1, k=0)


@dataclass(frozen=True)
class Dictionary:
    """Ordered candidate terms, optionally paired with coefficients.

    Coefficients are present for simulation models and absent for
    identification candidates.  Terms must be pairwise distinct under
    structural equality (duplicate columns would make the lifted data matrix
    rank-deficient).
    """

    terms: Tuple[TermSpec, ...]
    coefficients: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        if len(terms) == 0:
            raise InvalidInputError("dictionary must contain at least one term")
        if len(set(terms)) != len(terms):
            raise InvalidInputError("dictionary terms must be pairwise distinct")
        if self.coefficients is not None:
            coeffs = tuple(float(c) for c in self.coefficients)
            if len(coeffs) != len(terms):
                raise ShapeError(
                    f"{len(coeffs)} coefficients for {len(terms)} terms"
                )
            if not all(np.isfinite(coeffs)):
                raise InvalidInputError("coefficients must be finite")
            object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return len(self.terms)


def _require_unit_interval(grid: Grid1D):
    if grid.x_min != 0.0 or grid.x_max != 1.0:
        raise DomainError(
            f"graphon terms require the domain [0, 1], got [{grid.x_min}, {grid.x_max}]"
        )


def term_values(
    term: TermSpec,
    values: np.ndarray,
    grid: Grid1D,
    dirichlet: bool,
    deriv_cache: Optional[dict] = None,
) -> np.ndarray:
    """Evaluate a term on raw node values (last axis = space).

    ``deriv_cache`` maps derivative order -> precomputed derivative array and
    lets a right-hand-side assembly share derivatives across terms.
    """
    v = np.asarray(values, dtype=float)
    if isinstance(term, Constant):
        return np.ones_like(v)
    if isinstance(term, MonomialDerivative):
        if term.k == 0:
            return v**term.j
        if deriv_cache is not None and term.k in deriv_cache:
            d = deriv_cache[term.k]
        else:
            d = diff_values(v, grid.spacing, term.k, dirichlet)
            if deriv_cache is not None:
                deriv_cache[term.k] = d
        if term.j == 0:
            return d
        return v**term.j * d
    if isinstance(term, GraphonKernel):
        _require_unit_interval(grid)
        q = trapezoid_weights(grid)
        y = grid.nodes()
        ker = term.kernel
        mass = v @ q
        moment = v @ (q * y)
        a = ker.c0 + ker.cx * y  # kernel's x-dependent part sampled at nodes
        out = a * (mass[..., None] - v * np.sum(q))
        if ker.cy != 0.0:
            out = out + ker.cy * (moment[..., None] - v * (q @ y))
        return out
    raise InvalidInputError(f"unknown term type: {term!r}")


def rhs_values(
    dictionary: Dictionary,
    values: np.ndarray,
    grid: Grid1D,
    dirichlet: bool,
    skip_zero: bool = False,
) -> np.ndarray:
    """Sum of coefficient-weighted terms on raw node values.

    Under Dirichlet conditions the boundary entries of the result are forced
    to zero so that the boundary values of the state stay pinned.
    """
    if dictionary.coefficients is None:
        raise InvalidInputError("right-hand side evaluation requires coefficients")
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    cache: dict = {}
    for term, c in zip(dictionary.terms, dictionary.coefficients):
        if skip_zero and c == 0.0:
            continue
        out += c * term_values(term, v, grid, dirichlet, deriv_cache=cache)
    if dirichlet:
        out[..., 0] = 0.0
        out[..., -1] = 0.0
    return out


def apply_rhs(dictionary: Dictionary, u: Field, dirichlet: bool = False) -> Field:
    """Evaluate ``sum_i c_i W_i(u)`` on a field."""
    out = rhs_values(dictionary, u.values, u.grid, dirichlet or u.dirichlet)
    return Field(u.grid, out, dirichlet=dirichlet or u.dirichlet)


def describe_term(term: TermSpec) -> str:
    """Short human-readable label for CSV output."""
    if isinstance(term, Constant):
        return "1"
    if isinstance(term, MonomialDerivative):
        if term.k == 0:
            return "u" if term.j == 1 else f"u^{term.j}"
        dpart = "du/dx" if term.k == 1 else f"d{term.k}u/dx{term.k}"
        if term.j == 0:
            return dpart
        upart = "u" if term.j == 1 else f"u^{term.j}"
        return f"{upart}*{dpart}"
    if isinstance(term, GraphonKernel):
        k = term.kernel
        return f"graphon(c0={k.c0:g},cx={k.cx:g},cy={k.cy:g})"
    raise InvalidInputError(f"unknown term type: {term!r}")
