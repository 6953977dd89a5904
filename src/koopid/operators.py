"""Candidate nonlinear operators and their evaluation on node values.

A dictionary is an ordered list of terms from a closed family:

* ``MonomialDerivative(j, k)`` -- ``u^j * d^k u / dx^k``, or ``u^j`` for
  k = 0, so that ``MonomialDerivative(0, 0)`` is the constant-1 operator,
* ``GraphonKernel(c0, cx, cy)`` -- nonlocal coupling
  ``(W u)(x) = int_0^1 f(x, y) (u(y) - u(x)) dy`` with the affine kernel
  ``f(x, y) = c0 + cx*x + cy*y``.

The affine kernel integral separates, so graphon terms are evaluated in
O(N) per state via the moments ``int u dy`` and ``int y u(y) dy`` (trapezoid
weights throughout, so results are bit-reproducible): the coupling is a
rank-2 operator minus a diagonal one.

Under Dirichlet conditions the two boundary nodes never move, so
:func:`term_values` and :func:`rhs_values` both return 0 there.

A model's right-hand side ``sum_i c_i W_i(u)`` is folded by kind once, by
:func:`fold_terms`: zero coefficients are skipped, and each term goes to the
reaction polynomial ``{j: c}``, to the derivative group ``{j: {k: c}}`` of
its power of u, or to one graphon kernel ``sum_i c_i (c0, cx, cy)_i``.  The
stepper's substep table and linear split read that fold, and an
:class:`RhsPlan` compiles it for one grid and boundary rule, to be evaluated
by :func:`rhs_values` as often as an integrator needs it:

* the derivative-free terms ``c u^j`` (j = 0: the constant) form one
  polynomial in u, evaluated by Horner's rule;
* the derivative terms ``c u^j d^k u`` that share a power j are summed, tap
  by tap, into one banded operator ``A_j = sum_k c_jk D_k``
  (:func:`~koopid.fields.stencil_operator`) of the ``D_k`` that
  :func:`~koopid.fields.diff_values` (and so :func:`term_values`) applies;
  a call applies each ``A_j`` to the whole batch at once.  On a grid of at
  most ``DENSE_STENCIL_NODES`` (128) nodes it does so as one dense product
  ``v @ A_j^T``, above it through the banded taps.  The taps take about ten
  numpy calls whatever the batch, so on few rows of few nodes their
  overhead sets the cost.  For 1-25 rows a banded application of pde1's
  ``A_1`` took 6.6-10 us on 64 nodes against 1.3-3.9 us for the dense
  product, and 6.8-20 us on 256 nodes against 9-62 us; on 128 nodes the
  dense product was ahead up to 5 rows and behind from 17 (3.0 against 6.9
  us for one row, 18 against 11 us for 25; numpy 2.4.6 on a 2-core Xeon).
  The two forms sum a row in different orders, so they round differently;
* graphon terms are linear in their kernel, so they fold into one kernel
  ``sum_i c_i (c0, cx, cy)_i``; its rank-2 part costs two small matrix
  products per call, and its diagonal part joins the polynomial's linear
  coefficient as a node array.

Integer powers of states are taken by repeated multiplication
(``_int_power``), never through ``**``: numpy hands a float exponent of 3
to libm ``pow``, which costs 147 ns per element on negative bases against
5.4 ns on positive ones (a 25 x 256 batch, numpy 2.4.6 on a 2-core Xeon),
while ``v * v * v`` costs under 2 ns per element whatever the sign.  Squares
are bit-identical either way, because numpy computes ``v**2`` as ``v * v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import InvalidInputError, require_int, require_kind, require_real
from .fields import Grid1D, diff_values, stencil_operator, trapezoid_weights


#: the largest integer power of the state that a term or functional takes;
#: each power costs one multiplication per element, and the built-in
#: dictionaries and bases use at most 3
MAX_POWER = 64

#: the most grid nodes on which an :class:`RhsPlan` applies each stencil as
#: one dense product; above it the banded taps cost less (module docstring)
DENSE_STENCIL_NODES = 128


@dataclass(frozen=True)
class MonomialDerivative:
    """W(u) = u^j * d^k u / dx^k, with j in 0..MAX_POWER and k in 0..3; for
    k = 0 the term is u^j, and j = k = 0 is the constant W(u) = 1."""

    j: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "j", require_int("monomial power j", self.j, 0, MAX_POWER))
        object.__setattr__(self, "k", require_int("derivative order k", self.k, 0, 3))


@dataclass(frozen=True)
class GraphonKernel:
    """W(u)(x) = int_0^1 f(x, y) (u(y) - u(x)) dy on the unit interval, with
    the affine kernel ``f(x, y) = c0 + cx*x + cy*y``."""

    c0: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("c0", "cx", "cy"):
            value = require_real(f"kernel coefficient {name}", getattr(self, name))
            object.__setattr__(self, name, value)


TermSpec = Union[MonomialDerivative, GraphonKernel]

#: the identity operator W(u) = u, which every lifting basis must contain,
#: at any position
IDENTITY_TERM = MonomialDerivative(j=1, k=0)


@dataclass(frozen=True)
class Dictionary:
    """Ordered candidate terms, optionally paired with coefficients.

    Coefficients are present for simulation models and absent for
    identification candidates; each must be a finite real number
    (``errors.require_real``: no string, ``None`` or ``bool``).  Terms must
    be ``TermSpec`` kinds, checked here so that no later evaluation meets a
    foreign one, and pairwise distinct under structural equality (duplicate
    columns would make the lifted data matrix rank-deficient).
    """

    terms: Tuple[TermSpec, ...]
    coefficients: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        if len(terms) == 0:
            raise InvalidInputError("dictionary must contain at least one term")
        for term in terms:
            require_kind("term type", term, TermSpec)
        if len(set(terms)) != len(terms):
            raise InvalidInputError("dictionary terms must be pairwise distinct")
        if self.coefficients is not None:
            try:
                coeffs = tuple(self.coefficients)
            except TypeError:
                raise InvalidInputError("coefficients must be a sequence of numbers") from None
            coeffs = tuple(require_real(f"coefficient {i}", c) for i, c in enumerate(coeffs))
            if len(coeffs) != len(terms):
                raise InvalidInputError(f"{len(coeffs)} coefficients for {len(terms)} terms")
            object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return len(self.terms)


def _require_unit_interval(grid: Grid1D):
    if grid.x_min != 0.0 or grid.x_max != 1.0:
        raise InvalidInputError(
            f"graphon terms require the domain [0, 1], got [{grid.x_min}, {grid.x_max}]"
        )


def _int_power(v, j: int):
    """``v**j`` for an integer ``j >= 0``, by repeated multiplication.

    Always a new array (the input may be a read-only dataset).  Bit-identical
    to ``v**j`` for ``j <= 2``; for ``j = 3`` within 1 ulp of it.
    """
    if j == 0:
        return np.ones_like(v)
    out = v * v if j >= 2 else v.copy()
    for _ in range(j - 2):
        out *= v
    return out


def _graphon_kernel(c0: float, cx: float, cy: float, grid: Grid1D) -> tuple:
    """``(moments, spread, diagonal)`` of the affine kernel ``c0 + cx*x + cy*y``
    on the unit interval.

    With trapezoid weights q, ``moments = [q, q*y]`` is ``(N, 2)``,
    ``spread = [c0 + cx*x, cy]`` is ``(2, N)`` and ``diagonal = (c0 + cx*x) *
    sum(q) + cy * (q.y)``, so the coupling is ``(u @ moments) @ spread -
    diagonal * u``: a rank-2 operator minus a diagonal one.
    """
    _require_unit_interval(grid)
    q = trapezoid_weights(grid)
    y = grid.nodes()
    a = c0 + cx * y  # kernel's x-dependent part sampled at nodes
    moments = np.stack([q, q * y], axis=1)
    spread = np.stack([a, np.full_like(a, cy)])
    return moments, spread, a * np.sum(q) + cy * np.sum(moments[:, 1])


def term_values(term: TermSpec, values: np.ndarray, grid: Grid1D, dirichlet: bool) -> np.ndarray:
    """Evaluate a term on raw node values (last axis = space).

    Under Dirichlet conditions the boundary entries are zero, as in
    :func:`rhs_values`: the boundary values of the state never move.
    """
    v = np.asarray(values, dtype=float)
    if isinstance(term, MonomialDerivative):
        out = _int_power(v, term.j)
        if term.k:
            out *= diff_values(v, grid.spacing, term.k, dirichlet)
    else:
        moments, spread, diagonal = _graphon_kernel(term.c0, term.cx, term.cy, grid)
        out = (v @ moments) @ spread
        out -= v * diagonal
    if dirichlet:
        out[..., 0] = 0.0
        out[..., -1] = 0.0
    return out


def fold_terms(dictionary: Dictionary) -> tuple:
    """``(poly, groups, kernel)``: a model dictionary's terms with nonzero
    coefficients, folded by kind.

    ``poly`` maps each power j to the coefficient of ``u^j`` (j = 0: the
    constant), ``groups`` each power j to ``{k: coefficient of u^j d^k u}``,
    each in dictionary order, and ``kernel`` is the folded graphon kernel
    ``sum_i c_i (c0, cx, cy)_i``, or None without a graphon term.  Terms with
    coefficient 0 are left out, since they add nothing to the right-hand
    side.  A dictionary without coefficients raises InvalidInputError.
    """
    if dictionary.coefficients is None:
        raise InvalidInputError("right-hand side evaluation requires coefficients")
    poly: dict = {}
    groups: dict = {}
    kernel = None
    for term, c in zip(dictionary.terms, dictionary.coefficients):
        if c == 0.0:
            continue
        if isinstance(term, GraphonKernel):
            c0, cx, cy = kernel or (0.0, 0.0, 0.0)
            kernel = (c0 + c * term.c0, cx + c * term.cx, cy + c * term.cy)
        elif term.k == 0:
            poly[term.j] = c
        else:
            groups.setdefault(term.j, {})[term.k] = c
    return poly, groups, kernel


class RhsPlan:
    """A dictionary's right-hand side compiled for one grid and boundary rule.

    Build it once per integration and evaluate it with :func:`rhs_values`.
    The dictionary's :func:`fold_terms` gives the Horner coefficients, one
    stencil per power of u and the folded graphon kernel.  Each of
    ``stencils`` maps node values to its ``A_j`` applied along the last
    axis: a dense product on at most ``DENSE_STENCIL_NODES`` nodes,
    otherwise the :class:`~koopid.fields.BandedOperator` itself.
    Building raises what evaluating the terms would raise:
    ``InvalidInputError`` without coefficients or for nonzero graphon terms
    off ``[0, 1]`` (even when their kernels cancel).  No grid is too short
    for a derivative order: ``Grid1D`` has at least 8 nodes, as many as
    order 3 needs.
    """

    def __init__(self, dictionary: Dictionary, grid: Grid1D, dirichlet: bool):
        poly, groups, kernel = fold_terms(dictionary)
        self.grid = grid
        self.dirichlet = dirichlet
        # Horner coefficients of the derivative-free terms, constant first;
        # the graphon coupling's diagonal part joins the linear one
        coeffs = [poly.get(j, 0.0) for j in range(max(poly, default=0) + 1)]
        self.graphon = None  # the coupling's rank-2 part, (moments, spread)
        if kernel is not None:
            moments, spread, diagonal = _graphon_kernel(*kernel, grid)
            self.graphon = (moments, spread)
            coeffs += [0.0] * (2 - len(coeffs))
            coeffs[1] = coeffs[1] - diagonal
        self.poly = tuple(coeffs) if poly or kernel is not None else ()
        self.powers = tuple(groups)
        n = grid.num_points
        stencils = [stencil_operator(n, grid.spacing, orders, dirichlet)
                    for orders in groups.values()]
        if n <= DENSE_STENCIL_NODES:
            stencils = [lambda v, a_t=op.matrix().T: v @ a_t for op in stencils]
        self.stencils = tuple(stencils)

    def _polynomial(self, v: np.ndarray) -> np.ndarray:
        """The derivative-free terms at ``v``, by Horner's rule; always a new
        array.  The linear coefficient may be a node array."""
        *lower, top = self.poly
        if not lower:
            return np.full(v.shape, top)
        out = top * v
        for c in lower[:0:-1]:
            if isinstance(c, np.ndarray) or c != 0.0:
                out += c
            out *= v
        if lower[0] != 0.0:
            out += lower[0]
        return out


def rhs_values(plan: RhsPlan, values: np.ndarray) -> np.ndarray:
    """``sum_i c_i W_i(u)`` of the plan's dictionary on raw node values (last
    axis = space, any leading batch axes).

    Under Dirichlet conditions the boundary entries of the result are forced
    to zero so that the boundary values of the state stay pinned.
    """
    v = np.asarray(values, dtype=float)
    n = plan.grid.num_points
    if v.shape[-1:] != (n,):
        raise InvalidInputError(f"values must have a last axis of length {n}, got shape {v.shape}")
    parts = [plan._polynomial(v)] if plan.poly else []
    for j, stencil in zip(plan.powers, plan.stencils):
        d = stencil(v)
        if j:
            d *= v if j == 1 else _int_power(v, j)
        parts.append(d)
    if plan.graphon is not None:
        moments, spread = plan.graphon
        parts.append((v @ moments) @ spread)
    if not parts:
        return np.zeros_like(v)
    # every part is a new array, so the first one takes the sum
    out = parts[0]
    for part in parts[1:]:
        out += part
    if plan.dirichlet:
        out[..., ::n - 1] = 0.0  # both boundary columns
    return out


def describe_term(term: TermSpec) -> str:
    """Short human-readable label for CSV output."""
    if isinstance(term, MonomialDerivative):
        upart = {0: "", 1: "u"}.get(term.j, f"u^{term.j}")
        if term.k == 0:
            return upart or "1"
        dpart = "du/dx" if term.k == 1 else f"d{term.k}u/dx{term.k}"
        return f"{upart}*{dpart}" if upart else dpart
    return f"graphon(c0={term.c0:g},cx={term.cx:g},cy={term.cy:g})"
