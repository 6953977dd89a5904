"""Method-of-lines time integration and snapshot-pair dataset generation.

Dynamics are integrated with fixed-substep RK4 in integrating-factor (Lawson)
form.  A model's linear part ``L u = sum_k c_k d^k u / dx^k`` (its ``u^0``
derivative terms, k = 1..3) is split off and integrated exactly when a k = 2
or k = 3 bound sets the unsplit substep, the split lengthens it and the
``u_xx`` coefficient is not negative (backward heat stays explicit).  The
exact half-step flow ``P = exp((h/2) L)`` is built once per substep length
and applied to the whole batch.  It takes one of two forms:

* ``L = c u_xx`` alone on a homogeneous-Dirichlet model (Burgers, heat): the
  odd-reflection stencil is diagonal in the orthonormal sine basis S of the
  interior nodes, with eigenvalues ``-(4 / h^2) sin^2(k pi / (2 (N - 1)))``,
  so P is ``S diag(exp((h/2) c lam)) S``.  The factors fall with k, and only
  the r leading modes whose factor is at least ``SINE_FLOOR`` (1e-20) are
  kept: P is applied as ``(v A_r) (diag(e_r) A_r^T)`` with the zero-padded
  ``(N, r)`` block ``A_r`` of sine columns, 2 N r operations per state
  instead of N^2, without scipy (r = 49 of 254 on 256 nodes at the Burgers
  step).  The boundary values it returns are exactly 0;
* any other L (pde1's ``-0.5 u_x + u_xx + 0.1 u_xxx``): P is a dense
  matrix, the ``expm`` of the stencil matrix of L.  Under Dirichlet
  conditions the boundary rows of L are zero, as the right-hand side's
  boundary entries are.

RK4 integrates the remaining terms at the fixed substep

    dt = min(2 h / D1, 0.25 * h^2 / D2, 0.25 * h^3 / D3,
             0.35 * 2.785 / R, 0.35 * 2.785 / G, 2.5e-2)

where Dk is the largest coefficient magnitude of the explicitly integrated
k-th derivative terms ``c u^j d^k u / dx^k`` (absent terms are skipped).
For the centred stencils the k = 1 bound keeps 71% of RK4's stability limit
(2 sqrt(2) h / D1 on the imaginary axis), the k = 2 bound 35% (about
0.70 h^2 / D2 on the real axis) and the k = 3 bound 23%.  The
derivative-free terms keep 35% of RK4's real-axis limit 2.785: R = sum
j |c_j| bounds the rate of the whole reaction polynomial ``sum c_j u^j``
(one sum, not one bound per term), and G = 2 max |f| that of the folded
graphon coupling with kernel f on the unit square.  No built-in model
meets these two: pde1's -2u gives 0.49 against its 7.87e-3 step, and
graphon's R = 6.5 and G = 2 give 0.15.  The 2.5e-2 cap is an accuracy
bound where nothing else limits the step (graphon, heat).
One default segment agrees with a quarter substep to 5e-8 relative for
Burgers (at 2 h = 1.57e-2 on 256 nodes) and 4e-9 for graphon (at the cap),
below their spatial errors on 256 nodes (7e-6 and 3e-7).
Without a split the step is classical RK4.  Under homogeneous Dirichlet
conditions the boundary values are re-clamped to zero after every substep.

These bounds hold where |u| <= 1.  Before every substep each state's largest
magnitude s is read, and a state for which s^j breaks the bound of an
explicit ``u^j`` derivative term, or s^(J - 1) the reaction bound of a
polynomial of degree J, takes the substep in 2^r equal pieces (at most
2^10).  Without this, pde1's ``-0.2 u u_xx``, which anti-diffuses where
u > 5, would be stepped past its growth, and the exact flow of L would damp
the growing mesh modes instead of reporting the blow-up.  An integration
that needs more than ``MAX_SUBSTEPS`` (1e6) substeps before refinement is
refused before its first step.

Each integration -- one ``integrate`` or ``generate_pairs`` call, or one
sweep over sampling times -- builds one stepper, :class:`_LawsonRK4`, and
every horizon of it (burn-in, segment) is one call of its ``advance``.  The
stepper folds the model's terms once with
:func:`~koopid.operators.fold_terms`; from that fold it builds a table of
one ``(bound, p, k)`` per derivative term and derivative-free part, for the
split, dt and the refinement limits, and reads the linear part.  It
compiles the explicitly integrated terms once into an
:class:`~koopid.operators.RhsPlan` (one derivative operator per power of u,
a polynomial and the folded graphon kernel); every RK4 stage then evaluates
``rhs_values(plan, values)`` on the whole batch.  Each operator is a dense
matrix product on grids of at most ``operators.DENSE_STENCIL_NODES`` (128)
nodes and banded taps above: a refined pde1 burn-in steps groups of 1-17
rows of 64 nodes, where numpy's per-call overhead, not arithmetic, sets the
cost of a step, and the step builds its stages in place for the same reason.
``advance`` alone refuses a substep at or below ``MIN_SUBSTEP`` and a
Dirichlet start that does not vanish at the boundaries, and reports a
blow-up.
Trajectories of a dataset are advanced together as one batched array; random
initial-condition parameters are drawn up front from a single seeded
generator, so datasets are bit-reproducible per seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import (BlowUpError, InvalidInputError, PreconditionError, require_bool,
                     require_int, require_real)
from .fields import Grid1D, grid_values, stencil_operator
from .operators import (Dictionary, GraphonKernel, MonomialDerivative, RhsPlan, fold_terms,
                        rhs_values)
from .linalg import expm

SAFETY = 0.25
DT_MAX = 2.5e-2
DEFAULT_GRID_POINTS = 256

#: where RK4's stability interval on the negative real axis ends (Hairer &
#: Wanner, Solving Ordinary Differential Equations II, section IV.2), and the
#: share of it that the derivative-free terms keep, as the k = 2 bound keeps
#: 35% of its real-axis limit
RK4_REAL_LIMIT = 2.785
REAL_SHARE = 0.35

#: the smallest half-step factor exp((h/2) lam_k) of a sine mode that the
#: Dirichlet diffusion flow keeps; the sine modes are orthonormal, so dropping
#: the modes below it moves a flowed vector v by at most SINE_FLOOR ||v||_2
SINE_FLOOR = 1e-20


@dataclass(frozen=True)
class Model:
    """Dictionary-defined dynamics on a grid; ``dirichlet`` must be a bool."""

    name: str
    dictionary: Dictionary
    grid: Grid1D
    dirichlet: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dirichlet", require_bool("dirichlet", self.dirichlet))
        if self.dictionary.coefficients is None:
            raise InvalidInputError("a model dictionary must carry coefficients")


class ICFamily(enum.Enum):
    """Randomized initial-condition families, parameterized by (a, b) in [0,1]^2."""

    BURGERS = "burgers"    # (x^2 - 1) cos(a pi x + b pi) on [-1, 1]
    PDE1 = "pde1"          # x (x - 5) cos(a pi x / 5 + b pi) on [0, 5]
    GRAPHON = "graphon"    # 0.1 a cos(b pi x + b pi) on [0, 1]


def sample_initial_condition(family: ICFamily, grid: Grid1D, a: float, b: float) -> np.ndarray:
    x = grid.nodes()
    if family is ICFamily.BURGERS:
        return (x**2 - 1.0) * np.cos(a * np.pi * x + b * np.pi)
    if family is ICFamily.PDE1:
        return x * (x - 5.0) * np.cos(a * np.pi * x / 5.0 + b * np.pi)
    if family is ICFamily.GRAPHON:
        return 0.1 * a * np.cos(b * np.pi * x + b * np.pi)
    raise InvalidInputError(f"unknown initial-condition family: {family!r}")


@dataclass(frozen=True, eq=False)
class SnapshotDataset:
    """m snapshot pairs as two read-only ``(m, N)`` arrays on one grid.

    Row k of ``u_next`` is row k of ``u`` advanced by the sampling time, which
    must be finite and above ``MIN_SUBSTEP``.  Both arrays are copied; they
    must hold finite real numbers by the rule of ``errors.require_array``
    (at least one row), have the same shape and a last axis of the grid's N
    nodes, and be zero at both boundaries when the bool ``dirichlet`` is set.
    ``provenance`` must be None or a dict, the only kinds a dataset file
    reads back; anything else raises InvalidInputError.
    """

    grid: Grid1D
    sampling_time: float
    u: np.ndarray = field(repr=False)
    u_next: np.ndarray = field(repr=False)
    dirichlet: bool = False
    provenance: Optional[dict] = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "sampling_time", _check_time("sampling time", self.sampling_time))
        object.__setattr__(self, "dirichlet", require_bool("dirichlet", self.dirichlet))
        if self.provenance is not None and not isinstance(self.provenance, dict):
            raise InvalidInputError(f"provenance must be a dict or None, got {self.provenance!r}")
        u = grid_values(self.grid, self.u, self.dirichlet, (2,))
        u_next = grid_values(self.grid, self.u_next, self.dirichlet, (2,))
        if u.shape != u_next.shape:
            raise InvalidInputError(f"u has shape {u.shape} but u_next has shape {u_next.shape}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "u_next", u_next)

    def __len__(self) -> int:
        return len(self.u)


#: the shortest substep the integrator takes; a stability bound below it
#: would need more than 1e15 substeps per time unit, and a horizon, sampling
#: time or burn-in at or below it would take no step at all
MIN_SUBSTEP = 1e-15


#: a substep is cut into at most 2**MAX_REFINE pieces for a large state
MAX_REFINE = 10


#: the most substeps (before refinement) one integration may take; a run that
#: needs more is refused before its first step (the built-in defaults take
#: at most a few hundred)
MAX_SUBSTEPS = 10**6


def _check_time(name: str, value: float) -> float:
    """``value`` as a Python float, or InvalidInputError for a time to
    integrate over that is not a finite real number (``require_real``) or is
    at or below MIN_SUBSTEP, and so would take no step."""
    value = require_real(name, value)
    if not value > MIN_SUBSTEP:
        raise InvalidInputError(f"{name} must be finite and above {MIN_SUBSTEP:g}, got {value}")
    return value


def _term_bounds(fold: tuple, h: float) -> list:
    """``(bound, p, k)`` for each derivative term ``c u^j d^k u / dx^k`` of a
    model's :func:`~koopid.operators.fold_terms` ``fold``, and one k = 0
    entry each for the reaction polynomial and the graphon coupling: the
    substep bound where |u| <= 1, which a larger |u| divides by |u|^p.

    A derivative term has p = j.  The derivative-free parts keep
    ``REAL_SHARE`` of RK4's real-axis limit ``RK4_REAL_LIMIT`` over their
    largest rate.  The reaction polynomial ``sum c_j u^j`` is bounded as a
    sum, since its Jacobian is one polynomial: its rate is at most ``sum
    j |c_j|`` where |u| <= 1, and a larger |u| scales it by at most
    |u|^p with p = max j - 1 (0 for a linear reaction, which no state
    refines).  The folded graphon coupling ``int f(x, y) (u(y) - u(x)) dy``
    is a rank-2 operator minus a diagonal one, each at most the domain
    length times max |f| on the grid square; on [0, 1], the only domain a
    graphon term lives on, its rate is at most 2 max |f|, taken at the
    square's corners since f is affine, and p = 0.
    """
    poly, groups, kernel = fold
    # k = 1 keeps 71% of RK4's imaginary-axis limit 2 sqrt(2) h / |c| for the
    # centred stencil
    bounds = [((2.0 * h if k == 1 else SAFETY * h**k) / abs(c), j, k)
              for j, orders in groups.items() for k, c in orders.items()]
    reaction = 0.0
    for j, c in poly.items():
        reaction += j * abs(c)
    c0, cx, cy = kernel or (0.0, 0.0, 0.0)
    coupling = 2.0 * max(abs(c0 + cx * x + cy * y) for x in (0, 1) for y in (0, 1))
    for rate, p in ((reaction, max(0, max(poly, default=0) - 1)), (coupling, 0)):
        if rate > 0.0:
            bounds.append((REAL_SHARE * RK4_REAL_LIMIT / rate, p, 0))
    return bounds


def _split_linear(model: Model, fold: tuple, bounds: list) -> Tuple[Dictionary, dict, float]:
    """The explicitly integrated terms, the linear part ``{k: c}`` of the
    terms ``c d^k u / dx^k``, k >= 1, split off for exact integration (empty
    when nothing is split off; a constant term stays explicit) and the
    substep, read from the model's :func:`~koopid.operators.fold_terms`
    ``fold`` and its ``_term_bounds`` table ``bounds``.

    The split applies only where a k = 2 or k = 3 bound sets the unsplit
    substep and the split lengthens it: an exact flow costs up to a dense
    N x N product per application and an O(N^3) build per substep length,
    which does not pay for an O(h) advection bound or the cap.  A negative
    ``u_xx`` coefficient (backward heat) is never split.  On a Dirichlet
    model only ``c u_xx`` is split off when that alone gives the same
    substep: its flow is applied through the sine modes that survive a half
    step, where any other split needs a dense ``expm``.  The split-off terms
    keep their place with coefficient 0.
    """
    dic = model.dictionary
    linear = fold[1].get(0, {})  # the u^0 derivative group

    def substep(split):
        """The bound of the terms left explicit with the orders ``split`` of
        the linear part split off, capped at DT_MAX."""
        return min([DT_MAX] + [b for b, p, k in bounds if p or k not in split])

    unsplit = substep({})
    advection = min([DT_MAX] + [b for b, _, k in bounds if k == 1])
    if linear.get(2, 0.0) < 0.0 or unsplit >= advection or substep(linear) <= unsplit:
        return dic, {}, unsplit
    if model.dirichlet and 2 in linear and len(linear) > 1 and substep({2}) >= substep(linear):
        linear = {2: linear[2]}
    split_off = {MonomialDerivative(0, k) for k in linear}
    explicit = Dictionary(dic.terms, tuple(
        0.0 if term in split_off else c for term, c in zip(dic.terms, dic.coefficients)))
    return explicit, linear, substep(linear)


class _LawsonRK4:
    """Fixed-step RK4 for one model in integrating-factor (Lawson) form, and
    the integrator of every horizon of that model.

    The constructor folds the model's terms once and reads that fold's
    ``_term_bounds`` table: the split and ``dt`` through ``_split_linear``,
    and the refinement limits from the entries with p >= 1, which are never
    split off.  With a linear part L split off, its half-step flow P =
    exp((h/2) L) is applied exactly, as one callable per substep length
    from ``_half_flow``: through the rank-r
    sine factor of ``_sine_factor`` when L is Dirichlet ``c u_xx``, otherwise
    as ``v @ p_t`` with the dense ``p_t`` = P^T built by ``expm``.  RK4
    integrates the remaining terms f, compiled once into ``plan``; without a
    split P is the identity and the step is classical RK4.

    ``dt`` is the stability bound of the explicitly integrated terms, which
    holds where |u| <= 1.  A state whose largest magnitude s exceeds 1
    divides the bound of each entry by s^p, and ``_substep`` cuts the
    substep for that state into 2^r equal pieces.  ``advance`` integrates a
    batch over a horizon and ``check_substeps`` refuses a horizon too long
    for ``dt``.
    """

    def __init__(self, model: Model):
        self.model = model
        fold = fold_terms(model.dictionary)
        bounds = _term_bounds(fold, model.grid.spacing)
        explicit, linear, self.dt = _split_linear(model, fold, bounds)
        self.plan = RhsPlan(explicit, model.grid, model.dirichlet)
        # the bounds that a state with |u| > 1 shortens: those with p >= 1
        self._limits = np.array([b for b, p, _ in bounds if p >= 1])
        self._powers = np.array([p for _, p, _ in bounds if p >= 1])
        self._sine_rates = None  # the eigenvalues of L in its sine modes, or
        self._generator = None   # L as a dense matrix
        if model.dirichlet and linear.keys() == {2}:
            n = model.grid.num_points
            # the odd-reflection D2 stencil on the interior nodes is S diag(lam) S
            # with S_jk = sqrt(2 / (N - 1)) sin(j k pi / (N - 1)), j, k = 1..N-2;
            # lam falls with k, so the modes a step keeps are the leading ones
            k = np.arange(1, n - 1)
            lam = -(4.0 / model.grid.spacing**2) * np.sin(k * np.pi / (2 * (n - 1))) ** 2
            self._sine_rates = linear[2] * lam
        elif linear:
            # the same entries as diff_values, so L u is the split-off terms
            gen = stencil_operator(model.grid.num_points, model.grid.spacing, linear,
                                   model.dirichlet).matrix()
            if model.dirichlet:
                gen[[0, -1]] = 0.0
            self._generator = gen
        self._flows: dict = {}

    def _sine_factor(self, h: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(A_r, e_r)`` with ``P ~= A_r diag(e_r) A_r^T`` for the substep
        ``h``: the half-step factors ``e_r = exp((h/2) lam_k)`` that are at
        least SINE_FLOOR, those of the r leading sine modes, and the modes'
        columns of S zero-padded to N rows, as a contiguous ``(N, r)`` array."""
        n = self.model.grid.num_points
        decay = np.exp((0.5 * h) * self._sine_rates)
        r = int(np.count_nonzero(decay >= SINE_FLOOR))
        j = np.arange(1, n - 1)
        # j k is reduced mod 2 (N - 1) so that sin sees an argument below 2 pi
        phase = np.outer(j, j[:r]) % (2 * (n - 1)) * (np.pi / (n - 1))
        a = np.zeros((n, r))
        a[1:-1] = np.sqrt(2.0 / (n - 1)) * np.sin(phase)
        return a, decay[:r]

    def _half_flow(self, h: float) -> Callable[[np.ndarray], np.ndarray]:
        """The half-step flow ``v -> P v`` on the rows of ``v`` for the
        substep ``h``, built once per length; the identity without a split."""
        if h not in self._flows:
            if self._sine_rates is not None:
                a, e = self._sine_factor(h)
                # diag(e_r) A_r^T as one contiguous (r, N) array
                ea_t = np.ascontiguousarray(e[:, None] * a.T)
                self._flows[h] = lambda v: (v @ a) @ ea_t
            elif self._generator is not None:
                p_t = np.ascontiguousarray(expm((0.5 * h) * self._generator).T)
                self._flows[h] = lambda v: v @ p_t
            else:
                self._flows[h] = lambda v: v
        return self._flows[h]

    def step(self, u: np.ndarray, h: float) -> np.ndarray:
        """One Lawson RK4 substep of length ``h``:
        ``P(w + h/6 (P k1 + 2 k2 + 2 k3)) + h/6 k4`` with ``w = P u``.

        The stages are built in place, each IEEE operation on the operands of
        the textbook formula (only the operands of ``+`` and ``*`` swap
        sides), so the result rounds as the formula does.  ``u`` is never
        written to: without a split, ``w`` is ``u`` itself.
        """
        flow = self._half_flow(h)
        half, sixth = 0.5 * h, h / 6.0
        w = flow(u)
        k1 = rhs_values(self.plan, u)
        pk1 = flow(k1)
        y = pk1 * half
        y += w
        k2 = rhs_values(self.plan, y)
        y = k2 * half
        y += w
        k3 = rhs_values(self.plan, y)
        y = k3 * h
        y += w
        k4 = rhs_values(self.plan, flow(y))
        # k2 is free after this stage: it takes the sum
        k2 += k3
        k2 *= 2.0
        k2 += pk1
        k2 *= sixth
        k2 += w
        u = flow(k2)
        k4 *= sixth
        u += k4
        if self.model.dirichlet:
            u[..., 0] = 0.0
            u[..., -1] = 0.0
        return u

    def _refinements(self, u: np.ndarray, h: float) -> Optional[np.ndarray]:
        """Per state (row of ``u``), the least r >= 0 with ``h / 2^r <= b /
        s^j`` for each explicit term's bound b and power j, where s is the
        state's largest magnitude, at least 1; r is capped at MAX_REFINE.
        None when every r is 0."""
        if not self._limits.size:
            return None
        s = np.abs(u).max(axis=-1)
        if s.max() <= 1.0:
            return None
        ratio = h * np.max(np.maximum(s, 1.0)[:, None] ** self._powers / self._limits, axis=-1)
        if ratio.max() <= 1.0:
            return None
        return np.clip(np.ceil(np.log2(ratio)), 0, MAX_REFINE).astype(int)

    def _substep(self, u: np.ndarray, h: float) -> np.ndarray:
        """Advance ``(m, N)`` states by ``h``, each in 2^r substeps of length
        ``h / 2^r`` with r from ``_refinements``.  States with the same r are
        stepped together, so each row's result does not depend on the others."""
        refine = self._refinements(u, h)
        if refine is None:
            return self.step(u, h)
        out = np.empty_like(u)
        for r in np.unique(refine):
            rows = refine == r
            v = u[rows]
            for _ in range(2**r):
                v = self.step(v, h / 2**r)
            out[rows] = v
        return out

    def check_substeps(self, total_time: float) -> None:
        """Refuse, with InvalidInputError, an integration over ``total_time``
        that needs more than MAX_SUBSTEPS substeps of ``dt`` before
        refinement.  A substep at or below MIN_SUBSTEP is left to
        ``advance``, which refuses it."""
        count = np.ceil(total_time / self.dt)
        if self.dt > MIN_SUBSTEP and count > MAX_SUBSTEPS:
            raise InvalidInputError(
                f"model '{self.model.name}' would take {count:.15g} substeps of {self.dt:.4g}, "
                f"more than {MAX_SUBSTEPS}; shorten the sampling time, the burn-in or the pairs "
                "per trajectory"
            )

    def advance(self, states: np.ndarray, horizon: float, t0: float = 0.0) -> np.ndarray:
        """Advance batched states (last axis = space) by ``horizon`` in
        substeps of ``dt`` and one shorter last substep for the remainder.

        A substep at or below ``MIN_SUBSTEP``, or on a Dirichlet model a
        state that does not vanish at both boundaries, raises
        PreconditionError before the first step.  A state with a non-finite
        entry raises BlowUpError, naming its row of an ``(m, N)`` batch (the
        trajectory) and the time ``t0`` plus the time advanced.
        """
        model, dt = self.model, self.dt
        if dt <= MIN_SUBSTEP:
            raise PreconditionError(
                f"stable substep {dt:.4g} of model '{model.name}' is at or below "
                f"{MIN_SUBSTEP:g}; coarsen the grid or reduce the derivative coefficients"
            )
        shape = np.shape(states)
        u = np.array(states, dtype=float, copy=True).reshape(-1, shape[-1])
        if model.dirichlet and (np.any(u[:, 0] != 0.0) or np.any(u[:, -1] != 0.0)):
            raise PreconditionError(
                f"Dirichlet model '{model.name}' requires initial conditions vanishing at the boundaries"
            )
        n_full = int(horizon / dt)
        rem = horizon - n_full * dt
        t = 0.0
        # a state that overflows is reported by the BlowUpError below, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_full + 1):
                step = dt if i < n_full else rem
                if step <= MIN_SUBSTEP:
                    break
                u = self._substep(u, step)
                t += step
                if not np.isfinite(u).all():
                    row = int(np.argmin(np.isfinite(u).all(axis=-1)))
                    trajectory = row if len(shape) > 1 else None
                    which = "" if trajectory is None else f"trajectory {trajectory} of "
                    raise BlowUpError(
                        f"{which}model '{model.name}' blew up at t = {t0 + t:.6g}",
                        time=t0 + t,
                        trajectory=trajectory,
                    )
        return u.reshape(shape)


def integrate(model: Model, values, horizon: float) -> np.ndarray:
    """Flow one state (N node values) or an ``(m, N)`` batch of states
    forward by ``horizon``; the result has the shape of ``values``.  A
    horizon that is not finite or is at or below MIN_SUBSTEP, or that needs
    more than MAX_SUBSTEPS substeps, raises InvalidInputError."""
    horizon = _check_time("horizon", horizon)
    v = grid_values(model.grid, values, False, (1, 2))
    stepper = _LawsonRK4(model)
    stepper.check_substeps(horizon)
    return stepper.advance(v, horizon)


def generate_pairs(
    model: Model,
    family: ICFamily,
    num_trajectories: int,
    total_pairs: int,
    t_s: float,
    seed: int,
    burn_in: float = 0.0,
) -> SnapshotDataset:
    """Simulate ``num_trajectories`` randomized runs and collect ``total_pairs``
    consecutive snapshot pairs from each trajectory, starting at t = burn_in.

    A positive ``burn_in`` lets fast transients decay before the first
    snapshot is recorded, which keeps the fitted one-step operator away from
    the logarithm branch cut for stiff models.  Pair quotas are distributed
    round-robin when ``total_pairs`` is not divisible by
    ``num_trajectories``; the dataset order is trajectory-major.  A negative
    seed, a sampling time or nonzero burn-in that is not finite or is at
    or below MIN_SUBSTEP, or a burn-in plus pairs per trajectory that need
    more than MAX_SUBSTEPS substeps raise InvalidInputError, and on a
    Dirichlet model starts that do not vanish at the boundaries raise
    PreconditionError, both before any integration.
    """
    return next(_pair_datasets(
        model, family, num_trajectories, total_pairs, (t_s,), seed, burn_in
    ))


def _pair_datasets(
    model: Model,
    family: ICFamily,
    num_trajectories: int,
    total_pairs: int,
    ts_list: Sequence[float],
    seed: int,
    burn_in: float,
) -> Iterator[SnapshotDataset]:
    """Yield the ``generate_pairs`` dataset of each sampling time in ``ts_list``.

    The initial conditions and the burn-in are computed once and shared, so
    each dataset is bit-identical to a separate ``generate_pairs`` call.
    """
    num_trajectories = require_int("num_trajectories", num_trajectories, 1)
    total_pairs = require_int("total_pairs", total_pairs, 1)
    seed = require_int("seed", seed, 0)
    ts_list = [_check_time("sampling time", t_s) for t_s in ts_list]
    # False == 0 would skip the time rule: refuse it as every real field does
    burn_in = require_real("burn-in (0 for none)", burn_in)
    if burn_in != 0:
        burn_in = _check_time("burn-in (0 for none)", burn_in)

    base, rem = divmod(total_pairs, num_trajectories)
    quotas = [base + (1 if i < rem else 0) for i in range(num_trajectories)]
    max_quota = max(quotas)
    if min(quotas) == 0:
        raise InvalidInputError(
            f"{total_pairs} pairs over {num_trajectories} trajectories leaves idle trajectories"
        )

    rng = np.random.default_rng(seed)
    params = [tuple(rng.random(2)) for _ in range(num_trajectories)]
    start = np.stack(
        [sample_initial_condition(family, model.grid, a, b) for a, b in params]
    )
    stepper = _LawsonRK4(model)
    stepper.check_substeps(burn_in + max_quota * sum(ts_list))
    if burn_in > 0:
        start = stepper.advance(start, burn_in)

    quotas_arr = np.asarray(quotas)
    # pair k spans segment pair_seg[k] of trajectory pair_traj[k], trajectory-major
    pair_traj = np.repeat(np.arange(num_trajectories), quotas)
    pair_seg = np.concatenate([np.arange(q) for q in quotas])
    for t_s in ts_list:
        states = start
        snapshots = [states]
        for seg in range(max_quota):
            # trajectories whose quota is filled no longer need stepping
            states = np.where(quotas_arr[:, None] > seg, states, 0.0)
            states = stepper.advance(states, t_s, t0=burn_in + seg * t_s)
            snapshots.append(states)
        snapshots = np.stack(snapshots)

        provenance = {
            "model": model.name,
            "family": family.value,
            "seed": seed,
            "trajectories": num_trajectories,
            "pairs": total_pairs,
            "burn_in": burn_in,
        }
        yield SnapshotDataset(
            model.grid, t_s,
            snapshots[pair_seg, pair_traj], snapshots[pair_seg + 1, pair_traj],
            dirichlet=model.dirichlet, provenance=provenance,
        )


# ---------------------------------------------------------------------------
# Built-in experiment models

def burgers_model(num_points: int = DEFAULT_GRID_POINTS) -> Model:
    """Viscous Burgers flow on [-1, 1] with homogeneous Dirichlet conditions."""
    grid = Grid1D(-1.0, 1.0, num_points)
    dic = Dictionary(
        terms=(MonomialDerivative(1, 1), MonomialDerivative(0, 2)),
        coefficients=(-1.0, 1.0),
    )
    return Model("burgers", dic, grid, dirichlet=True)


def pde1_model(num_points: int = 64) -> Model:
    """Third-order nonlinear benchmark PDE on [0, 5], Dirichlet conditions.

    The 12-term monomial-derivative dictionary (identity first) carries the
    true coefficients; inactive terms have coefficient 0.  The default grid is
    coarser than the package-wide default because the state-dependent
    diffusion coefficient 1 - 0.2 u turns negative where u > 5, and the
    resulting backward-heat growth rate scales like 1/h^2.  At the default
    burn-in, 64 and 128 nodes agree with a quarter substep to about 4e-8
    and 6e-8 relative; on 256 nodes the integration blows up near t = 0.022 and on
    512 near t = 0.005.
    """
    grid = Grid1D(0.0, 5.0, num_points)
    dic = Dictionary(terms=pde1_terms(), coefficients=(
        -2.0, 0.0, 0.0, -0.5, -0.5, 0.0, 1.0, -0.2, 0.0, 0.1, 0.0, 0.0
    ))
    return Model("pde1", dic, grid, dirichlet=True)


def pde1_terms() -> Tuple:
    """The 12 candidate terms u^j d^k u/dx^k, j in 0..2, k in 0..3, grouped by
    k with the identity moved to the front of the k = 0 group."""
    terms = [MonomialDerivative(1, 0), MonomialDerivative(0, 0), MonomialDerivative(2, 0)]
    for k in (1, 2, 3):
        for j in (0, 1, 2):
            terms.append(MonomialDerivative(j, k))
    return tuple(terms)


def graphon_model(num_points: int = DEFAULT_GRID_POINTS) -> Model:
    """Cubic local reaction plus affine-graphon diffusion on [0, 1].

    The coupling kernels f = 1, x, y combine into the graphon
    G(x, y) = 1 - 0.7x - 0.3y, which maps the unit square onto [0, 1], so
    the coupling int G(x, y) (u(y) - u(x)) dy is diffusive.
    """
    grid = Grid1D(0.0, 1.0, num_points)
    dic = Dictionary(terms=graphon_terms(), coefficients=(
        0.0, -0.5, 1.5, -1.0, 1.0, -0.7, -0.3
    ))
    return Model("graphon", dic, grid, dirichlet=False)


def graphon_terms() -> Tuple:
    """Candidate terms 1, u, u^2, u^3 and graphon couplings f = 1, x, y."""
    return (
        MonomialDerivative(0, 0),
        MonomialDerivative(1, 0),
        MonomialDerivative(2, 0),
        MonomialDerivative(3, 0),
        GraphonKernel(1.0, 0.0, 0.0),
        GraphonKernel(0.0, 1.0, 0.0),
        GraphonKernel(0.0, 0.0, 1.0),
    )


BUILTIN_MODELS = {
    "burgers": burgers_model,
    "pde1": pde1_model,
    "graphon": graphon_model,
}

#: default dataset parameters (pairs, trajectories, sampling time, IC family,
#: burn-in).  The third-order benchmark uses a burn-in so that its fast
#: transients decay before sampling; without it the fitted one-step operator
#: acquires negative real eigenvalues and the matrix logarithm fails.
EXPERIMENT_DEFAULTS = {
    "burgers": (50, 10, 0.2, ICFamily.BURGERS, 0.0),
    "pde1": (50, 25, 0.3, ICFamily.PDE1, 1.5),
    "graphon": (50, 25, 0.5, ICFamily.GRAPHON, 0.0),
}
