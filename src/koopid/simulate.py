"""Method-of-lines time integration and snapshot-pair dataset generation.

Dynamics are integrated with fixed-substep RK4 in integrating-factor (Lawson)
form.  On a homogeneous-Dirichlet model whose linear diffusion term
``c u_xx`` (c > 0) sets the explicit stability limit, that term is split off
and integrated exactly: the odd-reflection stencil is diagonal in the sine
basis, with eigenvalues ``-(4 / h^2) sin^2(k pi / (2 (N - 1)))``, and its flow
is applied through an FFT of the odd extension.  RK4 integrates the remaining
terms at the fixed substep

    dt = min(h / D1, 0.25 * h^2 / D2, 0.25 * h^3 / D3, 1e-2)

where Dk is the largest coefficient magnitude of the explicitly integrated
k-th derivative terms ``c u^j d^k u / dx^k`` (absent terms are skipped).
For the centred stencils the k = 1 and k = 2 bounds keep about 35% of RK4's
stability limit (2 sqrt(2) h / D1 on the imaginary axis, about 0.70 h^2 / D2
on the real axis) and the k = 3 bound about 23%; the 1e-2 cap is an
accuracy bound where no derivative term limits the step (graphon, heat).
Without a split the step is classical RK4.  Under homogeneous Dirichlet
conditions the boundary values are re-clamped to zero after every substep.

Each integration -- one ``integrate`` or ``generate_pairs`` call, or one
sweep over sampling times -- builds one stepper, which compiles the explicitly
integrated terms once into an :class:`~koopid.operators.RhsPlan` (stacked
sparse derivative matrices, a polynomial and a folded graphon kernel); every
RK4 stage then evaluates ``rhs_values(plan, values)`` on the whole batch.
Trajectories of a dataset are advanced together as one batched array; random
initial-condition parameters are drawn up front from a single seeded
generator, so datasets are bit-reproducible per seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import BlowUpError, InvalidInputError, PreconditionError, ShapeError
from .fields import Grid1D, grid_values
from .operators import (
    Constant,
    Dictionary,
    GraphonKernel,
    KernelSpec,
    MonomialDerivative,
    RhsPlan,
    rhs_values,
)

SAFETY = 0.25
DT_MAX = 1e-2
DEFAULT_GRID_POINTS = 256


@dataclass(frozen=True)
class Model:
    """Dictionary-defined dynamics on a grid."""

    name: str
    dictionary: Dictionary
    grid: Grid1D
    dirichlet: bool = False

    def __post_init__(self):
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

    Row k of ``u_next`` is row k of ``u`` advanced by the sampling time.  Both
    arrays are copied and must have the same shape, at least one row, a last
    axis of the grid's N nodes and finite values, zero at both boundaries
    when ``dirichlet`` is set; anything else raises ShapeError or
    InvalidInputError.
    """

    grid: Grid1D
    sampling_time: float
    u: np.ndarray = field(repr=False)
    u_next: np.ndarray = field(repr=False)
    dirichlet: bool = False
    provenance: Optional[dict] = field(default=None)

    def __post_init__(self):
        if not 0 < self.sampling_time < np.inf:
            raise InvalidInputError(
                f"sampling time must be positive and finite, got {self.sampling_time}"
            )
        u = grid_values(self.grid, self.u, self.dirichlet, (2,))
        u_next = grid_values(self.grid, self.u_next, self.dirichlet, (2,))
        if u.shape != u_next.shape:
            raise ShapeError(f"u has shape {u.shape} but u_next has shape {u_next.shape}")
        if len(u) < 1:
            raise InvalidInputError("dataset must contain at least one pair")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "u_next", u_next)

    def __len__(self) -> int:
        return len(self.u)


#: the linear diffusion term that the integrator can integrate exactly
DIFFUSION = MonomialDerivative(0, 2)


def _heuristic_substep(dictionary: Dictionary, h: float) -> float:
    dt = DT_MAX
    for term, c in zip(dictionary.terms, dictionary.coefficients):
        if isinstance(term, MonomialDerivative) and c != 0.0:
            if term.k == 1:
                # 35% of RK4's imaginary-axis limit 2 sqrt(2) h / |c| for the
                # centred stencil, the margin SAFETY keeps on the real axis
                dt = min(dt, h / abs(c))
            elif term.k == 2:
                dt = min(dt, SAFETY * h**2 / abs(c))
            elif term.k == 3:
                dt = min(dt, SAFETY * h**3 / abs(c))
    return dt


def _split_diffusion(model: Model) -> Tuple[Dictionary, float]:
    """The explicitly integrated terms, and the coefficient c of the ``c u_xx``
    term split off for exact integration (0.0 when nothing is split off).

    The split applies to Dirichlet models with c > 0, whose odd-reflection
    stencil the sine basis diagonalises, and only where that term sets the
    explicit substep; elsewhere the exact flow costs work and gains no step
    length.  The split-off term keeps its place with coefficient 0.
    """
    dic = model.dictionary
    c = dict(zip(dic.terms, dic.coefficients)).get(DIFFUSION, 0.0)
    if not model.dirichlet or c <= 0.0:
        return dic, 0.0
    explicit = Dictionary(dic.terms, tuple(
        0.0 if term == DIFFUSION else a for term, a in zip(dic.terms, dic.coefficients)
    ))
    h = model.grid.spacing
    if _heuristic_substep(explicit, h) <= _heuristic_substep(dic, h):
        return dic, 0.0
    return explicit, c


def stable_substep(model: Model) -> float:
    """Fixed RK4 substep from the advection/diffusion/dispersion stability
    heuristic, applied to the explicitly integrated terms.

    The bounds ignore the ``u^j`` factor of each term, so they assume
    ``|u|^j`` of order 1 or less; a state that breaks this can exceed the
    stability limit and surfaces as a BlowUpError (CLI exit 2).
    """
    explicit, _ = _split_diffusion(model)
    return _heuristic_substep(explicit, model.grid.spacing)


def _dst1(values: np.ndarray) -> np.ndarray:
    """DST-I of Dirichlet node values along the last axis, scaled by -2.

    Taken as the FFT of the odd extension ``[v_0, ..., v_{N-1}, -v_{N-2},
    ..., -v_1]``; applied twice it returns the values times 2 (N - 1).
    """
    odd = np.concatenate([values, -values[..., -2:0:-1]], axis=-1)
    return np.fft.rfft(odd).imag


def _sine_flow(values: np.ndarray, factor: Optional[np.ndarray]) -> np.ndarray:
    """Scale the sine coefficients of Dirichlet node values by ``factor``;
    ``None`` leaves the values unchanged.  The boundary values of the result
    are set to exactly zero.
    """
    if factor is None:
        return values
    out = _dst1(_dst1(values) * factor) / (2.0 * (values.shape[-1] - 1))
    out[..., 0] = 0.0
    out[..., -1] = 0.0
    return out


class _LawsonRK4:
    """Fixed-step RK4 for one model in integrating-factor (Lawson) form.

    With ``c u_xx`` split off, its half-step flow P = exp((h/2) c D2) is
    applied exactly in the sine basis and RK4 integrates the remaining terms
    f, compiled once into ``plan``; without a split P is the identity and the
    step is classical RK4.
    """

    def __init__(self, model: Model):
        self.model = model
        explicit, c = _split_diffusion(model)
        self.plan = RhsPlan(explicit, model.grid, model.dirichlet, skip_zero=True)
        self._rates = None
        if c:
            n = model.grid.num_points
            # eigenvalues of the odd-reflection D2 stencil on the sine modes
            k = np.arange(n)
            lam = -(4.0 / model.grid.spacing**2) * np.sin(k * np.pi / (2 * (n - 1))) ** 2
            self._rates = c * lam
        self._factors: dict = {}

    def _half_flow_factor(self, h: float) -> Optional[np.ndarray]:
        if self._rates is None:
            return None
        if h not in self._factors:
            self._factors[h] = np.exp((0.5 * h) * self._rates)
        return self._factors[h]

    def _f(self, v: np.ndarray) -> np.ndarray:
        return rhs_values(self.plan, v)

    def step(self, u: np.ndarray, h: float) -> np.ndarray:
        factor = self._half_flow_factor(h)
        w = _sine_flow(u, factor)
        k1 = self._f(u)
        pk1 = _sine_flow(k1, factor)
        k2 = self._f(w + (0.5 * h) * pk1)
        k3 = self._f(w + (0.5 * h) * k2)
        k4 = self._f(_sine_flow(w + h * k3, factor))
        return _sine_flow(w + (h / 6.0) * (pk1 + 2.0 * (k2 + k3)), factor) + (h / 6.0) * k4


def _advance(
    model: Model,
    states: np.ndarray,
    horizon: float,
    dt: float,
    t0: float = 0.0,
    stepper: Optional[_LawsonRK4] = None,
) -> np.ndarray:
    """Advance batched states (last axis = space) by ``horizon`` at substep ``dt``.

    Calls that pass one ``stepper`` share its diffusion split, exact factors
    and right-hand-side plan.
    """
    if stepper is None:
        stepper = _LawsonRK4(model)
    u = np.array(states, dtype=float, copy=True)
    n_full = int(horizon / dt)
    rem = horizon - n_full * dt
    t = 0.0
    # a state that overflows is reported by the BlowUpError below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_full + 1):
            step = dt if i < n_full else rem
            if step <= 1e-15:
                break
            u = stepper.step(u, step)
            if model.dirichlet:
                u[..., 0] = 0.0
                u[..., -1] = 0.0
            t += step
            if not np.isfinite(np.sum(u)):
                bad = np.argwhere(~np.isfinite(u).all(axis=-1))
                raise BlowUpError(
                    f"non-finite state at t = {t0 + t:.6g} while integrating model "
                    f"'{model.name}'",
                    time=t0 + t,
                    trajectory=int(bad[0][0]) if u.ndim > 1 and bad.size else None,
                )
    return u


def integrate(model: Model, values, horizon: float) -> np.ndarray:
    """Flow one state (N node values) or an ``(m, N)`` batch of states
    forward by ``horizon``; the result has the shape of ``values``."""
    if not 0 < horizon < np.inf:
        raise InvalidInputError(f"horizon must be positive and finite, got {horizon}")
    v = grid_values(model.grid, values, False, (1, 2))
    if model.dirichlet and (np.any(v[..., 0] != 0.0) or np.any(v[..., -1] != 0.0)):
        raise PreconditionError("Dirichlet model requires an initial condition vanishing at the boundaries")
    return _advance(model, v, horizon, stable_substep(model))


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
    ``num_trajectories``; the dataset order is trajectory-major.
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
    if num_trajectories < 1 or total_pairs < 1:
        raise InvalidInputError("need at least one trajectory and one pair")
    for t_s in ts_list:
        if not 0 < t_s < np.inf:
            raise InvalidInputError(f"sampling time must be positive and finite, got {t_s}")
    if not 0 <= burn_in < np.inf:
        raise InvalidInputError(f"burn-in must be nonnegative and finite, got {burn_in}")

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
    dt = stable_substep(model)
    if burn_in > 0:
        try:
            start = _advance(model, start, burn_in, dt, stepper=stepper)
        except BlowUpError as exc:
            raise BlowUpError(
                f"trajectory {exc.trajectory} of model '{model.name}' blew up at "
                f"t = {exc.time:.6g} during burn-in",
                time=exc.time,
                trajectory=exc.trajectory,
            ) from None

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
            try:
                states = _advance(model, states, t_s, dt, t0=burn_in + seg * t_s, stepper=stepper)
            except BlowUpError as exc:
                raise BlowUpError(
                    f"trajectory {exc.trajectory} of model '{model.name}' blew up at "
                    f"t = {exc.time:.6g}",
                    time=exc.time,
                    trajectory=exc.trajectory,
                ) from None
            snapshots.append(states)
        snapshots = np.stack(snapshots)

        provenance = {
            "model": model.name,
            "family": family.value,
            "seed": int(seed),
            "trajectories": int(num_trajectories),
            "pairs": int(total_pairs),
            "burn_in": float(burn_in),
        }
        yield SnapshotDataset(
            model.grid, float(t_s),
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


def heat_model(x_min: float = -1.0, x_max: float = 1.0, num_points: int = DEFAULT_GRID_POINTS) -> Model:
    """Linear diffusion with homogeneous Dirichlet conditions."""
    grid = Grid1D(x_min, x_max, num_points)
    dic = Dictionary(terms=(MonomialDerivative(0, 2),), coefficients=(1.0,))
    return Model("heat", dic, grid, dirichlet=True)


def pde1_model(num_points: int = 64) -> Model:
    """Third-order nonlinear benchmark PDE on [0, 5], Dirichlet conditions.

    The 12-term monomial-derivative dictionary (identity first) carries the
    true coefficients; inactive terms have coefficient 0.  The default grid is
    coarser than the package-wide default because the state-dependent
    diffusion coefficient 1 - 0.2 u turns negative where u > 5, and the
    resulting backward-heat growth rate scales like 1/h^2: fine grids amplify
    mesh-scale modes beyond floating-point range before the transient decays.
    """
    grid = Grid1D(0.0, 5.0, num_points)
    dic = Dictionary(terms=pde1_terms(), coefficients=(
        -2.0, 0.0, 0.0, -0.5, -0.5, 0.0, 1.0, -0.2, 0.0, 0.1, 0.0, 0.0
    ))
    return Model("pde1", dic, grid, dirichlet=True)


def pde1_terms() -> Tuple:
    """The 12 candidate terms u^j d^k u/dx^k, j in 0..2, k in 0..3, grouped by
    k with the identity moved to the front of the k = 0 group."""
    terms = [MonomialDerivative(1, 0), Constant(), MonomialDerivative(2, 0)]
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
        Constant(),
        MonomialDerivative(1, 0),
        MonomialDerivative(2, 0),
        MonomialDerivative(3, 0),
        GraphonKernel(KernelSpec.one()),
        GraphonKernel(KernelSpec.coord_x()),
        GraphonKernel(KernelSpec.coord_y()),
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
