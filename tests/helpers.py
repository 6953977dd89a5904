"""Shared non-fixture helpers for the test suite."""

import numpy as np

import koopid
from koopid.simulate import _advance, stable_substep


def sine_mode(grid: koopid.Grid1D, k: int) -> np.ndarray:
    """The k-th Dirichlet sine mode on the grid, endpoints exactly zero."""
    x = grid.nodes()
    span = grid.x_max - grid.x_min
    v = np.sin(k * np.pi * (x - grid.x_min) / span)
    v[0] = 0.0
    v[-1] = 0.0
    return v


def dirichlet_field(grid: koopid.Grid1D, values: np.ndarray) -> koopid.Field:
    v = np.array(values, dtype=float)
    v[0] = 0.0
    v[-1] = 0.0
    return koopid.Field(grid, v, dirichlet=True)


def heat_pairs(model: koopid.Model, states: np.ndarray, ts: float) -> koopid.SnapshotDataset:
    """Pairs (s0, s1) and (s1, s2) of each state, in state order, where s1 and
    s2 are the state advanced by one and two sampling times."""
    dt = stable_substep(model)
    s1 = _advance(model, states, ts, dt)
    s2 = _advance(model, s1, ts, dt)
    n = model.grid.num_points
    u = np.stack([states, s1], axis=1).reshape(-1, n)
    u_next = np.stack([s1, s2], axis=1).reshape(-1, n)
    return koopid.SnapshotDataset(model.grid, ts, u, u_next, dirichlet=model.dirichlet)
