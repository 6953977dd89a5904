"""Shared non-fixture helpers for the test suite."""

import os
import tempfile

import numpy as np

import koopid
from koopid import fileio


def heat_model(num_points: int = 256) -> koopid.Model:
    """Linear diffusion ``u_t = u_xx`` on [-1, 1] with homogeneous Dirichlet
    conditions."""
    dic = koopid.Dictionary((koopid.MonomialDerivative(0, 2),), coefficients=(1.0,))
    return koopid.Model("heat", dic, koopid.Grid1D(-1.0, 1.0, num_points), dirichlet=True)


def sine_mode(grid: koopid.Grid1D, k: int) -> np.ndarray:
    """The k-th Dirichlet sine mode on the grid, endpoints exactly zero."""
    x = grid.nodes()
    span = grid.x_max - grid.x_min
    v = np.sin(k * np.pi * (x - grid.x_min) / span)
    v[0] = 0.0
    v[-1] = 0.0
    return v


def heat_pairs(model: koopid.Model, states: np.ndarray, ts: float) -> koopid.SnapshotDataset:
    """Pairs (s0, s1) and (s1, s2) of each state, in state order, where s1 and
    s2 are the state advanced by one and two sampling times."""
    s1 = koopid.integrate(model, states, ts)
    s2 = koopid.integrate(model, s1, ts)
    n = model.grid.num_points
    u = np.stack([states, s1], axis=1).reshape(-1, n)
    u_next = np.stack([s1, s2], axis=1).reshape(-1, n)
    return koopid.SnapshotDataset(model.grid, ts, u, u_next, dirichlet=model.dirichlet)


def read_dataset_text(text: str) -> koopid.SnapshotDataset:
    """``fileio.read_dataset`` of a UTF-8 file that holds ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dataset.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return fileio.read_dataset(path)
