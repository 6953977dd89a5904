"""Exact solutions that the tests hold the simulator against."""

import numpy as np

from koopid.fields import trapezoid_weights
from koopid.observables import weight_values
from koopid.operators import GraphonKernel, MonomialDerivative, RhsPlan, rhs_values, term_values


def burgers_cole_hopf(u0, x, t, modes=64, fine=8193):
    """Viscous Burgers ``u_t = -u u_x + u_xx`` on [-1, 1] with ``u(+-1) = 0``,
    at time ``t`` and points ``x``, from the start ``u0`` (a callable of the
    points, which may return a batch of rows).

    Cole-Hopf: ``phi = exp(-1/2 int_{-1}^x u)`` solves the heat equation with
    Neumann ends, so ``phi(x, t) = sum_k a_k cos(k pi (x + 1) / 2)
    exp(-(k pi / 2)^2 t)`` and ``u = -2 phi_x / phi`` (Hopf, CPAM 3, 1950;
    Cole, Q. Appl. Math. 9, 1951).  The integral and the ``a_k`` are
    trapezoid sums on ``fine`` points; the ``a_k`` integrands have zero slope
    at both ends, so the sums converge fast.  At t >= 0.2 the first 64 modes
    agree with 128 modes on 32769 points to 7e-9.
    """
    s = np.linspace(-1.0, 1.0, fine)
    wave = np.arange(modes) * np.pi / 2.0
    a = _phi(u0(s), s) @ (_trapezoid(s)[:, None] * np.cos(wave * (s[:, None] + 1.0)))
    a[..., 0] *= 0.5  # the constant mode has norm 2, the cosines norm 1
    a *= np.exp(-wave**2 * t)
    phase = wave * (np.asarray(x)[:, None] + 1.0)
    return 2.0 * ((a * wave) @ np.sin(phase).T) / (a @ np.cos(phase).T)


def burgers_eigenfunctional(u, x, k):
    """The Koopman eigenfunctional ``psi_k(u) = int phi cos(k pi (x + 1) / 2)
    dx / int phi dx`` of the viscous Burgers flow of :func:`burgers_cole_hopf`,
    with ``phi = exp(-1/2 int_{-1}^x u)``, for each row of ``u`` on the
    uniform nodes ``x`` of [-1, 1] (trapezoid sums).

    The cosine coefficients of the heat solution ``phi`` decay by
    ``exp(-(k pi / 2)^2 t)`` and the constant one not at all; their ratio
    leaves out the arbitrary scale of ``phi``.  So ``psi_k`` has the eigenvalue
    ``-(k pi / 2)^2``, and a product of them the sum of theirs (Page &
    Kerswell, Phys. Rev. Fluids 3, 071901, 2018).
    """
    phi = _phi(u, x)
    q = _trapezoid(x)
    return (phi * np.cos(k * np.pi * (x + 1.0) / 2.0)) @ q / (phi @ q)


def _phi(v, x):
    """``exp(-1/2 int_{-1}^x u)`` on the uniform nodes ``x``, for each row of
    node values ``v``, by cumulative trapezoid sums."""
    h = x[1] - x[0]
    primitive = np.concatenate(
        (np.zeros(v.shape[:-1] + (1,)), np.cumsum(0.5 * h * (v[..., 1:] + v[..., :-1]), axis=-1)),
        axis=-1)
    return np.exp(-0.5 * primitive)


def _trapezoid(x):
    """The trapezoid weights of the uniform nodes ``x``."""
    q = np.full(len(x), x[1] - x[0])
    q[0] = q[-1] = 0.5 * q[0]
    return q


def lawson_rk4_step(flow, rhs, u, h):
    """One Lawson (integrating-factor) RK4 step of length ``h`` for ``u' = L u
    + f(u)``, from the half-step flow ``flow`` (``v -> P v`` with ``P =
    exp((h/2) L)``) and the right-hand side ``rhs`` (f), written as the
    textbook formula (Hochbruck & Ostermann, Acta Numerica 19, 2010)::

        w = P u,  k1 = f(u),  k2 = f(w + h/2 P k1),  k3 = f(w + h/2 k2),
        k4 = f(P (w + h k3)),  u1 = P (w + h/6 (P k1 + 2 k2 + 2 k3)) + h/6 k4

    ``2 k2 + 2 k3`` is summed as ``2 (k2 + k3)``, which rounds the same, since
    doubling is exact.
    """
    w = flow(u)
    pk1 = flow(rhs(u))
    k2 = rhs(w + (h / 2.0) * pk1)
    k3 = rhs(w + (h / 2.0) * k2)
    k4 = rhs(flow(w + h * k3))
    return flow(w + (h / 6.0) * (pk1 + 2.0 * (k2 + k3))) + (h / 6.0) * k4


def lifted_time_derivative(model, dictionary, weight, u):
    """The exact time derivative of the lifted basis ``xi_i(u) = <W_i(u), w>``
    along the flow of ``model``, one row per row of ``u`` and one column per
    term of ``dictionary``: the rows of Xi-dot in the Galerkin generator
    ``pinv(Xi1) Xi-dot`` of gEDMD (Klus et al., Physica D 406, 2020).

    With ``f`` the model's whole right-hand side at ``u``, a term ``u^j d^k u``
    gives ``<j u^(j-1) (d^k u) f + u^j d^k f, w>`` (``<j u^(j-1) f, w>`` for
    ``u^j``), a graphon term, which is linear, ``<W(f), w>``, and the constant
    0.  The difference stencils are linear in the state, so these are exact
    for the discrete functionals; on Dirichlet data the boundary entries are
    zeroed, as ``term_values`` zeroes them.
    """
    grid, dirichlet = model.grid, model.dirichlet

    def monomial(j, k, v):
        return term_values(MonomialDerivative(j, k), v, grid, dirichlet)

    f = rhs_values(RhsPlan(model.dictionary, grid, dirichlet), u)
    qw = trapezoid_weights(grid) * weight_values(weight, grid)
    columns = []
    for term in dictionary.terms:
        if isinstance(term, GraphonKernel):
            dot = term_values(term, f, grid, dirichlet)
        elif term.k == 0:
            dot = term.j * monomial(term.j - 1, 0, u) * f if term.j else np.zeros_like(u)
        else:
            j, k = term.j, term.k
            dot = monomial(j, 0, u) * monomial(0, k, f)
            if j:
                dot += j * monomial(j - 1, 0, u) * monomial(0, k, u) * f
        if dirichlet:
            dot[..., [0, -1]] = 0.0
        columns.append(dot @ qw)
    return np.stack(columns, axis=-1)
