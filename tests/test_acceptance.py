"""Acceptance suite: one pass/fail line per criterion, frozen tolerances.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (bypassing
pytest's capture so the verdicts always appear) and then asserts, so a failed
criterion is also a failed test.
"""

import time

import numpy as np
import pytest

import koopid
from koopid import (
    Dictionary,
    ICFamily,
    MonomialDerivative,
    PowerLaw,
    SnapshotDataset,
    build_data_matrices,
    direct_identify,
    edmd_fit,
    generate_pairs,
    lifting_identify,
    spectrum,
    true_coefficients,
    ts_convergence_study,
)
from koopid.cli import EXIT_OK, main
from koopid.simulate import EXPERIMENT_DEFAULTS, _LawsonRK4
from helpers import heat_model, sine_mode


def verdict(capfd, num, name, ok, detail):
    with capfd.disabled():
        print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def pde1_setup():
    """Shared artifacts for criteria 2, 3 and 5."""
    model = koopid.pde1_model()
    candidates = Dictionary(model.dictionary.terms)
    truth = true_coefficients(model, candidates)
    weight = koopid.Bump(5.0, recentered=True)
    burn = EXPERIMENT_DEFAULTS["pde1"][4]
    return model, candidates, truth, weight, burn


def test_criterion_1_burgers_spectrum(tmp_path, capfd):
    # simulate -> spectrum pipeline; targets -alpha (pi/2)^2 for alpha = 1..3
    # must appear among the 10 lowest-residual eigenvalues within 10% relative
    t0 = time.perf_counter()
    data = tmp_path / "burgers.json"
    assert main([
        "simulate", "--model", "burgers", "--pairs", "50", "--trajectories", "10",
        "--ts", "0.2", "--seed", "1", "--out", str(data),
    ]) == EXIT_OK
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--data", str(data), "--basis", "burgers:1",
                 "--out", str(out)]) == EXIT_OK
    rows = out.read_text().strip().split("\n")[1:11]  # 10 lowest-residual modes
    found = [float(r.split(",")[0]) for r in rows if r.split(",")[0] != ""]
    targets = [-alpha * (np.pi / 2) ** 2 for alpha in (1, 2, 3)]
    misses = [t for t in targets
              if not any(abs(f - t) <= 0.10 * abs(t) for f in found)]
    elapsed = time.perf_counter() - t0
    ok = not misses and elapsed < 60.0
    verdict(capfd, 1, "Burgers Koopman spectrum", ok,
            f"targets {np.round(targets, 3).tolist()} vs top-10 real parts "
            f"{np.round(sorted(found, reverse=True), 3).tolist()}; {elapsed:.1f}s")


def test_criterion_2_pde_recovery(pde1_setup, capfd):
    model, candidates, truth, weight, burn = pde1_setup
    t0 = time.perf_counter()
    ds_a = generate_pairs(model, ICFamily.PDE1, 25, 50, 0.3, seed=1, burn_in=burn)
    err_a = float(np.max(np.abs(
        lifting_identify(ds_a, candidates, weight).estimates - truth)))
    ds_b = generate_pairs(model, ICFamily.PDE1, 25, 50, 0.05, seed=1, burn_in=burn)
    err_b = float(np.max(np.abs(
        lifting_identify(ds_b, candidates, weight).estimates - truth)))
    elapsed = time.perf_counter() - t0
    ok = err_a <= 0.1 and err_b <= 0.02 and elapsed < 120.0
    verdict(capfd, 2, "PDE coefficient recovery", ok,
            f"max error {err_a:.4f} at ts=0.3 (<=0.1), {err_b:.4f} at ts=0.05 "
            f"(<=0.02); {elapsed:.1f}s")


def test_criterion_3_lifting_beats_direct(pde1_setup, capfd):
    model, candidates, truth, weight, burn = pde1_setup
    ds = generate_pairs(model, ICFamily.PDE1, 25, 50, 0.3, seed=1, burn_in=burn)
    err_lift = float(np.max(np.abs(
        lifting_identify(ds, candidates, weight).estimates - truth)))
    err_direct = float(np.max(np.abs(
        direct_identify(ds, candidates, weight).estimates - truth)))
    ok = err_lift < err_direct
    verdict(capfd, 3, "lifting beats direct", ok,
            f"lifting {err_lift:.4f} < direct {err_direct:.4f}")


def test_criterion_4_graphon_recovery(capfd):
    t0 = time.perf_counter()
    model = koopid.graphon_model()
    candidates = Dictionary(model.dictionary.terms)
    truth = true_coefficients(model, candidates)
    ds = generate_pairs(model, ICFamily.GRAPHON, 25, 50, 0.5, seed=1)
    result = lifting_identify(ds, candidates, koopid.PowerLaw(2))
    err = float(np.max(np.abs(result.estimates - truth)))
    elapsed = time.perf_counter() - t0
    ok = err <= 0.05 and elapsed < 60.0
    verdict(capfd, 4, "graphon recovery", ok,
            f"max error {err:.4f} (<=0.05) at ts=0.5, m=50; {elapsed:.1f}s")


def test_criterion_5_sampling_time_convergence(pde1_setup, capfd):
    model, candidates, _, weight, burn = pde1_setup
    report = ts_convergence_study(
        model, candidates, weight, [0.3, 0.15, 0.075, 0.0375],
        ICFamily.PDE1, 25, 50, seed=1, burn_in=burn,
    )
    first, last = report.errors[0].max(), report.errors[-1].max()
    ok = last < first
    verdict(capfd, 5, "sampling-time convergence trend", ok,
            f"max error {first:.4f} at ts=0.3 -> {last:.5f} at ts=0.0375")


def _heat_pairs(model, states, ts):
    stepper = _LawsonRK4(model)
    states = np.array(states)
    states[:, 0] = 0.0
    states[:, -1] = 0.0
    s1 = stepper.advance(states, ts)
    s2 = stepper.advance(s1, ts)
    # pairs (states_i, s1_i) and (s1_i, s2_i), state by state
    u = np.stack([states, s1], axis=1).reshape(-1, states.shape[1])
    u_next = np.stack([s1, s2], axis=1).reshape(-1, states.shape[1])
    return SnapshotDataset(model.grid, ts, u, u_next, dirichlet=True)


def test_criterion_6_linear_system_oracle(capfd):
    model = heat_model()
    # spectrum half: sine functionals k = 1..4 are Koopman eigenfunctionals
    # with generator eigenvalues -(k pi / 2)^2
    rng = np.random.default_rng(0)
    states = np.stack([
        sum(rng.uniform(0.5, 1.5) * (-1) ** rng.integers(2) * sine_mode(model.grid, k)
            for k in (1, 2, 3, 4))
        for _ in range(6)
    ])
    ds = _heat_pairs(model, states, ts=0.05)
    basis = [koopid.InnerProductPower(k, k - 1, 1, 1) for k in (1, 2, 3, 4)]
    result = spectrum(edmd_fit(*build_data_matrices(ds, basis), ds.sampling_time))
    found = sorted(result.lambda_l.real[~np.isnan(result.lambda_l)])
    targets = sorted(-((k * np.pi / 2) ** 2) for k in (1, 2, 3, 4))
    lam_err = max(abs(f - t) / abs(t) for f, t in zip(found, targets))

    # identification half: states confined to sine modes 1 and 3 (exact
    # discrete Laplacian eigenvectors, both with nonzero constant-weight
    # moments) make the two-functional lift exactly invariant
    rng = np.random.default_rng(1)
    states = np.stack([
        rng.uniform(0.5, 1.5) * (-1) ** i * sine_mode(model.grid, 1)
        + rng.uniform(0.5, 1.5) * (-1) ** (i // 2) * sine_mode(model.grid, 3)
        for i in range(5)
    ])
    ds = _heat_pairs(model, states, ts=0.1)
    candidates = Dictionary((MonomialDerivative(1, 0), MonomialDerivative(0, 2)))
    estimates = lifting_identify(ds, candidates, PowerLaw(0)).estimates
    c_err = float(np.max(np.abs(estimates - np.array([0.0, 1.0]))))

    ok = lam_err <= 0.01 and c_err <= 1e-3
    verdict(capfd, 6, "linear-system oracle suite", ok,
            f"eigenvalue rel error {lam_err:.2e} (<=1e-2), "
            f"coefficient error {c_err:.2e} (<=1e-3)")


def test_criterion_7_numerical_kernel_properties(capfd):
    from koopid import eig, expm, logm, pinv

    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    failures = []

    for _ in range(25):  # Moore-Penrose identities and pinv scaling
        m, n = rng.integers(1, 21, size=2)
        a = rng.standard_normal((m, n))
        p = pinv(a)
        if not (np.allclose(a @ p @ a, a, atol=1e-9)
                and np.allclose(p @ a @ p, p, atol=1e-9)
                and np.allclose((a @ p).T, a @ p, atol=1e-9)
                and np.allclose((p @ a).T, p @ a, atol=1e-9)):
            failures.append("moore-penrose")
        c = float(rng.uniform(0.5, 5.0))
        if not np.allclose(pinv(c * a), p / c, atol=1e-10 * max(1.0, np.linalg.norm(p))):
            failures.append("pinv-scaling")

    for _ in range(25):  # logm/expm roundtrips, norm <= 1, right-half spectrum
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        a *= 0.9 / max(1.0, np.linalg.norm(a, 2))
        if not np.allclose(logm(expm(a)), a, atol=1e-8):
            failures.append("logm-of-expm")
        b = np.eye(n) + 0.3 * a
        if not np.allclose(expm(logm(b)), b, atol=1e-8):
            failures.append("expm-of-logm")

    for _ in range(25):  # eigen residuals
        n = int(rng.integers(2, 11))
        a = rng.standard_normal((n, n))
        dec = eig(a)
        res = max(
            np.linalg.norm(a @ dec.right_eigenvectors[:, i]
                           - dec.eigenvalues[i] * dec.right_eigenvectors[:, i])
            for i in range(n)
        )
        if res > 1e-8 * np.linalg.norm(a, "fro"):
            failures.append("eig-residual")

    for _ in range(10):  # least-squares exact recovery at full column rank
        x1 = rng.standard_normal((15, 4))
        m_true = rng.standard_normal((4, 4))
        if not np.allclose(edmd_fit(x1, x1 @ m_true, 0.1).U, m_true, atol=1e-9):
            failures.append("lstsq-recovery")

    # weight-scaling and basis-scaling invariance of the fitted operator
    x1 = rng.standard_normal((30, 5))
    x2 = x1 @ (np.eye(5) + 0.1 * rng.standard_normal((5, 5)))
    u_base = edmd_fit(x1, x2, 0.1).U
    u_scaled = edmd_fit(3.7 * x1, 3.7 * x2, 0.1).U
    if not np.allclose(u_base, u_scaled, atol=1e-10):
        failures.append("scaling-invariance")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    verdict(capfd, 7, "numerical-kernel property suite", ok,
            f"{'all properties hold' if not failures else sorted(set(failures))}; "
            f"{elapsed:.1f}s")


def test_criterion_8_cli_determinism(tmp_path, capfd):
    mismatches = []
    data = tmp_path / "g.json"
    for tag in ("a", "b"):
        out = tmp_path / f"sim-{tag}.json"
        assert main([
            "simulate", "--model", "graphon", "--pairs", "10", "--trajectories", "5",
            "--ts", "0.5", "--seed", "7", "--grid", "64", "--out", str(out),
        ]) == EXIT_OK
    if (tmp_path / "sim-a.json").read_bytes() != (tmp_path / "sim-b.json").read_bytes():
        mismatches.append("simulate")
    data = tmp_path / "sim-a.json"

    import json

    dict_path = tmp_path / "dict.json"
    dict_path.write_text(json.dumps(
        [{"kind": "constant"}, {"kind": "monomial", "j": 1, "k": 0},
         {"kind": "monomial", "j": 2, "k": 0}, {"kind": "monomial", "j": 3, "k": 0},
         {"kind": "graphon", "f": {"c0": 1.0, "cx": 0.0, "cy": 0.0}},
         {"kind": "graphon", "f": {"c0": 0.0, "cx": 1.0, "cy": 0.0}},
         {"kind": "graphon", "f": {"c0": 0.0, "cx": 0.0, "cy": 1.0}}]
    ))
    for tag in ("a", "b"):
        assert main([
            "identify", "--data", str(data), "--dict", str(dict_path),
            "--weight", "power:2", "--method", "lifting",
            "--out", str(tmp_path / f"id-{tag}.csv"),
        ]) == EXIT_OK
    if (tmp_path / "id-a.csv").read_bytes() != (tmp_path / "id-b.csv").read_bytes():
        mismatches.append("identify")

    burgers = tmp_path / "b.json"
    assert main([
        "simulate", "--model", "burgers", "--pairs", "28", "--trajectories", "7",
        "--ts", "0.2", "--seed", "1", "--grid", "64", "--out", str(burgers),
    ]) == EXIT_OK
    for tag in ("a", "b"):
        assert main(["spectrum", "--data", str(burgers), "--basis", "burgers:1",
                     "--out", str(tmp_path / f"sp-{tag}.csv")]) == EXIT_OK
    if (tmp_path / "sp-a.csv").read_bytes() != (tmp_path / "sp-b.csv").read_bytes():
        mismatches.append("spectrum")

    for tag in ("a", "b"):
        assert main([
            "sweep-ts", "--model", "graphon", "--weight", "power:2",
            "--ts-list", "0.5,0.25,0.1", "--seed", "1", "--pairs", "10",
            "--trajectories", "5", "--grid", "64",
            "--out", str(tmp_path / f"sw-{tag}.csv"),
        ]) == EXIT_OK
    if (tmp_path / "sw-a.csv").read_bytes() != (tmp_path / "sw-b.csv").read_bytes():
        mismatches.append("sweep-ts")

    ok = not mismatches
    verdict(capfd, 8, "CLI determinism", ok,
            "all four subcommands byte-identical on rerun" if ok
            else f"mismatched: {mismatches}")
