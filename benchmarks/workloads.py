"""The benchmark's workloads: the CLI operations of one pass, the checks on
their outputs, and the reference call that gives each workload's accuracy.

An operation is one ``koopid`` subcommand call.  Timed passes alternate
between the acceptance suite's seed and the benchmark seed.  ``ref_err``
always comes from the acceptance-seed output, so it is the number the
acceptance criteria quote: it does not move with the benchmark seed, and the
graphon criterion-4 defect stays visible whatever seed the benchmark runs
with.

Every output gets structural checks (row counts, finite values).  The
accuracy gates of criteria 1 and 5 apply to acceptance-seed outputs only:
those criteria are stated for that seed, and at other seeds the random basis
and initial conditions can legitimately miss them (Burgers misses its third
target at seed 107).  The accuracy at the benchmark seed is still reported.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

#: the acceptance suite's seed, used by every reference call
REFERENCE_SEED = 1

#: criterion 1: -alpha (pi/2)^2 for alpha = 1..3 among the top-10 modes within 10%
BURGERS_TARGETS = [-alpha * (math.pi / 2) ** 2 for alpha in (1, 2, 3)]
BURGERS_BASIS_SIZE = 27
SWEEP_TS = "0.3,0.15,0.075,0.0375"


@dataclass
class Op:
    """One CLI call, the files it writes and the check run on them."""

    argv: List[str]
    outputs: List[str]
    check: Callable[[], Optional[str]]  # returns a failure message, or None


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_dataset(path, pairs) -> Optional[str]:
    with open(path) as fh:
        doc = json.load(fh)
    if len(doc["pairs"]) != pairs:
        return f"{len(doc['pairs'])} pairs, expected {pairs}"
    if not all(math.isfinite(x) for p in doc["pairs"] for x in p["u"] + p["u_next"]):
        return "non-finite snapshot values"
    return None


def spectrum_rel_err(path) -> float:
    """Max over the targets of the min relative distance to the real parts of
    the 10 lowest-residual modes."""
    found = [float(r[0]) for r in _csv_rows(path)[1:11] if r[0] != ""]
    if not found:
        return math.inf
    return max(min(abs(f - t) / abs(t) for f in found) for t in BURGERS_TARGETS)


def check_spectrum(path, gated) -> Optional[str]:
    rows = _csv_rows(path)[1:]
    if len(rows) != BURGERS_BASIS_SIZE:
        return f"{len(rows)} modes, expected {BURGERS_BASIS_SIZE}"
    if not all(math.isfinite(float(x)) for r in rows for x in r[2:]):
        return "non-finite eigenvalue or residual"
    err = spectrum_rel_err(path)
    if gated and not err <= 0.10:
        return f"spectrum target missed by {err:.3g} relative (> 0.10)"
    return None


def sweep_errors(path) -> List[float]:
    """Max abs coefficient error per sampling time, in sweep order."""
    return [float(r[1]) for r in _csv_rows(path)[1:]]


def check_sweep(path, rows, gated) -> Optional[str]:
    errs = sweep_errors(path)
    if len(errs) != rows:
        return f"{len(errs)} sweep rows, expected {rows}"
    if not all(math.isfinite(e) for e in errs):
        return "non-finite sweep error"
    if not gated:
        return None
    if not errs[0] <= 0.1:
        return f"max error {errs[0]:.4g} at the first ts exceeds 0.1"
    if not errs[-1] < errs[0]:
        return f"error does not shrink with ts ({errs[0]:.4g} -> {errs[-1]:.4g})"
    return None


def identify_max_err(path) -> float:
    return max(float(r[4]) for r in _csv_rows(path)[1:])


def check_identify(path, terms) -> Optional[str]:
    rows = _csv_rows(path)[1:]
    if len(rows) != terms:
        return f"{len(rows)} CSV rows, expected {terms}"
    if not all(math.isfinite(float(r[3])) for r in rows):
        return "non-finite estimate"
    return None


def write_model_files(work, model_name):
    """Dictionary and truth files of a built-in model; returns their paths."""
    from koopid import fileio
    from koopid.simulate import BUILTIN_MODELS

    dictionary = BUILTIN_MODELS[model_name]().dictionary
    dict_path = os.path.join(work, f"{model_name}-dict.json")
    truth_path = os.path.join(work, f"{model_name}-truth.json")
    fileio.atomic_write_text(dict_path, json.dumps(fileio.dictionary_to_records(dictionary)))
    fileio.atomic_write_text(truth_path, json.dumps(list(dictionary.coefficients)))
    return dict_path, truth_path, len(dictionary)


class Workload:
    """Base: ``prepare`` is set-up and ``ops(seed)`` one pass.  Timed passes
    cycle over ``pass_seeds``; ``reference`` lists untimed operations that
    ``error(REFERENCE_SEED)`` needs beyond those passes."""

    name = ""
    error_name = "coef_max_err"  # what error() measures

    def __init__(self, work, smoke=False):
        self.work = work
        self.smoke = smoke

    def path(self, name):
        return os.path.join(self.work, name)

    def prepare(self, run, seed):
        """Set-up work; ``run(op)`` executes a CLI call."""

    def ops(self, seed) -> List[Op]:
        raise NotImplementedError

    def pass_seeds(self, seed):
        return (REFERENCE_SEED, seed)

    def reference(self) -> List[Op]:
        return []

    def error(self, seed) -> float:
        """Accuracy of the reference-configuration call on ``seed``'s output."""
        raise NotImplementedError


def simulate_op(work, model, pairs, trajectories, ts, seed, grid=None, tag=""):
    out = os.path.join(work, f"{model}{tag}-{seed}.json")
    argv = ["simulate", "--model", model, "--pairs", str(pairs), "--trajectories",
            str(trajectories), "--ts", str(ts), "--seed", str(seed), "--out", out]
    if grid is not None:
        argv += ["--grid", str(grid)]
    return Op(argv, [out], lambda: check_dataset(out, pairs))


def graphon_op(work, seed, smoke):
    """Criterion-4 graphon dataset, or a cut-down one."""
    if smoke:
        return simulate_op(work, "graphon", 14, 7, 0.5, seed, grid=64)
    return simulate_op(work, "graphon", 50, 25, 0.5, seed)


def pde1_op(work, seed, smoke, tag=""):
    """pde1 dataset at ts 0.3 with the model's burn-in, or a cut-down one."""
    if smoke:
        return simulate_op(work, "pde1", 24, 12, 0.3, seed, tag=tag)
    return simulate_op(work, "pde1", 50, 25, 0.3, seed, tag=tag)


def identify_op(data, dict_path, truth_path, terms, weight, method, out):
    argv = ["identify", "--data", data, "--dict", dict_path, "--weight", weight,
            "--method", method, "--truth", truth_path, "--out", out]
    return Op(argv, [out], lambda: check_identify(out, terms))


class BurgersSpectrum(Workload):
    """Criterion 1: simulate Burgers, then its Koopman spectrum."""

    name = "burgers-spectrum"
    error_name = "spectrum_rel_err"

    def ops(self, seed):
        if self.smoke:
            sim = simulate_op(self.work, "burgers", 50, 10, 0.2, seed, grid=64)
        else:
            sim = simulate_op(self.work, "burgers", 50, 10, 0.2, seed)
        out = self.path(f"spectrum-{seed}.csv")
        spec = Op(["spectrum", "--data", sim.outputs[0], "--basis", f"burgers:{seed}",
                   "--out", out], [out], lambda: check_spectrum(out, seed == REFERENCE_SEED))
        return [sim, spec]

    def error(self, seed):
        return spectrum_rel_err(self.path(f"spectrum-{seed}.csv"))


class Pde1Sweep(Workload):
    """Criterion 5: the sampling-time sweep of the third-order pde1 model."""

    name = "pde1-sweep"

    def ops(self, seed):
        out = self.path(f"sweep-{seed}.csv")
        argv = ["sweep-ts", "--model", "pde1", "--weight", "bump:5:recentered",
                "--seed", str(seed), "--out", out]
        if self.smoke:
            argv += ["--ts-list", "0.3,0.15,0.075", "--pairs", "24", "--trajectories", "12"]
        else:
            argv += ["--ts-list", SWEEP_TS]
        rows = len(argv[argv.index("--ts-list") + 1].split(","))
        return [Op(argv, [out], lambda: check_sweep(out, rows, seed == REFERENCE_SEED))]

    def error(self, seed):
        return sweep_errors(self.path(f"sweep-{seed}.csv"))[0]


class GraphonIdentify(Workload):
    """Criterion 4: simulate graphon dynamics, then lifting identification.

    Its error (0.1715 at the reference seed) exceeds the criterion-4 bound of
    0.05; that is a known defect of the program, so it is reported as
    ``ref_err`` but not counted as a failed operation.
    """

    name = "graphon-identify"

    def prepare(self, run, seed):
        self.dict_path, self.truth_path, self.terms = write_model_files(self.work, "graphon")

    def ops(self, seed):
        sim = graphon_op(self.work, seed, self.smoke)
        out = self.path(f"graphon-coeffs-{seed}.csv")
        return [sim, identify_op(sim.outputs[0], self.dict_path, self.truth_path,
                                 self.terms, "power:2", "lifting", out)]

    def error(self, seed):
        return identify_max_err(self.path(f"graphon-coeffs-{seed}.csv"))


class IdentifyFromFile(Workload):
    """Repeated identification on two prepared datasets: 2 datasets x 4
    weights x 2 methods per pass, with no simulation in the pass."""

    name = "identify-from-file"
    WEIGHTS = {
        "pde1": ("bump:5:recentered", "bump:5", "power:1", "power:2"),
        "graphon": ("power:2", "power:3", "bump:1:recentered", "bump:1"),
    }

    def prepare(self, run, seed):
        self.files = {m: write_model_files(self.work, m) for m in ("pde1", "graphon")}
        self.datasets = {"pde1": pde1_op(self.work, seed, self.smoke),
                         "graphon": graphon_op(self.work, seed, self.smoke)}
        for op in self.datasets.values():
            run(op)

    def ops(self, seed):
        out = []
        for model, weights in self.WEIGHTS.items():
            data = self.datasets[model].outputs[0]
            dict_path, truth_path, terms = self.files[model]
            for weight in weights:
                for method in ("lifting", "direct"):
                    csv_path = self.path(f"{model}-{weight.replace(':', '_')}-{method}.csv")
                    out.append(identify_op(data, dict_path, truth_path, terms,
                                           weight, method, csv_path))
        return out

    def pass_seeds(self, seed):
        return (seed,)  # the passes read the datasets prepared for this seed

    def reference(self):
        sim = pde1_op(self.work, REFERENCE_SEED, self.smoke, tag="-ref")
        dict_path, truth_path, terms = self.files["pde1"]
        return [sim, identify_op(sim.outputs[0], dict_path, truth_path, terms,
                                 "bump:5:recentered", "lifting", self.path("ref-coeffs.csv"))]

    def error(self, seed):
        if seed == REFERENCE_SEED:
            return identify_max_err(self.path("ref-coeffs.csv"))
        return identify_max_err(self.path("pde1-bump_5_recentered-lifting.csv"))


WORKLOADS = {w.name: w for w in (BurgersSpectrum, Pde1Sweep, GraphonIdentify, IdentifyFromFile)}
