#!/usr/bin/env python3
"""koopid benchmark: the simulate -> fit -> spectrum / identify pipelines, end
to end and layer by layer.

Run from the repository root::

    python3 benchmarks/run.py --workload burgers-spectrum --seed 1 --seconds 12 --trace 0
    python3 benchmarks/run.py --all            # every workload, untraced then traced

Each run drives ``koopid.cli.main`` in-process as a closed loop with one
client: every operation (one CLI subcommand call) starts after the previous
one returns.  A run sets up (three times, reporting the median), then repeats
passes until ``--seconds`` have passed, alternating between the
acceptance suite's seed (whose output gives ``ref_err``) and inputs made from
``--seed``.  With ``--trace 1`` two further passes run with every layer boundary
traced (see ``tracing.py``); their counts must agree exactly.

The last stdout line is the result object; the line before it holds the
environment and the details behind each metric.  Every operation's outputs are
hashed; a hash that differs from an earlier run of the same source and
environment (kept under ``benchmarks/.state``) fails the operation.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
# BLAS reads its thread count when numpy loads, so cap it before any import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3
TRACED_PASSES = 2
#: tail percentiles tried, highest first; one needs ten samples beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _require_source():
    if not os.path.isfile(os.path.join(SRC, "koopid", "__init__.py")):
        print(f"error: koopid sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def environment():
    import numpy
    import scipy

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def source_fingerprint(env) -> str:
    """Hash of the koopid sources and the numeric environment."""
    h = hashlib.sha256(json.dumps(env, sort_keys=True).encode())
    pkg = os.path.join(SRC, "koopid")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                full = os.path.join(dirpath, fn)
                h.update(os.path.relpath(full, pkg).encode())
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class HashStore:
    """sha256 of every primary output, per operation, across runs of the same
    sources: a differing hash means the outputs are not byte-identical on rerun."""

    def __init__(self, fingerprint):
        self.path = os.path.join(BENCH_DIR, ".state", f"hashes-{fingerprint[:24]}.json")
        try:
            with open(self.path) as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, key, digest):
        """Record ``digest`` under ``key``; return the earlier digest if it differs."""
        old = self.known.setdefault(key, digest)
        return old if old != digest else None

    def save(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self.path), prefix=".tmp-")
        with os.fdopen(fd, "w") as fh:
            json.dump(self.known, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


class Runner:
    """Runs CLI operations, checks and hashes their outputs, and counts failures."""

    def __init__(self, work, store, workload):
        import koopid.cli

        self.cli = koopid.cli
        self.work = work
        self.store = store
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, op, phase="setup") -> float:
        """Run one operation; return its latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)  # looked up per call, so tracing applies
            except Exception:  # a crash is a failed operation, not a failed run
                rc, crash = None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - t0
        self.attempted += 1
        if rc != 0:
            problem = crash or f"exit code {rc}: {err.getvalue().strip()[-300:]}"
        else:
            problem = op.check() or self._hash_problem(op)
        if problem:
            self.failed += 1
            self.problems.append(f"[{phase}] {self.label(op)}: {problem}")
        return latency

    def label(self, op):
        return " ".join(op.argv).replace(self.work, "<work>")

    def _hash_problem(self, op):
        for path in op.outputs:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            key = f"{self.workload}|{self.label(op)}|{os.path.basename(path)}"
            old = self.store.check(key, digest)
            if old is not None:
                return f"output {os.path.basename(path)} hash {digest[:12]} != earlier {old[:12]}"
        return None


def _import_in_fresh_interpreter():
    """Import the CLI in a new interpreter, the import cost a user pays."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", "import koopid.cli"], env=env, check=True)


def tail(values):
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it.  Below 20 samples no percentile qualifies, and the
    median stands in for the tail (reported as percentile 50)."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
    return 50.0, statistics.median(values)


def run_workload(name, seed, seconds, traced, smoke):
    import tracing as layer_trace
    from workloads import REFERENCE_SEED, WORKLOADS

    env = environment()
    data_seed = seed % 2**32
    store = HashStore(source_fingerprint(env))
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(BENCH_DIR, ".work"), prefix=f"{name}-")
    try:
        workload = WORKLOADS[name](work, smoke)
        runner = Runner(work, store, name + ("-smoke" if smoke else ""))

        setup = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            _import_in_fresh_interpreter()
            workload.prepare(runner.run, data_seed)
            setup.append(time.perf_counter() - t0)

        for op in workload.reference():
            runner.run(op, "reference")

        seeds = workload.pass_seeds(data_seed)
        passes, latencies = [], []
        t_start = time.perf_counter()
        while len(passes) < len(seeds) or time.perf_counter() - t_start < seconds:
            ops = workload.ops(seeds[len(passes) % len(seeds)])
            lat = [runner.run(op, "timed") for op in ops]
            passes.append(sum(lat))
            latencies.extend(lat)
        try:
            ref_err, seed_err = workload.error(REFERENCE_SEED), workload.error(data_seed)
        except (OSError, ValueError, IndexError) as exc:  # its operation failed
            ref_err = seed_err = float("inf")
            runner.problems.append(f"[reference] no accuracy output: {exc!r}")
        run_s = statistics.median(passes)
        tail_p, tail_s = tail(latencies)

        layers = []
        if traced:
            for _ in range(TRACED_PASSES):
                tracer = layer_trace.Tracer()
                undo = layer_trace.instrument(tracer)
                try:
                    lat = [runner.run(op, "traced") for op in workload.ops(data_seed)]
                finally:
                    undo()
                m = layer_trace.layer_metrics(tracer)
                m["trace.run_s"] = sum(lat)
                m["trace.overhead_s"] = sum(lat) - run_s
                layers.append(m)
            units = {n: u for n, u, _ in layer_trace.LAYER_METRICS}
            for key in units:
                if units[key] in layer_trace.COUNT_UNITS and layers[0][key] != layers[-1][key]:
                    runner.failed += 1
                    runner.problems.append(
                        f"[traced] count {key} differs between traced passes: "
                        f"{layers[0][key]} != {layers[-1][key]}")
        store.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "workload": name,
        "seed": seed,
        "data_seed": data_seed,
        "reference_seed": REFERENCE_SEED,
        "smoke": smoke,
        "run_seconds": seconds,
        "env": env,
        "setup_s_reps": setup,
        "passes": len(passes),
        "pass_s": passes,
        "op_tail_percentile": tail_p,
        "op_tail_samples": len(latencies),
        "ref_err_name": workload.error_name,
        workload.error_name: ref_err,
        f"{workload.error_name}_at_seed": seed_err,
        "ops_attempted": runner.attempted,
        "ops_failed": runner.failed,
        "ops_failed_frac": runner.failed / runner.attempted,
        "problems": runner.problems,
    }
    if traced:
        metrics = {n: {"value": layers[0][n], "unit": u} for n, u, _ in layer_trace.LAYER_METRICS}
        info["trace_run_s"] = [m["trace.run_s"] for m in layers]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "ref_err": {"value": ref_err, "unit": "1"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for problem in runner.problems:
        print(problem, file=sys.stderr)
    return info, {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    report = []
    for name in WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} (trace {traced}) failed with exit code {proc.returncode}",
                      file=sys.stderr)
                return 1
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            report.append({"workload": name, "trace": traced, "info": info, "result": result})
            print(f"\n== {name} (trace {traced}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"ops_failed_frac={info['ops_failed_frac']:.6g} frac")
            if not traced:
                ref = info["ref_err_name"]
                print(f"  {ref:<32} {info[ref]:.6g} 1")
                print(f"  {'op_tail_ms':<32} is p{info['op_tail_percentile']:g} "
                      f"of {info['op_tail_samples']} samples")
            for metric, v in result["metrics"].items():
                print(f"  {metric:<32} {v['value']:.6g} {v['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["result"]["correct"] for r in report) else 1


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cut-down problem sizes, for the benchmark's own test")
    parser.add_argument("--out", help="with --all: write every result to this JSON file")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    info, result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1, args.smoke)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _require_source()
    sys.exit(main())
