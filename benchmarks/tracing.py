"""Span tracing of koopid's layers for the benchmark's traced passes.

Each layer is one koopid module.  :func:`instrument` replaces a module's
public functions at the attribute its caller looks them up through (for
example ``koopid.simulate.rhs_values``, which the RK4 loop calls, or
``koopid.koopman.functional_values``, which data-matrix assembly calls) by a
wrapper that records a span -- name, start, end and parent -- plus counts taken
at the same boundary.  Nothing inside ``src/`` changes; the returned callable
puts the original functions back.

Spans are kept in flat typed arrays (about 24 bytes per span), because the
Burgers workload records close to a million of them per pass.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from functools import wraps

import numpy as np


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]  # open spans, under a root sentinel
        self.counts: Counter = Counter()
        self.xi1: list[np.ndarray] = []       # data matrices of every fit, for cond(Xi1)
        self.eigenvalues: list[np.ndarray] = []  # every eig() result, for the branch margin

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, after=None):
        """Wrap ``fn`` so that each call records a span called ``name``;
        ``after(args, kwargs, result)`` runs inside the span to take counts."""
        nid = self._intern(name)
        stack, start, end = self._stack, self.start, self.end
        name_id, parent = self.name_id, self.parent
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def span_times(self):
        """Per span name: (calls, busy seconds, self seconds).

        Busy time is the span's duration; self time subtracts the time its
        direct child spans cover (children of one span never overlap, since
        the program is single-threaded).
        """
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=float)[:n] - np.frombuffer(self.start, dtype=float)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        names = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        selft = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=selft, minlength=k)
        return {nm: (int(calls[i]), float(busy[i]), float(own[i])) for i, nm in enumerate(self.names)}


def _nbytes_of(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def instrument(tracer: Tracer):
    """Install span wrappers on koopid's layer boundaries; return an undo."""
    import koopid.cli
    import koopid.fileio
    import koopid.identify
    import koopid.koopman
    import koopid.linalg
    import koopid.observables
    import koopid.operators
    import koopid.simulate

    c = tracer.counts

    def on_pairs(args, kwargs, result):
        c["simulate.pairs"] += len(result)

    # results have the shape of their input, so they give the sizes cheaply
    def on_rhs(args, kwargs, result):
        c["operators.rhs_elems"] += result.size

    def on_diff(args, kwargs, result):
        c["fields.diff_bytes"] += 2 * result.nbytes  # input read + output written

    def on_assemble(args, kwargs, result):
        m, n = result[0].shape
        c["koopman.m"] = max(c["koopman.m"], m)
        c["koopman.n"] = max(c["koopman.n"], n)

    def on_fit(args, kwargs, result):
        tracer.xi1.append(result.xi1)
        c["koopman.fit_residual_max"] = max(c["koopman.fit_residual_max"], result.residual)

    def on_eig(args, kwargs, result):
        tracer.eigenvalues.append(result.eigenvalues)

    def on_dataset_write(args, kwargs, result):
        c["fileio.dataset_bytes"] += _nbytes_of(args[0])

    def on_dataset_read(args, kwargs, result):
        n = _nbytes_of(args[0])
        c["fileio.dataset_bytes"] += n
        c["fileio.read_bytes"] += n

    # (module, attribute, span name, count hook): the attribute is the one the
    # calling module resolves at call time
    table = [
        (koopid.cli, "main", "cli.main", None),
        (koopid.cli, "generate_pairs", "simulate.generate_pairs", on_pairs),
        (koopid.identify, "generate_pairs", "simulate.generate_pairs", on_pairs),
        (koopid.simulate, "rhs_values", "operators.rhs", on_rhs),
        (koopid.observables, "term_values", "operators.term", None),
        (koopid.operators, "diff_values", "fields.diff", on_diff),
        (koopid.koopman, "functional_values", "observables.functional", None),
        (koopid.cli, "build_burgers_basis", "observables.basis", None),
        (koopid.identify, "build_lifting_basis", "observables.basis", None),
        (koopid.cli, "build_data_matrices", "koopman.assemble", on_assemble),
        (koopid.identify, "build_data_matrices", "koopman.assemble", on_assemble),
        (koopid.cli, "edmd_fit", "koopman.fit", on_fit),
        (koopid.identify, "edmd_fit", "koopman.fit", on_fit),
        (koopid.cli, "spectrum", "koopman.spectrum", None),
        (koopid.koopman, "pinv", "linalg.pinv", None),
        (koopid.koopman, "matrix_rank", "linalg.matrix_rank", None),
        (koopid.identify, "matrix_rank", "linalg.matrix_rank", None),
        (koopid.koopman, "eig", "linalg.eig", on_eig),
        (koopid.linalg, "eig", "linalg.eig", on_eig),
        (koopid.identify, "logm", "linalg.logm", None),
        (koopid.cli, "lifting_identify", "identify.lifting", None),
        (koopid.identify, "lifting_identify", "identify.lifting", None),
        (koopid.cli, "direct_identify", "identify.direct", None),
        (koopid.cli, "ts_convergence_study", "identify.sweep", None),
        (koopid.fileio, "write_dataset", "fileio.dataset_write", on_dataset_write),
        (koopid.fileio, "read_dataset", "fileio.dataset_read", on_dataset_read),
        (koopid.fileio, "atomic_write_text", "fileio.atomic_write", None),
        (koopid.fileio, "spectrum_to_csv", "fileio.csv_format", None),
        (koopid.fileio, "identification_to_csv", "fileio.csv_format", None),
        (koopid.fileio, "sweep_to_csv", "fileio.csv_format", None),
    ]
    saved = []
    for module, attr, name, after in table:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, after))

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


def _branch_distance(w: np.ndarray) -> float:
    """Smallest distance of the eigenvalues from the closed negative real axis."""
    w = np.asarray(w)
    d = np.where(w.real > 0.0, np.abs(w), np.abs(w.imag))
    return float(d.min()) if d.size else float("inf")


#: (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("simulate.calls", "count", "lower"),
    ("simulate.busy_s", "s", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.pairs_per_s", "1/s", "higher"),
    ("operators.rhs_calls", "count", "lower"),
    ("operators.rhs_busy_s", "s", "lower"),
    ("operators.rhs_self_s", "s", "lower"),
    ("operators.rhs_elems", "count", "lower"),
    ("operators.rhs_ns_per_elem", "ns", "lower"),
    ("operators.self_s", "s", "lower"),
    ("fields.diff_calls", "count", "lower"),
    ("fields.diff_busy_s", "s", "lower"),
    ("fields.diff_bytes_computed", "B", "lower"),
    ("fields.diff_GBps_computed", "GB/s", "higher"),
    ("fields.self_s", "s", "lower"),
    ("observables.functional_calls", "count", "lower"),
    ("observables.busy_s", "s", "lower"),
    ("observables.us_per_call", "us", "lower"),
    ("observables.self_s", "s", "lower"),
    ("koopman.assemble_busy_s", "s", "lower"),
    ("koopman.fit_busy_s", "s", "lower"),
    ("koopman.spectrum_busy_s", "s", "lower"),
    ("koopman.m", "count", "lower"),
    ("koopman.n", "count", "lower"),
    ("koopman.fit_residual", "1", "lower"),
    ("koopman.self_s", "s", "lower"),
    ("linalg.svd_calls", "count", "lower"),
    ("linalg.svd_busy_s", "s", "lower"),
    ("linalg.eig_calls", "count", "lower"),
    ("linalg.logm_calls", "count", "lower"),
    ("linalg.logm_busy_s", "s", "lower"),
    ("linalg.cond_xi1", "1", "lower"),
    ("linalg.branch_margin", "1", "higher"),
    ("linalg.self_s", "s", "lower"),
    ("identify.lifting_calls", "count", "lower"),
    ("identify.lifting_self_s", "s", "lower"),
    ("identify.direct_calls", "count", "lower"),
    ("identify.direct_self_s", "s", "lower"),
    ("identify.self_s", "s", "lower"),
    ("fileio.dataset_write_s", "s", "lower"),
    ("fileio.dataset_read_s", "s", "lower"),
    ("fileio.dataset_bytes", "B", "lower"),
    ("fileio.read_MBps", "MB/s", "higher"),
    ("fileio.csv_write_s", "s", "lower"),
    ("fileio.self_s", "s", "lower"),
    ("cli.ops", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

#: layers whose ``<layer>.self_s`` values partition the traced time
LAYERS = ("simulate", "operators", "fields", "observables", "koopman", "linalg",
          "identify", "fileio", "cli")

#: metrics that count work; they must repeat exactly between traced passes
COUNT_UNITS = ("count", "B")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (without the ``trace.*`` ones)."""
    t = tracer.span_times()
    c = tracer.counts

    def calls(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[0] for n in names)

    def busy(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self(layer):
        return sum(v[2] for n, v in t.items() if n.split(".")[0] == layer)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den > 0 else 0.0

    sim_busy = busy("simulate.generate_pairs")
    rhs_busy = busy("operators.rhs")
    diff_busy = busy("fields.diff")
    fn_calls = calls("observables.functional")
    read_s = busy("fileio.dataset_read")
    m = {
        "simulate.calls": calls("simulate.generate_pairs"),
        "simulate.busy_s": sim_busy,
        "simulate.self_s": own("simulate.generate_pairs"),
        "simulate.pairs_per_s": ratio(c["simulate.pairs"], sim_busy),
        "operators.rhs_calls": calls("operators.rhs"),
        "operators.rhs_busy_s": rhs_busy,
        "operators.rhs_self_s": own("operators.rhs"),
        "operators.rhs_elems": int(c["operators.rhs_elems"]),
        "operators.rhs_ns_per_elem": ratio(rhs_busy, c["operators.rhs_elems"], 1e9),
        "fields.diff_calls": calls("fields.diff"),
        "fields.diff_busy_s": diff_busy,
        "fields.diff_bytes_computed": int(c["fields.diff_bytes"]),
        "fields.diff_GBps_computed": ratio(c["fields.diff_bytes"], diff_busy, 1e-9),
        "observables.functional_calls": fn_calls,
        "observables.busy_s": busy("observables.functional", "observables.basis"),
        "observables.us_per_call": ratio(busy("observables.functional"), fn_calls, 1e6),
        "koopman.assemble_busy_s": busy("koopman.assemble"),
        "koopman.fit_busy_s": busy("koopman.fit"),
        "koopman.spectrum_busy_s": busy("koopman.spectrum"),
        "koopman.m": int(c["koopman.m"]),
        "koopman.n": int(c["koopman.n"]),
        "koopman.fit_residual": float(c["koopman.fit_residual_max"]),
        "linalg.svd_calls": calls("linalg.pinv", "linalg.matrix_rank"),
        "linalg.svd_busy_s": busy("linalg.pinv", "linalg.matrix_rank"),
        "linalg.eig_calls": calls("linalg.eig"),
        "linalg.logm_calls": calls("linalg.logm"),
        "linalg.logm_busy_s": busy("linalg.logm"),
        "linalg.cond_xi1": max((float(np.linalg.cond(x)) for x in tracer.xi1), default=0.0),
        "linalg.branch_margin": min((_branch_distance(w) for w in tracer.eigenvalues), default=0.0),
        "identify.lifting_calls": calls("identify.lifting"),
        "identify.lifting_self_s": own("identify.lifting"),
        "identify.direct_calls": calls("identify.direct"),
        "identify.direct_self_s": own("identify.direct"),
        "fileio.dataset_write_s": busy("fileio.dataset_write"),
        "fileio.dataset_read_s": read_s,
        "fileio.dataset_bytes": int(c["fileio.dataset_bytes"]),
        "fileio.read_MBps": ratio(c["fileio.read_bytes"], read_s, 1e-6),
        # atomic writes outside a dataset write are the CSV result writes;
        # the only child span of a dataset write is its atomic write
        "fileio.csv_write_s": busy("fileio.csv_format", "fileio.atomic_write")
        - (busy("fileio.dataset_write") - own("fileio.dataset_write")),
        "cli.ops": calls("cli.main"),
        "trace.spans": len(tracer),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m
