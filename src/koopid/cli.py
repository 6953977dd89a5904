"""Command-line entry point.

Subcommands: ``simulate`` (dataset generation), ``spectrum`` (EDMD
eigenvalues), ``identify`` (lifting / direct coefficient estimation) and
``sweep-ts`` (sampling-time convergence study).

Exit codes: 0 success, 2 integration blow-up, 3 insufficient data (m < n),
4 matrix-logarithm branch failure, 64 usage error or malformed input file,
65 precondition violation.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio
from .errors import (
    BlowUpError,
    BranchCutError,
    InsufficientDataError,
    KoopidError,
    PreconditionError,
    RankDeficiencyError,
)
from .identify import direct_identify, lifting_identify, true_coefficients, ts_convergence_study
from .koopman import build_data_matrices, edmd_fit, spectrum
from .observables import build_burgers_basis
from .simulate import BUILTIN_MODELS, EXPERIMENT_DEFAULTS, generate_pairs

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_INSUFFICIENT = 3
EXIT_BRANCH = 4
EXIT_USAGE = 64
EXIT_PRECONDITION = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_model(spec: str, num_points):
    if spec.startswith("custom:"):
        return fileio.read_model(spec.split(":", 1)[1], num_points)
    if spec in BUILTIN_MODELS:
        factory = BUILTIN_MODELS[spec]
        model = factory(num_points) if num_points is not None else factory()
        family = EXPERIMENT_DEFAULTS[spec][3]
        return model, family
    raise _UsageError(f"unknown model {spec!r}; expected one of "
                      f"{sorted(BUILTIN_MODELS)} or custom:<path>")


def _resolve_burn_in(args, model) -> float:
    if args.burn_in is not None:
        return args.burn_in
    defaults = EXPERIMENT_DEFAULTS.get(model.name)
    return defaults[4] if defaults else 0.0


def _cmd_simulate(args) -> int:
    model, family = _resolve_model(args.model, args.grid)
    dataset = generate_pairs(
        model, family, args.trajectories, args.pairs, args.ts, args.seed,
        burn_in=_resolve_burn_in(args, model),
    )
    fileio.write_dataset(args.out, dataset)
    print(
        f"wrote {len(dataset)} pairs (model={model.name}, grid={model.grid.num_points} "
        f"nodes on [{model.grid.x_min:g}, {model.grid.x_max:g}], ts={dataset.sampling_time:g}) "
        f"to {args.out}"
    )
    return EXIT_OK


def _resolve_basis(spec: str):
    if spec.startswith("burgers:"):
        return build_burgers_basis(int(spec.split(":", 1)[1]))
    if spec.startswith("file:"):
        return fileio.read_basis(spec.split(":", 1)[1])
    raise _UsageError(f"cannot parse basis spec {spec!r}; expected burgers:SEED or file:<path>")


def _cmd_spectrum(args) -> int:
    dataset = fileio.read_dataset(args.data)
    basis = _resolve_basis(args.basis)
    xi1, xi2 = build_data_matrices(dataset, basis)
    fit = edmd_fit(xi1, xi2, dataset.sampling_time, basis=basis)
    result = spectrum(fit)
    fileio.atomic_write_text(args.out, fileio.spectrum_to_csv(result))
    print(f"wrote {len(result)} eigenvalues to {args.out}")
    print("top 5 lowest-residual generator eigenvalues:")
    shown = 0
    for mode in result.modes:
        if mode.lambda_l is None:
            continue
        print(
            f"  lambda_L = {mode.lambda_l.real:+.6f} {mode.lambda_l.imag:+.6f}i "
            f"(residual {mode.residual_score:.3e})"
        )
        shown += 1
        if shown == 5:
            break
    return EXIT_OK


def _cmd_identify(args) -> int:
    dataset = fileio.read_dataset(args.data)
    dictionary = fileio.read_dictionary(args.dict)
    weight = fileio.parse_weight_spec(args.weight)
    truth = fileio.read_truth(args.truth, len(dictionary)) if args.truth else None
    method = lifting_identify if args.method == "lifting" else direct_identify
    result = method(dataset, dictionary, weight)
    fileio.atomic_write_text(args.out, fileio.identification_to_csv(result, truth))
    print(f"wrote {len(dictionary)} coefficient estimates ({args.method}) to {args.out}")
    if truth is not None:
        err = float(np.max(np.abs(result.estimates - truth)))
        print(f"max abs error vs truth: {err:.6g}")
    return EXIT_OK


def _cmd_sweep_ts(args) -> int:
    ts_list = [float(t) for t in args.ts_list.split(",") if t.strip()]
    if len(ts_list) < 3:
        raise _UsageError("--ts-list needs at least 3 comma-separated values")
    model, family = _resolve_model(args.model, args.grid)
    dictionary = fileio.read_dictionary(args.dict) if args.dict else model.dictionary
    if dictionary.coefficients is not None:
        dictionary = type(dictionary)(dictionary.terms)
    weight = fileio.parse_weight_spec(args.weight)
    defaults = EXPERIMENT_DEFAULTS.get(model.name, (50, 25, None, None, 0.0))
    pairs = args.pairs or defaults[0]
    trajectories = args.trajectories or defaults[1]
    report = ts_convergence_study(
        model, dictionary, weight, ts_list, family, trajectories, pairs, args.seed,
        burn_in=_resolve_burn_in(args, model),
    )
    fileio.atomic_write_text(args.out, fileio.sweep_to_csv(report, dictionary))
    print(f"wrote {len(report.entries)} sweep rows to {args.out}")
    trend = "decreasing" if report.monotone else "NOT decreasing"
    print(f"max-error trend from ts={ts_list[0]:g} to ts={ts_list[-1]:g}: {trend}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="koopid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a snapshot-pair dataset")
    p.add_argument("--model", required=True, help="burgers | pde1 | graphon | custom:<path>")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--trajectories", type=int, required=True)
    p.add_argument("--ts", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", type=int, default=None,
                   help="number of grid nodes (default: model-specific)")
    p.add_argument("--burn-in", type=float, default=None,
                   help="transient-decay time before the first snapshot (default: model-specific)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("spectrum", help="EDMD eigenvalues of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--basis", required=True, help="burgers:SEED | file:<path>")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("identify", help="estimate dictionary coefficients")
    p.add_argument("--data", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--weight", required=True, help="bump:L | power:p | constant")
    p.add_argument("--method", choices=("lifting", "direct"), required=True)
    p.add_argument("--truth", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("sweep-ts", help="sampling-time convergence study")
    p.add_argument("--model", required=True)
    p.add_argument("--dict", default=None, help="candidate dictionary file (default: model terms)")
    p.add_argument("--weight", required=True)
    p.add_argument("--ts-list", required=True, help="comma-separated decreasing sampling times")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--trajectories", type=int, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--burn-in", type=float, default=None,
                   help="transient-decay time before the first snapshot (default: model-specific)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_ts)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BlowUpError as exc:
        where = f" (trajectory {exc.trajectory})" if exc.trajectory is not None else ""
        print(f"integration blow-up{where}: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except InsufficientDataError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INSUFFICIENT
    except BranchCutError as exc:
        print(f"{exc}\nhint: reduce --ts", file=sys.stderr)
        return EXIT_BRANCH
    except (PreconditionError, RankDeficiencyError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (KoopidError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
