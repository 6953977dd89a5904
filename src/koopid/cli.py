"""Command-line entry point.

Subcommands: ``simulate`` (dataset generation), ``spectrum`` (EDMD
eigenvalues), ``identify`` (lifting / direct coefficient estimation) and
``sweep-ts`` (sampling-time convergence study).

Exit codes: 0 success, 2 integration blow-up, 3 insufficient data (m < n),
4 matrix-logarithm branch failure, 64 usage error, malformed input file or
input too large for memory, 65 precondition violation.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fileio
from .errors import (
    BlowUpError,
    BranchCutError,
    InsufficientDataError,
    InvalidInputError,
    KoopidError,
    PreconditionError,
)
from .identify import direct_identify, lifting_identify, ts_convergence_study
from .koopman import build_data_matrices, edmd_fit, spectrum
from .observables import build_burgers_basis
from .simulate import BUILTIN_MODELS, EXPERIMENT_DEFAULTS, generate_pairs

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_INSUFFICIENT = 3
EXIT_BRANCH = 4
EXIT_USAGE = 64
EXIT_PRECONDITION = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInputError(message)


def _resolve_model(spec: str, num_points):
    """The model of a ``--model`` spec and its defaults row (pairs,
    trajectories, sampling time, IC family, burn-in): a built-in model's
    ``EXPERIMENT_DEFAULTS`` row, or for a ``custom:`` file 50 pairs over 25
    trajectories, the file's family and no burn-in, whatever its name."""
    if spec.startswith("custom:"):
        model, family = fileio.read_model(spec.split(":", 1)[1], num_points)
        return model, (50, 25, None, family, 0.0)
    if spec in BUILTIN_MODELS:
        factory = BUILTIN_MODELS[spec]
        model = factory(num_points) if num_points is not None else factory()
        return model, EXPERIMENT_DEFAULTS[spec]
    raise InvalidInputError(f"unknown model {spec!r}; expected one of "
                            f"{sorted(BUILTIN_MODELS)} or custom:<path>")


def _cmd_simulate(args) -> int:
    model, (_, _, _, family, burn_in) = _resolve_model(args.model, args.grid)
    dataset = generate_pairs(
        model, family, args.trajectories, args.total_pairs, args.ts, args.seed,
        burn_in=burn_in if args.burn_in is None else args.burn_in,
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
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise InvalidInputError(f"--basis {spec!r} is not of the form burgers:SEED "
                                    "with an integer SEED") from None
        return build_burgers_basis(seed)
    if spec.startswith("file:"):
        return fileio.read_basis(spec.split(":", 1)[1])
    raise InvalidInputError(f"cannot parse basis spec {spec!r}; "
                            "expected burgers:SEED or file:<path>")


def _cmd_spectrum(args) -> int:
    dataset = fileio.read_dataset(args.data)
    basis = _resolve_basis(args.basis)
    xi1, xi2 = build_data_matrices(dataset, basis)
    fit = edmd_fit(xi1, xi2, dataset.sampling_time)
    result = spectrum(fit)
    fileio.atomic_write_text(args.out, fileio.spectrum_to_csv(result))
    print(f"wrote {len(result.lambda_u)} eigenvalues to {args.out}")
    print("top 5 lowest-residual generator eigenvalues:")
    defined = ~np.isnan(result.lambda_l)
    for lam_l, score in zip(result.lambda_l[defined][:5], result.residual_scores[defined][:5]):
        print(f"  lambda_L = {lam_l.real:+.6f} {lam_l.imag:+.6f}i (residual {score:.3e})")
    return EXIT_OK


def _cmd_identify(args) -> int:
    dataset = fileio.read_dataset(args.data)
    dictionary = fileio.read_dictionary(args.dict)
    weight = fileio.parse_weight_spec(args.weight)
    truth = fileio.read_truth(args.truth, len(dictionary)) if args.truth is not None else None
    method = lifting_identify if args.method == "lifting" else direct_identify
    result = method(dataset, dictionary, weight)
    fileio.atomic_write_text(args.out, fileio.identification_to_csv(result, truth))
    print(f"wrote {len(dictionary)} coefficient estimates ({args.method}) to {args.out}")
    if truth is not None:
        err = float(np.max(np.abs(result.estimates - truth)))
        print(f"max abs error vs truth: {err:.6g}")
    return EXIT_OK


def _cmd_sweep_ts(args) -> int:
    try:
        ts_list = [float(t) for t in args.ts_list.split(",") if t.strip()]
    except ValueError:
        raise InvalidInputError(f"--ts-list {args.ts_list!r} is not a comma-separated "
                                "list of numbers") from None
    model, (pairs, trajectories, _, family, burn_in) = _resolve_model(args.model, args.grid)
    dictionary = fileio.read_dictionary(args.dict) if args.dict is not None else model.dictionary
    weight = fileio.parse_weight_spec(args.weight)
    report = ts_convergence_study(
        model, dictionary, weight, ts_list, family,
        trajectories if args.trajectories is None else args.trajectories,
        pairs if args.total_pairs is None else args.total_pairs,
        args.seed,
        burn_in=burn_in if args.burn_in is None else args.burn_in,
    )
    fileio.atomic_write_text(args.out, fileio.sweep_to_csv(report, dictionary))
    print(f"wrote {len(report.t_s)} sweep rows to {args.out}")
    trend = "decreasing" if report.monotone else "NOT decreasing"
    print(f"max-error trend from ts={ts_list[0]:g} to ts={ts_list[-1]:g}: {trend}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``koopid`` parser, built on the first call and shared by every
    later one; ``parse_args`` keeps no state between calls."""
    parser = _Parser(prog="koopid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a snapshot-pair dataset")
    p.add_argument("--model", required=True, help="burgers | pde1 | graphon | custom:<path>")
    p.add_argument("--pairs", dest="total_pairs", type=int, required=True)
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
    p.add_argument("--pairs", dest="total_pairs", type=int, default=None)
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
    except BlowUpError as exc:
        print(f"integration blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except InsufficientDataError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INSUFFICIENT
    except BranchCutError as exc:
        print(f"{exc}\nhint: reduce --ts", file=sys.stderr)
        return EXIT_BRANCH
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (KoopidError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy raises it at once for an array larger than the machine can
        # hold, such as the nodes of a 10^12-node grid
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
