"""Command-line harness.

Subcommands:

* ``run``       -- execute an experiment grid from a spec file.
* ``gradcheck`` -- verify analytic gradients against finite differences.
* ``gen-data``  -- emit the synthetic dataset files a spec describes.
* ``eval``      -- score saved query/gallery embedding files.

Exit codes (every failure prints one ``error:`` line to stderr):

* 0 -- success.
* 1 -- a spec, configuration or argument rejected before any work
  starts (a spec file that is not UTF-8, dataset parameters the
  generator would refuse, repeated grid values and bad command-line
  numbers included), or a file or directory the system refuses to read
  or create (missing, a directory where a file is expected, an output
  path that is an existing file).
* 2 -- an input file whose content is rejected (bytes that are not
  UTF-8, malformed line, non-finite value, duplicate id, dimension
  mismatch, query class absent from the gallery), a failure during a
  run, or an array too large for memory.
* 3 -- ``gradcheck`` ran and a gradient missed its tolerance.

``MPRL_VERBOSE=0`` silences per-cell progress lines.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import InvalidConfig, InvalidDimension, MprlError, ProtocolViolation, SpecError
from .experiment import RunMemo, build_datasets, parse_spec, run_experiment
from .gradcheck import DEFAULT_K_VALUES, DEFAULT_TOLERANCE, run_gradcheck
from .retrieval import evaluate, load_embeddings, pairwise_sq_euclidean, report_to_json
from .synthgen import save_dataset

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3


def _verbose() -> bool:
    return os.environ.get("MPRL_VERBOSE", "1") != "0"


def _say(message: str) -> None:
    if _verbose():
        print(message)


def cmd_run(args) -> int:
    spec = parse_spec(args.spec)
    out_dir = args.out if args.out else spec.out_dir

    def progress(result):
        _say(
            f"{result.cell.name}: rank1={result.rank1:.4f} mAP={result.mean_ap:.4f} "
            f"({result.wall_seconds:.2f}s)"
        )

    results = run_experiment(spec, out_dir=out_dir, jobs=args.jobs, progress=progress)
    _say(f"wrote {len(results)} cells and summary.csv under {out_dir}")
    return EXIT_OK


def _parse_k_values(text: str) -> tuple[int, ...]:
    k_values = []
    for item in text.split(","):
        try:
            k_values.append(int(item))
        except ValueError:
            raise InvalidConfig(f"--k: {item.strip()!r} is not an integer") from None
        if k_values[-1] < 1:
            raise InvalidConfig(f"--k: class counts must be >= 1, got {k_values[-1]}")
        if k_values[-1] in k_values[:-1]:
            raise InvalidConfig(f"--k: class count {k_values[-1]} is repeated")
    return tuple(k_values)


def _worker_count(text: str) -> int:
    """``--jobs``: an integer >= 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def cmd_gradcheck(args) -> int:
    k_values = _parse_k_values(args.k)
    report = run_gradcheck(
        k_values=k_values, trials=args.trials, tolerance=args.tolerance, seed=args.seed,
    )
    for line in report.lines():
        print(line)
    if not report.passed:
        print(f"gradcheck FAILED at tolerance {args.tolerance:g}")
        return EXIT_CHECK_FAILED
    print(f"gradcheck passed at tolerance {args.tolerance:g}")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    spec = parse_spec(args.spec)
    seed = args.seed if args.seed is not None else spec.seeds[0]
    if seed < 0:
        raise InvalidConfig(f"--seed must be >= 0, got {seed}")
    # every dataset is built before --out is made, so a spec whose data
    # cannot be generated leaves no directory behind
    memo = RunMemo()
    real, _ = build_datasets(spec, seed, 0, memo)
    generated = {count: build_datasets(spec, seed, count, memo)[1] for count in spec.counts}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    real_path = out / f"real_seed{seed}.txt"
    save_dataset(real, real_path)
    _say(f"wrote {real_path}")
    for count, dataset in generated.items():
        if dataset is not None:
            gen_path = out / f"generated_n{count}_seed{seed}.txt"
            save_dataset(dataset, gen_path)
            _say(f"wrote {gen_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    queries = load_embeddings(args.query)
    gallery = load_embeddings(args.gallery)
    try:
        report = evaluate(pairwise_sq_euclidean(queries, gallery),
                          queries.labels, gallery.labels)
    except (InvalidDimension, ProtocolViolation) as exc:
        raise type(exc)(f"{args.query} against {args.gallery}: {exc}") from None
    text = report_to_json(report)
    if args.out:
        Path(args.out).write_text(text)
        _say(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, but a rejected argument exits with EXIT_VALIDATION."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mprl", description="virtual-label training and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid from a spec file")
    p_run.add_argument("--spec", required=True, help="spec file path")
    p_run.add_argument("--out", default=None, help="output directory (overrides spec)")
    p_run.add_argument("--jobs", type=_worker_count, default=1,
                       help="parallel worker processes (>= 1)")
    p_run.set_defaults(func=cmd_run)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--k", default=",".join(str(k) for k in DEFAULT_K_VALUES),
                        help="comma-separated class counts")
    p_grad.add_argument("--trials", type=int, default=100)
    p_grad.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_gen = sub.add_parser("gen-data", help="emit synthetic dataset files")
    p_gen.add_argument("--spec", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=None,
                       help="dataset seed (default: first seed in the spec)")
    p_gen.set_defaults(func=cmd_gen_data)

    p_eval = sub.add_parser("eval", help="score query/gallery embedding files")
    p_eval.add_argument("--query", required=True)
    p_eval.add_argument("--gallery", required=True)
    p_eval.add_argument("--out", default=None, help="report path (default: stdout)")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, InvalidConfig, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MprlError, MemoryError) as exc:
        # Python's own MemoryError may carry no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
