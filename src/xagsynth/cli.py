"""Command-line interface.

Subcommands: ``synth`` (write a circuit in bristol/dot/json form), ``verify``
(exhaustive or sampled equivalence check against the direct reference),
``lemmas`` (symbolic property suite), and ``stats`` (count summary).

Exit codes: 0 success, 1 verification/property failure, 2 usage, domain or
I/O error (e.g. an output path in a missing directory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .io_formats import export_bristol, export_dot, export_json
from .synth import BASELINE, OPTIMAL, degree_lower_bound, synthesize, synthesize_plan
from .verify import check_exhaustive, check_lemma_suite, check_sampled, reference_anf

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename.

    An ``OSError`` is re-raised naming ``path``, never the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xagsynth",
        description="Synthesize and verify AND-optimal circuits for all "
                    "leave-one-out products of n inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a circuit and write it out")
    p.add_argument("--n", type=int, required=True, help="number of inputs (>= 3)")
    p.add_argument("--construction", choices=[OPTIMAL, BASELINE], default=OPTIMAL)
    p.add_argument("--format", choices=["bristol", "dot", "json"], default="bristol")
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("verify", help="check a synthesized circuit against the reference")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--construction", choices=[OPTIMAL, BASELINE], default=OPTIMAL)
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--expect-ands", type=int, default=None)
    p.add_argument("--report", help="write the JSON verification report here")

    p = sub.add_parser("lemmas", help="run the symbolic property suite")
    p.add_argument("--max-n", type=int, default=12)

    p = sub.add_parser("stats", help="print counts and lower bounds for one arity")
    p.add_argument("--n", type=int, required=True)

    return parser


def _cmd_synth(args) -> int:
    plan = synthesize_plan(args.n, args.construction)
    circuit = plan.circuit
    if args.format == "bristol":
        text = export_bristol(circuit)
    elif args.format == "dot":
        text = export_dot(circuit)
    else:
        text = export_json(circuit, plan.construction)
    s1, s2, s3 = plan.stage_and_counts
    print(
        f"n={plan.n} construction={plan.construction} "
        f"and_count={circuit.and_count()} "
        f"stage_ands={s1}+{s2}+{s3}",
        file=sys.stderr,
    )
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    circuit = synthesize(args.n, args.construction)
    if args.mode == "exhaustive":
        report = check_exhaustive(circuit, expected_and_count=args.expect_ands)
    else:
        report = check_sampled(circuit, args.samples, args.seed,
                               expected_and_count=args.expect_ands)
    if args.report:
        write_text_atomic(args.report, json.dumps(report.to_dict(), indent=2) + "\n")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} n={report.arity} mode={report.mode} "
        f"inputs={report.inputs_checked} mismatches={report.mismatch_count} "
        f"and_count={report.and_count_observed}"
        + (f" expected={report.and_count_expected}"
           if report.and_count_expected is not None else ""),
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_lemmas(args) -> int:
    result = check_lemma_suite(args.max_n)
    for check in result.checks:
        status = "pass" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail and not check.passed else ""
        print(f"{check.name} n={check.n}: {status}{detail}")
    print(f"{'all checks passed' if result.all_passed else 'FAILURES present'}",
          file=sys.stderr)
    return EXIT_OK if result.all_passed else EXIT_VERIFY_FAILED


def _cmd_stats(args) -> int:
    n = args.n
    optimal = synthesize(n, OPTIMAL)
    baseline = synthesize(n, BASELINE)
    opt_count = optimal.and_count()
    base_count = baseline.and_count()
    bound = degree_lower_bound(reference_anf(n, 1))
    print(f"n = {n}")
    print(f"optimal and_count  = {opt_count} (target 2n-3 = {2 * n - 3})")
    print(f"baseline and_count = {base_count} (target 3n-6 = {3 * n - 6})")
    print(f"per-output degree lower bound = {bound}")
    if any(degree_lower_bound(reference_anf(n, i)) > opt_count for i in range(1, n + 1)):
        print(f"error: optimal and_count {opt_count} is below a degree lower bound",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"gates: optimal={len(optimal)} baseline={len(baseline)}")
    return EXIT_OK


_HANDLERS = {
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    "lemmas": _cmd_lemmas,
    "stats": _cmd_stats,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
