"""Command-line interface.

Subcommands: ``synth`` (write a circuit in bristol/dot/json form), ``verify``
(exhaustive or sampled equivalence check against the direct reference),
``lemmas`` (symbolic property suite), and ``stats`` (count summary).

Exit codes: 0 success, 1 verification/property failure, 2 usage, domain,
I/O or resource error (e.g. an output path in a missing directory, a sample
count too large to draw, or running out of memory).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from functools import partial
from typing import Callable, TextIO

from .circuit import MAX_DENSE_ARITY
from .io_formats import write_bristol, write_dot, write_json
from .synth import BASELINE, OPTIMAL, degree_lower_bound, synthesize, synthesize_plan
from .verify import check_exhaustive, check_lemma_suite, check_sampled, reference_anf

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
_WRITE_SLICE = 1 << 20  # characters per write: the text layer encodes each write whole


def _check_out_path(path: str) -> None:
    """Raise the ``OSError`` that ``open(path, "w")`` raises, naming ``path``, if
    it cannot create a file there: the path is empty, its parent does not
    resolve as given (``missing/..`` does not, though realpath reads it), or
    its last part is empty, ``.`` or ``..``."""
    try:
        # the parent as the OS sees it; trailing slashes belong to the last part
        os.stat(os.path.join(os.path.dirname(path.rstrip("/")) or ".", ""))
        if os.path.basename(path) in ("", ".", ".."):  # a directory, or none
            raise OSError(errno.EISDIR if path else errno.ENOENT, "")
    except OSError as exc:
        raise OSError(exc.errno, os.strerror(exc.errno), path) from None


def write_atomic(path: str, write: Callable[[TextIO], object]) -> None:
    """Call ``write`` on a temp file in the same directory, then rename it
    onto ``path``; if ``write`` raises, the temp file is removed and
    ``path`` is left as it was. A symlink at ``path`` is written through:
    the temp file goes beside the file it names, and replaces that.

    The file gets the mode a plain ``open()`` would create it with: 0o666
    less the umask. An ``OSError`` is re-raised naming ``path``, never the
    temp file. A path :func:`_check_out_path` refuses is refused before
    realpath resolves it.
    """
    _check_out_path(path)
    real = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(real), f".tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                write(fh)
            os.replace(tmp, real)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`write_atomic`, a slice at a time."""
    slices = (text[i:i + _WRITE_SLICE] for i in range(0, len(text), _WRITE_SLICE))
    write_atomic(path, lambda fh: fh.writelines(slices))


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
    if args.out is not None:  # refused before synthesis, which may take long
        _check_out_path(args.out)
    plan = synthesize_plan(args.n, args.construction)
    circuit, (s1, s2, s3) = plan.circuit, plan.stage_and_counts
    # the writer streams into the file, so the whole text is never held
    write = {"bristol": partial(write_bristol, circuit), "dot": partial(write_dot, circuit),
             "json": partial(write_json, circuit, construction=args.construction)}[args.format]
    print(
        f"n={args.n} construction={args.construction} "
        f"and_count={circuit.and_count()} "
        f"stage_ands={s1}+{s2}+{s3}",
        file=sys.stderr,
    )
    if args.out is not None:
        write_atomic(args.out, write)
    else:
        write(sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # refuse before synthesis: a circuit for a huge n can exhaust memory
    # long before check_exhaustive would apply the same cap
    if args.mode == "exhaustive" and args.n > MAX_DENSE_ARITY:
        raise ValueError(f"exhaustive check limited to arity {MAX_DENSE_ARITY}")
    if args.report is not None:
        _check_out_path(args.report)
    circuit = synthesize(args.n, args.construction)
    if args.mode == "exhaustive":
        report = check_exhaustive(circuit, expected_and_count=args.expect_ands)
    else:
        report = check_sampled(circuit, args.samples, args.seed,
                               expected_and_count=args.expect_ands)
    if args.report is not None:
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
    checks = check_lemma_suite(args.max_n)
    for check in checks:
        status = "pass" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail and not check.passed else ""
        print(f"{check.name} n={check.n}: {status}{detail}")
    passed = all(c.passed for c in checks)
    print("all checks passed" if passed else "FAILURES present", file=sys.stderr)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _cmd_stats(args) -> int:
    n = args.n
    optimal = synthesize(n, OPTIMAL)
    opt_count, opt_gates = optimal.and_count(), len(optimal)
    del optimal  # released before the baseline is built
    baseline = synthesize(n, BASELINE)
    base_count = baseline.and_count()
    bound = degree_lower_bound(reference_anf(n, 1))
    print(f"n = {n}")
    print(f"optimal and_count  = {opt_count} (target 2n-3 = {2 * n - 3})")
    print(f"baseline and_count = {base_count} (target 3n-6 = {3 * n - 6})")
    print(f"per-output degree lower bound = {bound}")
    if bound > opt_count:  # every output is a degree-(n-1) monomial: one bound for all
        print(f"error: optimal and_count {opt_count} is below a degree lower bound",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"gates: optimal={opt_gates} baseline={len(baseline)}")
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
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
