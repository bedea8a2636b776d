"""Run the test suite against hand mutants of the library.

Usage: python tools/mutants.py

Copies src/, tests/, perfbench/, README.md and pyproject.toml into a
temporary directory, then for each mutant below replaces ``old`` with
``new`` in ``path``, runs ``python -m pytest -x -q -p no:cacheprovider``
there and restores the file. A mutant whose ``old`` does not occur exactly
once in its file is refused, not run. Prints ``<id> killed``, ``<id>
survived`` or ``<id> refused`` per mutant and exits 1 if any mutant
survived or was refused, or 2 if the suite fails with no mutant applied.
Nothing is written inside the checkout.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ["src", "tests", "perfbench", "README.md", "pyproject.toml"]
TIMEOUT = 900  # seconds

C = "src/xagsynth/circuit.py"
S = "src/xagsynth/synth.py"
V = "src/xagsynth/verify.py"
A = "src/xagsynth/anf.py"
IO = "src/xagsynth/io_formats.py"
CLI = "src/xagsynth/cli.py"

# stage 1's seven-gate step through stage 2's products, and the same gates
# with the odd pair sums x_{m-2} XOR x_{m-1} built after sigma_n instead, so
# that every input and the even pair sums live through stage 1
_STEPS = '''    run([XOR, XOR, XOR, XOR, AND, XOR, AND],
        [lane(b - 4, 7), lane(2, 2), lane(3, 2), lane(b, 7), lane(b + 2, 7), lane(b + 4, 7),
         lane(b - 1, 7)],
        [lane(2, 2), lane(3, 2), lane(4, 2), lane(3, 2), lane(b + 3, 7), lane(3, 2),
         lane(b + 5, 7)], reps)
    sigma += 7 * reps
    if not odd:  # prefix[n-2] is gate sigma_{n-1} - 3; prefix[n-1] and prefix[n] follow it
        previous = sigma  # sigma_{n-1}, tapped again by stage 2
        sigma = and_(previous, xor(sigma - 3, n - 2, n - 1))  # AND prefix[n]
    c1 = builder.and_gates_created

    # stage 2: s_i = pair[i] AND sigma_n; for even n the last is the output x_1...x_{n-1}
    # = sigma_{n-1} AND prefix[n-1]. Step r's pairs give s_{m-2} and s_{m-1}
    s1 = and_(n, sigma)
    and_(n + 1, sigma)
    sigmas = array("i", [sigma]) * reps
    run([AND, AND], [lane(b + 1, 7), lane(b + 2, 7)], [sigmas, sigmas], reps)
'''
_ODD_PAIRS_IN_STAGE2 = '''    run([XOR, XOR, XOR, AND, XOR, AND],
        [lane(b - 4, 6), lane(3, 2), lane(b, 6), lane(b + 1, 6), lane(b + 3, 6), lane(b - 1, 6)],
        [lane(2, 2), lane(4, 2), lane(3, 2), lane(b + 2, 6), lane(3, 2), lane(b + 4, 6)], reps)
    sigma += 6 * reps
    if not odd:
        previous = sigma
        sigma = and_(previous, xor(sigma - 3, n - 2, n - 1))
    c1 = builder.and_gates_created
    odd_pairs = run([XOR], [lane(2, 2)], [lane(3, 2)], reps)
    s1 = and_(n, sigma)
    and_(n + 1, sigma)
    sigmas = array("i", [sigma]) * reps
    run([AND, AND], [odd_pairs, lane(b + 1, 6)], [sigmas, sigmas], reps)
'''

# (id, path, old, new)
MUTANTS = [
    # the builder's runs
    ("S1", C, "(self._first, firsts), (self._second, seconds)",
     "(self._first, seconds), (self._second, firsts)"),  # a run's lanes swapped
    ("S2", C, "arr[gid + j::p]", "arr[gid + (j + 1) % p::p]"),  # a lane one gate off
    ("S3", C, "count * pattern.count(AND)", "count * (AND in pattern)"),  # one AND per repeat
    ("S4", S, "run([AND], [p], [q], n - 2)", "run([AND], [q], [p], n - 2)"),  # baseline outputs
    # operand order and ids in the optimal construction
    ("R1", S, "and_(n, n + 1)", "and_(n + 1, n)"),  # sigma_3's operands
    ("R2", S, "s1 = and_(n, sigma)\n    and_(n + 1, sigma)",
     "s1 = and_(n + 1, sigma)\n    and_(n, sigma)"),  # the first two pair products swapped
    ("R3", S, "and_(previous, previous + 1)", "and_(previous, previous + 2)"),  # even last output
    ("R4", V, "random.Random(seed)", "random.Random()"),  # sampled points not seeded
    ("R5", S, "and_(previous, xor(sigma - 3, n - 2, n - 1))",
     "and_(xor(sigma - 3, n - 2, n - 1), previous)"),  # even sigma_n's operands
    # named nodes, lanes, caches and flags
    ("C1", S, "return sigma, stage2, outputs,",
     "return sigma, [builder.and_(0, 1)] * len(stage2), outputs,"),
    ("C2", S, "stage2, outputs, (c1", "stage2, [sigma] * len(outputs), (c1"),
    ("C3", S, "lane(b + 4, 7),", "lane(b + 3, 7),"),  # u reads prefix[m-1], not t
    ("O1", S, _STEPS, _ODD_PAIRS_IN_STAGE2),  # the same circuit, gates in the old order
    ("O2", S, "s[1])  # the chain through s_2\n    evens = s[3::2]",
     "*s[1::2])\n    evens = s[3:3]"),  # f_1's chain as one xor call, an int per operand
    ("C4", C, "slice(None, None, count - 1 or 1)", "slice(None, 1)"),
    ("C5", C, "not (min(lane) >= 0 and", "not (True and"),
    ("C6", V, "enumerate(zip(got_cols, expected_cols), start=1)",
     "enumerate(zip(got_cols[1:], expected_cols[1:]), start=2)"),
    ("C7", C, "range(1, self.size + 1)", "range(self.size)"),
    ("C8", C, "k |= 1", "k |= 0"),
    ("C9", C, "k |= 2\n                    plan[b] = 32\n", "k |= 2\n"),
    ("C10", C, "_FLAGS = bytes([0]) + bytes([1]) * 255",
     "_FLAGS = bytes([0]) + bytes([1]) * 31 + bytes([0]) + bytes([1]) * 223"),
    ("C11", C, "countOf(compress(self._kinds, self._plan()), 8)", "countOf(self._plan(), 8)"),
    ("C12", C, "for gid in self._ids:\n                plan[gid] = 32",
     "for gid in self._ids:\n                plan[gid] = 1"),
    # circuit.variable_column and anf.iter_one_bits
    ("V1", C, "    width = 2 * block\n", "    width = block\n"),  # period doubled from half
    ("V2", C, "    return mask << block\n", "    return mask\n"),  # x_v's column inverted
    ("V3", C, "if not 1 <= var <= arity:", "if not 1 <= var <= arity + 1:"),  # range check
    ("B1", A, "yield lsb.bit_length() - 1", "yield lsb.bit_length()"),
    ("B2", A, "    while x:\n        lsb", "    while x > 1:\n        lsb"),  # bit 0 alone lost
    ("B3", V, "islice(iter_one_bits(diff), MISMATCH_CAP)",
     "islice(iter_one_bits(diff), MISMATCH_CAP - 1)"),
    # the output path check
    ("P1", CLI, 'os.path.dirname(path.rstrip("/"))', "os.path.dirname(path)"),
    # Bristol, DOT and JSON export: a second export of the same circuit
    # differs (TestBristolExport/TestDot/TestJson::test_deterministic)
    ("D1", IO, "        live = plan[lo:hi]\n",
     "        live = plan[lo:hi]\n        plan[lo:hi] = bytes(len(live))\n"),
    ("D2", IO, "labels_by_gid: dict[int, list[str]] = {}",
     'labels_by_gid = write_dot.__dict__.setdefault("seen", {})'),
    ("D3", IO, '"gates": [\')\n', '"gates": [\')\n    circuit._live = bytearray(len(kinds))\n'),
    # Bristol header and AND lines (test_header_shape,
    # test_n3_optimal_has_three_and_lines)
    ("D4", IO, "lines = wire[-1] - n + outs ", "lines = wire[-1] - n + outs - 1 "),
    ("D5", IO, "{' '.join(['1'] * outs)}", "{' '.join(['1'] * outs)} "),
    ("D6", IO, "2 1 0 0 {n} XOR\\n\")", "2 1 0 0 {n} AND\\n\")"),
    # Bristol import errors (the eight older TestBristolImportErrors tests)
    ("E1", IO, "if len(header) < 3:", "if len(header) < 1:"),
    ("E2", IO, "if nbody != ngates:", "if nbody > ngates:"),
    ("E3", IO, "else gate_of.get(w, -1) for w in in_wires]",
     "else gate_of.get(w, 0) for w in in_wires]"),
    ("E4", IO, '_OPS = {"AND": (8, 2),', '_OPS = {"NAND": (8, 2), "AND": (8, 2),'),
    ("E5", IO, "if out_wire < n_inputs or out_wire in gate_of:", "if out_wire < n_inputs:"),
    ("E6", IO, "[gate_of.get(w, -1) for w in out_wires]", "[gate_of.get(w, 0) for w in out_wires]"),
    ("E7", IO, "if nin != arity or nout != 1:", "if nout != 1:"),
    ("E8", IO, "raise BristolFormatError(\n                f\"line {line_no}: expected an integer",
     "raise ValueError(\n                f\"line {line_no}: expected an integer"),
    # construction nodes (TestSigma::test_small_anf, TestStage2 and TestStage3's
    # single-n tests, TestSynthesize's n4 count, labels and stage budget)
    ("N1", S, "sigma = xor(and_(n, n + 1), 1)", "sigma = xor(and_(n, n + 1), 2)"),
    ("N2", S, "    and_(n + 1, sigma)\n", "    and_(n, sigma)\n"),  # s_2 = pair[1] AND sigma_n
    ("N3", S, "and_(previous, previous + 1)", "and_(sigma, previous + 1)"),
    ("N4", S, "evens = s[3::2]", "evens = s[2::2]"),  # f_1 sums the wrong products
    ("N5", S, "[range(f1, f1 + len(s))], [s], len(s)",
     "[range(f1, f1 + len(s))], [s[::-1]], len(s)"),
    ("N6", S, "*builder.run([AND], [p], [q], n - 2), 2 * n - 3]",
     "*builder.run([AND], [p], [q], n - 2), 2 * n - 4]"),  # baseline f_n one prefix short
    ("N7", S, '_Numbered("f_", len(outputs))', '_Numbered("f", len(outputs))'),
    ("N8", S, "    c1 = builder.and_gates_created\n", "    c1 = builder.and_gates_created - 1\n"),
    # evaluation (TestEval's single-point and small-table tests)
    ("X1", C, "v = cols[a] & cols[b] if f & 8", "v = 0 if f & 8"),
    ("X2", C, "v = cols[a] & cols[b] if f & 8", "v = cols[a] | cols[b] if f & 8"),
    ("X3", C, "return [cols[gid] for gid in self._ids]",
     "return [cols[gid] for gid in reversed(self._ids)]"),
    ("X4", C, "if len(cols) != n:", "if len(cols) > n:"),
    ("X5", C, "for v in range(1, self.arity + 1))", "for v in range(self.arity, 0, -1))"),
    ("X6", C, "else cols[a] ^ cols[b]", "else cols[a] | cols[b]"),
    # exhaustive reports (TestExhaustive::test_optimal_n6, test_baseline_n6)
    ("X7", V, "_report(EXHAUSTIVE, circuit, 1 << n,", "_report(EXHAUSTIVE, circuit, 1 << n - 1,"),
    ("X8", S, "2 * n - 3, -1), n - 1]", "2 * n - 3, -1), n - 2]"),  # baseline q_n
]


def suite_passes(tmp: str, env: dict) -> bool:
    """Run the copied suite; a run that hangs past TIMEOUT counts as failing."""
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                             cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale .pyc between mutants
    env.pop("PYTHONPATH", None)  # the copy's pyproject.toml puts its own src first
    failed = False
    with tempfile.TemporaryDirectory(prefix="xagsynth-mutants-") as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        if not suite_passes(tmp, env):  # else every mutant would read as killed
            print("the suite fails with no mutant applied", file=sys.stderr)
            return 2
        for mid, path, old, new in MUTANTS:
            target = Path(tmp) / path
            original = target.read_text()
            if original.count(old) != 1:
                print(f"{mid} refused", flush=True)
                failed = True
                continue
            target.write_text(original.replace(old, new))
            try:
                killed = not suite_passes(tmp, env)
            finally:
                target.write_text(original)
            print(f"{mid} {'killed' if killed else 'survived'}", flush=True)
            failed = failed or not killed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
