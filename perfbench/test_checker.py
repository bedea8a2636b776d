"""Tests of the independent checker: it accepts correct artifacts and flags
broken ones.

Run: python3 -m pytest perfbench/test_checker.py   (or python3 perfbench/test_checker.py)

The documents come from the xagsynth CLI of this checkout and from a
hand-written circuit, so the checker is tested on what the program writes
and on input the program never saw.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import checker

ROOT = Path(__file__).resolve().parent.parent

# f1 = x2 x3, f2 = x1 x3, f3 = x1 x2 with 3 = 2n - 3 ANDs, in the exporter's
# layout: a zero wire first, output copies last
HAND_N3 = """7 10
1 3
3 1 1 1

2 1 0 0 3 XOR
2 1 1 2 4 AND
2 1 0 2 5 AND
2 1 0 1 6 AND
2 1 4 3 7 XOR
2 1 5 3 8 XOR
2 1 6 3 9 XOR
"""


def cli_output(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "xagsynth.cli", *args], env=env,
                          cwd=ROOT, check=True, capture_output=True, text=True).stdout


def gate_lines(text: str) -> tuple[list[str], list[str]]:
    lines = text.splitlines()
    return lines[:4], lines[4:]


def join(head: list[str], body: list[str]) -> str:
    return "\n".join(head + body) + "\n"


def and_to_xor(text: str) -> str:
    head, body = gate_lines(text)
    k = next(i for i, line in enumerate(body) if line.endswith(" AND"))
    body[k] = body[k][:-3] + "XOR"
    return join(head, body)


def retap_output(text: str) -> str:
    """Copy output n from the wire that feeds output n-1."""
    head, body = gate_lines(text)
    src = body[-2].split(" ")[2]
    parts = body[-1].split(" ")
    parts[2] = src
    body[-1] = " ".join(parts)
    return join(head, body)


def test_hand_written_circuit_passes_and_mutants_fail():
    assert checker.check_bristol(HAND_N3, 3, seed=1) == []
    assert checker.check_bristol(and_to_xor(HAND_N3), 3, seed=1)
    assert checker.check_bristol(retap_output(HAND_N3), 3, seed=1)


def test_cli_bristol_passes_and_mutants_fail():
    for n in (9, 10):
        text = cli_output("synth", "--n", str(n), "--format", "bristol")
        assert checker.check_bristol(text, n, seed=n) == []
        flipped = checker.check_bristol(and_to_xor(text), n, seed=n)
        assert any("AND gates" in p for p in flipped)
        assert any("wrong output bits" in p for p in flipped)
        retapped = checker.check_bristol(retap_output(text), n, seed=n)
        assert any("wrong output bits" in p for p in retapped)


def test_wide_circuit_is_checked_in_batches(monkeypatch):
    n = 300
    text = cli_output("synth", "--n", str(n), "--format", "bristol")
    monkeypatch.setattr(checker, "LIVE_BITS_BUDGET", 64 * 50)
    assert checker.check_bristol(text, n, seed=3) == []
    assert checker.check_bristol(retap_output(text), n, seed=3)


def test_bristol_format_rules():
    head, body = gate_lines(HAND_N3)
    broken = {
        "no blank line": "\n".join(head[:3] + body) + "\n",
        "wire written twice": join(head, body[:-1] + ["2 1 6 3 8 XOR"]),
        "read before write": join(head, ["2 1 0 9 3 XOR"] + body[1:]),
        "unknown op": join(head, body[:-1] + ["2 1 6 3 9 OR"]),
        "gate count": join(["8 11"] + head[1:], body),
        "leading zero": join(head, body[:-1] + ["2 1 06 3 9 XOR"]),
        "no final newline": HAND_N3[:-1],
    }
    for name, text in broken.items():
        problems = checker.check_bristol(text, 3, seed=1)
        assert problems, name


def test_cli_json_passes_and_mutants_fail():
    n = 11
    text = cli_output("synth", "--n", str(n), "--format", "json")
    assert checker.check_json(text, n, seed=2) == []
    doc = json.loads(text)
    gate = next(g for g in doc["gates"] if g["kind"] == "AND")
    gate["kind"] = "XOR"
    assert checker.check_json(json.dumps(doc), n, seed=2)
    doc = json.loads(text)
    doc["outputs"][0]["id"] = doc["outputs"][1]["id"]
    assert checker.check_json(json.dumps(doc), n, seed=2)
    doc = json.loads(text)
    doc["and_count"] += 1
    assert checker.check_json(json.dumps(doc), n, seed=2)


def test_report_known_answers():
    report = {"mode": "exhaustive", "arity": 6, "inputs_checked": 64, "outputs_checked": 6,
              "mismatch_count": 0, "mismatches": [], "and_count_observed": 9,
              "and_count_expected": 9, "sample_count": None, "seed": None, "passed": True}
    text = json.dumps(report)
    assert checker.check_report(text, 6, inputs=64, ands_expected=9) == []
    assert checker.check_report(text, 6, inputs=64, ands_expected=9, passed=False)
    assert checker.check_report(json.dumps({**report, "mismatch_count": 1}), 6,
                                inputs=64, ands_expected=9)
    assert checker.check_report(json.dumps({**report, "and_count_observed": 10}), 6,
                                inputs=64, ands_expected=9)


def test_points_cover_structured_inputs():
    points = checker.PointSet(5, seed=4, random_points=16)
    assert points.size == 5 + 2 + 16
    batch = checker.PointBatch(points, 0, points.size)
    x3 = batch.input_column(3)
    assert x3 & 1 == 0 and (x3 >> 1) & 1 == 1 and (x3 >> 4) & 1 == 0
    f3 = batch.expected_output(3)
    assert (f3 >> 1) & 1 == 1 and (f3 >> 4) & 1 == 1 and (f3 >> 3) & 1 == 0


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
