import hashlib
import json
import os
import stat
import subprocess
import sys
import time

import pytest

import xagsynth
from xagsynth import (
    BASELINE,
    OPTIMAL,
    Circuit,
    check_exhaustive,
    export_bristol,
    export_dot,
    export_json,
    import_bristol,
    synthesize,
)
from xagsynth.cli import cli, write_text_atomic

from oracles import patch_optimal, stage2_at_one_and, traced


class TestSynthCommand:
    def test_bristol_to_file(self, tmp_path, capsys):
        out = tmp_path / "c.bristol"
        assert cli(["synth", "--n", "5", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "and_count=7" in err and "stage_ands=3+4+0" in err
        circuit = import_bristol(out.read_text())
        assert check_exhaustive(circuit, expected_and_count=7).passed

    def test_stdout_default(self, capsys):
        assert cli(["synth", "--n", "3", "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        assert cli(["synth", "--n", "4", "--construction", "baseline",
                    "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["construction"] == "baseline" and doc["and_count"] == 6

    def test_n_too_small_is_usage_error(self, capsys):
        assert cli(["synth", "--n", "2"]) == 2
        assert "at least 3" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self, capsys):
        assert cli(["synth", "--n", "5", "--format", "tikz"]) == 2

    def test_identical_invocations_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli(["synth", "--n", "9", "--out", str(a)])
        cli(["synth", "--n", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 64])
    @pytest.mark.parametrize("construction", [OPTIMAL, BASELINE])
    @pytest.mark.parametrize("fmt", ["bristol", "json", "dot"])
    def test_streamed_bytes_match_string_exports(self, tmp_path, capsysbinary,
                                                 n, construction, fmt):
        c = synthesize(n, construction)
        expected = {"bristol": export_bristol(c), "json": export_json(c, construction),
                    "dot": export_dot(c)}[fmt].encode()
        argv = ["synth", "--n", str(n), "--construction", construction, "--format", fmt]
        out = tmp_path / "c"
        assert cli(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == expected
        capsysbinary.readouterr()
        assert cli(argv) == 0
        assert capsysbinary.readouterr().out == expected

    def test_one_structural_walk_per_run(self, monkeypatch, tmp_path):
        # every command builds one plan, the one backward walk over the
        # gates, and no library path copies it into reachable flags
        builds = []
        plan = Circuit._plan

        def counted_plan(self):
            if self._live is None:
                builds.append(len(self))
            return plan(self)

        def refuse(self):
            raise AssertionError("Circuit.reachable was called")

        monkeypatch.setattr(Circuit, "_plan", counted_plan)
        monkeypatch.setattr(Circuit, "reachable", refuse)
        for argv in (["synth", "--n", "40", "--out", str(tmp_path / "c")],
                     ["synth", "--n", "40", "--format", "json", "--out", str(tmp_path / "j")],
                     ["verify", "--n", "40", "--mode", "sample", "--samples", "50"],
                     ["verify", "--n", "12", "--mode", "exhaustive"]):
            builds.clear()
            assert cli(argv) == 0
            assert len(builds) == 1, argv


def _every_command_without(monkeypatch, tmp_path, view):
    """Every command and the Bristol-to-JSON conversion, with the ``Circuit``
    property ``view`` made to raise; returns the converted JSON document."""
    def refuse(self):
        raise AssertionError(f"Circuit.{view} was read")

    monkeypatch.setattr(Circuit, view, property(refuse))
    for fmt in ("bristol", "dot", "json"):
        assert cli(["synth", "--n", "9", "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    for argv in (["verify", "--n", "9", "--mode", "exhaustive"],
                 ["verify", "--n", "9", "--mode", "sample", "--samples", "100"],
                 ["stats", "--n", "9"], ["lemmas", "--max-n", "6"]):
        assert cli(argv) == 0, argv
    circuit = import_bristol((tmp_path / "bristol").read_text())
    write_text_atomic(str(tmp_path / "c.json"), export_json(circuit))
    return json.loads((tmp_path / "c.json").read_text())


def test_no_library_path_reads_the_gate_tuples(monkeypatch, tmp_path):
    # Circuit.gates builds a tuple per gate on every call; every command and
    # the Bristol-to-JSON conversion must run on the packed arrays alone
    assert _every_command_without(monkeypatch, tmp_path, "gates")["and_count"] == 15


def test_no_library_path_reads_the_output_pairs(monkeypatch, tmp_path):
    # Circuit.outputs builds a (label, id) tuple per output on every call;
    # every command and the Bristol-to-JSON conversion must read the ids array
    doc = _every_command_without(monkeypatch, tmp_path, "outputs")
    assert doc["outputs"][-1]["label"] == "o9"


class TestVerifyCommand:
    def test_exhaustive_pass(self):
        assert cli(["verify", "--n", "10", "--construction", "optimal",
                    "--mode", "exhaustive", "--expect-ands", "17"]) == 0

    def test_wrong_expectation_fails_with_one(self):
        assert cli(["verify", "--n", "10", "--expect-ands", "16"]) == 1

    def test_sampled_with_report(self, tmp_path):
        report = tmp_path / "report.json"
        rc = cli(["verify", "--n", "101", "--mode", "sample", "--samples", "500",
                  "--seed", "11", "--report", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["passed"] and doc["seed"] == 11 and doc["sample_count"] == 500

    def test_baseline(self):
        assert cli(["verify", "--n", "8", "--construction", "baseline",
                    "--expect-ands", "18"]) == 0


class TestLemmasCommand:
    def test_all_pass(self, capsys):
        assert cli(["lemmas", "--max-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "stage1-sigma n=6: pass" in out

    def test_stdout_bytes_pinned(self, capsys):
        assert cli(["lemmas", "--max-n", "12"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "84a8a28b1d42b860e0e7a706f7ee9cba3697cdb1525d6bf9282e7ba7d7c7e5c8"

    def test_failing_check_exits_one_with_its_detail(self, monkeypatch, capsys):
        # the stage-2 ids name a dead AND(x1, x2): the outputs stay right,
        # but the pair-product check reads the nodes the plan names
        patch_optimal(monkeypatch, stage2_at_one_and)
        assert cli(["lemmas", "--max-n", "3"]) == 1
        captured = capsys.readouterr()
        assert "FAILURES present" in captured.err
        assert "pair-product-two-monomials n=3: FAIL  (i=1: got x1x2)" in captured.out.splitlines()

    def test_wrong_sigma_detail_names_the_polynomial(self, monkeypatch, capsys):
        # gate 0 (x1) named as sigma_3: the AND count is right, the node is not
        patch_optimal(monkeypatch, lambda builder, sigma, stage2, outputs: (0, stage2, outputs))
        assert cli(["lemmas", "--max-n", "3"]) == 1
        assert "stage1-sigma n=3: FAIL  (got x1; and_gates=1 expected=1)" in \
            capsys.readouterr().out.splitlines()

    def test_bad_range(self):
        assert cli(["lemmas", "--max-n", "99"]) == 2


class TestStatsCommand:
    def test_n6(self, capsys):
        assert cli(["stats", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "optimal and_count  = 9" in out
        assert "baseline and_count = 12" in out
        assert "degree lower bound = 4" in out

    def test_bound_above_and_count_fails(self, monkeypatch, capsys):
        monkeypatch.setattr("xagsynth.cli.degree_lower_bound", lambda a: 10 ** 6)
        assert cli(["stats", "--n", "6"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_one_reference_anf_for_all_outputs(self, monkeypatch, capsys):
        # every output's bound is the same, so the command stays linear in n
        calls = []
        reference_anf = xagsynth.cli.reference_anf

        def counted(n, i):
            calls.append(i)
            return reference_anf(n, i)

        monkeypatch.setattr("xagsynth.cli.reference_anf", counted)
        assert cli(["stats", "--n", "50"]) == 0
        assert "degree lower bound = 48" in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("n,digest", [
        (3, "97820e5900be4702dcdf8c05b24f1ca8a1c002bfc5991a08622d4c823732d3a8"),
        (6, "7a53d802be46f28bdafee31f7e6a598f5894413ca5addc6deb6008ba590a86e0"),
        (1001, "41ff822e9c94d4d281efcfb7aeb4f843e4330f73a208340d1d5a11fded171bce"),
    ], ids=["n3", "n6", "n1001"])
    def test_stdout_bytes_pinned(self, capsys, n, digest):
        # every line, the gate counts of both constructions included
        assert cli(["stats", "--n", str(n)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_missing_subcommand(self):
        assert cli([]) == 2


class TestIOErrors:
    @pytest.mark.parametrize("argv", [["verify", "--n", "5", "--report"],
                                      ["synth", "--n", "5", "--out"]])
    def test_missing_directory_is_usage_error(self, tmp_path, capsys, argv):
        assert cli(argv + [str(tmp_path / "missing" / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "r.json" in err and ".tmp-" not in err
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_rename_onto_directory_names_the_given_path(self, tmp_path, capsys):
        target = tmp_path / "r.json"
        target.mkdir()
        assert cli(["verify", "--n", "5", "--report", str(target)]) == 2
        err = capsys.readouterr().err
        assert str(target) in err and ".tmp-" not in err
        assert not list(tmp_path.rglob(".tmp-*"))

    # realpath drops what makes most of these paths name no file: "" is the
    # working directory, "new.bristol/" and "new.bristol/." a file
    # new.bristol, "missing/../new.bristol" a file in the working directory.
    # Each path is refused as open() refuses it, before synthesis, which
    # raises here
    @pytest.mark.parametrize("path", ["missing/new.bristol", "", "new.bristol/", "new.bristol/.",
                                      "missing/../new.bristol", "missing/..", "missing/sub/",
                                      "file/."],
                             ids=["missing-dir", "empty", "slash", "dot", "missing-parent",
                                  "missing-dotdot", "missing-slash", "file-dot"])
    @pytest.mark.parametrize("argv", [["synth", "--n", "3", "--out"],
                                      ["verify", "--n", "3", "--report"]],
                             ids=["synth", "verify"])
    def test_path_naming_no_file_is_refused(self, tmp_path, monkeypatch, capsys, argv, path):
        def refuse(*args):
            raise AssertionError("synthesized before the path was checked")

        monkeypatch.setattr("xagsynth.cli.synthesize_plan", refuse)
        monkeypatch.setattr("xagsynth.cli.synthesize", refuse)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        (cwd / "file").touch()
        monkeypatch.chdir(cwd)
        with pytest.raises(OSError) as refused:
            open(path, "w")
        assert cli(argv + [path]) == 2
        assert capsys.readouterr() == ("", f"error: {refused.value}\n")
        assert sorted(tmp_path.rglob("*")) == [cwd, cwd / "file"]  # no new file, no .tmp-*


class TestAtomicStreaming:
    def test_text_is_encoded_a_slice_at_a_time(self, tmp_path):
        # one write of the whole text would encode a second full copy
        text = "0123456789abcde\n" * (1 << 19)  # 8 MiB
        target = tmp_path / "t.json"
        _, _, peak = traced(lambda: write_text_atomic(str(target), text))
        assert target.read_text() == text
        assert peak < 3 << 20, peak

    def test_writer_failing_partway_leaves_target_untouched(self, tmp_path, monkeypatch, capsys):
        def failing(circuit, fh):
            fh.write("1 2\n1 1\n1 1\n\n" * 3)
            fh.flush()
            raise MemoryError

        target = tmp_path / "existing.bristol"
        target.write_text("old")
        monkeypatch.setattr("xagsynth.cli.write_bristol", failing)
        assert cli(["synth", "--n", "5", "--out", str(target)]) == 2
        assert capsys.readouterr().err.endswith("\nerror: out of memory\n")
        assert target.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.bristol"]

    @pytest.mark.parametrize("argv,want", [
        (["synth", "--n", "5", "--out"], lambda: export_bristol(synthesize(5))),
        (["verify", "--n", "5", "--report"],
         lambda: json.dumps(check_exhaustive(synthesize(5)).to_dict(), indent=2) + "\n"),
    ], ids=["synth", "verify"])
    def test_symlink_is_written_through(self, tmp_path, argv, want):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        link, target = tmp_path / "a" / "link", tmp_path / "b" / "target"
        link.symlink_to(os.path.join("..", "b", "target"))
        for _ in range(2):  # the target new, then replaced
            assert cli(argv + [str(link)]) == 0
            assert link.is_symlink() and target.read_text() == want()
        assert not list(tmp_path.rglob(".tmp-*"))


# Runs argv[1:] and prints its exit code and os.wait4 ru_maxrss. Started
# from this small launcher, the child's peak is its own: a child forked
# straight from the test process would inherit that process's peak RSS.
_LAUNCH = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


_SRC = os.path.dirname(os.path.dirname(xagsynth.__file__))  # on a child's PYTHONPATH


def _child_peak_mib(argv):
    """Peak RSS of a fresh interpreter running ``argv`` against this package."""
    out = subprocess.run([sys.executable, "-c", _LAUNCH, sys.executable, *argv],
                         env=dict(os.environ, PYTHONPATH=_SRC),
                         capture_output=True, text=True, check=True).stdout
    code, kib = map(int, out.split())
    assert code == 0, argv
    return kib / 1024  # ru_maxrss is in KiB on Linux


# Installs the benchmark tracer's shims on a fresh Tracer and prints the
# names it found nothing to wrap for. Run in a child, so the shims never
# reach this test session's modules.
_TRACER_MISSING = """import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.Tracer(memory=False)
tracer.install_all(t)
print(json.dumps(t.missing))
"""


def test_benchmark_tracer_finds_the_names_it_wraps():
    # a per-layer metric whose function was renamed away reads 0 silently;
    # io_formats.export_bristol is the one known stale name (synth streams
    # through write_bristol, and the tracer still looks in cli)
    perfbench = os.path.join(os.path.dirname(_SRC), "perfbench")
    out = subprocess.run([sys.executable, "-c", _TRACER_MISSING, perfbench],
                         env=dict(os.environ, PYTHONPATH=_SRC),
                         capture_output=True, text=True, check=True).stdout
    assert set(json.loads(out)) <= {"io_formats.export_bristol"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each costs every CLI run start-up time; a fact, not a timing, so it
    # cannot flake on a slow host
    code = ("import sys, xagsynth.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_SRC),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
class TestStreamingMemory:
    # the artifact streams into the file, so writing it costs a bounded
    # margin over the circuit itself, not a multiple of the text's size
    N = 20000

    @pytest.fixture(scope="class")
    def synth_only_mib(self):
        return _child_peak_mib(["-c", f"import xagsynth.cli; xagsynth.synthesize({self.N})"])

    @pytest.mark.parametrize("fmt", ["bristol", "json"])
    def test_synth_peaks_near_the_circuit(self, tmp_path, synth_only_mib, fmt):
        peak = _child_peak_mib(["-m", "xagsynth.cli", "synth", "--n", str(self.N),
                                "--format", fmt, "--out", str(tmp_path / "c")])
        assert peak - synth_only_mib <= 16, (peak, synth_only_mib)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_synth_peaks_near_the_packed_circuit(tmp_path):
    # about 9 B of gate arrays per gate and a 4-byte id per output: writing
    # the n = 50000 circuit's Bristol text peaks about 8 MiB over the
    # imports, where an 8-byte wire map per gate took about 11, a label and
    # a tuple per output about 19 and tuple gates about 44
    import_only = _child_peak_mib(["-c", "import xagsynth.cli"])
    peak = _child_peak_mib(["-m", "xagsynth.cli", "synth", "--n", "50000", "--format", "bristol",
                            "--out", str(tmp_path / "c")])
    assert peak - import_only <= 11, (peak, import_only)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
class TestSampledMemory:
    # the structured points are evaluated in fixed-width blocks, so a
    # sampled check costs a margin over the circuit that grows with
    # n * samples, not with n^2
    N = 12000

    def test_sampled_verify_peaks_near_the_circuit(self):
        synth_only = _child_peak_mib(["-c", f"import xagsynth.cli; xagsynth.synthesize({self.N})"])
        peak = _child_peak_mib(["-m", "xagsynth.cli", "verify", "--n", str(self.N),
                                "--mode", "sample", "--samples", "1000"])
        assert peak - synth_only <= 24, (peak, synth_only)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
class TestDenseMemory:
    # the pass drops each input column after its last reader and the
    # reference columns are built one at a time, so an exhaustive check
    # holds the live columns and the outputs, not every input and reference
    def test_exhaustive_verify_peaks_near_the_outputs(self):
        import_only = _child_peak_mib(["-c", "import xagsynth.cli"])
        peak = _child_peak_mib(["-m", "xagsynth.cli", "verify", "--n", "22",
                                "--mode", "exhaustive", "--expect-ands", "41"])
        assert peak - import_only <= 22, (peak, import_only)


class TestResourceErrors:
    def test_sample_count_too_large_to_draw_is_usage_error(self, capsys):
        # refused by the random generator before any column is allocated
        assert cli(["verify", "--n", "5", "--mode", "sample",
                    "--samples", str(1 << 63)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_exhaustive_beyond_dense_cap_refused_before_synthesis(self, capsys):
        t0 = time.perf_counter()
        rc, _, peak = traced(lambda: cli(["verify", "--n", "300000"]))
        elapsed = time.perf_counter() - t0
        assert rc == 2
        assert capsys.readouterr().err == "error: exhaustive check limited to arity 24\n"
        assert elapsed < 0.5 and peak < 8 << 20, (elapsed, peak)

    @pytest.mark.parametrize("command", ["synth", "stats"])
    def test_arity_past_the_gate_id_limit_is_usage_error(self, capsys, command):
        # refused before the builder allocates its inputs
        assert cli([command, "--n", str(1 << 31)]) == 2
        assert capsys.readouterr().err == \
            f"error: arity {1 << 31}: gate ids past {(1 << 31) - 1} do not fit 4 bytes\n"

    def test_out_of_memory_is_usage_error(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr("xagsynth.cli.synthesize_plan", exhausted)
        assert cli(["synth", "--n", "5"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"


class TestFileMode:
    # a written file gets 0o666 less the umask, as a plain open() would
    # create it, whether it is new or replaces an existing file
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    @pytest.mark.parametrize("argv", [["synth", "--n", "5", "--out"],
                                      ["verify", "--n", "5", "--report"]])
    def test_mode_follows_umask(self, tmp_path, umask, argv):
        new, existing = tmp_path / "new", tmp_path / "existing"
        old = os.umask(umask)
        try:
            existing.write_text("old")
            assert cli(argv + [str(new)]) == 0
            assert cli(argv + [str(existing)]) == 0
        finally:
            os.umask(old)
        for path in (new, existing):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert existing.read_text() == new.read_text() != "old"
