import json

import pytest

from xagsynth import check_exhaustive, import_bristol
from xagsynth.cli import cli


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
