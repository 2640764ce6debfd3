"""Runner semantics, emit formats, determinism, CLI exit codes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from pfg.cli import main, run_demo
from pfg.dsl import parse, validate
from pfg.report import ANALYSES, AnalysisRecord, AnalysisSpec, Report, RunConfig, emit, run

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "demo_p3_d2.json"


def run_source(source: str, jobs: int = 1, seed: int = 0) -> Report:
    spec = parse(source).spec
    assert spec is not None
    resolved = validate(spec)
    return run(resolved, RunConfig(jobs=jobs, seed=seed))


class TestRun:
    def test_empty_scenario(self):
        report = run_source("")
        assert report.records == ()
        tree = json.loads(emit(report, "json"))
        assert tree["analyses"] == []
        assert set(tree) == {"scenario", "analyses", "version", "seed"}

    def test_record_order_matches_requests(self):
        source = (
            "group G = cyclic(4)\n"
            "endo f on G = scale_first(2)\n"
            "analyze o_pi(G, {2})\n"
            "analyze contraction(G, f)\n"
            "analyze theorem_a(G, f)\n"
        )
        report = run_source(source)
        assert [r.kind for r in report.records] == ["o_pi", "contraction", "theorem_a"]

    def test_jobs_do_not_change_output(self):
        source = (
            "group G = cyclic(8)\n"
            "endo f on G = scale_first(2)\n"
            "analyze contraction(G, f)\n"
            "analyze theorem_a(G, f)\n"
            "analyze o_pi(G, {2})\n"
        )
        a = run_source(source, jobs=1, seed=3)
        b = run_source(source, jobs=4, seed=3)
        assert emit(a, "json") == emit(b, "json")

    def test_statuses_never_absent(self):
        report = run_demo(3, 2)
        assert all(r.status in {"pass", "fail", "skipped", "hypotheses_not_met", "budget_exceeded"} for r in report.records)

    def test_hypotheses_not_met_is_not_failure(self):
        source = "tower N = s3_times_z2() depth 2\nanalyze theorem_b(N)\n"
        report = run_source(source)
        assert report.records[0].status == "hypotheses_not_met"
        assert report.ok

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unexpected_error_fails_only_its_record(self, monkeypatch, jobs):
        def broken(target, *args):
            raise RuntimeError("broken runner")

        monkeypatch.setitem(ANALYSES, "o_pi", AnalysisSpec(ANALYSES["o_pi"].signatures, broken))
        source = (
            "group G = cyclic(4)\n"
            "endo f on G = scale_first(2)\n"
            "analyze o_pi(G, {2})\n"
            "analyze contraction(G, f)\n"
        )
        report = run_source(source, jobs=jobs)
        assert [(r.kind, r.status) for r in report.records] == [("o_pi", "fail"), ("contraction", "pass")]
        assert report.records[0].details == {"error": "RuntimeError: broken runner"}


class TestEmit:
    def test_text_has_pass_row(self):
        source = "group G = cyclic(4)\nendo f on G = scale_first(2)\nanalyze theorem_a(G, f)\n"
        text = emit(run_source(source), "text").decode()
        assert "PASS" in text and "theorem_a" in text

    def test_json_shape(self):
        report = run_demo(3, 2)
        tree = json.loads(emit(report, "json"))
        for rec in tree["analyses"]:
            assert set(rec) == {"kind", "target", "status", "details", "ms"}
            assert rec["ms"] == 0  # zeroed for byte stability

    def test_json_byte_determinism(self):
        a = run_demo(3, 2, seed=9)
        b = run_demo(3, 2, seed=9)
        assert emit(a, "json") == emit(b, "json")

    def test_golden_demo(self):
        got = emit(run_demo(3, 2, seed=0), "json")
        assert got == GOLDEN.read_bytes()

    @pytest.mark.parametrize("depth", [3, 4])
    def test_golden_demo_deeper(self, depth):
        got = emit(run_demo(3, depth, seed=0), "json")
        assert got == (GOLDEN_DIR / f"demo_p3_d{depth}.json").read_bytes()

    @pytest.mark.parametrize("name", ["paper_example", "two_generator", "dihedral_controls"])
    def test_golden_shipped_scenario(self, name):
        # as `pfg run`: the report is named after the file
        source = (resources.files("pfg") / "scenarios" / f"{name}.pfg").read_text(encoding="utf-8")
        resolved = validate(parse(source).spec)
        resolved = type(resolved)(name, resolved.environment, resolved.analyses, resolved.options)
        got = emit(run(resolved), "json")
        assert got == (GOLDEN_DIR / f"{name}.json").read_bytes()

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(run_demo(3, 1), "yaml")


class TestCli:
    def test_demo_exit_zero(self, capsys):
        assert main(["demo", "paper-example", "--p", "3", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "theorem_a" in out

    def test_run_scenario_file(self, tmp_path, capsys):
        f = tmp_path / "ok.pfg"
        f.write_text("group G = cyclic(4)\nendo f on G = scale_first(2)\nanalyze theorem_a(G, f)\n")
        assert main(["run", str(f)]) == 0

    def test_parse_error_exit_two(self, tmp_path, capsys):
        f = tmp_path / "bad.pfg"
        f.write_text("group G = cyclic(\n")
        assert main(["run", str(f)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_order_guard_reported_once_with_location(self, tmp_path, capsys):
        f = tmp_path / "big.pfg"
        f.write_text("group G = cyclic(6000)\n")
        assert main(["run", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.count("OrderGuard") == 1
        assert "(line 1, column 1)" in err

    def test_json_output_file(self, tmp_path):
        f = tmp_path / "ok.pfg"
        f.write_text("group G = cyclic(4)\nendo f on G = scale_first(2)\nanalyze contraction(G, f)\n")
        out = tmp_path / "report.json"
        assert main(["run", str(f), "--format", "json", "--out", str(out)]) == 0
        tree = json.loads(out.read_text())
        assert tree["analyses"][0]["kind"] == "contraction"

    def test_module_runs_the_command_line(self):
        """``python -m pfg`` is the ``pfg`` command, with the package found on
        PYTHONPATH alone."""
        import pfg

        env = {**os.environ, "PYTHONPATH": str(Path(pfg.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "pfg", "--version"], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"pfg {pfg.__version__}"

    def test_failing_record_exit_one(self):
        report = Report("x", (AnalysisRecord("k", "t", "fail", {}, 0.0),), "0", 0)
        assert not report.ok


class TestReadmeSnippet:
    def test_library_example_runs_as_documented(self):
        from pfg import contraction, verify_theorem_a
        from pfg.catalog import paper_example_level

        sd, phi = paper_example_level(3, 2)
        rep = contraction(phi)
        assert rep.con == sd.normal_part
        assert rep.stable_image == sd.acting_part
        assert verify_theorem_a(sd.group, phi).passed
