"""Tests of the benchmark itself: short runs, and every check fed a wrong answer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import scenarios  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from scenarios import CheckFailed, check_records  # noqa: E402
from workloads import KnownFault  # noqa: E402

from pfg import cli, core, dsl, endo, lattice, report  # noqa: E402
from pfg.catalog import paper_example_level  # noqa: E402
from pfg.core import GroupHom  # noqa: E402
from pfg.endo import EndoSemigroup  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd + ["--seconds", "0", "--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


# ---------------------------------------------------------------- short runs


@pytest.mark.parametrize("workload,known_failures", [("paper-tower", 0), ("endo-sweep", 0), ("scenario-batch", 5)])
def test_one_round_is_correct(workload, known_failures):
    code, out = run_bench(workload, trace=0)
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] <= known_failures  # only the named faults may fail
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_traced_counts_repeat_and_spans_cover_the_operation():
    results = []
    for _ in range(2):
        code, out = run_bench("scenario-batch", trace=1)
        assert code == 0
        results.append(json.loads(out.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    assert first["trace.span_coverage"]["value"] >= 90.0
    for name, metric in first.items():
        if metric["unit"] == "count":
            assert metric["value"] == second[name]["value"], name
    assert first["report.records"]["value"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, out = run_bench("scenario-batch", trace=0, cwd=tmp_path)
    assert code != 0
    assert '"metrics"' not in out


# ---------------------------------------------------------------- tracer


def test_tracer_wraps_every_binding_and_restores_them():
    original = core.quotient
    tr = tracer.Tracer()
    try:
        assert lattice.quotient is core.quotient is endo.quotient
        assert core.quotient is not original
        args = _z6_with_z3()
        tr.active = True
        tr.op = 0
        Q, _ = core.quotient(*args)
        tr.active = False
        assert Q.order == 2
        assert tr.calls[tr.names.index("core.quotient")] == 1
        assert tr.span_parent[0] == -1 and all(parent == 0 for parent in tr.span_parent[1:])  # nested calls are children
        assert tr.root_seconds(0) == tr.span_end[0] - tr.span_start[0] > 0
    finally:
        tr.uninstall()
    assert core.quotient is original and lattice.quotient is original


def _z6_with_z3():
    from pfg.construct import cyclic

    G = cyclic(6)
    return G, core.closure(G, [2])


# ---------------------------------------------------------------- closed forms


def test_closed_forms_match_brute_force_on_cyclic_groups():
    for n in range(1, 61):
        for m in range(1, 13):
            f = (np.arange(n) * m) % n
            con, stable = workloads.plain_contraction(f)
            assert int(con.sum()) == scenarios.scale_kernel_part(n, m)
            assert int(stable.sum()) == n // scenarios.scale_kernel_part(n, m)
            chain, depth = scenarios.scale_chain(n, m)
            kernels = [int(((np.arange(n) * pow(m, j, n)) % n == 0).sum()) if j else 1 for j in range(depth + 2)]
            assert chain == kernels
        trivial_at = scenarios.residual_trivial_at(n)
        lcm = 1
        for d in range(1, trivial_at + 1):
            if n % d == 0:
                lcm = lcm * d // gcd(lcm, d)
        assert lcm == n


def test_plain_contraction_with_a_subgroup():
    # Z/12, x -> 5x is a bijection of order 2: nothing dies, and x stays in K = <4> iff x is in K
    f = (np.arange(12) * 5) % 12
    k = np.zeros(12, dtype=bool)
    k[[0, 4, 8]] = True
    con, stable = workloads.plain_contraction(f, k)
    assert np.array_equal(con, k)
    assert stable.all()


# ---------------------------------------------------------------- paper-tower check


@pytest.fixture(scope="module")
def demo_tree():
    return json.loads(report.emit(cli.run_demo(3, 4), "json"))


def _mutated(tree: dict, index: int, key: str, value) -> bytes:
    tree = json.loads(json.dumps(tree))
    tree["analyses"][index]["details"][key] = value
    return json.dumps(tree).encode()


def test_paper_tower_check_accepts_the_real_report(demo_tree):
    workloads.check_paper_tower(json.dumps(demo_tree).encode())


@pytest.mark.parametrize(
    "index,key,value",
    [
        (1, "con_order", 3),  # level 2 contraction off by a factor of p
        (2, "stable_order", 18 * 3),
        (3, "depth", 3),
        (0, "con_matches_normal_part", False),
        (4, "o_lambda_orders", [3, 9, 27, 27]),
        (5, "per_level", [{"1": 1, "2": 2}] * 4),  # a typef count of 2 for index 2
    ],
)
def test_paper_tower_check_rejects_a_wrong_answer(demo_tree, index, key, value):
    with pytest.raises(CheckFailed):
        workloads.check_paper_tower(_mutated(demo_tree, index, key, value))


def test_paper_tower_check_rejects_a_failed_status(demo_tree):
    tree = json.loads(json.dumps(demo_tree))
    tree["analyses"][4]["status"] = "fail"
    with pytest.raises(CheckFailed):
        workloads.check_paper_tower(json.dumps(tree).encode())


# ---------------------------------------------------------------- endo-sweep checks


@pytest.fixture(scope="module")
def level_54():
    sd, phi = paper_example_level(3, 2)
    return sd.group, phi


def test_theorem_a_check_rejects_wrong_orders(level_54):
    G, phi = level_54
    rec = endo.verify_theorem_a(G, phi)
    check = workloads._orders_check("theorem_a", G, phi.map)
    assert check(rec) == (9, 6)
    wrong = dataclasses.replace(rec, data={**rec.data, "con_order": 3})
    with pytest.raises(CheckFailed):
        workloads._orders_check("theorem_a", G, phi.map)(wrong)
    failing = dataclasses.replace(rec, checks=rec.checks[:-1] + (endo.Check("power_image_identity", False),))
    with pytest.raises(CheckFailed):
        workloads._orders_check("theorem_a", G, phi.map)(failing)


def test_semigroup_check_rejects_a_wrong_subgroup(level_54):
    G, phi = level_54
    S = EndoSemigroup(G, [phi])
    K = core.closure(G, [1])
    rep = endo.semigroup_contraction(S, K)
    workloads._subgroup_check(G, S, K)(rep)
    assert rep.con.is_whole  # phi^N sends everything into the unit coordinate K
    with pytest.raises(CheckFailed):
        workloads._subgroup_check(G, S, K)(dataclasses.replace(rep, con=core.trivial_subgroup(G)))


def test_decomposition_check_rejects_overlap(level_54):
    G, _ = level_54
    con = np.zeros(G.order, dtype=bool)
    con[:9] = True
    with pytest.raises(CheckFailed):
        workloads._decomposition_ok(G, con, con.copy())


def test_conjugate_keeps_the_dynamics(level_54):
    G, phi = level_54
    f = workloads._conjugate(phi, 7)
    GroupHom(G, G, f.map)  # validates the homomorphism law
    con, stable = workloads.plain_contraction(f.map)
    assert (int(con.sum()), int(stable.sum())) == (9, 6)


# ---------------------------------------------------------------- scenario-batch checks


def _run_text(text: str) -> list[dict]:
    resolved = dsl.validate(dsl.parse(text).spec)
    return json.loads(report.emit(report.run(resolved), "json"))["analyses"]


def test_generated_expectations_hold_for_several_seeds():
    for seed in (0, 1, 2):
        for name, text, expect in scenarios.generated(seed):
            check_records(name, _run_text(text), expect)


@pytest.mark.parametrize(
    "family,index,key,value",
    [
        ("cyclic-0.0", 4, "count", 99),  # hom_search count between cyclic groups
        ("cyclic-1.0", 3, "order", 1),  # O^pi of a cyclic group
        ("dihedral-2.0", 0, "con_order", 1),
        ("units-1.0", 1, "stable_order", 1),
        ("towers-0.0", -2, "per_level", [{"1": 1, "2": 2}]),
    ],
)
def test_scenario_check_rejects_a_wrong_answer(family, index, key, value):
    name, text, expect = next(g for g in scenarios.generated(0) if g[0] == family)
    analyses = _run_text(text)
    check_records(name, analyses, expect)
    analyses[index]["details"][key] = value
    with pytest.raises(CheckFailed):
        check_records(name, analyses, expect)


def test_negative_control_must_refuse():
    name, text, expect = next(g for g in scenarios.generated(0) if g[0] == "towers-1.0")
    analyses = _run_text(text)
    analyses[-1]["status"] = "pass"
    with pytest.raises(CheckFailed):
        check_records(name, analyses, expect)


def test_scenario_check_rejects_unstable_bytes():
    text = (workloads.SCENARIO_DIR / "two_generator.pfg").read_text()
    op = workloads._scenario_run(text)
    check = workloads._scenario_check("two_generator", scenarios.shipped_expectation("two_generator"))
    rep, data = op()
    check((rep, data))
    other = dataclasses.replace(rep, seed=1)
    with pytest.raises(CheckFailed):  # a later round whose bytes differ from the first round's
        check((other, report.emit(other, "json")))
    with pytest.raises(CheckFailed):  # emitted bytes that do not match the report
        workloads._scenario_check("two_generator", scenarios.shipped_expectation("two_generator"))(
            (rep, data + b" ")
        )


def test_fault_check_tells_fixes_from_the_named_fault_and_from_regressions():
    check = workloads._fault_check("fault", "ParamOutOfRange")
    assert check(dsl.ScenarioError("OrderGuard", "too big", 1, 1)) == "located"
    with pytest.raises(KnownFault):
        check(core.ParamOutOfRange("cyclic order must be >= 1"))
    with pytest.raises(CheckFailed):  # a new way of failing is not the known fault
        check(TypeError("unsupported operand"))
    with pytest.raises(CheckFailed):
        check(dsl.ScenarioError("OrderGuard", "too big"))  # no line or column
    budget = report.Report("s", (report.AnalysisRecord("typef", "T", "budget_exceeded", {}, 0.0),), "0", 0)
    assert check((budget, b"")) == "budget"
    complete = report.Report("s", (report.AnalysisRecord("typef", "T", "pass", {"complete": True}, 0.0),), "0", 0)
    with pytest.raises(CheckFailed):  # accepted, but this input names another fault
        check((complete, b""))
    budget_check = workloads._fault_check("fault-node-budget", "complete")
    with pytest.raises(KnownFault):
        budget_check((complete, b""))
    failing = report.Report("s", (report.AnalysisRecord("typef", "T", "fail", {"complete": True}, 0.0),), "0", 0)
    with pytest.raises(CheckFailed):
        budget_check((failing, b""))
    with pytest.raises(CheckFailed):
        budget_check(TypeError("unsupported operand"))


def test_every_known_fault_shows_as_named():
    for name, text, fault in scenarios.FAULTS:
        with pytest.raises(KnownFault):
            workloads._fault_check(name, fault)(workloads._fault_run(text)())


def test_default_run_length_comes_from_the_spec():
    sys.path.insert(0, str(BENCH))
    import run

    assert run.run_seconds() == SPEC["run_seconds"]
