"""Acceptance criteria: one test per row of ``acceptance.CRITERIA``, and the selftest runner.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, printed in the same format as `pfg selftest`.
"""

import pytest

from pfg import acceptance, core, endo, lattice
from pfg.cli import main
from pfg.construct import dihedral
from pfg.core import GroupError

NAMES = [
    "paper_example_reproduction",
    "theorem_a_sweep",
    "oracle_equivalence",
    "splitthm_decompositions",
    "theorem_b_towers",
    "section2_lemma_suite",
    "simple_quotient_witness",
    "regulation_suite",
    "lattice_correctness",
    "dsl_and_report_determinism",
]


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda c: c.name)
def test_criterion(criterion):
    result = acceptance.evaluate(criterion, seed=0, samples=acceptance.SWEEP_SAMPLES)
    print(result.line())
    assert result.passed, result.line()


def _selftest_lines(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.splitlines()


def test_selftest_quick_passes_every_row_in_table_order(capsys):
    code, lines = _selftest_lines(capsys, ["selftest", "--quick"])
    assert code == 0
    assert [line.split()[:2] for line in lines[:-1]] == [["[PASS]", name] for name in NAMES]
    assert lines[-1] == "selftest: OK"


def test_crashing_criterion_is_a_fail_and_later_rows_still_run(monkeypatch, capsys):
    def crash(seed, samples):
        raise GroupError("set is not closed under inverses")

    monkeypatch.setattr(acceptance, "CRITERIA", (
        acceptance.Criterion("cheap_before", lambda seed, samples: ([], "fine")),
        acceptance.Criterion("crashing", crash),
        acceptance.Criterion("cheap_after", lambda seed, samples: ([], f"seed {seed}")),
    ))
    code, lines = _selftest_lines(capsys, ["selftest", "--quick", "--seed", "3"])
    assert code == 1
    assert len(lines) == 4
    assert lines[0].startswith("[PASS] cheap_before") and lines[0].endswith("fine")
    assert lines[1].startswith("[FAIL] crashing")
    assert lines[1].endswith("GroupError: set is not closed under inverses")
    assert lines[2].startswith("[PASS] cheap_after") and lines[2].endswith("seed 3")
    assert lines[3] == "selftest: FAILED"


def test_lattice_oracles_never_call_the_closure_they_check(monkeypatch):
    G = dihedral(6).group
    want = {s.bools.tobytes() for s in lattice.all_subgroups(G).entries}
    calls, walk = [], core._orbit_closure
    for module in (core, lattice, endo, acceptance):
        monkeypatch.setattr(module, "_orbit_closure", lambda *a: calls.append(1) or walk(*a), raising=False)
    joins = acceptance._oracle_subgroups_cyclic_joins(G)
    subsets = acceptance._oracle_subgroups_all_subsets(G)
    assert calls == []
    assert joins == subsets == want
