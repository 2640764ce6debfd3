"""The three workloads: inputs made from a seed, one round of operations, checks.

A workload's ``setup(seed)`` builds every input before timing starts and
returns the list of operations of one round.  The runner repeats whole
rounds, so each run attempts the same operations in the same proportions.
An operation's ``run`` is the timed call; its ``check`` runs afterwards,
untimed, and raises ``CheckFailed`` when the output is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from scenarios import FAULTS, SHIPPED, CheckFailed, check_records, generated, shipped_expectation

import pfg

# timed calls go through module attributes, so the tracer's wrappers see them
from pfg import catalog, cli, dsl, endo, report
from pfg.catalog import paper_example_level, random_endo, random_subgroup
from pfg.core import FiniteGroup, GroupHom, conjugation_hom, identity_hom, trivial_hom
from pfg.endo import EndoSemigroup
from pfg.report import RunConfig

SCENARIO_DIR = Path(pfg.__file__).resolve().parent / "scenarios"
BENCH_DIR = Path(__file__).resolve().parent


class KnownFault(Exception):
    """The output shows a fault named in the benchmark's README."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], object]  # raises CheckFailed or KnownFault


# ---------------------------------------------------------------- paper-tower

DEMO_P, DEMO_DEPTH = 3, 4


def check_paper_tower(data: bytes) -> bytes:
    """Level k of units_semidirect(3): Con = Z/3^k, stable image = U(3^k), depth k."""
    tree = json.loads(data)
    expect = []
    for k in range(1, DEMO_DEPTH + 1):
        detail = {
            "con_order": DEMO_P**k,
            "stable_order": (DEMO_P - 1) * DEMO_P ** (k - 1),
            "depth": k,
            "con_matches_normal_part": True,
            "stable_matches_acting_part": True,
        }
        expect.append(("theorem_a", "pass", detail))
    expect.append(
        ("theorem_b", "pass", {"o_lambda_orders": [DEMO_P**k for k in range(1, DEMO_DEPTH + 1)]})
    )
    # G^ab = U(3^k) is cyclic of even order: one subgroup of index 1 and one of index 2
    expect.append(("typef", "pass", {"per_level": [{"1": 1, "2": 1}] * DEMO_DEPTH, "complete": True}))
    check_records("paper-tower", tree["analyses"], expect)
    return data


def setup_paper_tower(seed: int) -> list[Op]:
    del seed  # the demo tower is fixed

    def run():
        return report.emit(cli.run_demo(DEMO_P, DEMO_DEPTH, jobs=1), "json")

    return [Op("demo-p3-d4", run, check_paper_tower)]


# ---------------------------------------------------------------- endo-sweep

BIG_LEVELS = ((2, 6), (7, 2))  # orders 2048 and 2058


def _power_iterate(f: np.ndarray, steps: int) -> np.ndarray:
    y = np.arange(f.shape[0])
    for _ in range(steps):
        y = f[y]
    return y


def plain_contraction(f: np.ndarray, k_bools: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Contraction and stable image by plain iteration, N = |G| steps.

    With a subgroup K, x contracts into K when f^m(x) lies in K for all
    m in [N, 2N); without K, when f^N(x) is the identity.
    """
    n = f.shape[0]
    deep = _power_iterate(f, n)
    stable = np.zeros(n, dtype=bool)
    stable[deep] = True
    if k_bools is None:
        return deep == 0, stable
    con = np.ones(n, dtype=bool)
    y = deep
    for _ in range(n):
        con &= k_bools[y]
        y = f[y]
    return con, stable


def _decomposition_ok(G, con: np.ndarray, stable: np.ndarray) -> None:
    if int(con.sum()) * int(stable.sum()) != G.order:
        raise CheckFailed(f"|con| * |stable| = {int(con.sum())} * {int(stable.sum())} != {G.order}")
    if int((con & stable).sum()) != 1:
        raise CheckFailed("con and stable image meet in more than the identity")


def _tail(S: EndoSemigroup) -> np.ndarray:
    t = np.arange(S.parent.order)
    for g in S.generators:
        t = g.map[t]
    return t


def _orders_check(kind: str, G, f_arr: np.ndarray):
    want: list = []  # worked out on the first call, outside set-up and the timed op

    def check(rec):
        if not want:
            con, stable = plain_contraction(f_arr)
            _decomposition_ok(G, con, stable)
            want.append((int(con.sum()), int(stable.sum())))
        if not rec.passed:
            raise CheckFailed(f"{kind} on {G.label}: failed checks {[c.name for c in rec.failed()]}")
        got = (rec.data["con_order"], rec.data["stable_order"])
        if got != want[0]:
            raise CheckFailed(f"{kind} on {G.label}: (|con|, |stable|) = {got}, expected {want[0]}")
        return got

    return check


def _subgroup_check(G, S: EndoSemigroup, K):
    want: list = []

    def check(rep):
        if not want:
            con, stable = plain_contraction(_tail(S), K.bools)
            if K.is_trivial:
                _decomposition_ok(G, con, stable)
            want.append((con, stable))
        con, stable = want[0]
        if not all(rep.checks.values()):
            raise CheckFailed(f"semigroup_contraction on {G.label}: oracle checks {rep.checks}")
        if not (np.array_equal(rep.con.bools, con) and np.array_equal(rep.stable_image.bools, stable)):
            raise CheckFailed(f"semigroup_contraction on {G.label}: subgroups differ from plain iteration")
        return rep.con.size, rep.stable_image.size

    return check


def _big_bases(p: int, k: int) -> tuple[FiniteGroup, list[GroupHom]]:
    """A paper level and base maps that span its cost classes (|Con| from 1 to |G|)."""
    sd, phi = paper_example_level(p, k)
    G = sd.group
    conj = conjugation_hom(G, int(sd.acting_part.members[1]))
    both = GroupHom(G, G, phi.map[conj.map], validate=False)
    return G, [identity_hom(G), trivial_hom(G), phi, conj, both]


def _conjugate(f: GroupHom, g: int) -> GroupHom:
    """x -> g f(g^-1 x g) g^-1: the same dynamics as f, moved by an inner automorphism."""
    G = f.domain
    c = G.table[G.table[g, :], G.inv[g]]
    c_inv = G.table[G.table[G.inv[g], :], g]
    return GroupHom(G, G, c[f.map[c_inv]], validate=False)


def _splitthm_op(G, S: EndoSemigroup, name: str) -> Op:
    return Op(name, lambda: endo.verify_splitthm(G, S), _orders_check("splitthm", G, _tail(S)))


def _endo_ops(G, f: GroupHom, S: EndoSemigroup, K, tag: str) -> list[Op]:
    single = EndoSemigroup(G, [f])
    return [
        Op(f"{tag}/theorem_a", lambda: endo.verify_theorem_a(G, f), _orders_check("theorem_a", G, f.map)),
        _splitthm_op(G, S, f"{tag}/splitthm"),
        Op(f"{tag}/semigroup_contraction", lambda: endo.semigroup_contraction(single, K), _subgroup_check(G, single, K)),
    ]


def setup_endo_sweep(seed: int) -> list[Op]:
    """Catalog groups (order <= 500) and the paper levels of order 2048 and 2058.

    Every group's shipped maps are conjugated by a seeded random element, so
    the seed moves the inputs but not their cost class; catalog groups add two
    ``random_endo`` draws.  Each map is checked with all three operations.
    """
    rng = np.random.default_rng([seed, 0xE2D0])
    catalog._builtin_entries_cached.cache_clear()  # construction is part of set-up, even if built before
    groups = [(e.group, list(e.endos), e) for e in catalog.builtin_entries(500)]
    groups += [(*_big_bases(p, k), None) for p, k in BIG_LEVELS]
    ops: list[Op] = []
    for G, bases, entry in groups:
        maps = [_conjugate(b, int(rng.integers(0, G.order))) for b in bases]
        if entry is not None:
            maps += [random_endo(entry, rng) for _ in range(2)]
        for j, f in enumerate(maps):
            S = EndoSemigroup(G, [f, GroupHom(G, G, f.map[f.map], validate=False)])
            ops += _endo_ops(G, f, S, random_subgroup(G, rng), f"{G.label}#{j}")
        for j, S in enumerate(entry.semigroups if entry is not None else ()):
            if len(S.generators) > 1:  # shipped commuting pairs, moved together by one inner automorphism
                g = int(rng.integers(0, G.order))
                moved = EndoSemigroup(G, [_conjugate(h, g) for h in S.generators])
                ops.append(_splitthm_op(G, moved, f"{G.label}/pair{j}/splitthm"))
    return ops


# ---------------------------------------------------------------- scenario-batch


def _scenario_run(text: str) -> Callable[[], tuple]:
    def run():
        parsed = dsl.parse(text)
        if parsed.spec is None:
            first = parsed.diagnostics[0]
            raise dsl.ScenarioError("Parse", first.message, first.line, first.column)
        resolved = dsl.validate(parsed.spec, base_dir=BENCH_DIR)
        rep = report.run(resolved, RunConfig(jobs=1))
        return rep, report.emit(rep, "json")

    return run


def _scenario_check(label: str, expect: list[tuple]):
    first: list[bytes] = []  # the first round's bytes; later rounds must repeat them

    def check(out) -> None:
        rep, data = out
        if report.emit(rep, "json") != data:
            raise CheckFailed(f"{label}: emitting the same report twice gave different bytes")
        if first:
            if data != first[0]:
                raise CheckFailed(f"{label}: output differs from the first round's output")
            return
        check_records(label, json.loads(data)["analyses"], expect)
        first.append(data)

    return check


def _fault_run(text: str) -> Callable[[], object]:
    base = _scenario_run(text)

    def run():
        try:
            return base()
        except Exception as exc:  # returned for the check to judge
            return exc

    return run


def _fault_check(label: str, fault: str):
    """A located ScenarioError or a budget verdict is correct, the named fault is
    KnownFault, and any other outcome is wrong."""

    def check(out):
        if isinstance(out, dsl.ScenarioError) and out.line >= 1 and out.column >= 1:
            return "located"
        if isinstance(out, Exception):
            if type(out).__name__ == fault:
                raise KnownFault(f"{label}: {fault} escaped validation: {out}")
            raise CheckFailed(f"{label}: raised {type(out).__name__}: {out}; expected a located error or {fault}")
        rep, _data = out
        if any(r.status == "budget_exceeded" for r in rep.records):
            return "budget"
        if fault == "complete" and [(r.kind, r.status, r.details.get("complete")) for r in rep.records] == [
            ("typef", "pass", True)
        ]:
            raise KnownFault(f"{label}: node_budget was ignored, typef reports complete=true")
        raise CheckFailed(f"{label}: accepted with records {[(r.kind, r.status) for r in rep.records]}; expected {fault}")

    return check


def setup_scenario_batch(seed: int) -> list[Op]:
    ops = []
    for name in SHIPPED:
        text = (SCENARIO_DIR / f"{name}.pfg").read_text(encoding="utf-8")
        ops.append(Op(name, _scenario_run(text), _scenario_check(name, shipped_expectation(name))))
    for name, text, expect in generated(seed):
        ops.append(Op(name, _scenario_run(text), _scenario_check(name, expect)))
    for name, text, fault in FAULTS:
        ops.append(Op(name, _fault_run(text), _fault_check(name, fault)))
    return ops


WORKLOADS = {
    "paper-tower": setup_paper_tower,
    "endo-sweep": setup_endo_sweep,
    "scenario-batch": setup_scenario_batch,
}
