"""The acceptance suite: one table of criteria, one runner, one line format.

A row of ``CRITERIA`` maps (seed, sweep samples) to (problems, summary) and
passes with no problems; one that raises is a FAIL naming the exception.
The sweeps are seeded and sized here only, so ``pfg selftest`` and pytest
run the identical checks and print the identical lines.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .catalog import (
    alternating4,
    builtin_entries,
    paper_example_level,
    quaternion8,
    random_endo,
    random_subgroup,
)
from .construct import cyclic, dihedral, scale_first_map, unit_semidirect_level
from .core import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    closure,
    conjugation_hom,
    is_normal,
    normal_core,
    preimage,
    quotient,
    trivial_subgroup,
)
from .cli import run_demo
from .dsl import parse, specs_equivalent, unparse, validate
from .endo import (
    EndoSemigroup,
    contraction,
    fewprimes_check,
    hom_search,
    is_simple,
    o_lambda,
    semigroup_contraction,
    shrinkind_check,
    tfrelstab_ii_check,
    verify_regulation,
    verify_splitthm,
    verify_theorem_a,
)
from .lattice import (
    AutoSet,
    all_subgroups,
    count_profile,
    enumerate_normals,
    o_pi,
    o_pi_of_subgroup,
    prime_factors,
    residual_intersection,
)
from .report import emit
from .tower import (
    build_s3_times_z2_tower,
    build_units_semidirect_tower,
    build_zp_tower,
    limit_diagnostics,
    verify_theorem_b_tower,
)

SWEEP_SAMPLES = 10_000
QUICK_SAMPLES = 500
ORACLE_ORDER_CAP = 200
LATTICE_ORACLE_CAP = 48


def _paper_example(seed: int, samples: int) -> tuple[list[str], str]:
    t0 = time.perf_counter()
    report = run_demo(3, 3)
    elapsed = time.perf_counter() - t0
    problems = []
    ta = [r for r in report.records if r.kind == "theorem_a"]
    if len(ta) != 3:
        problems.append(f"expected 3 per-level records, got {len(ta)}")
    for k, rec in enumerate(ta, start=1):
        want_con, want_stable = 3**k, 2 * 3 ** (k - 1)
        if rec.status != "pass":
            problems.append(f"level {k} status {rec.status}")
        if rec.details.get("con_order") != want_con:
            problems.append(f"level {k} con order {rec.details.get('con_order')} != {want_con}")
        if rec.details.get("stable_order") != want_stable:
            problems.append(f"level {k} stable order {rec.details.get('stable_order')} != {want_stable}")
        if not rec.details.get("con_matches_normal_part"):
            problems.append(f"level {k} contraction is not the cyclic coordinate")
        if not rec.details.get("stable_matches_acting_part"):
            problems.append(f"level {k} stable image is not the unit coordinate")
        if not all(rec.details.get("checks", {}).values()):
            problems.append(f"level {k} has failing checks")
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    return problems, f"runtime {elapsed:.2f}s"


def _theorem_a_sweep(seed: int, samples: int) -> tuple[list[str], str]:
    entries = builtin_entries(500)
    problems = []
    checked = 0
    for entry in entries:
        for f in entry.endos:
            checked += 1
            if not verify_theorem_a(entry.group, f).passed:
                problems.append(f"{entry.group.label}: theorem A fails")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        entry = entries[int(rng.integers(0, len(entries)))]
        f = random_endo(entry, rng)
        checked += 1
        if not verify_theorem_a(entry.group, f).passed:
            problems.append(f"{entry.group.label}: theorem A fails")
    return problems, f"{checked} instances ({len(entries)} groups; {samples} randomized), {len(problems)} failures"


def _python_compose(a: tuple, b: tuple) -> tuple:
    return tuple(a[x] for x in b)


def _python_monoid(gens: list[tuple], cap: int = 4096) -> list[tuple] | None:
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        w = frontier.pop()
        for g in gens:
            c = _python_compose(g, w)
            if c not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(c)
                frontier.append(c)
    return sorted(seen)


def _python_filter_oracle(maps: list[tuple], k_members: set[int], n: int):
    map_set = set(maps)
    tail = None
    for xi in maps:
        lxi = {_python_compose(lam, xi) for lam in map_set}
        tail = lxi if tail is None else (tail & lxi)
    con = [x for x in range(n) if all(sigma[x] in k_members for sigma in tail)]
    lam_meet = set(range(n))
    for m in maps:
        lam_meet &= set(m)
    return set(con), lam_meet


def _oracle_equivalence(seed: int, samples: int) -> tuple[list[str], str]:
    entries = [e for e in builtin_entries(500) if e.group.order <= ORACLE_ORDER_CAP]
    problems = []
    endo_count = 0
    for entry in entries:
        for f in entry.endos:
            rep = contraction(f)
            endo_count += 1
            if not (rep.checks["orbit_oracle_agrees"] and rep.checks["cycle_oracle_agrees"]):
                problems.append(f"{entry.group.label}: contraction oracles disagree")

    rng = np.random.default_rng(seed)
    sg_count = 0
    for entry in entries:
        for S in entry.semigroups:
            if not S.commutative:
                continue
            gens = [tuple(int(v) for v in g.map) for g in S.generators]
            maps = _python_monoid(gens)
            if maps is None:
                continue
            subgroups = [trivial_subgroup(entry.group)] + [
                random_subgroup(entry.group, rng) for _ in range(2)
            ]
            for K in subgroups:
                rep = semigroup_contraction(S, K)
                want_con, want_lam = _python_filter_oracle(maps, set(int(m) for m in K.members), entry.group.order)
                got_con = set(int(m) for m in rep.con.members)
                got_lam = set(int(m) for m in rep.stable_image.members)
                sg_count += 1
                if got_con != want_con or got_lam != want_lam:
                    problems.append(f"{entry.group.label}: semigroup contraction disagrees with oracle")
                if K.is_trivial and not rep.checks.get("tail_matches_monoid_oracle", False):
                    problems.append(f"{entry.group.label}: tail disagrees with monoid oracle")
    return problems, f"{endo_count} contraction instances, {sg_count} semigroup instances, {len(problems)} mismatches"


def _splitthm(seed: int, samples: int) -> tuple[list[str], str]:
    problems = []
    entries = builtin_entries(500)
    z4z9 = next(e for e in entries if e.group.label == "Z4xZ9")
    two_gen = next(s for s in z4z9.semigroups if len(s.generators) == 2)
    rec = verify_splitthm(z4z9.group, two_gen)
    if not rec.passed:
        problems.append("two-generator scenario failed: " + "; ".join(c.name for c in rec.failed()))

    for g in two_gen.generators:
        rec = verify_splitthm(z4z9.group, EndoSemigroup(z4z9.group, [g]))
        if not rec.passed:
            problems.append("single-generator reduction failed")

    sd, phi = paper_example_level(3, 2)
    rec = verify_splitthm(sd.group, EndoSemigroup(sd.group, [phi]))
    if not rec.passed:
        problems.append("order-54 level failed")
    else:
        if rec.data["con_order"] != 9 or rec.data["stable_order"] != 6:
            problems.append(f"decomposition {rec.data['con_order']}x{rec.data['stable_order']} != 9x6")
    return problems, ""


def _theorem_b_towers(seed: int, samples: int) -> tuple[list[str], str]:
    problems = []
    t, f = build_zp_tower(2, 4)
    rep = verify_theorem_b_tower(t, f)
    if rep.status != "pass" or not rep.part_i_passed:
        problems.append(f"zp(2) status {rep.status}")
    if not rep.part_ii_applicable or rep.part_ii_passed is not True:
        problems.append("zp(2) part (ii) did not apply and pass")

    t, f = build_units_semidirect_tower(3, 3)
    rep = verify_theorem_b_tower(t, f)
    if rep.status != "pass" or not rep.part_i_passed:
        problems.append(f"units_semidirect(3) status {rep.status}")
    if rep.part_ii_applicable:
        problems.append("units_semidirect(3) part (ii) should not be applicable")

    t, f = build_s3_times_z2_tower(3)
    rep = verify_theorem_b_tower(t, f)
    if rep.status != "hypotheses_not_met":
        problems.append(f"negative control status {rep.status}, expected hypotheses_not_met")
    diag = limit_diagnostics(t, f)
    if diag.limit_injective:
        problems.append("negative control reported limit-injective")
    top = o_lambda(t.levels[-1], EndoSemigroup(t.levels[-1], [f.endos[-1]]))
    if top.nilpotent:
        problems.append("negative control unexpectedly nilpotent; guard would be vacuous")
    return problems, ""


def _section2_lemmas(seed: int, samples: int) -> tuple[list[str], str]:
    problems = []
    entries = builtin_entries(500)

    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(samples):
        entry = entries[int(rng.integers(0, len(entries)))]
        f = random_endo(entry, rng)
        K = random_subgroup(entry.group, rng)
        if not shrinkind_check(entry.group, f, K).passed:
            violations += 1
    if violations:
        problems.append(f"{violations} shrinkind violations")

    normend_bad = 0
    for entry in entries:
        normals = enumerate_normals(entry.group)
        for f in entry.endos:
            for N in normals:
                if not is_normal(entry.group, preimage(f, N)):
                    normend_bad += 1
    if normend_bad:
        problems.append(f"{normend_bad} preimage-normality violations")

    res_bad = 0
    res_checked = 0
    for entry in entries:
        G = entry.group
        if G.order > ORACLE_ORDER_CAP:
            continue
        opi_cache: dict[frozenset, Subgroup] = {}
        for H in all_subgroups(G).entries:
            core = normal_core(G, H)
            base = prime_factors(G.order // core.size)
            for extra in (set(), {2}, {7}):
                pset = frozenset(base | extra) or frozenset({2})
                if pset not in opi_cache:
                    opi_cache[pset] = o_pi(G, pset)
                inner = o_pi_of_subgroup(G, H, pset)
                res_checked += 1
                if inner != opi_cache[pset]:
                    res_bad += 1
    if res_bad:
        problems.append(f"{res_bad} residual-prime equalities failed (of {res_checked})")

    s3 = dihedral(3).group
    orders = s3.element_orders()
    t_idx = int(np.flatnonzero(orders == 2)[0])
    c_idx = int(np.flatnonzero(orders == 3)[0])
    embeddings = [
        (GroupHom(cyclic(2), s3, [0, t_idx]), {2, 3}),
        (GroupHom(cyclic(3), s3, [0, c_idx, int(s3.table[c_idx, c_idx])]), {2, 3}),
        (GroupHom(cyclic(2), cyclic(4), [0, 2]), {2}),
    ]
    sd1 = unit_semidirect_level(3, 1)
    g1 = sd1.group
    three = int(np.flatnonzero(g1.element_orders() == 3)[0])
    embeddings.append(
        (GroupHom(cyclic(3), g1, [0, three, int(g1.table[three, three])]), {2, 3})
    )
    for f, primes in embeddings:
        rec = fewprimes_check(f, primes)
        if not rec.passed:
            problems.append(f"fewprimes failed for {f!r}")

    return problems, f"{samples} shrinkind triples"


def _simple_quotient_witness(seed: int, samples: int) -> tuple[list[str], str]:
    problems = []
    cases: list[tuple[FiniteGroup, Subgroup]] = []
    c4 = cyclic(4)
    cases.append((c4, closure(c4, [2])))
    c9 = cyclic(9)
    cases.append((c9, closure(c9, [3])))
    s3 = dihedral(3).group
    cases.append((s3, closure(s3, [int(np.flatnonzero(s3.element_orders() == 3)[0])])))
    d4 = dihedral(4).group
    cases.append((d4, closure(d4, [4])))  # the rotation of order 2 generates the center
    c8 = cyclic(8)
    cases.append((c8, closure(c8, [4])))
    a4 = alternating4()
    cases.append((a4.group, a4.normal_part))
    q8 = quaternion8()
    cases.append((q8, closure(q8, [2])))

    for G, H in cases:
        res = hom_search(G, H)
        if res.count != 0:
            problems.append(f"{G.label}: expected zero injective maps, got {res.count}")
            continue
        w = res.simple_witness
        if w is None:
            problems.append(f"{G.label}: no simple-quotient witness found")
            continue
        if not is_normal(G, w.kernel):
            problems.append(f"{G.label}: witness kernel not normal")
        Q, _ = quotient(G, w.kernel)
        if not is_simple(Q):
            problems.append(f"{G.label}: witness quotient not simple")
        if w.kernel.size >= G.order:
            problems.append(f"{G.label}: witness not proper")
    return problems, f"{len(cases)} pairs checked"


def _regulation_suite(seed: int, samples: int) -> tuple[list[str], str]:
    problems = []
    d4 = dihedral(4)
    phi = GroupHom(d4.group, d4.group, scale_first_map(d4.group, 2, d4.acting_order))
    rec = verify_regulation(d4.group, EndoSemigroup(d4.group, [phi]), None)
    if not rec.passed:
        problems.append("dihedral-8 regulation failed")

    sd, phi = paper_example_level(3, 2)
    u = int(sd.acting_part.members[1])
    omega = AutoSet(sd.group, (conjugation_hom(sd.group, u),))
    rec = verify_regulation(sd.group, EndoSemigroup(sd.group, [phi]), omega)
    if not rec.passed:
        problems.append("order-54 regulation with unit conjugation failed")

    for k in (1, 2):
        sd, phi = paper_example_level(3, k)
        rec = tfrelstab_ii_check(sd, EndoSemigroup(sd.group, [phi]), None)
        if not rec.passed:
            problems.append(f"tfrelstab2 failed at level {k}")
    return problems, ""


def _breadth_first_closure(table: np.ndarray, gens) -> np.ndarray:
    """Membership array of <gens>: saturate by every generator at every step."""
    seen = np.zeros(table.shape[0], dtype=bool)
    seen[0] = True
    gens = np.asarray(gens, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        prods = np.unique(table[frontier[:, None], gens])
        frontier = prods[~seen[prods]]
        seen[frontier] = True
    return seen


def _oracle_subgroups_cyclic_joins(G: FiniteGroup) -> set[bytes]:
    """Independent enumeration: saturate cyclic subgroups under pairwise join."""
    found: dict[bytes, np.ndarray] = {}
    for x in range(G.order):
        b = _breadth_first_closure(G.table, [x])
        found.setdefault(b.tobytes(), b)
    work = list(found.values())
    while work:
        a = work.pop()
        for b in list(found.values()):
            j = _breadth_first_closure(G.table, np.flatnonzero(a | b))
            if j.tobytes() not in found:
                found[j.tobytes()] = j
                work.append(j)
    return set(found.keys())


def _oracle_subgroups_all_subsets(G: FiniteGroup) -> set[bytes]:
    """Literal enumeration: every subset holding the identity and closed under products."""
    out = set()
    for r in range(G.order):
        for rest in itertools.combinations(range(1, G.order), r):
            m = np.array((0, *rest))
            bools = np.zeros(G.order, dtype=bool)
            bools[m] = True
            if bools[G.table[m[:, None], m]].all():
                out.add(bools.tobytes())
    return out


def _lattice(seed: int, samples: int) -> tuple[list[str], str]:
    problems = []
    small = [e for e in builtin_entries(LATTICE_ORACLE_CAP) if e.group.order <= LATTICE_ORACLE_CAP]
    for entry in small:
        got = {s.bools.tobytes() for s in all_subgroups(entry.group).entries}
        want = _oracle_subgroups_cyclic_joins(entry.group)
        if entry.group.order <= 12:
            literal = _oracle_subgroups_all_subsets(entry.group)
            if literal != want:
                problems.append(f"{entry.group.label}: oracles disagree with each other")
        if got != want:
            problems.append(f"{entry.group.label}: enumeration disagrees with oracle")

    s3 = dihedral(3).group
    prof = count_profile(s3, 3)
    if prof.counts != {1: 1, 2: 1, 3: 3}:
        problems.append(f"S3 profile {prof.counts}")

    d4 = dihedral(4).group
    normals = enumerate_normals(d4)
    if len(normals) != 6:
        problems.append(f"dihedral-8 normal count {len(normals)} != 6")

    center_members = [x for x in range(d4.order) if all(d4.mul(x, g) == d4.mul(g, x) for g in range(d4.order))]
    center = Subgroup(d4, center_members)
    if residual_intersection(d4, 2) != center:
        problems.append("I_2 of dihedral-8 is not the center")
    return problems, f"{len(small)} groups against the lattice oracle"


def _dsl_and_determinism(seed: int, samples: int) -> tuple[list[str], str]:
    problems = []
    scen_root = resources.files("pfg") / "scenarios"
    names = sorted(p.name for p in scen_root.iterdir() if p.name.endswith(".pfg"))
    if not names:
        problems.append("no shipped scenarios found")
    for name in names:
        source = (scen_root / name).read_text(encoding="utf-8")
        first = parse(source)
        if first.spec is None:
            problems.append(f"{name}: does not parse")
            continue
        second = parse(unparse(first.spec))
        if second.spec is None or not specs_equivalent(first.spec, second.spec):
            problems.append(f"{name}: round-trip changed the spec")
        try:
            validate(first.spec)
        except Exception as exc:  # noqa: BLE001 - any validation error is a failure here
            problems.append(f"{name}: validation failed: {exc}")

    bad = parse("group G = cyclic(\n")
    if bad.spec is not None or not bad.diagnostics:
        problems.append("malformed input accepted")
    else:
        d = bad.diagnostics[0]
        if d.line != 1 or d.column != 17:  # the column of the unclosed parenthesis
            problems.append(f"diagnostic at line {d.line} column {d.column}, expected 1:17")

    r1 = run_demo(3, 2, seed=7)
    r2 = run_demo(3, 2, seed=7)
    if emit(r1, "json") != emit(r2, "json"):
        problems.append("equal-seed demo runs are not byte-identical")
    return problems, ""


class Criterion(NamedTuple):
    name: str
    compute: Callable[[int, int], tuple[list[str], str]]  # (seed, samples) -> (problems, summary)


CRITERIA: tuple[Criterion, ...] = (
    Criterion("paper_example_reproduction", _paper_example),
    Criterion("theorem_a_sweep", _theorem_a_sweep),
    Criterion("oracle_equivalence", _oracle_equivalence),
    Criterion("splitthm_decompositions", _splitthm),
    Criterion("theorem_b_towers", _theorem_b_towers),
    Criterion("section2_lemma_suite", _section2_lemmas),
    Criterion("simple_quotient_witness", _simple_quotient_witness),
    Criterion("regulation_suite", _regulation_suite),
    Criterion("lattice_correctness", _lattice),
    Criterion("dsl_and_report_determinism", _dsl_and_determinism),
)
NAME_WIDTH = max(len(c.name) for c in CRITERIA)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name.ljust(NAME_WIDTH)}  {self.detail}"


def evaluate(criterion: Criterion, seed: int, samples: int) -> CriterionResult:
    """One row's result; an exception inside the row is its FAIL."""
    try:
        problems, summary = criterion.compute(seed, samples)
    except Exception as exc:  # noqa: BLE001 - a crash is this criterion's failure, not the run's end
        return CriterionResult(criterion.name, False, f"{type(exc).__name__}: {exc}")
    # repeated problems, such as one per failing instance of a group, are shown once
    return CriterionResult(criterion.name, not problems, "; ".join(dict.fromkeys(filter(None, [summary, *problems]))))


def run_criteria(seed: int, samples: int) -> Iterator[CriterionResult]:
    """Evaluate the rows of ``CRITERIA`` in order, yielding each as it finishes."""
    for criterion in CRITERIA:
        yield evaluate(criterion, seed, samples)
