"""Contraction subgroups, stable images, and the decomposition checks.

For an endomorphism f of a finite group the contraction subgroup is the
stabilized kernel of the iterates of f and the stable image is the
stabilized image; the two chains stabilize at the same exponent because
|ker| * |im| is constant.  The finite-level identity "contraction = set of
elements whose iterates eventually die" is never assumed: every report
carries the verdict of an independent orbit-simulation oracle.

Semigroup contraction follows the filter-of-tails semantics.  The fast
path analyses the functional graph of the product of the generators
(eventual-cycle containment); the literal computation over the generated
transformation monoid is kept as an oracle, and the fast result falls back
to the oracle whenever the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .core import (
    FiniteGroup,
    GroupError,
    GroupHom,
    DomainMismatch,
    ParamOutOfRange,
    Subgroup,
    _orbit_closure,
    extend_images,
    hom_parts,
    identity_hom,
    is_normal,
    nilpotency,
    normal_core,
    preimage,
    product_covers,
    quotient,
    require_endo,
    subgroup_as_group,
    trivial_subgroup,
)
from .lattice import AutoSet, enumerate_normals, o_pi, prime_factors


MAP_CAP = 4096  # default cap on the maps of a generated transformation semigroup


class NonCommutative(GroupError):
    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(f"generators {i} and {j} do not commute as maps")


class KNotSubgroup(GroupError):
    pass


class PreconditionPrimes(GroupError):
    def __init__(self, missing: set[int]):
        self.missing = missing
        super().__init__(f"prime set is missing required primes {sorted(missing)}")


class SearchBudgetExceeded(GroupError):
    pass


class NotInvariant(GroupError):
    pass


class NotSurjectiveOnH(GroupError):
    pass


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckRecord:
    kind: str
    checks: tuple[Check, ...]
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def __repr__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"CheckRecord({self.kind}, {status}, {len(self.checks)} checks)"


def _set_witness(a: np.ndarray, b: np.ndarray) -> str:
    """The least element in one of two membership arrays but not the other, or ""."""
    diff = np.flatnonzero(a != b)
    return f"witness element {int(diff[0])}" if diff.size else ""


def _scatter(n: int, idx: np.ndarray) -> np.ndarray:
    """Membership array of the elements listed in idx, duplicates allowed."""
    hit = np.zeros(n, dtype=bool)
    hit[idx] = True
    return hit


@dataclass(frozen=True)
class ContractionReport:
    """Contraction, stable image and stabilization depth of a map or semigroup.

    ``powers`` are the maps f^0, ..., f^(depth+1) of the endomorphism (for a
    semigroup, of its tail map) and ``target`` is the membership array of K
    (the trivial subgroup for a single endomorphism).  The chains are derived
    from them when first read: ``kernel_chain[m]`` is {x : f^m(x) in K} and
    ``image_chain[m]`` is f^m(G), one Subgroup per power.
    """

    con: Subgroup
    stable_image: Subgroup
    depth: int
    checks: dict[str, bool]
    powers: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    target: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def kernel_chain(self) -> tuple[Subgroup, ...]:
        G = self.con.parent
        return tuple(Subgroup(G, self.target[p], _checked=True) for p in self.powers)

    @cached_property
    def image_chain(self) -> tuple[Subgroup, ...]:
        G = self.con.parent
        return tuple(Subgroup(G, p, _checked=True) for p in self.powers)


def _power_chain(f_arr: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Iterates f^0, f^1, ... up to one step past kernel/image stabilization.

    Returns (powers, depth) with depth the least m such that ker f^m equals
    ker f^(m+1); the image chain stabilizes at the same m.
    """
    n = f_arr.shape[0]
    powers = [np.arange(n, dtype=np.intp), f_arr]
    ker_sizes = [1, int((f_arr == 0).sum())]
    while ker_sizes[-1] != ker_sizes[-2]:
        powers.append(f_arr[powers[-1]])
        ker_sizes.append(int((powers[-1] == 0).sum()))
    return powers, len(powers) - 2


def _deep_power(f_arr: np.ndarray) -> np.ndarray:
    """f^(2^j) with 2^j >= n: every point is mapped onto its eventual cycle."""
    n = f_arr.shape[0]
    r = f_arr
    e = 1
    while e < n:
        r = r[r]
        e *= 2
    return r


def _window_all(f_arr: np.ndarray, good: np.ndarray, start: int, steps: int) -> np.ndarray:
    """Whether good[f^m(x)] holds for every m in [start, start + W), for each x.

    W is the least power of two >= steps.  Path doubling: ``acc`` is the AND
    over a window of ``width`` steps from each point and ``jump`` is
    f^width, so one round doubles both; the bits of ``start`` move ``pos``
    to f^start on the way.  O(log(start + steps)) gathers in all.  Shares
    nothing with the power chain or the cycle walk it is an oracle for.
    """
    pos = np.arange(f_arr.shape[0], dtype=f_arr.dtype)
    acc, jump, width = good, f_arr, 1
    while width < steps or width <= start:
        if start & width:
            pos = jump[pos]
        if width < steps:
            acc = acc & acc[jump]
        jump = jump[jump]
        width *= 2
    return acc[pos]


def contraction(f: GroupHom) -> ContractionReport:
    """Stabilized kernel (contraction) and stabilized image of an endomorphism."""
    require_endo(f)
    G = f.domain
    powers, depth = _power_chain(f.map)
    con = Subgroup(G, powers[depth] == 0, _checked=True)
    stable = Subgroup(G, powers[depth], _checked=True)

    # orbit-simulation oracle: x contracts iff some iterate f^m(x), m >= 1,
    # is the identity; the iterates with m in [1, n] are all there are
    n = G.order
    hit = ~_window_all(f.map, np.arange(n) != 0, 1, n + 1)
    orbit_ok = bool(np.array_equal(hit, con.bools))

    # independent formulation: the eventual cycle of x is the singleton {identity}
    rho = _deep_power(f.map)
    cycle_ok = bool(np.array_equal(rho == 0, con.bools))

    return ContractionReport(
        con=con,
        stable_image=stable,
        depth=depth,
        checks={"orbit_oracle_agrees": orbit_ok, "cycle_oracle_agrees": cycle_ok},
        powers=tuple(powers),
        target=_scatter(n, 0),
    )


def verify_theorem_a(G: FiniteGroup, f: GroupHom, rep: ContractionReport | None = None) -> CheckRecord:
    """Exact decomposition checks for a single endomorphism.

    Asserts: the contraction subgroup is normal, meets the stable image
    trivially, the two together cover the group, the map restricts to an
    automorphism of the stable image, and f^k(con) = con n im(f^k) for every
    k up to the stabilization depth.  ``rep`` is f's contraction report when
    the caller already has it.
    """
    require_endo(f)
    if f.domain is not G:
        raise DomainMismatch("endomorphism does not act on the given group")
    if rep is None:
        rep = contraction(f)
    con, stable = rep.con, rep.stable_image
    checks: list[Check] = []

    checks.append(Check("con_is_normal", is_normal(G, con)))
    meet = con.bools & stable.bools
    checks.append(Check("con_meets_stable_trivially", int(meet.sum()) == 1))
    checks.append(Check("con_stable_product_covers", product_covers(G, con, stable)))

    restr_ok = bool(np.array_equal(_scatter(G.order, f.map[stable.members]), stable.bools))
    checks.append(Check("restriction_to_stable_is_automorphism", restr_ok))

    witness = ""
    fk = np.arange(G.order, dtype=np.intp)
    for k, power in enumerate(rep.powers[: rep.depth + 1]):
        if diff := _set_witness(_scatter(G.order, fk[con.members]), con.bools & _scatter(G.order, power)):
            witness = f"k={k}: " + diff
            break
        fk = f.map[fk]
    checks.append(Check("power_image_identity", not witness, witness))

    return CheckRecord(
        kind="theorem_a",
        checks=tuple(checks),
        data={
            "con_order": con.size,
            "stable_order": stable.size,
            "depth": rep.depth,
            "oracle": rep.checks,
        },
    )


class EndoSemigroup:
    """A finitely generated semigroup of endomorphisms of one group.

    Commutativity of the generator maps is measured at construction; the
    contraction operations refuse non-commuting generator sets because the
    filter semantics is only implemented for the commutative regime.
    """

    __slots__ = ("parent", "generators", "commutative", "_noncomm_witness")

    def __init__(self, parent: FiniteGroup, generators):
        gens = tuple(generators)
        if not gens:
            raise ParamOutOfRange("a semigroup needs at least one generator")
        for g in gens:
            require_endo(g)
            if g.domain is not parent:
                raise DomainMismatch("generator does not act on the parent group")
        self.parent = parent
        self.generators = gens
        self.commutative = True
        self._noncomm_witness: tuple[int, int] | None = None
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                a, b = gens[i].map, gens[j].map
                if not np.array_equal(a[b], b[a]):
                    self.commutative = False
                    self._noncomm_witness = (i, j)
                    return

    def require_commutative(self) -> None:
        if not self.commutative:
            i, j = self._noncomm_witness
            raise NonCommutative(i, j)

    def monoid_maps(self, cap: int = MAP_CAP) -> np.ndarray:
        """All distinct maps in the generated transformation semigroup, as rows."""
        return _monoid_maps([g.map for g in self.generators], cap)

    def __repr__(self) -> str:
        tag = "commutative" if self.commutative else "non-commutative"
        return f"EndoSemigroup({len(self.generators)} generators on {self.parent.label!r}, {tag})"


def _monoid_maps(gens: list[np.ndarray], cap: int) -> np.ndarray:
    """All distinct composites of the generator maps, at most ``cap`` of them,
    as the rows of a read-only intp array in the order of their bytes.

    The walk holds each map once, as the bytes that key it, and each row is
    copied out of its key as the key is released, so no map is held twice.
    """
    gens = [np.asarray(g, dtype=np.intp) for g in gens]
    seen = dict.fromkeys(g.tobytes() for g in gens)  # an insertion-ordered set
    queue = list(seen)
    while queue:
        w = np.frombuffer(queue.pop(), dtype=np.intp)
        for g in gens:
            key = g[w].tobytes()
            if key not in seen:
                if len(seen) >= cap:
                    raise SearchBudgetExceeded(f"transformation semigroup exceeds {cap} maps")
                seen[key] = None
                queue.append(key)
    keys = sorted(seen)
    del seen
    rows = np.empty((len(keys), gens[0].size), dtype=np.intp)
    for i in reversed(range(rows.shape[0])):
        rows[i] = np.frombuffer(keys.pop(), dtype=np.intp)
    rows.setflags(write=False)
    return rows


def _separating_points(rows: np.ndarray) -> np.ndarray:
    """Ascending points on which every two of the distinct ``rows``, sorted
    by their bytes, differ somewhere.

    In that order two rows first differ in the byte where some adjacent pair
    of rows between them first differs (in a sorted list, the longest common
    prefix of two strings is the shortest one of adjacent strings between
    them).  So the points where adjacent rows first differ separate all the
    rows, and the last one is needed by its own pair, which agrees before it.
    """
    first = (rows[1:] != rows[:-1]).argmax(axis=1)
    return np.flatnonzero(_scatter(rows.shape[1], first))


# entries per gather of composites in the literal oracle, to bound its memory
_COMPOSE_BLOCK = 2**16


def _literal_filter_contraction(maps: np.ndarray, k_bools: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Contraction and image meet straight from the filter-of-tails definition.

    The filter is generated by the sets T = intersection over xi of
    (semigroup composed with xi); since the semigroup is finite as a set of
    maps, the minimal generating set is the intersection over all xi, and an
    element contracts into K exactly when every map of that minimal tail
    sends it into K.  ``maps`` are the rows ``_monoid_maps`` gives: distinct,
    closed under composition and in the order of their bytes.  So s after xi
    is one of them, and its values s(xi(p)) on points p that separate the
    maps name it: each composite costs |points| gathers, not n.  Names keep
    the order of the rows, so a sorted search finds each.
    """
    points = _separating_points(maps)
    m, n = maps.shape
    if not points.size:  # one map, which any point names
        points = np.zeros(1, dtype=np.intp)
    name = np.dtype((np.void, points.size * maps.itemsize))
    names = maps.take(points, axis=1).view(name).ravel()
    tail = np.ones(m, dtype=bool)
    block = max(1, _COMPOSE_BLOCK // (m * points.size))
    for lo in range(0, m, block):
        xis = maps[lo : lo + block].take(points, axis=1)
        # composite[s, j]: the row of map s after map lo + j
        composite = names.searchsorted(maps.take(xis, axis=1).view(name)[..., 0])
        hit = np.zeros((xis.shape[0], m), dtype=bool)
        hit[np.arange(xis.shape[0]), composite] = True
        tail &= hit.all(axis=0)
        if not tail.any():
            break
    con = k_bools[maps[tail]].all(axis=0)
    images = np.zeros((m, n), dtype=bool)
    images[np.arange(m)[:, None], maps] = True
    return con, images.all(axis=0), bool(tail.any())


def _eventual_cycle_containment(tau: np.ndarray, k_bools: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fast path: functional-graph analysis of the tail endomorphism.

    An element eventually stays inside K iff its whole eventual cycle under
    tau lies in K.  Cycle elements are exactly the image of a deep power.
    Each cycle is labelled by its least element: the least of tau^j(x) over
    j < W, for the same W >= n as the deep power, by pointer jumping.
    """
    n = tau.shape[0]
    label, rho, width = np.arange(n), tau, 1
    while width < n:  # rho = tau^width, as in _deep_power
        label = np.minimum(label, label[rho])
        rho = rho[rho]
        width *= 2
    stable = _scatter(n, rho)
    bad = _scatter(n, label[stable & ~k_bools])
    return ~bad[label[rho]], stable


def _filter_contraction(
    gens: list[np.ndarray], k_bools: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, bool]]:
    """Contraction into K and image meet of the semigroup of the maps ``gens``.

    Works on element maps of 0..m-1, with K as membership bools.  The
    eventual cycles of the tail map give the fast result; the simulation
    oracle and, up to ``cap`` maps, the literal filter definition check it,
    and the literal value wins where they disagree.  Returns the tail map,
    the con and stable-image bools, and the checks.
    """
    m = k_bools.shape[0]
    tau = reduce(lambda a, g: g[a], gens, np.arange(m, dtype=np.intp))
    con, stable = _eventual_cycle_containment(tau, k_bools)

    # simulation oracle: membership in K of tau^j(x) for j from m on, a
    # window of more than m steps (which covers every eventual cycle)
    sim = _window_all(tau, k_bools, m, m + 1)
    checks: dict[str, bool] = {"simulation_oracle_agrees": bool(np.array_equal(sim, con))}
    try:
        maps = _monoid_maps(gens, cap)
    except SearchBudgetExceeded:
        checks["oracle_ran"] = False
    else:
        con_o, stable_o, nonempty = _literal_filter_contraction(maps, k_bools)
        checks["oracle_ran"] = True
        checks["filter_base_nonempty"] = nonempty
        agree = bool(np.array_equal(con_o, con) and np.array_equal(stable_o, stable))
        checks["tail_matches_monoid_oracle"] = agree
        if not agree:  # the literal definition wins
            con, stable = con_o, stable_o
    return tau, con, stable, checks


def semigroup_contraction(
    S: EndoSemigroup,
    K: Subgroup | None = None,
    *,
    oracle_map_cap: int = MAP_CAP,
) -> ContractionReport:
    """Contraction of a commuting endomorphism semigroup relative to K.

    The report's ``con`` is the set of elements whose deep semigroup orbits
    fall into K; ``stable_image`` is the meet of the images of all maps in
    the semigroup.
    """
    S.require_commutative()
    G = S.parent
    if K is None:
        K = trivial_subgroup(G)
    if not isinstance(K, Subgroup) or K.parent is not G:
        raise KNotSubgroup("K must be a subgroup of the semigroup's parent")

    tau, con_bools, stable_bools, checks = _filter_contraction(
        [g.map for g in S.generators], K.bools, oracle_map_cap
    )
    powers, depth = _power_chain(tau)
    return ContractionReport(
        con=Subgroup(G, con_bools),  # validated: must be a subgroup by construction
        stable_image=Subgroup(G, stable_bools),
        depth=depth,
        checks=checks,
        powers=tuple(powers),
        target=K.bools,
    )


def _stable_image_inside(S: EndoSemigroup, con: Subgroup) -> np.ndarray:
    """Elements of G in the stable image of S restricted to the invariant subgroup con.

    The generators act on con's positions 0..|con|-1 (the identity stays 0),
    with no table of con.  Only the order of the result is read, so it is not
    proved closed: the stable image of S on G already was.
    """
    pos = np.full(S.parent.order, -1, dtype=np.intp)
    pos[con.members] = np.arange(con.size, dtype=np.intp)
    restricted = [pos[g.map[con.members]] for g in S.generators]
    _, _, inner_stable, _ = _filter_contraction(restricted, _scatter(con.size, 0), MAP_CAP)
    return con.members[inner_stable]


def verify_splitthm(G: FiniteGroup, S: EndoSemigroup) -> CheckRecord:
    """Semidirect decomposition checks for a commuting endomorphism semigroup."""
    if S.parent is not G:
        raise DomainMismatch("semigroup does not act on the given group")
    rep = semigroup_contraction(S)
    con, stable = rep.con, rep.stable_image
    checks: list[Check] = [
        Check("con_is_normal", is_normal(G, con)),
        Check("con_meets_stable_trivially", int((con.bools & stable.bools).sum()) == 1),
        Check("con_stable_product_covers", product_covers(G, con, stable)),
    ]

    invariant = True
    for i, g in enumerate(S.generators):
        img = Subgroup(G, g.map, _checked=True)
        checks.append(Check(f"con_product_with_image_covers_gen{i}", product_covers(G, con, img)))
        witness = _set_witness(con.bools & img.bools, _scatter(G.order, g.map[con.members]))
        checks.append(Check(f"con_meet_image_is_image_of_con_gen{i}", not witness, witness))
        bij = bool(np.array_equal(_scatter(G.order, g.map[stable.members]), stable.bools))
        checks.append(Check(f"bijective_on_stable_gen{i}", bij))
        inv_i = bool(con.bools[g.map[con.members]].all())
        invariant = invariant and inv_i
        checks.append(Check(f"con_invariant_gen{i}", inv_i))

    if invariant:
        checks.append(Check("stable_image_inside_con_trivial", _stable_image_inside(S, con).size == 1))
    else:  # cannot restrict; the decomposition claim already failed above
        checks.append(Check("stable_image_inside_con_trivial", False, "con not invariant"))

    return CheckRecord(
        kind="splitthm",
        checks=tuple(checks),
        data={
            "con_order": con.size,
            "stable_order": stable.size,
            "depth": rep.depth,
            "oracle": rep.checks,
        },
    )


def _stable_kernel(arr: np.ndarray) -> np.ndarray:
    powers, depth = _power_chain(arr)
    return powers[depth] == 0


@dataclass(frozen=True)
class OLambdaReport:
    subgroup: Subgroup
    nilpotent: bool
    nilpotency_class: int | None
    maps: tuple[np.ndarray, ...] = field(repr=False, compare=False)  # the semigroup's distinct maps


def o_lambda(G: FiniteGroup, S: EndoSemigroup, *, map_cap: int = MAP_CAP) -> OLambdaReport:
    """Closure of the union of the contraction subgroups over the monoid.

    The monoid's identity map is left out: its stable kernel is trivial and
    every other stable kernel already contains the identity element.
    """
    if S.parent is not G:
        raise DomainMismatch("semigroup does not act on the given group")
    maps = S.monoid_maps(cap=map_cap)
    union = np.zeros(G.order, dtype=bool)
    for arr in maps:
        union |= _stable_kernel(arr)
    sub = Subgroup(G, _orbit_closure(G.table, np.flatnonzero(union)), _checked=True)
    sub_group, _ = subgroup_as_group(G, sub)
    nil = nilpotency(sub_group)
    return OLambdaReport(sub, nil.is_nilpotent, nil.nilpotency_class, tuple(maps))


def shrinkind_check(G: FiniteGroup, f: GroupHom, K: Subgroup) -> CheckRecord:
    """Index inequality for preimages, plus coverage when equality holds."""
    require_endo(f)
    if f.domain is not G:
        raise DomainMismatch("endomorphism does not act on the given group")
    if K.parent is not G:
        raise KNotSubgroup("K must be a subgroup of G")
    L = preimage(f, K)
    checks = [Check("preimage_index_at_most_index", L.index <= K.index, f"|G:L|={L.index}, |G:K|={K.index}")]
    if L.index == K.index:
        img = hom_parts(f).image
        checks.append(Check("equality_implies_coverage", product_covers(G, img, K)))
    else:
        checks.append(Check("equality_implies_coverage", True, "inequality strict; nothing to check"))
    return CheckRecord(
        kind="shrinkind",
        checks=tuple(checks),
        data={"preimage_index": L.index, "subgroup_index": K.index},
    )


@dataclass(frozen=True)
class SimpleWitness:
    kernel: Subgroup
    quotient_simple: bool


@dataclass(frozen=True)
class HomSearchResult:
    count: int
    witnesses: tuple[GroupHom, ...]
    simple_witness: SimpleWitness | None


def is_simple(G: FiniteGroup) -> bool:
    return len(enumerate_normals(G)) == 2


def _generator_chain(G: FiniteGroup) -> list[int]:
    orders = G.element_orders()
    chain: list[int] = []
    bools = np.zeros(G.order, dtype=bool)
    bools[0] = True
    while not bools.all():
        cands = np.flatnonzero(~bools)
        g = int(cands[np.argmax(orders[cands])])
        chain.append(g)
        bools = _orbit_closure(G.table, chain, bools)
    return chain


def _count_injective(
    G: FiniteGroup, T: FiniteGroup, witness_cap: int, budget: list[int]
) -> tuple[int, list[np.ndarray]]:
    """Backtracking count of injective homomorphisms G -> T.

    A node gives the next chain generator an image and re-extends over the
    chain so far, spending one budget unit per law check; it survives when
    the extension is injective, a homomorphism and of order dividing |T|.
    """
    if T.order % G.order != 0:
        return 0, []
    g_orders = G.element_orders()
    t_orders = T.element_orders()
    g_counts = np.bincount(g_orders)
    t_counts = np.bincount(t_orders, minlength=g_counts.size)
    if (t_counts[: g_counts.size] < g_counts).any():
        return 0, []

    chain = _generator_chain(G)
    count = 0
    witnesses: list[np.ndarray] = []
    img = np.zeros(G.order, dtype=np.intp)  # shared by all nodes: each re-extends it from its generators

    def extend(members: np.ndarray, level: int) -> None:
        nonlocal count
        if members.size == G.order:
            count += 1
            if len(witnesses) < witness_cap:
                witnesses.append(img.copy())
            return
        g = chain[level]
        used = np.zeros(T.order, dtype=bool)
        used[img[members]] = True
        for h in np.flatnonzero(~used & (t_orders == g_orders[g])):
            img[g] = h
            sub, witness = extend_images(G.table, chain[: level + 1], img, lambda a, b: T.table[a, b])
            budget[0] -= sub.size * (level + 1)
            if budget[0] < 0:
                raise SearchBudgetExceeded("injective-homomorphism search budget exhausted")
            if witness is None and np.unique(img[sub]).size == sub.size and T.order % sub.size == 0:
                extend(sub, level + 1)

    extend(np.zeros(1, dtype=np.intp), 0)
    return count, witnesses


def hom_search(
    G: FiniteGroup,
    target: FiniteGroup | Subgroup,
    *,
    witness_cap: int = 16,
    node_budget: int = 2_000_000,
) -> HomSearchResult:
    """Count injective homomorphisms from G into the target.

    When the target is a subgroup of G itself and no injective homomorphism
    exists, also search the normal lattice for a kernel of minimal index
    with simple quotient and no injective homomorphisms into it.
    """
    budget = [node_budget]
    if isinstance(target, Subgroup):
        T, incl = subgroup_as_group(target.parent, target)
        count, raw = _count_injective(G, T, witness_cap, budget)
        witnesses = tuple(GroupHom(G, target.parent, incl.map[w], validate=False) for w in raw)
        simple_witness = None
        if count == 0 and target.parent is G:
            simple_witness = _find_simple_witness(G, witness_cap, budget)
        return HomSearchResult(count, witnesses, simple_witness)
    count, raw = _count_injective(G, target, witness_cap, budget)
    return HomSearchResult(count, tuple(GroupHom(G, target, w, validate=False) for w in raw), None)


def _find_simple_witness(G: FiniteGroup, witness_cap: int, budget: list[int]) -> SimpleWitness | None:
    candidates = sorted(enumerate_normals(G), key=lambda s: (s.index, s.members.tobytes()))
    for N in candidates:
        if N.is_whole:
            continue
        Q, _ = quotient(G, N)
        if not is_simple(Q):
            continue
        NT, _ = subgroup_as_group(G, N)
        cnt, _w = _count_injective(G, NT, 0, budget)
        if cnt == 0:
            return SimpleWitness(kernel=N, quotient_simple=True)
    return None


def fewprimes_check(f: GroupHom, primes) -> CheckRecord:
    """Induced injective map between the O^pi quotients of an embedding.

    Requires f injective and the prime set to contain every prime dividing
    the index of the core of the image in the codomain.
    """
    parts = hom_parts(f)
    if not parts.is_injective:
        raise ParamOutOfRange("fewprimes_check requires an injective homomorphism")
    G, H = f.domain, f.codomain
    pset = {int(p) for p in primes}
    core = normal_core(H, parts.image)
    required = prime_factors(H.order // core.size)
    if not required <= pset:
        raise PreconditionPrimes(required - pset)

    OG = o_pi(G, pset)
    OH = o_pi(H, pset)
    checks: list[Check] = []
    mapped = bool(OH.bools[f.map[OG.members]].all())
    checks.append(Check("image_of_residual_inside_residual", mapped))
    if not mapped:
        return CheckRecord("fewprimes", tuple(checks), {})

    # a quotient by the trivial subgroup has identity labels and G's table, so
    # G stands for itself there and is not copied (densely, when factored)
    QG, pG = (G, identity_hom(G)) if OG.is_trivial else quotient(G, OG)
    QH, pH = (H, identity_hom(H)) if OH.is_trivial else quotient(H, OH)
    _, first = np.unique(pG.map, return_index=True)
    psi = pH.map[f.map[first]]
    well_defined = bool(np.array_equal(pH.map[f.map], psi[pG.map]))
    checks.append(Check("induced_map_well_defined", well_defined))
    if well_defined:
        psi_hom = GroupHom(QG, QH, psi)
        psi_parts = hom_parts(psi_hom)
        checks.append(Check("induced_map_injective", psi_parts.is_injective))
        # the projection of image(f) * O^pi(H)
        witness = _set_witness(psi_parts.image.bools, _scatter(QH.order, pH.map[f.map]))
        checks.append(Check("induced_image_matches_projected_product", not witness, witness))
        data = {
            "quotient_orders": (QG.order, QH.order),
            "image_order": psi_parts.image.size,
            "primes": sorted(pset),
        }
    else:
        data = {"quotient_orders": (QG.order, QH.order), "primes": sorted(pset)}
    return CheckRecord("fewprimes", tuple(checks), data)


def _residual_thresholds(G: FiniteGroup, autos: AutoSet | None):
    """Distinct index thresholds and the residual subgroup at each of them."""
    qualifying = []
    for N in enumerate_normals(G):
        if autos is not None and autos.maps and not autos.leaves_invariant(N):
            continue
        qualifying.append(N)
    qualifying.sort(key=lambda s: s.index)
    out = []
    meet = np.ones(G.order, dtype=bool)
    i = 0
    thresholds = sorted({N.index for N in qualifying})
    for n in thresholds:
        while i < len(qualifying) and qualifying[i].index <= n:
            meet = meet & qualifying[i].bools
            i += 1
        out.append((n, Subgroup(G, meet.copy(), _checked=True)))
    return out


def verify_regulation(G: FiniteGroup, S: EndoSemigroup, autos: AutoSet | None = None) -> CheckRecord:
    """Regulation conditions for a semigroup with a set of automorphisms.

    (a) the generator maps commute with the automorphism set as map sets;
    (b) residual subgroups are open - vacuous at a finite level, recorded;
    (c) some residual subgroup of index <= |G| is trivial; and every
    residual subgroup is invariant under every generator.
    """
    if S.parent is not G:
        raise DomainMismatch("semigroup does not act on the given group")
    checks: list[Check] = []
    if autos is not None and autos.maps:
        omegas = [a.map for a in autos.maps]
        for i, g in enumerate(S.generators):
            left = {g.map[w].tobytes() for w in omegas}
            right = {w[g.map].tobytes() for w in omegas}
            checks.append(Check(f"map_sets_commute_gen{i}", left == right))
    else:
        checks.append(Check("map_sets_commute", True, "no automorphisms supplied"))

    checks.append(Check("residuals_open", True, "every subgroup of a finite group is open"))

    residuals = _residual_thresholds(G, autos)
    trivial_at = next((n for n, R in residuals if R.is_trivial), None)
    checks.append(
        Check(
            "some_residual_trivial",
            trivial_at is not None and trivial_at <= G.order,
            f"trivial at index bound {trivial_at}" if trivial_at else "no trivial residual",
        )
    )

    stable_ok = True
    witness = ""
    for n, R in residuals:
        for i, g in enumerate(S.generators):
            if not bool(R.bools[g.map[R.members]].all()):
                stable_ok = False
                witness = f"residual at n={n} not invariant under generator {i}"
                break
        if not stable_ok:
            break
    checks.append(Check("residuals_invariant_under_generators", stable_ok, witness))

    return CheckRecord(
        kind="regulation",
        checks=tuple(checks),
        data={
            "trivial_at": trivial_at,
            "residual_sizes": {n: R.size for n, R in residuals},
        },
    )


def tfrelstab_ii_check(sd, S: EndoSemigroup, autos: AutoSet | None = None) -> CheckRecord:
    """Regulation passed down to the normal part of a semidirect product.

    The acting part contributes its conjugation automorphisms of the normal
    part; those are joined with the given automorphisms and regulation is
    re-checked for the restricted semigroup.
    """
    G = sd.group
    if S.parent is not G:
        raise DomainMismatch("semigroup does not act on the semidirect product")
    N, H = sd.normal_part, sd.acting_part
    omegas = list(autos.maps) if autos is not None else []

    for i, g in enumerate(S.generators):
        if not bool(N.bools[g.map[N.members]].all()):
            raise NotInvariant(f"generator {i} does not preserve the normal part")
        on_h = g.map[H.members]
        if not bool(H.bools[on_h].all()):
            raise NotInvariant(f"generator {i} does not preserve the acting part")
        if np.unique(on_h).size != H.size:
            raise NotSurjectiveOnH(f"generator {i} is not surjective on the acting part")
    for i, w in enumerate(omegas):
        if not bool(N.bools[w.map[N.members]].all()) or not bool(H.bools[w.map[H.members]].all()):
            raise NotInvariant(f"automorphism {i} does not preserve both parts")

    n_group, incl = subgroup_as_group(G, N)
    pos = np.full(G.order, -1, dtype=np.intp)
    pos[N.members] = np.arange(N.size, dtype=np.intp)

    xi_arrs: dict[bytes, np.ndarray] = {}
    for h in H.members:
        h = int(h)
        conj = G.table[G.table[h, incl.map], G.inv[h]]
        arr = pos[conj]
        xi_arrs.setdefault(arr.tobytes(), arr)
    conj_count = len(xi_arrs)
    for w in omegas:
        arr = pos[w.map[incl.map]]
        xi_arrs.setdefault(arr.tobytes(), arr)
    xi = AutoSet(n_group, tuple(GroupHom(n_group, n_group, a, validate=False) for a in xi_arrs.values()))

    # every generator was checked above to leave N invariant
    restricted = EndoSemigroup(
        n_group, [GroupHom(n_group, n_group, pos[g.map[incl.map]], validate=False) for g in S.generators]
    )
    inner = verify_regulation(n_group, restricted, xi)
    checks = (Check("parts_invariant_and_surjective", True),) + inner.checks
    data = dict(inner.data)
    data["conjugation_map_count"] = conj_count
    data["xi_map_count"] = len(xi.maps)
    data["normal_part_order"] = N.size
    return CheckRecord(kind="tfrelstab2", checks=checks, data=data)
