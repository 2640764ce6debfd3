"""Subgroup and normal-subgroup enumeration, residual intersections, O^pi.

Subgroups of index at most n are counted in the verbal quotient G/V, V
generated by the L-th powers, L = lcm(1..n) (Lubotzky-Segal, Subgroup
Growth, 1.1): G acts on the k <= n cosets of such a subgroup H through
S_k, whose exponent divides L, so every x^L lies in the kernel and hence
in H.  The subgroups of G/V pull back to exactly those of G containing V,
with the same index.  Two routes then enumerate G/V.  Small groups (or
unbounded index) go through zuppo adjunction along canonical chains over
the whole lattice.  For a large group with a small index bound n the
complete answer is assembled from the normal lattice instead: every
subgroup of index at most n contains its own core, a normal subgroup of
index dividing n!, so pulling back the low-index subgroups of the
quotients G/N over all normal N of index <= n! finds every candidate
exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .construct import is_prime
from .core import (
    FiniteGroup,
    GroupHom,
    ParamOutOfRange,
    Subgroup,
    _orbit_closure,
    power_map,
    preimage,
    prime_factors,
    quotient,
    subgroup_as_group,
)

DEFAULT_NODE_BUDGET = 10**6
_ADJUNCTION_ORDER_LIMIT = 64


@dataclass(frozen=True)
class SubgroupCatalog:
    parent: FiniteGroup
    max_index: int
    entries: tuple[Subgroup, ...]
    complete: bool

    def by_index(self) -> dict[int, list[Subgroup]]:
        out: dict[int, list[Subgroup]] = {}
        for s in self.entries:
            out.setdefault(s.index, []).append(s)
        return out


@dataclass(frozen=True)
class AutoSet:
    """A finite set of automorphisms of one parent group."""

    parent: FiniteGroup
    maps: tuple[GroupHom, ...]

    def __post_init__(self):
        for f in self.maps:
            if f.domain is not self.parent or f.codomain is not self.parent:
                raise ParamOutOfRange("automorphism set maps must be endomorphisms of the parent")
            if np.unique(f.map).size != self.parent.order:
                raise ParamOutOfRange("automorphism set contains a non-bijective map")

    def leaves_invariant(self, S: Subgroup) -> bool:
        return all(bool(S.bools[f.map[S.members]].all()) for f in self.maps)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self, n: int) -> bool:
        self.left -= n
        return self.left >= 0


def _zuppos(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """Zuppos, the cyclic subgroups of prime-power order > 1: the least
    element of each, ascending, and a label giving each element of
    prime-power order the position of the zuppo it generates (-1 elsewhere).
    One walk over the powers of x finds the generators of <x>: those of its order."""
    t, orders = G.table, G.element_orders()
    prime_power = np.zeros(int(orders.max()) + 1, dtype=bool)
    for q in np.unique(orders).tolist():
        prime_power[q] = len(prime_factors(q)) == 1
    label = np.full(G.order, -1, dtype=np.intp)
    zuppos: list[int] = []
    for x in np.flatnonzero(prime_power[orders]).tolist():
        if label[x] >= 0:
            continue
        q, powers = orders[x], [x]
        while len(powers) < q:
            powers.append(int(t[powers[-1], x]))
        powers = np.asarray(powers)
        label[powers[orders[powers] == q]] = len(zuppos)
        zuppos.append(x)
    return np.asarray(zuppos, dtype=np.intp), label


def _adjunction_enumeration(G: FiniteGroup, budget: _Budget) -> tuple[list[tuple[np.ndarray, tuple[int, ...]]], bool]:
    """All subgroups by adjoining zuppos along canonical chains.

    Every subgroup K is generated by its zuppos z_1 < z_2 < ...  Its
    canonical chain starts at 1 and adjoins, at each step, the least zuppo
    of K outside the subgroup so far.  So from H, reached by adjoining z_i
    last, the walk adjoins each z_j with j > i outside H and keeps the child
    only if its zuppos below z_j all lie in H (a member of H*z_j generating
    one of them rules the child out before its closure).  Then H and z_j
    make up the child's canonical chain: each subgroup is reached once, in
    every finite group.
    """
    t, n = G.table, G.order
    zs, label = _zuppos(G)
    # a row per prime p of n: the zuppo of the p-part of each x, which
    # x^m generates for m the p'-part of n (-1 when x has no p-part)
    idx = np.arange(n, dtype=np.intp)
    parts = []
    for p in prime_factors(n):
        m = n
        while m % p == 0:
            m //= p
        parts.append(label[power_map(t, idx, m)])
    parts = np.array(parts, dtype=np.intp).reshape(-1, n)
    triv = idx == 0
    found = [(triv, ())]
    stack = [(triv, (), -1)]
    while stack:
        bools, gens, last = stack.pop()
        inside, members = bools[zs], np.flatnonzero(bools)
        outside = np.append(~inside, False)  # the last slot answers label -1
        for j in range(last + 1, zs.size):
            if inside[j]:
                continue
            # a prime-power part of a member of H*z_j is a power of it, so it
            # lies in the child: a zuppo it generates below z_j and outside H
            # sends the child's canonical chain elsewhere
            lab = parts[:, t[members, zs[j]]]
            if (outside[lab] & (lab < j)).any():
                continue
            new_gens = gens + (int(zs[j]),)
            new = _orbit_closure(t, new_gens, bools)
            if not budget.spend(int(new.sum()) * len(new_gens)):
                return found, False
            if (new[zs[:j]] > inside[:j]).any():
                continue
            found.append((new, new_gens))
            stack.append((new, new_gens, j))
    return found, True


def _low_index_via_cores(G: FiniteGroup, n: int, budget: _Budget) -> tuple[list[np.ndarray], bool]:
    # G has exponent dividing lcm(1..n) here (``_verbal_quotient`` found
    # nothing or already divided it out), so the normals of index <= n!
    # need no verbal step of their own
    cap = factorial(n)
    complete = True
    masks: dict[bytes, np.ndarray] = {}
    for N in enumerate_normals(G):
        if N.index > cap:
            continue
        Q, proj = quotient(G, N)
        subs, ok = _adjunction_enumeration(Q, budget)
        complete = complete and ok
        for bools, _ in subs:
            if Q.order // int(bools.sum()) > n:
                continue
            pulled = bools[proj.map]
            masks.setdefault(pulled.tobytes(), pulled)
    return list(masks.values()), complete


def _verbal_exponent(order: int, cap: int) -> int:
    """gcd(lcm(1..cap), order), without forming the lcm: the largest power
    of each prime p of ``order`` that divides it and is at most ``cap``."""
    d = 1
    for p in prime_factors(order):
        q = 1
        while order % (q * p) == 0 and q * p <= cap:
            q *= p
        d *= q
    return d


def _verbal_quotient(G: FiniteGroup, cap: int) -> tuple[FiniteGroup, GroupHom] | None:
    """G/V for V = <x^L : x in G>, L = lcm(1..cap), or None when V is trivial.

    V lies in every subgroup of index <= cap (module docstring), and so in
    every normal one.  Each x has order dividing |G|, so <x^L> = <x^d> for
    d = gcd(L, |G|): the powers are taken with an exponent d <= |G|, and d
    = |G| (every x^L is 1) answers at once.
    """
    d = _verbal_exponent(G.order, cap)
    if d == G.order:
        return None
    powers = np.zeros(G.order, dtype=bool)
    powers[power_map(G.table, np.arange(G.order, dtype=np.intp), d)] = True
    verbal = _orbit_closure(G.table, np.flatnonzero(powers))
    if int(verbal.sum()) == 1:
        return None
    return quotient(G, Subgroup(G, verbal, _checked=True))


def enumerate_subgroups(G: FiniteGroup, n: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SubgroupCatalog:
    """Complete catalog of subgroups of index <= n (honest ``complete`` flag).

    The routes run on the verbal quotient G/V (module docstring), and each
    subgroup found there is pulled back to G through the projection.
    """
    if n < 1:
        raise ParamOutOfRange("index bound must be >= 1")
    n_eff = min(n, G.order)
    budget = _Budget(node_budget)
    reduced = _verbal_quotient(G, n_eff)
    Q = G if reduced is None else reduced[0]
    if Q.order <= _ADJUNCTION_ORDER_LIMIT or factorial(n_eff) >= Q.order:
        subs, complete = _adjunction_enumeration(Q, budget)
        bools_list = [b for b, _ in subs if Q.order // int(b.sum()) <= n_eff]
    else:
        bools_list, complete = _low_index_via_cores(Q, n_eff, budget)
    if reduced is not None:
        bools_list = [b[reduced[1].map] for b in bools_list]
    entries = sorted(
        (Subgroup(G, b, _checked=True) for b in bools_list),
        key=lambda s: (s.index, s.members.tobytes()),
    )
    return SubgroupCatalog(G, n, tuple(entries), complete)


def all_subgroups(G: FiniteGroup, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SubgroupCatalog:
    return enumerate_subgroups(G, G.order, node_budget=node_budget)


def enumerate_normals(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, found by ``_normal_lattice``.

    The lattice is computed once per group and kept on it.
    """
    if G._normals is None:
        G._normals = _normal_lattice(G)
    return list(G._normals)


def _normal_lattice(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """Normal subgroups, each the join of the seeds inside it: the normal
    closures of the conjugacy classes of its zuppos.  The joins of seeds are
    walked along canonical chains, as in ``_adjunction_enumeration``, with
    one containment test of every seed against each join.
    """
    t, inv = G.table, G.inv
    zs, label = _zuppos(G)
    covered = np.zeros(zs.size, dtype=bool)
    seeds: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for i, z in enumerate(zs.tolist()):
        if covered[i]:
            continue
        in_cls = np.zeros(G.order, dtype=bool)
        in_cls[t[t[:, z], inv]] = True
        cls = np.flatnonzero(in_cls)
        covered[label[cls]] = True
        b = _orbit_closure(t, cls)
        seeds.setdefault(b.tobytes(), (b, cls))
    seed_bools = np.array([b for b, _ in seeds.values()], dtype=bool).reshape(len(seeds), G.order)
    classes = [cls for _, cls in seeds.values()]
    triv = np.arange(G.order) == 0
    found = [triv]
    stack = [(triv, -1, np.zeros(len(classes), dtype=bool))]
    while stack:
        a, last, inside = stack.pop()
        for j in range(last + 1, len(classes)):
            if inside[j]:
                continue
            # a is normal and the class is closed under conjugation, so
            # extending the closed a by the class gives the join of a and seed j
            join = _orbit_closure(t, classes[j], a) if last >= 0 else seed_bools[j]
            join_inside = ~(seed_bools & ~join).any(axis=1)
            if (join_inside[:j] > inside[:j]).any():
                continue
            found.append(join)
            stack.append((join, j, join_inside))
    subs = [Subgroup(G, b, _checked=True) for b in found]
    return tuple(sorted(subs, key=lambda s: (s.size, s.members.tobytes())))


def normals_up_to_index(G: FiniteGroup, cap: int) -> list[Subgroup]:
    """Normal subgroups of index <= cap, found in the verbal quotient by the
    L-th powers, L = lcm(1..cap): a quotient of order at most cap has
    exponent dividing L."""
    if cap < 1:
        raise ParamOutOfRange("index bound must be >= 1")
    reduced = _verbal_quotient(G, cap)
    if reduced is None:
        return [N for N in enumerate_normals(G) if N.index <= cap]
    Q, proj = reduced
    out = [preimage(proj, N) for N in enumerate_normals(Q) if N.index <= cap]
    out.sort(key=lambda s: (s.size, s.members.tobytes()))
    return out


def residual_intersection(G: FiniteGroup, n: int, autos: AutoSet | None = None) -> Subgroup:
    """Meet of all normal subgroups of index <= n invariant under all of ``autos``."""
    if n < 1:
        raise ParamOutOfRange("index bound must be >= 1")
    meet = np.ones(G.order, dtype=bool)
    for N in normals_up_to_index(G, min(n, G.order)):
        if autos is not None and autos.maps and not autos.leaves_invariant(N):
            continue
        meet &= N.bools
    return Subgroup(G, meet, _checked=True)


def o_pi(G: FiniteGroup, primes) -> Subgroup:
    """Smallest normal subgroup whose quotient order involves only ``primes``:
    the closure of the pi'-elements (orders prime to pi), which die in every
    pi-quotient; by Cauchy the quotient by it has no prime outside pi."""
    pset = {int(p) for p in primes}
    if not pset:
        raise ParamOutOfRange("the prime set must be non-empty")
    for p in pset:
        if not is_prime(p):
            raise ParamOutOfRange(f"{p} is not a prime")
    orders = G.element_orders()
    coprime = np.ones(G.order, dtype=bool)
    for p in pset:
        if G.order % p == 0:  # a prime not dividing |G| divides no element order
            coprime &= orders % p != 0
    return Subgroup(G, _orbit_closure(G.table, np.flatnonzero(coprime)), _checked=True)


@dataclass(frozen=True)
class CountProfile:
    counts: dict[int, int]
    complete: bool


def count_profile(G: FiniteGroup, n: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> CountProfile:
    """Per-index subgroup counts for index <= n, from a complete catalog."""
    catalog = enumerate_subgroups(G, n, node_budget=node_budget)
    counts: dict[int, int] = {}
    for s in catalog.entries:
        counts[s.index] = counts.get(s.index, 0) + 1
    return CountProfile(dict(sorted(counts.items())), catalog.complete)


def o_pi_of_subgroup(G: FiniteGroup, S: Subgroup, primes) -> Subgroup:
    """O^pi computed inside S (as its own group), returned as a subgroup of G."""
    H, incl = subgroup_as_group(G, S)
    inner = o_pi(H, primes)
    return Subgroup(G, incl.map[inner.members], _checked=True)
