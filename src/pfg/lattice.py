"""Subgroup and normal-subgroup enumeration, residual intersections, O^pi.

Two enumeration routes are used.  Small groups (or unbounded index) go
through breadth-first generator adjunction over the whole lattice.  For a
large group with a small index bound n the complete answer is assembled
from the normal lattice instead: every subgroup of index at most n
contains its own core, a normal subgroup of index dividing n!, so pulling
back the low-index subgroups of the quotients G/N over all normal N of
index <= n! finds every candidate exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

import numpy as np

from .construct import is_prime
from .core import (
    FiniteGroup,
    GroupHom,
    ParamOutOfRange,
    Subgroup,
    _orbit_closure,
    preimage,
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


def _adjunction_enumeration(G: FiniteGroup, budget: _Budget) -> tuple[list[tuple[np.ndarray, tuple[int, ...]]], bool]:
    """All subgroups by generator adjunction; one adjoined rep per coset."""
    t = G.table
    triv = np.zeros(G.order, dtype=bool)
    triv[0] = True
    found: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {triv.tobytes(): (triv, ())}
    queue = [(triv, ())]
    complete = True
    while queue:
        bools, gens = queue.pop()
        members = np.flatnonzero(bools)
        if members.size == G.order:
            continue
        reps = np.unique(t[:, members].min(axis=1))
        for r in reps:
            if bools[r]:
                continue
            new_gens = gens + (int(r),)
            new = _orbit_closure(t, new_gens, bools)
            if not budget.spend(int(new.sum()) * len(new_gens)):
                complete = False
                queue.clear()
                break
            key = new.tobytes()
            if key not in found:
                entry = (new, new_gens)
                found[key] = entry
                queue.append(entry)
    return list(found.values()), complete


def _low_index_via_cores(G: FiniteGroup, n: int, budget: _Budget) -> tuple[list[np.ndarray], bool]:
    cap = factorial(n)
    complete = True
    masks: dict[bytes, np.ndarray] = {}
    for N in normals_up_to_index(G, cap):
        Q, proj = quotient(G, N)
        subs, ok = _adjunction_enumeration(Q, budget)
        complete = complete and ok
        for bools, _ in subs:
            if Q.order // int(bools.sum()) > n:
                continue
            pulled = bools[proj.map]
            masks.setdefault(pulled.tobytes(), pulled)
    return list(masks.values()), complete


def enumerate_subgroups(G: FiniteGroup, n: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SubgroupCatalog:
    """Complete catalog of subgroups of index <= n (honest ``complete`` flag)."""
    if n < 1:
        raise ParamOutOfRange("index bound must be >= 1")
    n_eff = min(n, G.order)
    budget = _Budget(node_budget)
    if G.order <= _ADJUNCTION_ORDER_LIMIT or factorial(n_eff) >= G.order:
        subs, complete = _adjunction_enumeration(G, budget)
        bools_list = [b for b, _ in subs if G.order // int(b.sum()) <= n_eff]
    else:
        bools_list, complete = _low_index_via_cores(G, n_eff, budget)
    entries = sorted(
        (Subgroup(G, b, _checked=True) for b in bools_list),
        key=lambda s: (s.index, s.members.tobytes()),
    )
    return SubgroupCatalog(G, n, tuple(entries), complete)


def all_subgroups(G: FiniteGroup, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SubgroupCatalog:
    return enumerate_subgroups(G, G.order, node_budget=node_budget)


def conjugacy_classes(G: FiniteGroup) -> list[np.ndarray]:
    t, inv = G.table, G.inv
    done = np.zeros(G.order, dtype=bool)
    classes = []
    for x in range(G.order):
        if done[x]:
            continue
        orbit = np.unique(t[t[:, x], inv])
        done[orbit] = True
        classes.append(orbit)
    return classes


def enumerate_normals(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups: joins of normal closures of conjugacy classes.

    Every normal subgroup is a union of conjugacy classes and hence the join
    of the class closures it contains, so saturating the class closures under
    joins with seeds reaches the whole normal lattice (which is then closed
    under meet automatically; a meet of normals is again a union of classes).
    The lattice is computed once per group and kept on it.
    """
    if G._normals is None:
        G._normals = _normal_lattice(G)
    return list(G._normals)


def _normal_lattice(G: FiniteGroup) -> tuple[Subgroup, ...]:
    t = G.table
    seeds: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for cls in conjugacy_classes(G):
        b = _orbit_closure(t, cls)
        seeds.setdefault(b.tobytes(), (b, cls))
    seed_list = list(seeds.values())
    found = {key: b for key, (b, _) in seeds.items()}
    work = list(found.values())
    while work:
        a = work.pop()
        for s, cls in seed_list:
            if not (s & ~a).any():  # seed inside a: join is a itself
                continue
            # a is normal and cls is closed under conjugation, so extending
            # the closed a by cls gives the join a*s
            join = _orbit_closure(t, cls, a)
            key = join.tobytes()
            if key not in found:
                found[key] = join
                work.append(join)
    subs = [Subgroup(G, b, _checked=True) for b in found.values()]
    return tuple(sorted(subs, key=lambda s: (s.size, s.members.tobytes())))


def _lcm_up_to(cap: int) -> int:
    out = 1
    for k in range(2, cap + 1):
        out = out * k // gcd(out, k)
    return out


def _power_map(G: FiniteGroup, e: int) -> np.ndarray:
    """The element map x -> x^e by square and multiply."""
    result = np.zeros(G.order, dtype=np.int32)  # x^0 = identity
    base = np.arange(G.order, dtype=np.int32)
    while e:
        if e & 1:
            result = G.table[result, base]
        base = G.table[base, base]
        e >>= 1
    return result


def normals_up_to_index(G: FiniteGroup, cap: int) -> list[Subgroup]:
    """Normal subgroups of index <= cap.

    A quotient of order at most cap has exponent dividing L = lcm(1..cap),
    so every qualifying subgroup contains the normal subgroup generated by
    the L-th powers; the search happens in that (much smaller) quotient.
    """
    if cap < 1:
        raise ParamOutOfRange("index bound must be >= 1")
    if cap >= G.order:
        return enumerate_normals(G)
    verbal = _orbit_closure(G.table, np.unique(_power_map(G, _lcm_up_to(cap))))
    if int(verbal.sum()) == 1:
        return [N for N in enumerate_normals(G) if N.index <= cap]
    Q, proj = quotient(G, Subgroup(G, verbal, _checked=True))
    out = []
    for N in normals_up_to_index(Q, cap):
        if N.index <= cap:
            out.append(preimage(proj, N))
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


def prime_factors(m: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


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
    coprime = np.all([G.element_orders() % p != 0 for p in pset], axis=0)
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
