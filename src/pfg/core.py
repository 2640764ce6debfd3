"""Exact arithmetic for finite groups given by full multiplication tables.

Elements are the integers 0..order-1 and the identity is always element 0
(tables built from raw input are relabelled at construction).  Every object
is immutable once built and every operation is a pure function of its
inputs, so values can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_ORDER_GUARD = 5000
# tables and inverses are int16, so no order exceeds 32767, whatever the guard
MAX_ORDER = int(np.iinfo(np.int16).max)
# rows per block in the associativity scan, to bound its working memory
_ASSOC_BLOCK = 64


class GroupError(Exception):
    """Base class for construction and arithmetic errors."""


class NotAssociative(GroupError):
    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"associativity fails at triple ({a}, {b}, {c})")


class NoIdentity(GroupError):
    pass


class MissingInverse(GroupError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no inverse")


class NotAHomomorphism(GroupError):
    def __init__(self, x: int, y: int, message: str = ""):
        self.witness = (x, y)
        super().__init__(message or f"map(x*y) != map(x)*map(y) at pair ({x}, {y})")


class ParamOutOfRange(GroupError):
    pass


class BadAction(GroupError):
    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        self.witness = witness  # (x, g) with act[x*g] != act[x] after act[g], when known
        super().__init__(message)


class OrderGuardExceeded(GroupError):
    def __init__(self, order: int, guard: int):
        self.order = order
        self.guard = guard
        super().__init__(f"order {order} exceeds the order guard {guard}")


def check_order(n: int, order_guard: int | None) -> None:
    """Raise before any table is allocated; no guard lets an order past ``MAX_ORDER``."""
    guard = min(MAX_ORDER, DEFAULT_ORDER_GUARD if order_guard is None else order_guard)
    if n > guard:
        raise OrderGuardExceeded(n, guard)


class DifferentParents(GroupError):
    pass


class NotNormal(GroupError):
    pass


class DomainMismatch(GroupError):
    pass


def _orbit_closure(table: np.ndarray, gens: Sequence[int], closed: np.ndarray | None = None) -> np.ndarray:
    """Boolean membership array of the subgroup generated by ``gens``.

    Dimino's coset enumeration, starting from ``closed`` when given: the
    closure of some of ``gens``, or a normal subgroup (whose elements move
    no coset of a subgroup containing it), which the result then contains.
    Adjoining g to the closed subgroup H so far walks whole right cosets
    H*y: the powers of g while they stay outside H, whose distinct cosets
    fill at most n entries in one gather, then breadth-first over
    representatives r, where each unseen r*s for a generator s adds
    ``table[H, r*s]``.  No temporary exceeds O(n) entries.
    The power walk stops after n/|H| steps: a corrupted table need not
    cycle back.  Every marked element is a table product of elements
    marked before it; Light's test in ``_scan_associativity`` runs on this
    closure before associativity is proved and is exact only under that.
    """
    n = table.shape[0]
    seen = np.zeros(n, dtype=bool) if closed is None else closed.copy()
    seen[0] = True
    glist = sorted(set(np.asarray(gens, dtype=np.int64).ravel().tolist()))
    mults = [g for g in glist if g and seen[g]]
    for g in glist:
        if seen[g]:
            continue
        mults.append(g)
        sub = seen.nonzero()[0][:, None]
        reps, y = [], g
        while not seen[y] and len(reps) < n // sub.size:
            reps.append(y)
            y = int(table[y, g])
        if sub.size == 1:  # H is trivial: <g> is the powers of g
            seen[reps] = True
            continue
        seen[table[sub, reps]] = True
        while reps and not seen.all():
            prods = table[np.asarray(reps)[:, None], mults].ravel()
            reps = []
            for y in prods[~seen[prods]].tolist():
                if not seen[y]:
                    seen[table[sub, y]] = True
                    reps.append(y)
    return seen


def extend_images(
    table: np.ndarray,
    gens: Sequence[int],
    img: np.ndarray,
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Extend generator images in place over the subgroup they generate.

    ``img[0]`` holds the codomain identity and ``img[g]`` the image of each
    g in ``gens``; ``mul(img[xs], img[g])`` multiplies a batch of images by
    ``img[g]``.  A breadth-first walk gives each new x*g the image
    ``mul(img[x], img[g])``.  The law is then checked for every member x and
    each g in ``gens``, which proves it on all pairs of members, as in
    ``_scan_associativity``.  Returns the ascending members of <gens> and
    the first failing (x, g), or None.
    """
    glist = [int(g) for g in gens]
    seen = np.zeros(table.shape[0], dtype=bool)
    frontier = np.unique(np.asarray([0, *glist], dtype=np.int32))
    seen[frontier] = True
    while frontier.size and glist:
        found = []
        for g in glist:
            prods = table[frontier, g]
            new = ~seen[prods]
            prods = prods[new]
            seen[prods] = True
            img[prods] = mul(img[frontier[new]], img[g])
            found.append(prods)
        frontier = np.concatenate(found)
    members = np.flatnonzero(seen)
    for g in glist:
        bad = (img[table[members, g]] != mul(img[members], img[g])).reshape(members.size, -1).any(axis=1)
        if bad.any():
            return members, (int(members[np.argmax(bad)]), g)
    return members, None


def power_map(table: np.ndarray, xs: np.ndarray, e: int) -> np.ndarray:
    """The powers x^e of the elements xs, by square and multiply."""
    result = np.zeros_like(xs)  # x^0 = identity
    base = xs
    while e:
        if e & 1:
            result = table[result, base]
        base = table[base, base]
        e >>= 1
    return result


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


def _greedy_generators(table: np.ndarray) -> list[int]:
    """Small generating set found by adjoining the least uncovered element."""
    gens: list[int] = []
    seen = np.zeros(table.shape[0], dtype=bool)
    seen[0] = True
    while not seen.all():
        gens.append(int(np.argmin(seen)))
        seen = _orbit_closure(table, gens, seen)
    return gens


def _scan_associativity(table: np.ndarray) -> list[int]:
    """Light's test on a generating set; returns the generators it used.

    The elements g with (x*g)*y = x*(g*y) for all x, y form a set closed
    under multiplication.  Every element is a left-bracketed word in the
    greedy generators, so checking those generators proves associativity
    of the whole table exactly.
    """
    n = table.shape[0]
    gens = _greedy_generators(table)
    for g in gens:
        xg, gy = table[:, g], table[g, :]
        for lo in range(0, n, _ASSOC_BLOCK):
            left = np.take(table, xg[lo : lo + _ASSOC_BLOCK], axis=0)
            right = np.take(table[lo : lo + _ASSOC_BLOCK], gy, axis=1)
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                raise NotAssociative(lo + int(x), g, int(y))
    return gens


class FiniteGroup:
    """A finite group given by a complete multiplication table.

    ``table[a, b]`` is the index of the product a*b and the identity is
    index 0.  Tables and inverses are int16, which holds every order up to
    ``MAX_ORDER``.  The table is adopted if it is a read-only int16 array
    that owns its data (constructors write such a table and hand it over);
    anything else is range-checked as given and then copied into int16.
    ``validate=True`` treats the table as raw input: range check, identity
    found and relabelled to 0, inverse search and Light's test.
    ``validate=False`` is the caller's promise of a group with identity 0:
    inverses are x^(n-1), and an O(n) check of row and column 0 and of
    x*x^(n-1) = 0 turns a broken promise into a ``GroupError``.
    """

    def __init__(
        self,
        table,
        label: str = "G",
        *,
        validate: bool = True,
        order_guard: int | None = None,
    ):
        adopt = (
            isinstance(table, np.ndarray)
            and table.dtype == np.int16
            and table.flags.owndata
            and not table.flags.writeable
        )
        t = table if adopt else np.asarray(table)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
            raise ParamOutOfRange(f"multiplication table must be square and non-empty, got shape {t.shape}")
        n = t.shape[0]
        check_order(n, order_guard)
        # checked before narrowing, so that 65539 cannot wrap round to 3
        if (validate or not adopt) and (t.min() < 0 or t.max() >= n):
            raise ParamOutOfRange("table entries must be element indices in range")
        if not adopt:
            t = t.astype(np.int16)
        idx = np.arange(n, dtype=np.int16)
        if validate:
            ident = self._find_identity(t)
            if ident is None:
                raise NoIdentity("no two-sided identity element in table")
            if ident != 0:
                perm = idx.copy()
                perm[0], perm[ident] = ident, 0
                t = perm[t[perm[:, None], perm]]
            inv = np.argmax(t == 0, axis=1).astype(np.int16)
        else:
            if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
                raise NoIdentity("element 0 is not a two-sided identity")
            inv = power_map(t, idx, n - 1)
        bad = np.flatnonzero(t[idx, inv] != 0)
        if bad.size:
            raise MissingInverse(int(bad[0]))
        gens = _scan_associativity(t) if validate else None

        t.setflags(write=False)
        inv.setflags(write=False)
        self.table = t
        self.inv = inv
        self.order = n
        self.label = label
        self._element_orders: np.ndarray | None = None
        self._generators: list[int] | None = gens
        # filled once by lattice.enumerate_normals; a race only computes it twice
        self._normals: tuple[Subgroup, ...] | None = None

    @staticmethod
    def _find_identity(t: np.ndarray) -> int | None:
        n = t.shape[0]
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx):
                return e
        return None

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv_of(self, a: int) -> int:
        return int(self.inv[a])

    def element_orders(self) -> np.ndarray:
        """Orders of all elements, one prime at a time: with p^a the p-part
        of the group order n, x^(n/p^a) has order the p-part of ord(x), found
        by at most a p-th powers.  Each power is a square and multiply."""
        if self._element_orders is None:
            n = self.order
            orders = np.ones(n, dtype=np.int32)
            for p in prime_factors(n):
                a = next(a for a in range(n) if n % p ** (a + 1))  # p^a exactly divides n
                y = power_map(self.table, np.arange(n, dtype=np.int32), n // p**a)
                for _ in range(a):
                    orders[y != 0] *= p
                    y = power_map(self.table, y, p)
                if y.any():  # pragma: no cover - guarded by validation
                    raise GroupError("element order does not divide the group order")
            orders.setflags(write=False)
            self._element_orders = orders
        return self._element_orders

    def element_order(self, a: int) -> int:
        return int(self.element_orders()[a])

    def generators(self) -> list[int]:
        if self._generators is None:
            self._generators = _greedy_generators(self.table)
        return list(self._generators)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


def build_from_table(table, label: str = "G", *, order_guard: int | None = None) -> FiniteGroup:
    """Validated group from a raw multiplication table (identity relabelled to 0)."""
    return FiniteGroup(table, label, validate=True, order_guard=order_guard)


class Subgroup:
    """A subgroup of a parent group stored as a boolean membership array."""

    __slots__ = ("parent", "size", "_bools", "_members")

    def __init__(self, parent: FiniteGroup, members, *, _checked: bool = False):
        n = parent.order
        arr = np.asarray(members)
        if arr.dtype == bool:
            if arr.shape != (n,):
                raise ParamOutOfRange("membership array has wrong length")
            bools = arr.copy()
        else:
            idx = arr.astype(np.int64).ravel()
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ParamOutOfRange("member index out of range")
            bools = np.zeros(n, dtype=bool)
            bools[idx] = True
        if not _checked:
            self._validate_closed(parent, bools)
        bools.setflags(write=False)
        self.parent = parent
        self._bools = bools
        self.size = int(np.count_nonzero(bools))
        self._members: np.ndarray | None = None

    @staticmethod
    def _validate_closed(parent: FiniteGroup, bools: np.ndarray) -> None:
        """Closure proved on greedy generators: each closure stays in the set, the last fills it.

        On the whole group that walk is the one ``generators()`` makes and
        keeps, so it runs once per group.
        """
        if not bools[0]:
            raise GroupError("subgroup must contain the identity")
        if not bools[parent.inv[bools]].all():
            raise GroupError("set is not closed under inverses")
        if bools.all():
            parent.generators()
            return
        gens: list[int] = []
        reached = np.zeros_like(bools)
        reached[0] = True
        while (missing := bools > reached).any():
            gens.append(int(np.argmax(missing)))
            reached = _orbit_closure(parent.table, gens, reached)
            if (reached > bools).any():
                raise GroupError("set is not closed under multiplication")

    @property
    def bools(self) -> np.ndarray:
        return self._bools

    @property
    def members(self) -> np.ndarray:
        if self._members is None:
            m = np.flatnonzero(self._bools).astype(np.int32)
            m.setflags(write=False)
            self._members = m
        return self._members

    @property
    def index(self) -> int:
        return self.parent.order // self.size

    @property
    def is_trivial(self) -> bool:
        return self.size == 1

    @property
    def is_whole(self) -> bool:
        return self.size == self.parent.order

    def __contains__(self, x: int) -> bool:
        return bool(self._bools[x])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and np.array_equal(other._bools, self._bools)
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self._bools.tobytes()))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.size}, index={self.index} in {self.parent.label!r})"


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [0], _checked=True)


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, np.ones(G.order, dtype=bool), _checked=True)


def closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing ``gens`` (breadth-first saturation)."""
    glist = [int(g) for g in gens]
    for g in glist:
        if not 0 <= g < G.order:
            raise ParamOutOfRange(f"generator {g} out of range")
    return Subgroup(G, _orbit_closure(G.table, glist), _checked=True)


@dataclass(frozen=True)
class NormalityOps:
    is_normal: bool
    normal_closure: Subgroup
    core: Subgroup


def is_normal(G: FiniteGroup, S: Subgroup) -> bool:
    """S is normal iff conjugation by each generator of G maps S into S.

    In a finite group g*S*g^-1 inside S forces equality, so the elements
    normalizing S form a subgroup; containing the generators, it is all of G.
    """
    g = np.asarray(G.generators(), dtype=np.int32)
    conj = G.table[G.table[g[:, None], S.members], G.inv[g][:, None]]
    return bool(S.bools[conj].all())


def normality_ops(G: FiniteGroup, S: Subgroup) -> NormalityOps:
    """Normality flag, normal closure and core (meet of conjugates) of S."""
    if S.parent is not G:
        raise DifferentParents("subgroup does not live in the given group")
    m = S.members
    conj = G.table[G.table[:, m], G.inv[:, None]]  # conj[g, j] = g*s_j*g^-1
    normal = bool(S.bools[conj].all())
    if normal:
        return NormalityOps(True, S, S)
    nc = Subgroup(G, _orbit_closure(G.table, np.unique(conj)), _checked=True)
    # s_j lies in the core iff every conjugate of s_j stays inside S
    in_core = S.bools[conj].all(axis=0)
    core = Subgroup(G, m[in_core], _checked=True)
    return NormalityOps(False, nc, core)


@dataclass(frozen=True)
class SubgroupAlgebra:
    intersection: Subgroup
    product_set: np.ndarray
    product_is_subgroup: bool
    product_covers_group: bool


def subgroup_algebra(S1: Subgroup, S2: Subgroup) -> SubgroupAlgebra:
    """Meet and set-product of two subgroups of the same parent."""
    if S1.parent is not S2.parent:
        raise DifferentParents("subgroups have different parents")
    G = S1.parent
    inter = Subgroup(G, S1.bools & S2.bools, _checked=True)
    prod = np.unique(G.table[S1.members[:, None], S2.members]).astype(np.int32)  # element lists stay int32
    closed = bool(np.isin(G.table[prod[:, None], prod], prod).all())
    return SubgroupAlgebra(
        intersection=inter,
        product_set=prod,
        product_is_subgroup=closed,
        product_covers_group=prod.size == G.order,
    )


def product_covers(G: FiniteGroup, S1: Subgroup, S2: Subgroup) -> bool:
    if S1.size * S2.size < G.order:
        return False
    hit = np.zeros(G.order, dtype=bool)
    hit[G.table[S1.members[:, None], S2.members]] = True
    return bool(hit.all())


class GroupHom:
    """A total element map between finite groups respecting multiplication."""

    __slots__ = ("domain", "codomain", "map")

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, mapping, *, validate: bool = True):
        arr = np.asarray(mapping, dtype=np.int32).ravel()
        if arr.shape != (domain.order,):
            raise DomainMismatch("map length does not match the domain order")
        if arr.min() < 0 or arr.max() >= codomain.order:
            raise ParamOutOfRange("map image out of codomain range")
        if validate:
            # the law on every x and each generator g extends to all pairs, as in
            # _scan_associativity; the trivial group has no generators, so check
            # the identity there
            for g in domain.generators() or [0]:
                bad = np.flatnonzero(arr[domain.table[:, g]] != codomain.table[arr, arr[g]])
                if bad.size:
                    raise NotAHomomorphism(int(bad[0]), g)
        arr.setflags(write=False)
        self.domain = domain
        self.codomain = codomain
        self.map = arr

    def __call__(self, x: int) -> int:
        return int(self.map[x])

    @property
    def is_endomorphism(self) -> bool:
        return self.domain is self.codomain

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupHom)
            and other.domain is self.domain
            and other.codomain is self.codomain
            and np.array_equal(other.map, self.map)
        )

    def __hash__(self) -> int:
        return hash((id(self.domain), id(self.codomain), self.map.tobytes()))

    def __repr__(self) -> str:
        return f"GroupHom({self.domain.label!r} -> {self.codomain.label!r})"


def require_endo(f: GroupHom) -> None:
    if not f.is_endomorphism:
        raise DomainMismatch("expected an endomorphism (domain = codomain)")


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(G, G, np.arange(G.order, dtype=np.int32), validate=False)


def trivial_hom(G: FiniteGroup, H: FiniteGroup | None = None) -> GroupHom:
    H = G if H is None else H
    return GroupHom(G, H, np.zeros(G.order, dtype=np.int32), validate=False)


def compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """g after f: apply f first.  Requires codomain(f) = domain(g)."""
    if f.codomain is not g.domain:
        raise DomainMismatch("codomain of the first map must be the domain of the second")
    return GroupHom(f.domain, g.codomain, g.map[f.map], validate=False)


@dataclass(frozen=True)
class HomParts:
    kernel: Subgroup
    image: Subgroup
    is_injective: bool
    is_surjective: bool


def hom_parts(f: GroupHom) -> HomParts:
    kernel = Subgroup(f.domain, f.map == 0, _checked=True)
    image = Subgroup(f.codomain, f.map, _checked=True)
    return HomParts(kernel, image, kernel.size == 1, image.size == f.codomain.order)


def preimage(f: GroupHom, S: Subgroup) -> Subgroup:
    """{x : f(x) in S}, a subgroup of the domain."""
    if S.parent is not f.codomain:
        raise DifferentParents("subgroup does not live in the codomain")
    return Subgroup(f.domain, S.bools[f.map], _checked=True)


def image_of_subgroup(f: GroupHom, S: Subgroup) -> Subgroup:
    if S.parent is not f.domain:
        raise DifferentParents("subgroup does not live in the domain")
    return Subgroup(f.codomain, f.map[S.members], _checked=True)


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient group on coset representatives plus the projection map.

    Cosets x*N are labelled in one walk over x = 0..n-1: the first
    unlabelled x is the least element of its coset and gets the next label,
    so labels follow the order of the least representatives.  The walk
    costs n cheap steps plus one labelling of |N| entries per coset; the
    worst case is a tiny N: for a trivial N at order 4374 the walk takes
    about 11 ms, where the n x |N| coset matrix took under 1 ms.
    """
    if N.parent is not G:
        raise DifferentParents("subgroup does not live in the given group")
    if not is_normal(G, N):
        raise NotNormal("quotient requires a normal subgroup")
    table, members = G.table, N.members
    label = np.full(G.order, -1, dtype=np.int16)  # labels < |G/N|
    reps: list[int] = []
    for x in range(G.order):
        if label[x] < 0:
            label[table[x][members]] = len(reps)
            reps.append(x)
    r = np.asarray(reps)
    qtable = label[table[r[:, None], r]]
    qtable.setflags(write=False)
    Q = FiniteGroup(qtable, f"{G.label}/N{N.size}", validate=False)
    proj = GroupHom(G, Q, label, validate=False)
    return Q, proj


def subgroup_as_group(G: FiniteGroup, S: Subgroup, label: str | None = None) -> tuple[FiniteGroup, GroupHom]:
    """S as a group in its own right together with the inclusion into G."""
    m = S.members
    pos = np.full(G.order, -1, dtype=np.int16)
    pos[m] = np.arange(m.size, dtype=np.int16)
    table = pos[G.table[m[:, None], m]]  # positions < |S|
    table.setflags(write=False)
    H = FiniteGroup(table, label or f"{G.label}|{S.size}", validate=False)
    incl = GroupHom(H, G, m, validate=False)
    return H, incl


def restrict_endo(f: GroupHom, S: Subgroup, S_group: FiniteGroup, incl: GroupHom) -> GroupHom:
    """Restriction of an endomorphism to an invariant subgroup, as an endo of S_group."""
    require_endo(f)
    if not S.bools[f.map[S.members]].all():
        raise DomainMismatch("subgroup is not invariant under the map")
    pos = np.full(f.domain.order, -1, dtype=np.int32)
    pos[S.members] = np.arange(S.size, dtype=np.int32)
    return GroupHom(S_group, S_group, pos[f.map[incl.map]], validate=False)


def conjugation_hom(G: FiniteGroup, g: int) -> GroupHom:
    """The inner automorphism x -> g*x*g^-1."""
    mapping = G.table[G.table[g, :], G.inv[g]]
    return GroupHom(G, G, mapping, validate=False)


@dataclass(frozen=True)
class NilpotencyReport:
    is_nilpotent: bool
    nilpotency_class: int | None
    lower_central_series: tuple[Subgroup, ...]
    is_solvable: bool


def _commutator_series(G: FiniteGroup, lower: bool) -> list[Subgroup]:
    """Lower central series (each term against G) or derived series (each
    term against itself).  For H = <X> and K = <Y>, [H, K] is the normal
    closure in HK of the commutators x^-1 y^-1 x y (Robinson 5.1.7).  Both
    kinds of term are normal in G, so the closure is taken in G: conjugates
    by the generators of G of each element adjoined are adjoined in turn
    until none falls outside, and the elements adjoined generate the term."""
    t, inv = G.table, G.inv
    series = [whole_subgroup(G)]
    top = gens = np.asarray(G.generators(), dtype=np.int32)
    while True:
        other = top if lower else gens
        cand = t[t[inv[gens][:, None], inv[other]], t[gens[:, None], other]].ravel()
        bools = np.arange(G.order) == 0
        adjoined: list[int] = []
        while cand.size:
            new = []
            for c in cand[~bools[cand]].tolist():
                if not bools[c]:
                    adjoined.append(c)
                    new.append(c)
                    bools = _orbit_closure(t, adjoined, bools)
            cand = t[t[top[:, None], new], inv[top][:, None]].ravel()
        if int(bools.sum()) == series[-1].size:
            return series
        series.append(Subgroup(G, bools, _checked=True))
        gens = np.asarray(adjoined, dtype=np.int32)


def lower_central_series(G: FiniteGroup) -> list[Subgroup]:
    return _commutator_series(G, lower=True)


def derived_series(G: FiniteGroup) -> list[Subgroup]:
    return _commutator_series(G, lower=False)


def nilpotency(G: FiniteGroup) -> NilpotencyReport:
    """Lower central series, nilpotency class and solvability."""
    lcs = lower_central_series(G)
    nil = lcs[-1].is_trivial
    cls = len(lcs) - 1 if nil else None
    solvable = derived_series(G)[-1].is_trivial
    return NilpotencyReport(nil, cls, tuple(lcs), solvable)
