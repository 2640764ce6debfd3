"""Exact arithmetic for finite groups given by full multiplication tables.

Elements are the integers 0..order-1 and the identity is always element 0
(tables built from raw input are relabelled at construction).  Every object
is immutable once built and every operation is a pure function of its
inputs, so values can be shared freely across workers.

Data layout: tables and inverses are int16, as they are the arrays of n^2
and n entries and int16 holds every order up to ``MAX_ORDER``.  Every other
element array (homomorphism maps, subgroup members, powers, labels,
generators, action tables) is intp, the index type of a NumPy gather, and
is made so where it is created.  An index array of any other type takes
NumPy's buffered path: ``f[f]`` at n = 4374 costs about 12 us with an
int32 index against 4 us with intp, and 0.8 us against 0.17 us at n = 54
(NumPy 2.4.6, one core of a 2-vCPU x86-64 machine).  Entries read out of a
table stay int16 and index as they are, with no cast per use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_ORDER_GUARD = 5000
# tables and inverses are int16, so no order exceeds 32767, whatever the guard
MAX_ORDER = int(np.iinfo(np.int16).max)
# rows per block in the associativity scan and the quotient table, to bound
# the working memory of their gathers
_ROW_BLOCK = 64


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
    frontier = np.unique(np.asarray([0, *glist], dtype=np.intp))
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
    """The powers x^e of the elements xs, by square and multiply from the
    lowest set bit of e to the top one: x^2 is one gather, x^3 two.  x^0 is
    zeros of xs's dtype, any other power a new array of the table's."""
    if e == 0:
        return np.zeros_like(xs)  # x^0 = identity
    base = xs
    while not e & 1:
        base = table[base, base]
        e >>= 1
    result = base.astype(table.dtype)
    while e := e >> 1:
        base = table[base, base]
        if e & 1:
            result = table[result, base]
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
        for lo in range(0, n, _ROW_BLOCK):
            left = np.take(table, xg[lo : lo + _ROW_BLOCK], axis=0)
            right = np.take(table[lo : lo + _ROW_BLOCK], gy, axis=1)
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                raise NotAssociative(lo + int(x), g, int(y))
    return gens


class PairTable:
    """The multiplication table of a pair-encoded product, kept as factors.

    Element x is the pair (a, b) = divmod(x, nb), and
    ``t[x, y] = left[a1, b1, a2] + right[b1, b2]``: ``left`` (na, nb, na)
    holds the left coordinate of each product times nb, and ``right`` is
    the right factor's (nb, nb) table.  Indexing follows NumPy: integers
    and integer arrays broadcast together, and a slice is an outer axis in
    its place, so ``t[:, m]`` has shape (n, |m|).  ``dense()`` writes the
    whole table.  There is no implicit conversion: ``np.asarray`` of a
    factored table raises, where it would silently wrap it in an object
    array.
    """

    __slots__ = ("left", "right", "shape", "_flat")
    ndim = 2
    dtype = np.dtype(np.int16)

    def __init__(self, left: np.ndarray, right: np.ndarray):
        for factor in (left, right):
            factor.setflags(write=False)
        self.left = left
        self.right = right
        n = left.shape[0] * right.shape[0]
        self.shape = (n, n)
        self._flat: tuple | None = None  # made by the first array gather

    def _flatten(self) -> tuple:
        """``left`` as one flat run of its memory with its steps in items,
        so that left[a1, b1, a2] sits at a1*s0 + b1*s1 + a2*s2 (s1 is 0 for a
        direct product), and ``right`` flat.  One flat take is faster than
        indexing with three arrays.  NumPy gives every factor non-negative
        strides, so each offset lies inside the memory the view spans."""
        left = self.left
        steps = [s // left.itemsize for s in left.strides]
        span = 1 + sum((d - 1) * s for d, s in zip(left.shape, steps))
        flat = np.lib.stride_tricks.as_strided(left, (span,), (left.itemsize,), writeable=False)
        return flat, steps, self.right.ravel()

    @property
    def dense_bytes(self) -> int:
        return self.shape[0] ** 2 * self.dtype.itemsize

    def dense(self) -> np.ndarray:
        """The frozen (n, n) table, from the broadcast sum of the factors on
        the (a1, b1, a2, b2) grid.  The sum is written straight into a C-order
        buffer: NumPy's default result of the broadcast is not contiguous,
        and reshaping it would copy the whole table again."""
        na, nb = self.left.shape[0], self.right.shape[0]
        table = np.empty(self.shape, dtype=np.int16)
        np.add(self.left[..., None], self.right[None, :, None, :], out=table.reshape(na, nb, na, nb))
        table.setflags(write=False)
        return table

    def __array__(self, *args, **kwargs):
        raise TypeError("a factored table is read by indexing; call dense() for the array")

    def __getitem__(self, key):
        x, y = key if isinstance(key, tuple) else (key, slice(None))
        nb = self.right.shape[0]
        if type(x) is int and type(y) is int:
            (a1, b1), (a2, b2) = divmod(x, nb), divmod(y, nb)
            return self.left[a1, b1, a2] + self.right[b1, b2]
        x_outer, y_outer = isinstance(x, slice), isinstance(y, slice)
        x = np.arange(self.shape[0])[x] if x_outer else np.asarray(x)
        y = np.arange(self.shape[0])[y] if y_outer else np.asarray(y)
        if x.dtype == bool or y.dtype == bool:
            raise IndexError("a factored table takes integer indices, not masks")
        # one cast to intp, not one per gather
        x, y = x.astype(np.intp, copy=False), y.astype(np.intp, copy=False)
        if x_outer:
            x = x.reshape(-1, *[1] * y.ndim)
        elif y_outer:
            x = x[..., None]
        if self._flat is None:
            self._flat = self._flatten()
        left, (s0, s1, s2), right = self._flat
        a1, b1 = np.divmod(x, nb)
        a2, b2 = np.divmod(y, nb)
        return left.take(a1 * s0 + b1 * s1 + a2 * s2) + right.take(b1 * nb + b2)


# a product's table is kept factored when its dense form would pass this many
# bytes: 16 MiB, so orders up to 2896 are dense and order 2897 on is factored
DENSE_TABLE_BYTES = 16 * 2**20


def product_table(left: np.ndarray, right: np.ndarray) -> np.ndarray | PairTable:
    """The table of ``PairTable(left, right)``, dense unless it would pass ``DENSE_TABLE_BYTES``."""
    t = PairTable(left, right)
    return t if t.dense_bytes > DENSE_TABLE_BYTES else t.dense()


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``table[a, b]`` is the index of the product a*b and the identity is
    index 0.  The table is an (n, n) array, or for a product above the
    ``DENSE_TABLE_BYTES`` rule a ``PairTable`` that computes each entry
    from its factors; code reads either by indexing alone.  Tables and
    inverses are int16, which holds every order up to ``MAX_ORDER``; maps,
    members and the other element arrays are intp (module docstring).  A
    ``PairTable``, or a read-only int16 array that owns its data, is
    adopted (constructors build such a table and hand it over); anything
    else is range-checked as given and then copied into int16.
    ``validate=True`` treats the table as raw input: range check, identity
    found and relabelled to 0, inverse search and Light's test.
    ``validate=False`` is the caller's promise of a group with identity 0
    whose inverses are ``inv``, which it must pass: every constructor knows
    them from its construction.  They are range-checked, and an O(n) check
    of row and column 0 and of x*inv[x] = 0 turns a broken promise into a
    ``GroupError``.
    """

    def __init__(
        self,
        table,
        label: str = "G",
        *,
        validate: bool = True,
        inv=None,
        order_guard: int | None = None,
    ):
        if validate != (inv is None):
            raise TypeError("inverses are passed exactly when validate=False")
        adopt = isinstance(table, PairTable) or (
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
            inv = np.asarray(inv)
            if inv.shape != (n,) or inv.min() < 0 or inv.max() >= n:
                raise ParamOutOfRange("inverses must be one element index per element")
            inv = inv.astype(np.int16)
            if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
                raise NoIdentity("element 0 is not a two-sided identity")
        bad = np.flatnonzero(t[idx, inv] != 0)
        if bad.size:
            raise MissingInverse(int(bad[0]))
        gens = _scan_associativity(t) if validate else None

        if isinstance(t, np.ndarray):
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
                y = power_map(self.table, np.arange(n, dtype=np.intp), n // p**a)
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
        """The generators commute pairwise, so every two elements do."""
        g = np.asarray(self.generators(), dtype=np.intp)
        prods = self.table[g[:, None], g]
        return bool(np.array_equal(prods, prods.T))

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
            idx = arr.ravel()
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ParamOutOfRange("member index out of range")
            bools = np.zeros(n, dtype=bool)
            bools[idx.astype(np.intp, copy=False)] = True
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
            m = np.flatnonzero(self._bools)
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


def is_normal(G: FiniteGroup, S: Subgroup) -> bool:
    """S is normal iff conjugation by each generator of G maps S into S.

    In a finite group g*S*g^-1 inside S forces equality, so the elements
    normalizing S form a subgroup; containing the generators, it is all of G.
    """
    g = np.asarray(G.generators(), dtype=np.intp)
    conj = G.table[G.table[g[:, None], S.members], G.inv[g][:, None]]
    return bool(S.bools[conj].all())


def _normal_closure(G: FiniteGroup, cand: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Membership of the normal closure of ``cand`` and the elements adjoined.

    Each candidate outside the closure so far is adjoined, and its
    conjugates by the generators of G become the next candidates, until
    none falls outside.  The closure then holds each generator's conjugate
    of every element adjoined, so conjugation by the generators maps it
    into itself and it is normal; every element adjoined is a conjugate of
    a candidate, so it is the least such subgroup.  The adjoined elements
    generate it, and each round gathers |gens| conjugates per element.
    """
    t, inv = G.table, G.inv
    top = np.asarray(G.generators(), dtype=np.intp)
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
    return bools, adjoined


def normal_closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup of G containing ``gens``."""
    cand = np.asarray([int(g) for g in gens], dtype=np.intp)
    if cand.size and (cand.min() < 0 or cand.max() >= G.order):
        raise ParamOutOfRange("generator out of range")
    return Subgroup(G, _normal_closure(G, cand)[0], _checked=True)


def normal_core(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """Largest normal subgroup of G inside S (the meet of S's conjugates).

    Start from S and drop every member whose conjugate by some generator of
    G leaves the set, until none does.  A member of the core is never
    dropped, as its conjugates lie in the core.  The set left is mapped into
    itself by conjugation by each generator, so it is normal; lying in S,
    it lies in every conjugate of S, and it is the core.  Each round gathers
    |gens| conjugates of every member left.
    """
    if S.parent is not G:
        raise DifferentParents("subgroup does not live in the given group")
    g = np.asarray(G.generators(), dtype=np.intp)
    keep, members = S.bools.copy(), S.members
    while True:
        conj = G.table[G.table[g[:, None], members], G.inv[g][:, None]]
        stays = keep[conj].all(axis=0)
        if stays.all():
            return Subgroup(G, keep, _checked=True)
        keep[members[~stays]] = False
        members = members[stays]


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
        arr = np.asarray(mapping).ravel()
        if arr.shape != (domain.order,):
            raise DomainMismatch("map length does not match the domain order")
        # checked before conversion, so that 2**32 + 1 cannot wrap round to 1
        if arr.min() < 0 or arr.max() >= codomain.order:
            raise ParamOutOfRange("map image out of codomain range")
        # a read-only intp map (another hom's, a subgroup's members) is shared;
        # anything else is copied, so the caller's array stays writable
        arr = arr.astype(np.intp, copy=arr.flags.writeable)
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
    return GroupHom(G, G, np.arange(G.order, dtype=np.intp), validate=False)


def trivial_hom(G: FiniteGroup, H: FiniteGroup | None = None) -> GroupHom:
    H = G if H is None else H
    return GroupHom(G, H, np.zeros(G.order, dtype=np.intp), validate=False)


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
    reads x in blocks of 256 and steps only through the ones still
    unlabelled at the start of the block, re-checking each, as an earlier
    coset of the block may have covered it.  Each coset is the row gather
    ``table[x, members]`` of |N| entries, never a whole row, so the walk
    costs |G/N| steps plus n entries in all; the worst case is a tiny N:
    for a trivial N at order 4374 (a factored table) the walk alone takes
    about 35 ms, where the n x |N| coset matrix took under 1 ms.  The
    quotient's table is dense, gathered from G's in blocks of ``_ROW_BLOCK``
    rows, so a factored G's formula reads stay small.
    """
    if N.parent is not G:
        raise DifferentParents("subgroup does not live in the given group")
    if not is_normal(G, N):
        raise NotNormal("quotient requires a normal subgroup")
    table, members = G.table, N.members
    label = np.full(G.order, -1, dtype=np.intp)
    reps: list[int] = []
    for lo in range(0, G.order, 256):
        for x in (np.flatnonzero(label[lo : lo + 256] < 0) + lo).tolist():
            if label[x] < 0:
                label[table[x, members]] = len(reps)
                reps.append(x)
    r = np.asarray(reps)
    qtable = np.empty((r.size, r.size), dtype=np.int16)
    for lo in range(0, r.size, _ROW_BLOCK):
        qtable[lo : lo + _ROW_BLOCK] = label[table[r[lo : lo + _ROW_BLOCK, None], r]]
    qtable.setflags(write=False)
    # (xN)^-1 = x^-1 N
    Q = FiniteGroup(qtable, f"{G.label}/N{N.size}", validate=False, inv=label[G.inv[r]])
    proj = GroupHom(G, Q, label, validate=False)
    return Q, proj


def subgroup_as_group(G: FiniteGroup, S: Subgroup, label: str | None = None) -> tuple[FiniteGroup, GroupHom]:
    """S as a group in its own right together with the inclusion into G."""
    m = S.members
    pos = np.full(G.order, -1, dtype=np.int16)
    pos[m] = np.arange(m.size, dtype=np.int16)
    table = pos[G.table[m[:, None], m]]  # positions < |S|
    table.setflags(write=False)
    H = FiniteGroup(table, label or f"{G.label}|{S.size}", validate=False, inv=pos[G.inv[m]])
    incl = GroupHom(H, G, m, validate=False)
    return H, incl


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
    kinds of term are normal in G, so the closure is taken in G by
    ``_normal_closure``, and the elements it adjoins generate the term."""
    t, inv = G.table, G.inv
    series = [whole_subgroup(G)]
    top = gens = np.asarray(G.generators(), dtype=np.intp)
    while True:
        other = top if lower else gens
        cand = t[t[inv[gens][:, None], inv[other]], t[gens[:, None], other]].ravel()
        bools, adjoined = _normal_closure(G, cand)
        if int(bools.sum()) == series[-1].size:
            return series
        series.append(Subgroup(G, bools, _checked=True))
        gens = np.asarray(adjoined, dtype=np.intp)


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
