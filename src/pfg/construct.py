"""Constructors for the built-in group families.

Product-like groups use pair encoding: the element (a, b) of A x B or of a
semidirect product N x| H has index a*|B| + b (left coordinate major).
The identity is (0, 0) = 0, so no relabelling happens for these families.
``pair_map`` is the one place where a map on pairs is built: every
coordinatewise endomorphism and connecting map goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Sequence

import numpy as np

from .core import (
    MAX_ORDER,
    BadAction,
    FiniteGroup,
    PairTable,
    ParamOutOfRange,
    Subgroup,
    check_order,
    product_table,
)


# Miller-Rabin with the primes up to 41 as bases decides every p below this
# bound exactly (Sorenson and Webster, Strong pseudoprimes to twelve prime
# bases, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def check_prime_range(p: int) -> None:
    if p >= PRIME_TEST_BOUND:
        raise ParamOutOfRange(f"primality of {p} is decided only below {PRIME_TEST_BOUND}")


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, for p below ``PRIME_TEST_BOUND``."""
    check_prime_range(p)
    if p < 2:
        return False
    if p in _MR_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def cyclic(n: int, label: str | None = None, *, order_guard: int | None = None) -> FiniteGroup:
    """Cyclic group of order n in additive notation; element index = residue."""
    if n < 1:
        raise ParamOutOfRange(f"cyclic order must be >= 1, got {n}")
    check_order(n, order_guard)
    idx = np.arange(n, dtype=np.int16)
    # row i is 0..n-1 rotated left by i, copied out of overlapping windows
    # on 0..n-1, 0..n-2: no sum i + j, which would pass 32767, is formed
    ext = np.concatenate([idx, idx[:-1]])
    table = np.lib.stride_tricks.as_strided(ext, (n, n), ext.strides * 2).copy()
    table.setflags(write=False)
    # addition of residues mod n is a group with identity 0 and inverse -x
    return FiniteGroup(table, label or f"Z{n}", validate=False, inv=-idx % n, order_guard=order_guard)


def units_residues(p: int, k: int) -> list[int]:
    """Residues coprime to p^k, ascending (so residue 1 sits at index 0)."""
    m = p**k
    return [r for r in range(1, m) if gcd(r, m) == 1]


def units_mod(p: int, k: int, label: str | None = None, *, order_guard: int | None = None) -> FiniteGroup:
    """Multiplicative group of units modulo p^k."""
    if p < 2:
        raise ParamOutOfRange(f"units_mod needs a prime, got {p}")
    if k < 1:
        raise ParamOutOfRange(f"units_mod needs k >= 1, got {k}")
    # the order (p-1)*p^(k-1), one factor at a time: past MAX_ORDER it is
    # past every guard, so neither a huge p nor a huge k is ever worked on
    order = p - 1
    for _ in range(k - 1):
        if order > MAX_ORDER:
            break
        order *= p
    check_order(order, order_guard)
    if not is_prime(p):
        raise ParamOutOfRange(f"units_mod needs a prime, got {p}")
    m = p**k
    residues = units_residues(p, k)
    res = np.array(residues, dtype=np.int64)
    pos = np.full(m, -1, dtype=np.int16)
    pos[res] = np.arange(res.size, dtype=np.int16)
    # the int64 products stay below m^2; only positions < |U| reach the table
    table = pos[(res[:, None] * res[None, :]) % m]
    table.setflags(write=False)
    inv = pos[[pow(r, -1, m) for r in residues]]
    # the units of a ring form a group; residue 1 sits at index 0
    return FiniteGroup(table, label or f"U{m}", validate=False, inv=inv, order_guard=order_guard)


def _full_table(G: FiniteGroup) -> np.ndarray:
    """G's table as an array: a product reads its factors' tables whole."""
    return G.table.dense() if isinstance(G.table, PairTable) else G.table


def direct_product(
    A: FiniteGroup, B: FiniteGroup, label: str | None = None, *, order_guard: int | None = None
) -> FiniteGroup:
    """A x B with pair encoding (a, b) -> a*|B| + b."""
    na, nb = A.order, B.order
    check_order(na * nb, order_guard)
    # (a1, b1) * (a2, b2) = (a1*a2) * nb + b1*b2, at most (na-1)*nb + nb-1 = n-1;
    # the left coordinate does not depend on b1, so that axis has stride 0
    table = product_table(np.broadcast_to(_full_table(A)[:, None, :] * nb, (na, nb, na)), _full_table(B))
    # componentwise product of two groups, identity (0, 0) = 0, (a, b)^-1 = (a^-1, b^-1)
    inv = pair_map(A.inv, B.inv)
    return FiniteGroup(table, label or f"{A.label}x{B.label}", validate=False, inv=inv, order_guard=order_guard)


ActionTable = np.ndarray  # shape (|H|, |N|): action[h] is a permutation of N


def _validate_action(N: FiniteGroup, H: FiniteGroup, act: ActionTable) -> None:
    """Each act[h] is an automorphism of N and h -> act[h] is a homomorphism.

    Both laws are checked on generators only (of N and of H respectively),
    which proves them everywhere by the argument of ``GroupHom``.
    """
    nh, nn = H.order, N.order
    if act.shape != (nh, nn):
        raise BadAction(f"action table has shape {act.shape}, expected ({nh}, {nn})")
    if act.min() < 0 or act.max() >= nn:
        raise ParamOutOfRange("action image out of range")
    not_bijective = (np.sort(act, axis=1) != np.arange(nn)).any(axis=1) | (act[:, 0] != 0)
    not_auto = np.zeros(nh, dtype=bool)
    for g in N.generators():
        not_auto |= (act[:, N.table[:, g]] != N.table[act, act[:, g, None]]).any(axis=1)
    bad = np.flatnonzero(not_bijective | not_auto)
    if bad.size:
        h = int(bad[0])
        kind = "a bijection fixing the identity" if not_bijective[h] else "an automorphism"
        raise BadAction(f"action of element {h} is not {kind}")
    # homomorphism into Aut(N): act[x*g] = act[x] after act[g]
    for g in H.generators() or [0]:
        bad = np.flatnonzero((act[H.table[:, g]] != act[:, act[g]]).any(axis=1))
        if bad.size:
            x = int(bad[0])
            raise BadAction(f"action is not a homomorphism at pair ({x}, {g})", (x, g))


def trivial_action(N: FiniteGroup, H: FiniteGroup) -> ActionTable:
    return np.tile(np.arange(N.order, dtype=np.intp), (H.order, 1))


def inversion_action(N: FiniteGroup, H: FiniteGroup) -> ActionTable:
    """Odd-index elements of H invert N.  Requires N abelian and |H| even."""
    if not N.is_abelian():
        raise BadAction("inversion action needs an abelian normal part")
    act = np.empty((H.order, N.order), dtype=np.intp)
    ident = np.arange(N.order, dtype=np.intp)
    for h in range(H.order):
        act[h] = N.inv if h % 2 else ident
    return act


def multiplication_action(N: FiniteGroup, H: FiniteGroup, residues: Sequence[int]) -> ActionTable:
    """H acts on the cyclic group N by multiplication with the given residues."""
    m = N.order
    if len(residues) != H.order:
        raise BadAction("one residue per acting element is required")
    act = np.empty((H.order, m), dtype=np.intp)
    base = np.arange(m, dtype=np.int64)
    for h, r in enumerate(residues):
        if gcd(int(r) % m if m > 1 else 1, m) != 1:
            raise BadAction(f"residue {r} is not a unit modulo {m}")
        act[h] = (int(r) * base) % m
    return act


@dataclass(frozen=True)
class SemidirectProduct:
    """Construction record for N x| H: the group plus its coordinate subgroups."""

    group: FiniteGroup
    normal_part: Subgroup
    acting_part: Subgroup
    normal_group: FiniteGroup
    acting_group: FiniteGroup
    action: ActionTable

    @property
    def normal_order(self) -> int:
        return self.normal_group.order

    @property
    def acting_order(self) -> int:
        return self.acting_group.order


def semidirect(
    N: FiniteGroup,
    H: FiniteGroup,
    action: ActionTable | Callable[[FiniteGroup, FiniteGroup], ActionTable],
    label: str | None = None,
    *,
    order_guard: int | None = None,
) -> SemidirectProduct:
    """Semidirect product on pairs (a, h) with (a,h)(b,k) = (a*act_h(b), hk)."""
    nn, nh = N.order, H.order
    check_order(nn * nh, order_guard)
    act = action(N, H) if callable(action) else np.asarray(action, dtype=np.intp)
    _validate_action(N, H, act)
    # (a1, h1) * (a2, h2) = (a1 * act_{h1}(a2)) * nh + h1*h2, at most (nn-1)*nh + nh-1 = n-1
    # left[a, h, b] = N.table[a, act[h, b]] * nh, gathered as whole rows of N's
    # transposed table: the values and memory order of N.table[:, act] * nh
    left = (_full_table(N).T * nh).take(act, axis=0).transpose(2, 0, 1)
    table = product_table(left, _full_table(H))
    # a group once act is a homomorphism into Aut(N), which _validate_action
    # proved; (a, h)^-1 = (act_{h^-1}(a^-1), h^-1)
    hinv = H.inv[None, :]
    inv = (act[hinv, N.inv[:, None]] * nh + hinv).ravel()
    G = FiniteGroup(table, label or f"{N.label}:{H.label}", validate=False, inv=inv, order_guard=order_guard)
    normal = Subgroup(G, np.arange(nn, dtype=np.intp) * nh, _checked=True)
    acting = Subgroup(G, np.arange(nh, dtype=np.intp), _checked=True)
    return SemidirectProduct(G, normal, acting, N, H, act)


def dihedral(n: int, *, order_guard: int | None = None) -> SemidirectProduct:
    """Dihedral group of order 2n as cyclic(n) x| cyclic(2) with inversion."""
    if n < 1:
        raise ParamOutOfRange("dihedral needs n >= 1")
    return semidirect(cyclic(n), cyclic(2), inversion_action, f"D{2 * n}", order_guard=order_guard)


def unit_semidirect_level(p: int, k: int, *, order_guard: int | None = None) -> SemidirectProduct:
    """cyclic(p^k) x| units_mod(p, k), units acting by multiplication."""
    N = cyclic(p**k)
    H = units_mod(p, k)
    act = multiplication_action(N, H, units_residues(p, k))
    return semidirect(N, H, act, f"Z{p**k}:U{p**k}", order_guard=order_guard)


def pair_map(left: np.ndarray, right: np.ndarray, nb_out: int | None = None) -> np.ndarray:
    """Element map (a, b) -> (left[a], right[b]) of a group encoded as
    a*len(right) + b, into the pair encoding whose right factor has order
    ``nb_out`` (by default len(right))."""
    nb = right.shape[0] if nb_out is None else nb_out
    return (left[:, None] * nb + right).ravel()


def scale_first_map(G: FiniteGroup, m: int, right_order: int = 1) -> np.ndarray:
    """Element map (a, b) -> (m*a mod |G|/right_order, b) on G encoded as
    pairs whose right factor has order ``right_order``; with the default 1
    it is x -> m*x on a cyclic G."""
    nn = G.order // right_order
    left = np.arange(nn, dtype=np.intp) * (m % nn) % nn
    return pair_map(left, np.arange(right_order, dtype=np.intp))


def load_table_file(path) -> np.ndarray:
    """Whitespace-separated integer matrix file; a malformed one is ParamOutOfRange."""
    try:
        return np.loadtxt(path, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise ParamOutOfRange(f"malformed table file: {exc}") from None
