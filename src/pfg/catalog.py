"""Built-in groups, endomorphisms and semigroups used by sweeps and demos.

Every entry carries the group together with its shipped endomorphisms;
random samplers draw additional endomorphisms by composing shipped maps
with inner automorphisms, so every sampled map is a genuine endomorphism
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .construct import (
    SemidirectProduct,
    cyclic,
    dihedral,
    direct_product,
    pair_map,
    scale_first_map,
    semidirect,
    unit_semidirect_level,
    units_mod,
)
from .core import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    build_from_table,
    closure,
    conjugation_hom,
    identity_hom,
    trivial_hom,
)
from .endo import EndoSemigroup


@dataclass(frozen=True)
class CatalogEntry:
    group: FiniteGroup
    endos: tuple[GroupHom, ...]
    semigroups: tuple[EndoSemigroup, ...]
    semidirect: SemidirectProduct | None = None


def _scale_endos(G: FiniteGroup, factors, right_order: int = 1) -> list[GroupHom]:
    out = []
    seen = set()
    for m in factors:
        arr = scale_first_map(G, m, right_order)
        key = arr.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(GroupHom(G, G, arr))
    return out


def power_endo(G: FiniteGroup, m: int) -> GroupHom:
    """x -> x^m; an endomorphism whenever G is abelian."""
    arr = np.zeros(G.order, dtype=np.int32)
    cur = np.arange(G.order, dtype=np.int32)
    for _ in range(m):
        arr = G.table[arr, cur]
    return GroupHom(G, G, arr)


def quaternion8() -> FiniteGroup:
    """Order-8 quaternion group from 2x2 complex matrix arithmetic."""
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    e = np.eye(2, dtype=complex)
    elems = [e, i, i @ i, i @ i @ i, j, i @ j, i @ i @ j, i @ i @ i @ j]
    table = np.zeros((8, 8), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            prod = elems[a] @ elems[b]
            table[a, b] = next(k for k, m in enumerate(elems) if np.allclose(prod, m))
    return build_from_table(table, "Q8")


def alternating4() -> SemidirectProduct:
    """A4 as (Z/2 x Z/2) x| Z/3, the 3-cycle permuting the involutions."""
    v4 = direct_product(cyclic(2), cyclic(2), "V4")
    act = np.array([[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=np.int32)
    return semidirect(v4, cyclic(3), act, "A4")


def heisenberg3() -> SemidirectProduct:
    """The nonabelian group of order 27 and exponent 3, as (Z/3)^2 x| Z/3.

    The generator acts as the unipotent map (x, y) -> (x + y, y), giving a
    nilpotency-class-two group whose every nontrivial element has order 3.
    """
    base = direct_product(cyclic(3), cyclic(3), "Z3xZ3")
    shear = np.array([(((i // 3) + (i % 3)) % 3) * 3 + (i % 3) for i in range(9)], dtype=np.int32)
    act = np.stack([np.arange(9, dtype=np.int32), shear, shear[shear]])
    return semidirect(base, cyclic(3), act, "H27")


def _entry(group, endos, semigroup_gens=(), sd=None) -> CatalogEntry:
    ident = identity_hom(group)
    base = [ident, trivial_hom(group)]
    seen = {f.map.tobytes() for f in base}
    for f in endos:
        key = f.map.tobytes()
        if key not in seen:
            seen.add(key)
            base.append(f)
    semis = [EndoSemigroup(group, [f]) for f in base[1:]]  # singleton per non-identity endo
    for gens in semigroup_gens:
        semis.append(EndoSemigroup(group, gens))
    return CatalogEntry(group, tuple(base), tuple(semis), sd)


def builtin_entries(max_order: int = 500) -> list[CatalogEntry]:
    """The shipped catalog, capped at the given order (entries are cached)."""
    return list(_builtin_entries_cached(max_order))


@lru_cache(maxsize=8)
def _builtin_entries_cached(max_order: int) -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []

    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 36):
        G = cyclic(n)
        scales = sorted({0, 1, 2, 3, 5, n - 1, n // 2 if n % 2 == 0 else 1})
        entries.append(_entry(G, _scale_endos(G, scales)))

    v4 = direct_product(cyclic(2), cyclic(2), "V4")
    entries.append(_entry(v4, _scale_endos(v4, (0, 1))))

    z4z9 = direct_product(cyclic(4), cyclic(9), "Z4xZ9")
    double, triple = scale_first_map(cyclic(4), 2), scale_first_map(cyclic(9), 3)
    f_first = GroupHom(z4z9, z4z9, pair_map(double, np.arange(9)))
    f_second = GroupHom(z4z9, z4z9, pair_map(np.arange(4), triple))
    f_both = GroupHom(z4z9, z4z9, pair_map(double, triple))
    entries.append(_entry(z4z9, [f_first, f_second, f_both], semigroup_gens=[[f_first, f_second]]))

    for n in (3, 4, 6):
        sd = dihedral(n)
        gens = _scale_endos(sd.group, (0, 2, n), sd.acting_order)
        entries.append(_entry(sd.group, gens, sd=sd))

    q8 = quaternion8()
    entries.append(_entry(q8, [conjugation_hom(q8, 1)]))

    a4 = alternating4()
    a4_endos = _scale_endos(a4.group, (0,), a4.acting_order) + [conjugation_hom(a4.group, 1)]
    entries.append(_entry(a4.group, a4_endos, sd=a4))

    h27 = heisenberg3()
    h27_endos = _scale_endos(h27.group, (0,), h27.acting_order)
    h27_endos += [conjugation_hom(h27.group, 1), conjugation_hom(h27.group, 3)]
    entries.append(_entry(h27.group, h27_endos, sd=h27))

    u9 = units_mod(3, 2)
    entries.append(_entry(u9, [power_endo(u9, m) for m in (0, 2, 3)]))

    s3xz4 = direct_product(dihedral(3).group, cyclic(4), "S3xZ4")
    f_double = GroupHom(s3xz4, s3xz4, pair_map(np.arange(6), scale_first_map(cyclic(4), 2)))
    f_kill = GroupHom(s3xz4, s3xz4, pair_map(np.arange(6), np.zeros(4, dtype=np.int32)))
    entries.append(_entry(s3xz4, [f_double, f_kill], semigroup_gens=[[f_double]]))

    for p, kmax in ((2, 3), (3, 3), (5, 2)):
        for k in range(1, kmax + 1):
            sd = unit_semidirect_level(p, k)
            if sd.group.order > max_order:
                continue
            gens = _scale_endos(sd.group, (0, p), sd.acting_order)
            u = sd.acting_part.members
            extra_sg = []
            if k >= 2:
                phi = GroupHom(sd.group, sd.group, scale_first_map(sd.group, p, sd.acting_order))
                conj = conjugation_hom(sd.group, int(u[1])) if u.size > 1 else None
                if conj is not None:
                    extra_sg.append([phi, conj])
            entries.append(_entry(sd.group, gens, semigroup_gens=extra_sg, sd=sd))

    return tuple(e for e in entries if e.group.order <= max_order)


def paper_example_level(p: int, k: int) -> tuple[SemidirectProduct, GroupHom]:
    """The running demo level: cyclic(p^k) x| units, scaling the cyclic part by p."""
    sd = unit_semidirect_level(p, k)
    phi = GroupHom(sd.group, sd.group, scale_first_map(sd.group, p, sd.acting_order))
    return sd, phi


def random_endo(entry: CatalogEntry, rng: np.random.Generator) -> GroupHom:
    """Random endomorphism: composite of shipped maps and inner automorphisms."""
    G = entry.group
    arr = np.arange(G.order, dtype=np.int32)
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5 and G.order > 1:
            g = int(rng.integers(0, G.order))
            step = G.table[G.table[g, :], G.inv[g]]
        else:
            step = entry.endos[int(rng.integers(0, len(entry.endos)))].map
        arr = step[arr]
    return GroupHom(G, G, arr, validate=False)


def random_subgroup(G: FiniteGroup, rng: np.random.Generator) -> Subgroup:
    k = int(rng.integers(0, 4))
    gens = rng.integers(0, G.order, size=k) if k else []
    return closure(G, [int(g) for g in gens])
