"""Towers of finite quotients with coherent endomorphism families.

A tower approximates a profinite group by finitely many levels joined by
surjective connecting maps; a coherent family supplies one endomorphism
per level commuting with the connecting maps.  All verdicts here are
finite-depth shadows of their topological counterparts and are reported
with the depth at which they were established, never as claims about the
true limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import (
    SemidirectProduct,
    cyclic,
    direct_product,
    dihedral,
    pair_map,
    scale_first_map,
    unit_semidirect_level,
    units_residues,
)
from .core import (
    FiniteGroup,
    GroupError,
    GroupHom,
    ParamOutOfRange,
    hom_parts,
    image_of_subgroup,
)
from .endo import (
    CheckRecord,
    ContractionReport,
    EndoSemigroup,
    OLambdaReport,
    contraction,
    o_lambda,
    verify_theorem_a,
)
from .lattice import CountProfile, count_profile


class CoherenceViolation(GroupError):
    def __init__(self, level: int, witness: int):
        self.level = level
        self.witness = witness
        super().__init__(f"coherence square fails between levels {level} and {level + 1} at element {witness}")


@dataclass(frozen=True)
class Tower:
    """Finite groups G_1..G_d with surjective connecting maps G_(k+1) -> G_k."""

    levels: tuple[FiniteGroup, ...]
    connecting: tuple[GroupHom, ...]
    label: str
    parts: tuple[SemidirectProduct, ...] | None = None

    def __post_init__(self):
        if len(self.connecting) != len(self.levels) - 1:
            raise ParamOutOfRange("need exactly one connecting map per adjacent pair of levels")
        for k, pi in enumerate(self.connecting):
            if pi.domain is not self.levels[k + 1] or pi.codomain is not self.levels[k]:
                raise ParamOutOfRange(f"connecting map {k} does not join levels {k + 1} -> {k}")
            if not hom_parts(pi).is_surjective:
                raise ParamOutOfRange(f"connecting map {k} is not surjective")

    @property
    def depth(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class CoherentEndoFamily:
    """One endomorphism per level, commuting exactly with the connecting maps."""

    tower: Tower
    endos: tuple[GroupHom, ...]

    def __post_init__(self):
        if len(self.endos) != self.tower.depth:
            raise ParamOutOfRange("need exactly one endomorphism per level")
        for k, f in enumerate(self.endos):
            if f.domain is not self.tower.levels[k] or f.codomain is not self.tower.levels[k]:
                raise ParamOutOfRange(f"endomorphism {k} does not act on level {k}")
        for k, pi in enumerate(self.tower.connecting):
            lhs = pi.map[self.endos[k + 1].map]
            rhs = self.endos[k].map[pi.map]
            if not np.array_equal(lhs, rhs):
                raise CoherenceViolation(k, int(np.flatnonzero(lhs != rhs)[0]))


def _reduction_hom(big: FiniteGroup, small: FiniteGroup) -> GroupHom:
    """Reduction Z/m -> Z/n for n | m (index = residue)."""
    return GroupHom(big, small, np.arange(big.order, dtype=np.intp) % small.order, validate=False)


def build_zp_tower(p: int, depth: int, *, order_guard: int | None = None) -> tuple[Tower, CoherentEndoFamily]:
    """Levels Z/p^k with reduction maps; the endomorphism is multiplication by p."""
    levels = [cyclic(p**k, order_guard=order_guard) for k in range(1, depth + 1)]
    connecting = [_reduction_hom(levels[k + 1], levels[k]) for k in range(depth - 1)]
    tower = Tower(tuple(levels), tuple(connecting), f"zp({p})")
    endos = tuple(GroupHom(G, G, scale_first_map(G, p), validate=False) for G in levels)
    return tower, CoherentEndoFamily(tower, endos)


def _pairwise_product(
    t1: Tower, f1: CoherentEndoFamily, t2: Tower, f2: CoherentEndoFamily, depth: int, label: str, guard: int | None
) -> tuple[Tower, CoherentEndoFamily]:
    if depth > min(t1.depth, t2.depth):
        raise ParamOutOfRange("product depth exceeds a factor tower's depth")
    levels = [direct_product(t1.levels[k], t2.levels[k], order_guard=guard) for k in range(depth)]
    connecting = [
        GroupHom(
            levels[k + 1],
            levels[k],
            pair_map(t1.connecting[k].map, t2.connecting[k].map, t2.levels[k].order),
            validate=False,
        )
        for k in range(depth - 1)
    ]
    endos = [GroupHom(G, G, pair_map(f1.endos[k].map, f2.endos[k].map), validate=False) for k, G in enumerate(levels)]
    tower = Tower(tuple(levels), tuple(connecting), label)
    return tower, CoherentEndoFamily(tower, tuple(endos))


def build_zpn_tower(p: int, n: int, depth: int, *, order_guard: int | None = None) -> tuple[Tower, CoherentEndoFamily]:
    """n-fold product of the Z/p^k tower, multiplication by p on every coordinate."""
    if n < 1:
        raise ParamOutOfRange("zpn needs n >= 1")
    tower, fam = build_zp_tower(p, depth, order_guard=order_guard)
    for i in range(n - 1):
        t2, f2 = build_zp_tower(p, depth, order_guard=order_guard)
        tower, fam = _pairwise_product(tower, fam, t2, f2, depth, f"zpn({p},{i + 2})", order_guard)
    tower = Tower(tower.levels, tower.connecting, f"zpn({p},{n})")
    return tower, CoherentEndoFamily(tower, fam.endos)


def build_units_semidirect_tower(
    p: int, depth: int, *, order_guard: int | None = None
) -> tuple[Tower, CoherentEndoFamily]:
    """Levels Z/p^k x| units(p^k); the endomorphism scales the cyclic part by p."""
    parts = [unit_semidirect_level(p, k, order_guard=order_guard) for k in range(1, depth + 1)]
    levels = [sd.group for sd in parts]
    connecting = []
    for k in range(depth - 1):
        big, small = parts[k + 1], parts[k]
        m_small = p ** (k + 1)
        res_big = units_residues(p, k + 2)
        res_small = units_residues(p, k + 1)
        upos = {r: i for i, r in enumerate(res_small)}
        umap = np.array([upos[r % m_small] for r in res_big], dtype=np.intp)
        mapping = pair_map(np.arange(big.normal_order, dtype=np.intp) % m_small, umap, small.acting_order)
        connecting.append(GroupHom(big.group, small.group, mapping, validate=True))
    tower = Tower(tuple(levels), tuple(connecting), f"units_semidirect({p})", parts=tuple(parts))
    endos = tuple(
        GroupHom(sd.group, sd.group, scale_first_map(sd.group, p, sd.acting_order), validate=False) for sd in parts
    )
    return tower, CoherentEndoFamily(tower, endos)


def build_s3_times_z2_tower(depth: int, *, order_guard: int | None = None) -> tuple[Tower, CoherentEndoFamily]:
    """Negative control: levels S3 x Z/2^k with (s, x) -> (1, 2x).

    The kernel of every level map contains the S3 coordinate, so the family
    is not limit-injective and the tower-level hypotheses must be refused.
    """
    s3 = dihedral(3).group
    levels = [
        direct_product(s3, cyclic(2**k, order_guard=order_guard), f"S3xZ{2**k}", order_guard=order_guard)
        for k in range(1, depth + 1)
    ]
    # (s, x) -> (s, x mod 2^k) down the tower, (s, x) -> (1, 2x) at each level
    x = [np.arange(2**k, dtype=np.intp) for k in range(1, depth + 1)]
    connecting = [
        GroupHom(levels[k + 1], levels[k], pair_map(np.arange(6), x[k + 1] % x[k].size, x[k].size), validate=False)
        for k in range(depth - 1)
    ]
    endos = [
        GroupHom(G, G, pair_map(np.zeros(6, dtype=np.intp), 2 * x[k] % x[k].size), validate=False)
        for k, G in enumerate(levels)
    ]
    tower = Tower(tuple(levels), tuple(connecting), "s3_times_z2")
    return tower, CoherentEndoFamily(tower, tuple(endos))


# the parameter count of every tower builder
BUILDERS = {"zp": 1, "zpn": 2, "units_semidirect": 1, "product": 2, "s3_times_z2": 0}


def build_tower(kind: str, params: tuple, depth: int, *, order_guard: int | None = None):
    """Uniform builder front-end; ``product`` takes two (Tower, family) pairs."""
    if depth < 1:
        raise ParamOutOfRange("tower depth must be >= 1")
    if kind not in BUILDERS:
        raise ParamOutOfRange(f"unknown tower builder {kind!r}")
    if len(params) != BUILDERS[kind]:
        raise ParamOutOfRange(f"{kind} takes {BUILDERS[kind]} parameters, got {len(params)}")
    if kind == "zp":
        return build_zp_tower(int(params[0]), depth, order_guard=order_guard)
    if kind == "zpn":
        return build_zpn_tower(int(params[0]), int(params[1]), depth, order_guard=order_guard)
    if kind == "units_semidirect":
        return build_units_semidirect_tower(int(params[0]), depth, order_guard=order_guard)
    if kind == "s3_times_z2":
        return build_s3_times_z2_tower(depth, order_guard=order_guard)
    (t1, f1), (t2, f2) = params
    return _pairwise_product(t1, f1, t2, f2, depth, f"product({t1.label},{t2.label})", order_guard)


@dataclass(frozen=True)
class LimitDiagnostics:
    limit_injective: bool
    verified_depth: int
    kernel_shrink_depth: tuple[int | None, ...]
    projected_kernel_orders: tuple[int, ...]
    kernel_witness: tuple[int, int] | None  # (level, element) surviving every projection
    image_indices: tuple[int, ...]
    image_open: bool
    image_index_bound: int


def limit_diagnostics(T: Tower, F: CoherentEndoFamily) -> LimitDiagnostics:
    """Injectivity and open-image surrogates for the limit endomorphism.

    For each level k the projections of the deeper kernels form a
    descending chain, so the deepest one decides: the family is reported
    limit-injective when every level strictly below the top is eventually
    cleared.  Image openness is the stabilization of the image indices.
    """
    d = T.depth
    parts = [hom_parts(f) for f in F.endos]
    shrink: list[int | None] = [None] * d
    for K in range(d):
        # projected[k]: the kernel at level K mapped down to level k <= K; the
        # last pass leaves the deepest kernel's projections
        projected = [parts[K].kernel]
        for pi in reversed(T.connecting[:K]):
            projected.append(image_of_subgroup(pi, projected[-1]))
        projected.reverse()
        for k, proj in enumerate(projected):
            if shrink[k] is None and proj.is_trivial:
                shrink[k] = K + 1  # 1-based level at which triviality is reached
    verified = 0
    for k in range(d - 1):
        if shrink[k] is None:
            break
        verified = k + 1
    injective = verified == d - 1 if d > 1 else shrink[0] is not None

    witness = None
    for k in range(d - 1):
        if shrink[k] is None:
            nontrivial = projected[k].members[projected[k].members != 0]
            if nontrivial.size:
                witness = (k + 1, int(nontrivial[0]))
            break

    indices = tuple(G.order // hp.image.size for G, hp in zip(T.levels, parts))
    image_open = d == 1 or indices[-1] == indices[-2]
    return LimitDiagnostics(
        limit_injective=bool(injective),
        verified_depth=verified,
        kernel_shrink_depth=tuple(shrink),
        projected_kernel_orders=tuple(p.size for p in projected),
        kernel_witness=witness,
        image_indices=indices,
        image_open=image_open,
        image_index_bound=max(indices),
    )


@dataclass(frozen=True)
class ConCoherence:
    projection_inclusion: bool
    projection_equality: bool
    stable_image_equality: bool


@dataclass(frozen=True)
class TowerReport:
    level_reports: tuple[ContractionReport, ...]
    theorem_a: tuple[CheckRecord, ...]
    coherence: tuple[ConCoherence, ...]

    @property
    def all_theorem_a_passed(self) -> bool:
        return all(r.passed for r in self.theorem_a)


def levelwise_contraction(T: Tower, F: CoherentEndoFamily) -> TowerReport:
    """Contraction and decomposition checks at every level, plus cross-level
    coherence of the contraction subgroups and stable images."""
    reports = [contraction(f) for f in F.endos]
    records = [verify_theorem_a(G, f, rep) for G, f, rep in zip(T.levels, F.endos, reports)]
    coherence = []
    for k, pi in enumerate(T.connecting):
        upper, lower = reports[k + 1], reports[k]
        proj_con = image_of_subgroup(pi, upper.con)
        incl = bool(lower.con.bools[proj_con.members].all())
        eq = proj_con == lower.con
        proj_img = image_of_subgroup(pi, upper.stable_image)
        img_eq = proj_img == lower.stable_image
        coherence.append(ConCoherence(incl, eq, img_eq))
    return TowerReport(tuple(reports), tuple(records), tuple(coherence))


@dataclass(frozen=True)
class TheoremBReport:
    status: str  # pass | fail | hypotheses_not_met
    diagnostics: LimitDiagnostics
    part_i: tuple[OLambdaReport, ...]
    part_i_passed: bool | None
    part_ii_applicable: bool
    part_ii_passed: bool | None


def verify_theorem_b_tower(T: Tower, families) -> TheoremBReport:
    """Tower-level pronilpotency checks for one or several coherent families.

    Hypotheses gate: every family must be limit-injective with stable image
    indices.  When the gate fails the verdict is ``hypotheses_not_met`` and
    nilpotency is never asserted.
    """
    if isinstance(families, CoherentEndoFamily):
        families = [families]
    families = list(families)
    if not families:
        raise ParamOutOfRange("at least one coherent family is required")
    diags = [limit_diagnostics(T, F) for F in families]
    gate = all(d.limit_injective and d.image_open for d in diags)
    main_diag = diags[0]
    if not gate:
        return TheoremBReport("hypotheses_not_met", main_diag, (), None, False, None)

    semigroups = [
        EndoSemigroup(G, [F.endos[k] for F in families]) for k, G in enumerate(T.levels)
    ]
    part_i = tuple(o_lambda(G, S) for G, S in zip(T.levels, semigroups))
    part_i_ok = all(r.nilpotent for r in part_i)

    # part (ii): some semigroup element's image is trivial at every level
    applicable = all(any(np.unique(m).size == 1 for m in r.maps) for r in part_i)
    part_ii_ok: bool | None = None
    if applicable:
        part_ii_ok = all(r.subgroup.is_whole for r in part_i)

    ok = part_i_ok and (part_ii_ok is not False)
    return TheoremBReport(
        "pass" if ok else "fail",
        main_diag,
        part_i,
        part_i_ok,
        applicable,
        part_ii_ok,
    )


@dataclass(frozen=True)
class TypeFProfile:
    per_level: tuple[CountProfile, ...]
    stabilized: bool
    complete: bool


def typef_profile(T: Tower, n: int, *, node_budget: int | None = None) -> TypeFProfile:
    """Per-level counts of subgroups of index <= n and a stabilization verdict."""
    kwargs = {} if node_budget is None else {"node_budget": node_budget}
    profiles = tuple(count_profile(G, n, **kwargs) for G in T.levels)
    complete = all(p.complete for p in profiles)
    stabilized = complete and (len(profiles) < 2 or profiles[-1].counts == profiles[-2].counts)
    return TypeFProfile(profiles, stabilized, complete)
