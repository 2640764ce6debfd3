"""Semigroup contraction, the decomposition theorem for semigroups, O_Lambda."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pfg import endo
from pfg.catalog import builtin_entries, paper_example_level, random_endo, random_subgroup
from pfg.construct import cyclic, dihedral, direct_product
from pfg.core import (
    GroupHom,
    Subgroup,
    closure,
    conjugation_hom,
    hom_parts,
    identity_hom,
    is_normal,
    subgroup_as_group,
    trivial_hom,
)
from pfg.endo import (
    MAP_CAP,
    EndoSemigroup,
    KNotSubgroup,
    o_lambda,
    semigroup_contraction,
    verify_splitthm,
    verify_theorem_a,
)


def z4z9_setup():
    G = direct_product(cyclic(4), cyclic(9))
    f = GroupHom(G, G, [(2 * (x // 9)) % 4 * 9 + x % 9 for x in range(36)])
    g = GroupHom(G, G, [(x // 9) * 9 + (3 * (x % 9)) % 9 for x in range(36)])
    return G, f, g


class TestSemigroupContraction:
    def test_identity_semigroup(self):
        G = dihedral(3).group
        rep = semigroup_contraction(EndoSemigroup(G, [identity_hom(G)]))
        assert rep.con.is_trivial
        assert rep.stable_image.is_whole

    def test_two_generators_annihilate(self):
        G, f, g = z4z9_setup()
        rep = semigroup_contraction(EndoSemigroup(G, [f, g]))
        assert rep.con.is_whole
        assert rep.stable_image.is_trivial
        assert rep.checks["tail_matches_monoid_oracle"]

    def test_single_generator_reduces_to_contraction(self):
        from pfg.endo import contraction

        G, f, _ = z4z9_setup()
        rep = semigroup_contraction(EndoSemigroup(G, [f]))
        single = contraction(f)
        assert rep.con == single.con
        assert rep.stable_image == single.stable_image
        # con = Z4 x 0, image meet = 0 x Z9
        assert sorted(rep.con.members.tolist()) == [0, 9, 18, 27]
        assert sorted(rep.stable_image.members.tolist()) == list(range(9))

    def test_k_must_be_subgroup_of_parent(self):
        G, f, _ = z4z9_setup()
        other = cyclic(4)
        with pytest.raises(KNotSubgroup):
            semigroup_contraction(EndoSemigroup(G, [f]), closure(other, [2]))

    def test_relative_contraction_with_normal_k(self):
        G, f, _ = z4z9_setup()
        K = closure(G, [18])  # the order-2 subgroup of the Z4 coordinate
        rep = semigroup_contraction(EndoSemigroup(G, [f]), K)
        # elements eventually pushed into K: the whole Z4 coordinate
        assert sorted(rep.con.members.tolist()) == [0, 9, 18, 27]

    def test_fast_path_falls_back_to_literal_definition(self):
        # two inversion-type generators on Z4 x Z4 with the diagonal as K:
        # the tail map preserves the diagonal, but deep semigroup elements
        # move it, so the eventual-cycle shortcut overshoots and the literal
        # filter value must win
        G = direct_product(cyclic(4), cyclic(4))
        l1 = GroupHom(G, G, [((3 * (i // 4)) % 4) * 4 + i % 4 for i in range(16)])
        l2 = GroupHom(G, G, [(i // 4) * 4 + (3 * (i % 4)) % 4 for i in range(16)])
        K = closure(G, [5])  # the diagonal {(t, t)}
        rep = semigroup_contraction(EndoSemigroup(G, [l1, l2]), K)
        assert rep.checks["oracle_ran"]
        assert not rep.checks["tail_matches_monoid_oracle"]
        assert sorted(rep.con.members.tolist()) == [0, 10]  # (0,0) and (2,2)

    def test_simulation_oracle_catches_a_flipped_fast_path(self, monkeypatch):
        real = endo._eventual_cycle_containment

        def flipped(tau, k_bools):
            con, stable = real(tau, k_bools)
            con = con.copy()
            con[1] = not con[1]
            return con, stable

        monkeypatch.setattr(endo, "_eventual_cycle_containment", flipped)
        G, f, _ = z4z9_setup()
        rep = semigroup_contraction(EndoSemigroup(G, [f]))
        assert not rep.checks["simulation_oracle_agrees"]
        assert not rep.checks["tail_matches_monoid_oracle"]
        assert sorted(rep.con.members.tolist()) == [0, 9, 18, 27]  # the literal filter value wins


class TestSplitthm:
    def test_single_generator_matches_theorem_a(self):
        G, f, _ = z4z9_setup()
        sg_rec = verify_splitthm(G, EndoSemigroup(G, [f]))
        a_rec = verify_theorem_a(G, f)
        assert sg_rec.passed == a_rec.passed
        assert sg_rec.data["con_order"] == a_rec.data["con_order"]
        assert sg_rec.data["stable_order"] == a_rec.data["stable_order"]

    def test_two_generator_full_decomposition(self):
        G, f, g = z4z9_setup()
        rec = verify_splitthm(G, EndoSemigroup(G, [f, g]))
        assert rec.passed
        assert rec.data["con_order"] == 36 and rec.data["stable_order"] == 1

    def test_paper_level(self):
        sd, phi = paper_example_level(3, 2)
        rec = verify_splitthm(sd.group, EndoSemigroup(sd.group, [phi]))
        assert rec.passed
        assert rec.data["con_order"] == 9 and rec.data["stable_order"] == 6

    def test_paper_level_with_con_the_whole_group_stays_small(self):
        sd, _ = paper_example_level(2, 6)  # order 2048
        G = sd.group
        S = EndoSemigroup(G, [trivial_hom(G)])
        tracemalloc.start()
        try:
            rec = verify_splitthm(G, S)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rec.passed and rec.data["con_order"] == 2048
        assert peak < 2 * 2**20, peak

    def test_literal_filter_decides_the_inner_check(self, monkeypatch):
        # a fast path that calls every point stable: inside con (order 9 of
        # 54) it would make the stable image all of con and fail the check
        real = endo._eventual_cycle_containment
        sizes = []

        def flipped(tau, k_bools):
            sizes.append(tau.shape[0])
            con, stable = real(tau, k_bools)
            return con, np.ones_like(stable)

        monkeypatch.setattr(endo, "_eventual_cycle_containment", flipped)
        sd, phi = paper_example_level(3, 2)
        rec = verify_splitthm(sd.group, EndoSemigroup(sd.group, [phi]))
        assert sizes == [54, 9]
        assert not rec.data["oracle"]["tail_matches_monoid_oracle"]
        assert rec.passed and dict((c.name, c.passed) for c in rec.checks)["stable_image_inside_con_trivial"]


def _stable_inside_by_subtable(S: EndoSemigroup, con: Subgroup) -> np.ndarray:
    """Oracle: con as a group of its own (a |con|^2 table), the generators
    restricted to it by position lookup, and the stable image of
    semigroup_contraction there, mapped back to G."""
    con_group, incl = subgroup_as_group(S.parent, con)
    restricted = [GroupHom(con_group, con_group, np.searchsorted(con.members, g.map[con.members])) for g in S.generators]
    inner = semigroup_contraction(EndoSemigroup(con_group, restricted))
    return incl.map[inner.stable_image.members]


def _splitthm_cases():
    for entry in builtin_entries(500):
        G = entry.group
        yield G, [EndoSemigroup(G, [f]) for f in entry.endos] + list(entry.semigroups)
    for p, k in ((2, 6), (7, 2)):  # orders 2048 and 2058
        sd, phi = paper_example_level(p, k)
        G = sd.group
        conj = conjugation_hom(G, int(sd.acting_part.members[1]))
        maps = [identity_hom(G), trivial_hom(G), phi, conj, GroupHom(G, G, phi.map[conj.map], validate=False)]
        yield G, [EndoSemigroup(G, [f, GroupHom(G, G, f.map[f.map], validate=False)]) for f in maps]


def test_inner_check_matches_subtable_oracle():
    for G, semigroups in _splitthm_cases():
        for S in semigroups:
            rec = verify_splitthm(G, S)
            con = semigroup_contraction(S).con
            check = dict((c.name, c.passed) for c in rec.checks)["stable_image_inside_con_trivial"]
            assert all(con.bools[g.map[con.members]].all() for g in S.generators), (G, S)
            want_stable = _stable_inside_by_subtable(S, con)
            assert endo._stable_image_inside(S, con).tolist() == want_stable.tolist(), (G, S)
            assert check == (want_stable.size == 1), (G, S)


class TestOLambda:
    def test_identity(self):
        G = dihedral(3).group
        rep = o_lambda(G, EndoSemigroup(G, [identity_hom(G)]))
        assert rep.subgroup.is_trivial and rep.nilpotent

    def test_paper_level(self):
        sd, phi = paper_example_level(3, 2)
        rep = o_lambda(sd.group, EndoSemigroup(sd.group, [phi]))
        assert rep.subgroup == sd.normal_part
        assert rep.nilpotent and rep.nilpotency_class == 1

    def test_s3_times_z4(self):
        s3 = dihedral(3).group
        G = direct_product(s3, cyclic(4))
        f = GroupHom(G, G, [(x // 4) * 4 + (2 * (x % 4)) % 4 for x in range(24)])
        rep = o_lambda(G, EndoSemigroup(G, [f]))
        assert sorted(rep.subgroup.members.tolist()) == [0, 1, 2, 3]
        assert rep.nilpotent


class TestConlemSurrogates:
    def test_catalog_semigroups(self):
        rng = np.random.default_rng(11)
        for entry in builtin_entries(100):
            G = entry.group
            for S in entry.semigroups[:3]:
                if not S.commutative:
                    continue
                K = closure(G, [int(rng.integers(0, G.order))])
                rep = semigroup_contraction(S, K)
                con = rep.con  # Subgroup construction already asserts closure
                if is_normal(G, K):
                    assert is_normal(G, con)
                for lam in S.generators:
                    kernel = Subgroup(G, lam.map == 0, _checked=True)
                    assert not bool((kernel.bools & ~con.bools).any())
                    image_meet = con.bools.copy()
                    img = np.zeros(G.order, dtype=bool)
                    img[np.unique(lam.map)] = True
                    lhs = np.zeros(G.order, dtype=bool)
                    lhs[np.unique(lam.map[con.members])] = True
                    assert not bool(((con.bools & img) & ~lhs).any())


def _whole_map_filter_contraction(maps, k_bools):
    """Oracle: the filter-of-tails definition with every composite s after
    xi formed whole and named by all n of its values (m^2 * n entries)."""
    n = maps[0].shape[0]
    key_of = {m.tobytes(): m for m in maps}
    tail_keys = None
    stack = np.stack(maps)
    for xi in maps:
        composed = stack[:, xi]  # rows: every (map after xi)
        keys = {composed[i].tobytes() for i in range(composed.shape[0])}
        tail_keys = keys if tail_keys is None else (tail_keys & keys)
        if not tail_keys:
            break
    nonempty = bool(tail_keys)
    con = np.ones(n, dtype=bool)
    for key in tail_keys or ():
        con &= k_bools[key_of[key]]
    img_meet = np.ones(n, dtype=bool)
    for m in maps:
        hit = np.zeros(n, dtype=bool)
        hit[m] = True
        img_meet &= hit
    return con, img_meet, nonempty


def _assert_oracles_agree(maps, k_bools):
    got = endo._literal_filter_contraction(maps, k_bools)
    want = _whole_map_filter_contraction(maps, k_bools)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2] == want[2]


def _separates(rows, points):
    names = {r[points].tobytes() for r in rows}
    return len(names) == len(rows)


def _catalog_maps():
    """The maps of every catalog semigroup up to order 500, with the trivial K
    and K the image of the first generator, and some larger monoids:
    multiplications on cyclic groups, one of them with a tail."""
    for entry in builtin_entries(500):
        G = entry.group
        for S in entry.semigroups:
            maps = S.monoid_maps()
            yield maps, np.arange(G.order) == 0
            yield maps, hom_parts(S.generators[0]).image.bools
    for n, r in ((101, 2), (97, 5), (2**4 * 3**3, 6), (125, 7)):
        maps = endo._monoid_maps([np.arange(n) * r % n], MAP_CAP)
        yield maps, np.arange(n) % 5 == 0


class TestLiteralOracle:
    def test_matches_whole_map_oracle_on_catalog(self):
        for maps, k_bools in _catalog_maps():
            _assert_oracles_agree(maps, k_bools)

    def test_matches_whole_map_oracle_one_composite_block_at_a_time(self, monkeypatch):
        monkeypatch.setattr(endo, "_COMPOSE_BLOCK", 1)
        for maps, k_bools in _catalog_maps():
            _assert_oracles_agree(maps, k_bools)

    def test_points_separate_the_maps(self):
        """The maps come as distinct read-only rows in the order of their
        bytes; the points tell every two apart, and the last point is needed."""
        sizes = set()
        for maps, _ in _catalog_maps():
            keys = [r.tobytes() for r in maps]
            assert keys == sorted(set(keys)) and not maps.flags.writeable
            points = endo._separating_points(maps)
            assert _separates(maps, points)
            if len(maps) > 1:
                assert not _separates(maps, points[:-1])
            sizes.add(len(maps))
        assert {1, 2, 100} <= sizes


@settings(max_examples=60, deadline=None)
@given(
    entry=st.sampled_from(builtin_entries(100)),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.integers(1, 4), min_size=1, max_size=3),
)
def test_literal_oracle_matches_whole_map_oracle_on_commuting_maps(entry, seed, exponents):
    """Maps that commute: powers of one random endomorphism, and on an
    abelian group a power map x -> x^e as well."""
    from pfg.catalog import power_endo

    rng = np.random.default_rng(seed)
    G = entry.group
    base = random_endo(entry, rng).map
    gens = []
    for e in exponents:
        f = np.arange(G.order)
        for _ in range(e):
            f = base[f]
        gens.append(f)
    if G.is_abelian():
        gens.append(power_endo(G, int(rng.integers(0, 6))).map)
    for a in gens:
        for b in gens:
            assert np.array_equal(a[b], b[a])
    maps = endo._monoid_maps(gens, MAP_CAP)
    image = hom_parts(GroupHom(G, G, gens[0], validate=False)).image
    for k_bools in (np.arange(G.order) == 0, random_subgroup(G, rng).bools, image.bools):
        _assert_oracles_agree(maps, k_bools)


def test_map_cap_semigroup_holds_each_map_once():
    """x -> 3x on Z/4999 generates more than MAP_CAP maps, so the monoid
    walk stops at 4096 maps of 4999 entries and the literal oracle does not
    run.  Each map is held once, as its key bytes: 156 MiB traced, where
    holding each map also as an array of intp took 313 MiB."""
    G = cyclic(4999)
    S = EndoSemigroup(G, [GroupHom(G, G, np.arange(4999) * 3 % 4999)])
    tracemalloc.start()
    try:
        rec = verify_splitthm(G, S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.passed and not rec.data["oracle"]["oracle_ran"]
    assert peak <= 157 * 2**20, peak
