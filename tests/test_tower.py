"""Tower builders, coherence, limit diagnostics, tower-level theorem checks."""

import pytest

from pfg.construct import cyclic
from pfg.core import GroupHom, OrderGuardExceeded, ParamOutOfRange, identity_hom
from pfg.endo import EndoSemigroup, o_lambda
from pfg.tower import (
    CoherenceViolation,
    CoherentEndoFamily,
    Tower,
    build_s3_times_z2_tower,
    build_tower,
    build_units_semidirect_tower,
    build_zp_tower,
    build_zpn_tower,
    levelwise_contraction,
    limit_diagnostics,
    typef_profile,
    verify_theorem_b_tower,
)


class TestBuilders:
    def test_zp2_depth4(self):
        t, f = build_zp_tower(2, 4)
        assert [g.order for g in t.levels] == [2, 4, 8, 16]

    def test_units_semidirect_orders(self):
        t, f = build_units_semidirect_tower(3, 3)
        assert [g.order for g in t.levels] == [6, 54, 486]

    def test_s3_control_coherent(self):
        t, f = build_s3_times_z2_tower(3)
        assert [g.order for g in t.levels] == [12, 24, 48]

    def test_product_builder(self):
        a = build_zp_tower(2, 3)
        b = build_zp_tower(3, 3)
        t, f = build_tower("product", (a, b), 3)
        assert [g.order for g in t.levels] == [6, 36, 216]

    def test_zpn_counts(self):
        t, f = build_zpn_tower(2, 2, 3)
        assert [g.order for g in t.levels] == [4, 16, 64]

    def test_product_levels_obey_the_order_guard(self):
        # product levels (zpn, product, s3_times_z2) are held to the guard
        # given, like the factor levels, not to the default 5000
        with pytest.raises(OrderGuardExceeded, match="guard 30"):
            build_tower("zpn", (2, 2), 3, order_guard=30)
        with pytest.raises(OrderGuardExceeded, match="guard 20"):
            build_tower("product", (build_zp_tower(2, 3), build_zp_tower(3, 3)), 3, order_guard=20)
        with pytest.raises(OrderGuardExceeded, match="guard 40"):
            build_tower("s3_times_z2", (), 3, order_guard=40)
        t, _ = build_tower("zpn", (2, 2), 3, order_guard=64)
        assert [g.order for g in t.levels] == [4, 16, 64]

    def test_depth_validation(self):
        with pytest.raises(ParamOutOfRange):
            build_tower("zp", (2,), 0)

    def test_param_count_validation(self):
        with pytest.raises(ParamOutOfRange):
            build_tower("zp", (), 2)
        with pytest.raises(ParamOutOfRange):
            build_tower("s3_times_z2", (7,), 2)
        with pytest.raises(ParamOutOfRange):
            build_tower("nonesuch", (), 2)

    def test_coherence_violation_detected(self):
        t, f = build_zp_tower(2, 3)
        bad = list(f.endos)
        G = t.levels[1]
        bad[1] = identity_hom(G)
        with pytest.raises(CoherenceViolation):
            CoherentEndoFamily(t, tuple(bad))

    def test_connecting_maps_must_be_surjective(self):
        G1, G2 = cyclic(2), cyclic(4)
        squash = GroupHom(G2, G1, [0, 0, 0, 0])
        with pytest.raises(ParamOutOfRange):
            Tower((G1, G2), (squash,), "bad")


class TestLimitDiagnostics:
    def test_zp2(self):
        t, f = build_zp_tower(2, 4)
        d = limit_diagnostics(t, f)
        assert d.limit_injective
        assert d.image_indices == (2, 2, 2, 2)
        assert d.image_open and d.image_index_bound == 2
        # each kernel becomes invisible one level down
        assert d.kernel_shrink_depth[:3] == (2, 3, 4)

    def test_units3(self):
        t, f = build_units_semidirect_tower(3, 3)
        d = limit_diagnostics(t, f)
        assert d.limit_injective
        assert d.image_indices == (3, 3, 3)

    def test_negative_control(self):
        t, f = build_s3_times_z2_tower(3)
        d = limit_diagnostics(t, f)
        assert not d.limit_injective
        assert d.kernel_shrink_depth[0] is None


class TestLevelwise:
    def test_zp2_con_everything(self):
        t, f = build_zp_tower(2, 4)
        rep = levelwise_contraction(t, f)
        assert all(r.con.is_whole for r in rep.level_reports)
        assert rep.all_theorem_a_passed
        assert all(c.projection_inclusion and c.projection_equality for c in rep.coherence)

    def test_units3_coordinates(self):
        t, f = build_units_semidirect_tower(3, 3)
        rep = levelwise_contraction(t, f)
        for k, r in enumerate(rep.level_reports):
            assert r.con == t.parts[k].normal_part
            assert r.stable_image == t.parts[k].acting_part
            assert r.con.size * r.stable_image.size == t.levels[k].order
            assert (r.con.bools & r.stable_image.bools).sum() == 1
        assert rep.all_theorem_a_passed

    def test_identity_family(self):
        t, _ = build_zp_tower(2, 3)
        fam = CoherentEndoFamily(t, tuple(identity_hom(G) for G in t.levels))
        rep = levelwise_contraction(t, fam)
        assert all(r.con.is_trivial for r in rep.level_reports)

    def test_theorem_b_report_fills_diagnostics(self):
        t, f = build_units_semidirect_tower(3, 2)
        rep = verify_theorem_b_tower(t, f)
        assert rep.diagnostics.limit_injective
        assert rep.diagnostics.image_index_bound == 3
        assert rep.status == "pass"


class TestTheoremB:
    def test_zp2_both_parts(self):
        t, f = build_zp_tower(2, 4)
        rep = verify_theorem_b_tower(t, f)
        assert rep.status == "pass"
        assert rep.part_i_passed
        assert rep.part_ii_applicable and rep.part_ii_passed

    def test_units3_part_one_only(self):
        t, f = build_units_semidirect_tower(3, 3)
        rep = verify_theorem_b_tower(t, f)
        assert rep.status == "pass"
        assert rep.part_i_passed
        assert not rep.part_ii_applicable

    def test_multi_family(self):
        # two coherent families on one tower: doubling plus the unit x -> 3x
        t, doubling = build_zp_tower(2, 4)
        tripling = CoherentEndoFamily(
            t, tuple(GroupHom(G, G, [(3 * x) % G.order for x in range(G.order)]) for G in t.levels)
        )
        rep = verify_theorem_b_tower(t, [doubling, tripling])
        assert rep.status == "pass"
        assert rep.part_i_passed
        assert rep.part_ii_applicable and rep.part_ii_passed

    def test_negative_control_guard(self):
        t, f = build_s3_times_z2_tower(3)
        rep = verify_theorem_b_tower(t, f)
        assert rep.status == "hypotheses_not_met"
        assert rep.part_i == ()
        # the guard is load-bearing: the top level really is non-nilpotent
        top = t.levels[-1]
        o = o_lambda(top, EndoSemigroup(top, [f.endos[-1]]))
        assert not o.nilpotent


class TestTypeF:
    def test_zp2(self):
        t, _ = build_zp_tower(2, 4)
        prof = typef_profile(t, 2)
        assert all(p.counts == {1: 1, 2: 1} for p in prof.per_level)
        assert prof.stabilized

    def test_zpn22_three_index_two_subgroups(self):
        t, _ = build_zpn_tower(2, 2, 3)
        prof = typef_profile(t, 2)
        assert all(p.counts == {1: 1, 2: 3} for p in prof.per_level)
        assert prof.stabilized

    def test_trivial_tower(self):
        G = cyclic(1)
        t = Tower((G,), (), "trivial")
        fam = CoherentEndoFamily(t, (identity_hom(G),))
        prof = typef_profile(t, 1)
        assert prof.per_level[0].counts == {1: 1}
        assert prof.stabilized
