"""Contraction, decomposition checks, index lemma, searches, regulation."""

import math

import numpy as np
import pytest

from pfg import endo
from pfg.catalog import paper_example_level
from pfg.construct import cyclic, dihedral, scale_first_map
from pfg.core import (
    GroupHom,
    closure,
    conjugation_hom,
    identity_hom,
    trivial_hom,
)
from pfg.endo import (
    EndoSemigroup,
    NonCommutative,
    NotInvariant,
    NotSurjectiveOnH,
    PreconditionPrimes,
    contraction,
    fewprimes_check,
    hom_search,
    semigroup_contraction,
    shrinkind_check,
    tfrelstab_ii_check,
    verify_regulation,
    verify_theorem_a,
)
from pfg.lattice import AutoSet


class TestContraction:
    def test_identity(self):
        G = dihedral(3).group
        rep = contraction(identity_hom(G))
        assert rep.con.is_trivial and rep.stable_image.is_whole and rep.depth == 0

    def test_trivial_endomorphism(self):
        G = dihedral(3).group
        rep = contraction(trivial_hom(G))
        assert rep.con.is_whole and rep.stable_image.is_trivial and rep.depth == 1

    def test_paper_level(self):
        sd, phi = paper_example_level(3, 2)
        rep = contraction(phi)
        assert rep.con == sd.normal_part
        assert rep.stable_image == sd.acting_part
        assert all(rep.checks.values())

    def test_z8_doubling(self):
        G = cyclic(8)
        rep = contraction(GroupHom(G, G, [(2 * x) % 8 for x in range(8)]))
        assert rep.con.is_whole and rep.stable_image.is_trivial and rep.depth == 3
        assert [s.size for s in rep.kernel_chain] == [1, 2, 4, 8, 8]

    def test_orbit_oracle_catches_a_power_chain_one_step_short(self, monkeypatch):
        real = endo._power_chain

        def one_short(f_arr):
            powers, depth = real(f_arr)
            return powers[:-1], depth - 1

        monkeypatch.setattr(endo, "_power_chain", one_short)
        G = cyclic(8)
        rep = contraction(GroupHom(G, G, [(2 * x) % 8 for x in range(8)]))
        assert rep.con.size == 4  # ker f^2, where the whole group contracts
        assert not rep.checks["orbit_oracle_agrees"]

    def test_chains_are_built_only_when_read(self, monkeypatch):
        import pfg.core as core

        sd, phi = paper_example_level(3, 2)
        S = EndoSemigroup(sd.group, [phi])
        built = []
        init = core.Subgroup.__init__

        def counting(self, parent, members, **kw):
            built.append(parent.order)
            init(self, parent, members, **kw)

        monkeypatch.setattr(core.Subgroup, "__init__", counting)
        rep = contraction(phi)
        assert len(built) == 2  # con and stable
        assert len(rep.kernel_chain) == len(rep.image_chain) == rep.depth + 2
        assert len(built) == 2 + 2 * (rep.depth + 2)
        rep.kernel_chain, rep.image_chain  # read once, kept
        assert len(built) == 2 + 2 * (rep.depth + 2)

        built.clear()
        rep = semigroup_contraction(S)
        assert len(built) == 3  # con, stable and the trivial K
        built.clear()
        rep = semigroup_contraction(S, sd.acting_part)
        assert len(built) == 2
        rep.kernel_chain
        assert len(built) == 2 + rep.depth + 2

    def test_kernel_chain_strictly_ascends_then_stabilizes(self):
        sd, phi = paper_example_level(3, 3)
        rep = contraction(phi)
        sizes = [s.size for s in rep.kernel_chain]
        assert sizes[: rep.depth + 1] == sorted(set(sizes[: rep.depth + 1]))
        assert sizes[rep.depth] == sizes[rep.depth + 1]
        assert rep.depth <= math.log2(sd.group.order)


class TestTheoremA:
    def test_automorphism(self):
        G = dihedral(3).group
        rec = verify_theorem_a(G, conjugation_hom(G, 2))
        assert rec.passed and rec.data["con_order"] == 1

    def test_paper_level_counts(self):
        sd, phi = paper_example_level(3, 2)
        rec = verify_theorem_a(sd.group, phi)
        assert rec.passed
        assert rec.data["con_order"] * rec.data["stable_order"] == 54

    def test_dihedral8_scaled(self):
        sd = dihedral(4)
        phi = GroupHom(sd.group, sd.group, scale_first_map(sd.group, 2, sd.acting_order))
        rec = verify_theorem_a(sd.group, phi)
        assert rec.passed
        assert rec.data["con_order"] == 4 and rec.data["stable_order"] == 2


class TestShrinkind:
    def test_identity_equality_and_coverage(self):
        G = dihedral(3).group
        rec = shrinkind_check(G, identity_hom(G), closure(G, [1]))
        assert rec.passed and rec.data["preimage_index"] == rec.data["subgroup_index"]

    def test_z4_strict_inequality(self):
        G = cyclic(4)
        f = GroupHom(G, G, [0, 2, 0, 2])
        rec = shrinkind_check(G, f, closure(G, [2]))
        assert rec.passed
        assert rec.data["preimage_index"] == 1 < rec.data["subgroup_index"] == 2

    def test_automorphism_any_subgroup(self):
        G = dihedral(3).group
        f = conjugation_hom(G, 2)
        for gens in ([1], [2], [1, 2]):
            assert shrinkind_check(G, f, closure(G, gens)).passed


class TestHomSearch:
    def test_into_itself(self):
        G = dihedral(3).group
        res = hom_search(G, G)
        assert res.count >= 1

    def test_c3_into_s3_counts_two(self):
        res = hom_search(cyclic(3), dihedral(3).group)
        assert res.count == 2
        assert all(len(np.unique(w.map)) == 3 for w in res.witnesses)

    def test_z4_into_halving_subgroup(self):
        G = cyclic(4)
        H = closure(G, [2])
        res = hom_search(G, H)
        assert res.count == 0
        assert res.simple_witness is not None
        w = res.simple_witness
        assert sorted(w.kernel.members.tolist()) == [0, 2]
        assert w.quotient_simple


class TestFewprimes:
    def test_all_primes_of_codomain(self):
        G = dihedral(3).group
        orders = G.element_orders()
        t = int(np.flatnonzero(orders == 2)[0])
        f = GroupHom(cyclic(2), G, [0, t])
        rec = fewprimes_check(f, {2, 3})
        assert rec.passed
        assert rec.data["image_order"] == 2

    def test_c3_embedding(self):
        G = dihedral(3).group
        c = int(np.flatnonzero(G.element_orders() == 3)[0])
        f = GroupHom(cyclic(3), G, [0, c, G.mul(c, c)])
        rec = fewprimes_check(f, {2, 3})
        assert rec.passed and rec.data["image_order"] == 3

    def test_precondition_reported(self):
        G = dihedral(3).group
        t = int(np.flatnonzero(G.element_orders() == 2)[0])
        f = GroupHom(cyclic(2), G, [0, t])
        with pytest.raises(PreconditionPrimes):
            fewprimes_check(f, {5})

    def test_requires_injective(self):
        G = cyclic(4)
        with pytest.raises(Exception):
            fewprimes_check(GroupHom(G, G, [0, 2, 0, 2]), {2})

    def test_identity_on_order_4374_level_stays_small(self):
        """The core of an automorphism's image is G and O^pi is trivial, so
        both quotients have order 4374.  The core is gathered in O(n * |gens|),
        and a trivial O^pi gives G itself with the identity projection, so
        the factored table is never copied: the traced peak is about 1 MiB,
        where the two dense quotient tables took 73 MiB and an n x n
        conjugate matrix 803 MiB."""
        import tracemalloc

        from pfg.dsl import parse, validate
        from pfg.report import emit, run

        source = (
            "group G = semidirect(cyclic(81), units_mod(3, 4), mult_action)\n"
            "endo f on G = identity\n"
            "analyze fewprimes(f, {2, 3})\n"
        )
        tracemalloc.start()
        try:
            report = run(validate(parse(source).spec))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emit(report, "json") == (
            b'{"analyses":[{"details":{"checks":{"image_of_residual_inside_residual":true,'
            b'"induced_image_matches_projected_product":true,"induced_map_injective":true,'
            b'"induced_map_well_defined":true},"image_order":4374,"primes":[2,3],'
            b'"quotient_orders":[4374,4374]},"kind":"fewprimes","ms":0,"status":"pass",'
            b'"target":"f, {2, 3}"}],"scenario":"scenario","seed":0,"version":"0.1.0"}\n'
        )
        assert peak < 8 * 2**20, peak


class TestRegulation:
    def test_identity_semigroup_no_autos(self):
        G = dihedral(3).group
        rec = verify_regulation(G, EndoSemigroup(G, [identity_hom(G)]), None)
        assert rec.passed
        assert rec.data["trivial_at"] <= G.order

    def test_dihedral8(self):
        sd = dihedral(4)
        phi = GroupHom(sd.group, sd.group, scale_first_map(sd.group, 2, sd.acting_order))
        rec = verify_regulation(sd.group, EndoSemigroup(sd.group, [phi]), None)
        assert rec.passed
        # the index-2 residual is the center and it is invariant under phi
        assert rec.data["residual_sizes"][2] == 2

    def test_paper_level_with_unit_conjugation(self):
        sd, phi = paper_example_level(3, 2)
        u = int(sd.acting_part.members[1])
        autos = AutoSet(sd.group, (conjugation_hom(sd.group, u),))
        rec = verify_regulation(sd.group, EndoSemigroup(sd.group, [phi]), autos)
        assert rec.passed


class TestTfrelstab2:
    def test_level_one(self):
        sd, phi = paper_example_level(3, 1)
        rec = tfrelstab_ii_check(sd, EndoSemigroup(sd.group, [phi]), None)
        assert rec.passed
        assert rec.data["normal_part_order"] == 3
        assert rec.data["trivial_at"] <= 3

    def test_level_two_has_six_conjugations(self):
        sd, phi = paper_example_level(3, 2)
        rec = tfrelstab_ii_check(sd, EndoSemigroup(sd.group, [phi]), None)
        assert rec.passed
        assert rec.data["conjugation_map_count"] == 6

    def test_trivial_acting_part_reduces_to_regulation(self):
        from pfg.construct import semidirect, trivial_action

        sd = semidirect(cyclic(5), cyclic(1), trivial_action)
        phi = GroupHom(sd.group, sd.group, scale_first_map(sd.group, 0, sd.acting_order))
        rec = tfrelstab_ii_check(sd, EndoSemigroup(sd.group, [phi]), None)
        assert rec.passed
        assert rec.data["conjugation_map_count"] == 1  # only the identity

    def test_not_invariant_raises(self):
        sd = dihedral(4)
        # the inner automorphism by a reflection moves the acting coordinate
        bad = conjugation_hom(sd.group, 2)
        with pytest.raises((NotInvariant, NotSurjectiveOnH)):
            tfrelstab_ii_check(sd, EndoSemigroup(sd.group, [bad]), None)

    def test_not_surjective_raises(self):
        from pfg.construct import semidirect, trivial_action

        sd = semidirect(cyclic(3), cyclic(4), trivial_action)
        nh = sd.acting_order
        a, h = np.divmod(np.arange(sd.group.order, dtype=np.int32), nh)
        halve = GroupHom(sd.group, sd.group, a * nh + (2 * h) % nh)
        with pytest.raises(NotSurjectiveOnH):
            tfrelstab_ii_check(sd, EndoSemigroup(sd.group, [halve]), None)


class TestNonCommutative:
    def test_detected_and_refused(self):
        G = dihedral(3).group
        a = conjugation_hom(G, 2)
        b = conjugation_hom(G, 1)
        S = EndoSemigroup(G, [a, b])
        assert not S.commutative
        from pfg.endo import semigroup_contraction

        with pytest.raises(NonCommutative):
            semigroup_contraction(S)


class TestSearchBudget:
    def test_budget_raises(self):
        from pfg.endo import SearchBudgetExceeded

        G = dihedral(6).group
        with pytest.raises(SearchBudgetExceeded):
            hom_search(G, G, node_budget=3)
