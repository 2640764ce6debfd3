"""Subgroup enumeration, normal lattices, residual intersections, O^pi."""

import signal
from math import factorial, gcd

import numpy as np
import pytest

from pfg.catalog import builtin_entries, paper_example_level
from pfg.construct import cyclic, dihedral, direct_product, unit_semidirect_level
from pfg.core import ParamOutOfRange, Subgroup, closure, quotient
from pfg.lattice import (
    AutoSet,
    all_subgroups,
    count_profile,
    enumerate_normals,
    enumerate_subgroups,
    normals_up_to_index,
    o_pi,
    o_pi_of_subgroup,
    prime_factors,
    residual_intersection,
    _ADJUNCTION_ORDER_LIMIT,
    _adjunction_enumeration,
    _Budget,
    _verbal_exponent,
)
from pfg.tower import build_tower, typef_profile


def s3():
    return dihedral(3).group


def is_pi_number(m: int, primes) -> bool:
    """Oracle helper: every prime factor of m lies in ``primes``."""
    return prime_factors(m) <= set(primes)


class TestEnumerateSubgroups:
    def test_index_one(self):
        G = s3()
        cat = enumerate_subgroups(G, 1)
        assert len(cat.entries) == 1 and cat.entries[0].is_whole and cat.complete

    def test_s3_counts(self):
        cat = enumerate_subgroups(s3(), 3)
        by_index = {k: len(v) for k, v in cat.by_index().items()}
        assert by_index == {1: 1, 2: 1, 3: 3}

    def test_z4_low_index(self):
        cat = enumerate_subgroups(cyclic(4), 2)
        assert sorted(s.size for s in cat.entries) == [2, 4]

    def test_routes_agree_on_medium_group(self):
        # low-index core route against full adjunction on the order-54 level
        G = unit_semidirect_level(3, 2).group
        low = {s.bools.tobytes() for s in enumerate_subgroups(G, 3).entries}
        subs, complete = _adjunction_enumeration(G, _Budget(10**7))
        assert complete
        full = {
            b.tobytes() for b, _ in subs if G.order // int(b.sum()) <= 3
        }
        assert low == full

    def test_bad_bound(self):
        with pytest.raises(ParamOutOfRange):
            enumerate_subgroups(s3(), 0)

    def test_budget_reports_incomplete(self):
        cat = enumerate_subgroups(dihedral(6).group, 24, node_budget=5)
        assert not cat.complete

    def test_every_budget_is_complete_or_says_not(self):
        # budgets from 1 up to the least that completes: a short budget may
        # drop subgroups but must say so, and never reports a false one
        G = dihedral(6).group
        full = [s.bools.tobytes() for s in enumerate_subgroups(G, 12).entries]
        budget = 1
        while not (cat := enumerate_subgroups(G, 12, node_budget=budget)).complete:
            assert {s.bools.tobytes() for s in cat.entries} <= set(full), budget
            budget += 1
        assert [s.bools.tobytes() for s in cat.entries] == full
        assert budget > 1

    def test_prime_power_parts_cut_dihedral_closures(self, monkeypatch):
        # adjoining a second reflection puts a rotation of composite order in
        # H*z_j; its prime-power parts rule the child out before its closure
        import pfg.lattice as lattice

        calls = []
        closure_fn = lattice._orbit_closure
        monkeypatch.setattr(lattice, "_orbit_closure", lambda *a: calls.append(1) or closure_fn(*a))
        cat = all_subgroups(dihedral(45).group)
        assert cat.complete and len(cat.entries) == 84
        assert len(calls) <= 1.5 * len(cat.entries)

    def test_catalog_invariants(self):
        for G in (s3(), dihedral(4).group, cyclic(12)):
            for n in (1, 2, G.order):
                cat = enumerate_subgroups(G, n)
                assert all(s.index <= cat.max_index for s in cat.entries)
                keys = [s.bools.tobytes() for s in cat.entries]
                assert len(keys) == len(set(keys))  # no duplicates


def _unreduced_subgroups(G, n):
    """Oracle: the route choice on G itself, with no verbal quotient in
    front, as ``enumerate_subgroups`` made it before; the cores route reads
    the whole normal lattice.  Returns the masks in catalog order and the
    ``complete`` flag."""
    n_eff = min(n, G.order)
    budget = _Budget(10**6)
    if G.order <= _ADJUNCTION_ORDER_LIMIT or factorial(n_eff) >= G.order:
        subs, complete = _adjunction_enumeration(G, budget)
        masks = [b for b, _ in subs if G.order // int(b.sum()) <= n_eff]
    else:
        found, complete = {}, True
        for N in enumerate_normals(G):
            if N.index > factorial(n_eff):
                continue
            Q, proj = quotient(G, N)
            subs, ok = _adjunction_enumeration(Q, budget)
            complete = complete and ok
            for b, _ in subs:
                if Q.order // int(b.sum()) <= n_eff:
                    pulled = b[proj.map]
                    found.setdefault(pulled.tobytes(), pulled)
        masks = list(found.values())
    masks.sort(key=lambda b: (G.order // int(b.sum()), np.flatnonzero(b).astype(np.int32).tobytes()))
    return [b.tobytes() for b in masks], complete


def _lcm_up_to(cap: int) -> int:
    """Oracle: lcm(1..cap) by a running lcm."""
    out = 1
    for k in range(2, cap + 1):
        out = out * k // gcd(out, k)
    return out


def _oracle_groups():
    groups = [e.group for e in builtin_entries(500)]
    towers = [("zp", (2,)), ("zp", (3,)), ("zpn", (2, 2)), ("units_semidirect", (2,))]
    towers += [("units_semidirect", (3,)), ("s3_times_z2", ())]
    towers.append(("product", (build_tower("zp", (2,), 3), build_tower("zp", (3,), 3))))
    groups += [G for kind, params in towers for G in build_tower(kind, params, 3)[0].levels]
    groups += [paper_example_level(2, 6)[0].group, paper_example_level(7, 2)[0].group]
    return groups


class TestVerbalReduction:
    """Subgroups of index <= n are counted in G/<x^L>, L = lcm(1..n)."""

    def test_matches_unreduced_oracle_mask_for_mask(self):
        for G in _oracle_groups():
            for n in range(1, 5):
                cat = enumerate_subgroups(G, n)
                want, complete = _unreduced_subgroups(G, n)
                assert cat.complete and complete, (G, n)
                assert [s.bools.tobytes() for s in cat.entries] == want, (G, n)

    @pytest.mark.parametrize("p, k", [(2, 1), (2, 5), (3, 3), (5, 2), (7, 2)])
    def test_cyclic_p_power_has_one_subgroup_of_each_index(self, p, k):
        G = cyclic(p**k)
        for n in (1, 2, 3, 4, p, p**k):
            want = {p**j: 1 for j in range(k + 1) if p**j <= n}
            assert count_profile(G, n).counts == want, (p, k, n)

    @pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (3, 2), (5, 1), (5, 2)])
    def test_square_of_cyclic_p_power_has_p_plus_one_of_index_p(self, p, k):
        G = direct_product(cyclic(p**k), cyclic(p**k))
        assert count_profile(G, p).counts == {1: 1, p: p + 1}

    def test_s3_needs_the_lcm_not_the_bound(self):
        # with L = 3 in place of lcm(1, 2, 3) = 6, <x^3> would be all of S3
        # and the S3 profile tests would find one subgroup
        assert _verbal_exponent(6, 3) == 6

    def test_exponent_is_gcd_of_lcm_and_order(self):
        lcm = 1
        for cap in range(1, 201):
            lcm = _lcm_up_to(cap) if cap < 3 else lcm * cap // gcd(lcm, cap)
            for order in range(1, 201):
                assert _verbal_exponent(order, cap) == gcd(lcm, order), (order, cap)

    def test_every_power_exponent_is_below_the_order(self, monkeypatch):
        import pfg.lattice as lattice

        seen = []
        real = lattice.power_map
        monkeypatch.setattr(lattice, "power_map", lambda t, xs, e: seen.append((e, t.shape[0])) or real(t, xs, e))
        big = [unit_semidirect_level(3, 4).group, paper_example_level(2, 6)[0].group, paper_example_level(7, 2)[0].group]
        for G in big:
            for n in range(1, 7):
                count_profile(G, n)
            normals_up_to_index(G, 720)
        assert seen and all(e < order for e, order in seen), max(seen)

    def test_typef_on_the_paper_tower_enumerates_only_index_two_quotients(self, monkeypatch):
        import pfg.lattice as lattice

        orders = []
        real = lattice._adjunction_enumeration
        monkeypatch.setattr(lattice, "_adjunction_enumeration", lambda G, budget: orders.append(G.order) or real(G, budget))
        T, _ = build_tower("units_semidirect", (3,), 4)
        profile = typef_profile(T, 2)
        assert [p.counts for p in profile.per_level] == [{1: 1, 2: 1}] * 4
        assert orders and max(orders) <= 2, orders


class TestEnumerateNormals:
    def test_abelian_all_subgroups_normal(self):
        G = cyclic(12)
        normals = {s.bools.tobytes() for s in enumerate_normals(G)}
        subs = {s.bools.tobytes() for s in all_subgroups(G).entries}
        assert normals == subs

    def test_s3_exactly_three(self):
        assert len(enumerate_normals(s3())) == 3

    def test_dihedral8_six_normals(self):
        G = dihedral(4).group
        normals = enumerate_normals(G)
        assert len(normals) == 6
        # oracle: brute-force normality scan over the full subgroup lattice
        from pfg.core import is_normal

        brute = [s for s in all_subgroups(G).entries if is_normal(G, s)]
        assert {s.bools.tobytes() for s in normals} == {s.bools.tobytes() for s in brute}

    def test_normal_lattice_is_meet_closed(self):
        G = unit_semidirect_level(3, 2).group
        normals = enumerate_normals(G)
        keys = {s.bools.tobytes() for s in normals}
        for a in normals:
            for b in normals:
                assert (a.bools & b.bools).tobytes() in keys

    def test_bounded_enumeration_matches_filtered_full(self):
        from pfg.lattice import normals_up_to_index

        for G in (s3(), dihedral(4).group, unit_semidirect_level(3, 2).group, cyclic(36)):
            full = enumerate_normals(G)
            for cap in (1, 2, 3, 6, G.order):
                want = {s.bools.tobytes() for s in full if s.index <= cap}
                got = {s.bools.tobytes() for s in normals_up_to_index(G, cap)}
                assert got == want


class TestResidualIntersection:
    def test_bound_one_gives_whole(self):
        G = s3()
        assert residual_intersection(G, 1).is_whole

    def test_s3_bound_two(self):
        G = s3()
        assert residual_intersection(G, 2) == closure(G, [2])

    def test_dihedral8_center(self):
        G = dihedral(4).group
        center = Subgroup(G, [0, 4])
        assert residual_intersection(G, 2) == center

    def test_contained_in_every_low_index_normal(self):
        from pfg.core import is_normal

        G = dihedral(6).group
        for n in (1, 2, 3, 6):
            R = residual_intersection(G, n)
            assert is_normal(G, R)
            for N in enumerate_normals(G):
                if N.index <= n:
                    assert bool((R.bools & ~N.bools).sum()) == 0

    def test_monotone_in_bound(self):
        G = dihedral(4).group
        sizes = [residual_intersection(G, n).size for n in range(1, 9)]
        assert sizes == sorted(sizes, reverse=True)

    def test_auto_invariant_family_shrinks(self):
        # for Omega subset Omega', the qualifying family shrinks, so the meet grows
        G = direct_product(cyclic(2), cyclic(2))
        swap = AutoSet(G, (handwritten_swap(G),))
        for n in (1, 2, 4):
            small = residual_intersection(G, n)
            big = residual_intersection(G, n, swap)
            assert bool((small.bools & ~big.bools).sum()) == 0


def handwritten_swap(G):
    from pfg.core import GroupHom

    return GroupHom(G, G, [0, 2, 1, 3])


class TestOPi:
    def test_all_primes_gives_trivial(self):
        G = s3()
        assert o_pi(G, {2, 3}).is_trivial

    def test_s3_two(self):
        G = s3()
        assert o_pi(G, {2}) == closure(G, [2])

    def test_s3_three(self):
        G = s3()
        assert o_pi(G, {3}).is_whole

    def test_quotient_is_pi_number(self):
        G = dihedral(6).group
        for primes in ({2}, {3}, {2, 3}):
            N = o_pi(G, primes)
            assert is_pi_number(G.order // N.size, primes)

    def test_minimality(self):
        G = dihedral(6).group
        for primes in ({2}, {3}):
            N = o_pi(G, primes)
            for M in enumerate_normals(G):
                if is_pi_number(M.index, primes):
                    assert bool((N.bools & ~M.bools).sum()) == 0

    def test_rejects_bad_primes(self):
        with pytest.raises(ParamOutOfRange):
            o_pi(s3(), set())
        with pytest.raises(ParamOutOfRange):
            o_pi(s3(), {4})
        with pytest.raises(ParamOutOfRange, match="decided only below 3317044064679887385961981"):
            o_pi(s3(), {2, 10**25})

    def test_huge_prime_ends_at_once(self):
        # trial division of this 22-digit prime did not end in minutes
        def give_up(signum, frame):
            raise TimeoutError("o_pi did not end")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(10)
        try:
            assert o_pi(cyclic(4), {1000000000000000000117}).is_whole
            G = s3()
            assert o_pi(G, {2, 1000000000000000000117}) == closure(G, [2])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_subgroup_matches_parent_for_core_primes(self):
        from pfg.core import normal_core

        G = unit_semidirect_level(3, 2).group
        for H in all_subgroups(G).entries:
            core = normal_core(G, H)
            primes = prime_factors(G.order // core.size) or {2}
            assert o_pi_of_subgroup(G, H, primes) == o_pi(G, primes)


class TestCountProfile:
    def test_trivial_group(self):
        assert count_profile(cyclic(1), 1).counts == {1: 1}

    def test_s3(self):
        assert count_profile(s3(), 3).counts == {1: 1, 2: 1, 3: 3}

    def test_klein_four(self):
        G = direct_product(cyclic(2), cyclic(2))
        assert count_profile(G, 2).counts == {1: 1, 2: 3}


class TestAutoSet:
    def test_rejects_non_bijective(self):
        from pfg.core import trivial_hom

        G = cyclic(4)
        with pytest.raises(ParamOutOfRange):
            AutoSet(G, (trivial_hom(G),))

    def test_rejects_foreign_map(self):
        from pfg.core import identity_hom

        with pytest.raises(ParamOutOfRange):
            AutoSet(cyclic(4), (identity_hom(cyclic(4)),))
