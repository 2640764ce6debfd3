"""Group construction, subgroups, homomorphisms, quotients, nilpotency."""

import itertools

import numpy as np
import pytest

from pfg.construct import (
    _full_table,
    cyclic,
    dihedral,
    direct_product,
    inversion_action,
    is_prime,
    scale_first_map,
    semidirect,
    unit_semidirect_level,
    units_mod,
)
from pfg.core import (
    BadAction,
    DifferentParents,
    DomainMismatch,
    FiniteGroup,
    GroupError,
    GroupHom,
    MissingInverse,
    NoIdentity,
    NotAHomomorphism,
    NotAssociative,
    NotNormal,
    OrderGuardExceeded,
    PairTable,
    ParamOutOfRange,
    Subgroup,
    build_from_table,
    closure,
    compose,
    hom_parts,
    identity_hom,
    is_normal,
    nilpotency,
    normal_closure,
    normal_core,
    preimage,
    quotient,
    subgroup_as_group,
    trivial_subgroup,
    whole_subgroup,
)
from pfg.dsl import parse, validate


def z4_table():
    return [[(i + j) % 4 for j in range(4)] for i in range(4)]


def s3_group():
    return dihedral(3).group


class TestBuildFromTable:
    def test_trivial_group(self):
        G = build_from_table([[0]], "triv")
        assert G.order == 1
        assert G.mul(0, 0) == 0

    def test_z4_by_hand(self):
        G = build_from_table(z4_table(), "Z4")
        assert G.order == 4
        assert G.mul(1, 3) == 0  # hand oracle: 1 + 3 = 0 mod 4
        assert G.inv_of(1) == 3

    def test_corrupted_entry_reports_witness(self):
        table = z4_table()
        table[1][1] = 3
        with pytest.raises(NotAssociative) as exc:
            build_from_table(table)
        a, b, c = exc.value.triple
        t = table
        assert t[t[a][b]][c] != t[a][t[b][c]]

    @pytest.mark.parametrize(
        "group, cell",
        [
            (lambda: unit_semidirect_level(3, 2).group, (20, 33)),  # order 54
            (lambda: unit_semidirect_level(2, 5).group, (300, 401)),  # order 512
            (lambda: cyclic(1000), (999, 999)),
        ],
        ids=["order54", "order512", "order1000"],
    )
    def test_corrupted_entry_below_and_above_512(self, group, cell):
        t = group().table.copy()
        a, b = cell
        assert t[a, b] not in (0, 1)
        t[a, b] = 1  # keeps the identity and every inverse in place
        with pytest.raises(NotAssociative) as exc:
            build_from_table(t)
        x, y, z = exc.value.triple
        assert t[t[x, y], z] != t[x, t[y, z]]

    def test_loop_rejected_when_only_a_later_generator_fails(self):
        # Q is the non-associative loop of order 5; in Q x Z3, encoded q*3 + a,
        # the first greedy generator (e, 1) lies in the nucleus and associates
        # with everything, so only the next generator (1, 0) exposes the loop
        Q = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
        z3 = np.add.outer(np.arange(3), np.arange(3)) % 3
        t = (Q[:, None, :, None] * 3 + z3[None, :, None, :]).reshape(15, 15)
        with pytest.raises(NotAssociative) as exc:
            build_from_table(t)
        x, y, z = exc.value.triple
        assert y != 1
        assert t[t[x, y], z] != t[x, t[y, z]]

    def test_identity_relabelled_to_zero(self):
        # shift Z/3 so the identity sits at index 1
        perm = [1, 0, 2]
        base = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        shuffled = [[perm[base[i][j]] for j in range(3)] for i in range(3)]
        shuffled = [shuffled[perm[i]] for i in range(3)]
        shuffled = [[row[perm[j]] for j in range(3)] for row in shuffled]
        G = build_from_table(shuffled)
        assert G.mul(0, 0) == 0
        assert all(G.mul(0, x) == x for x in range(3))

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            build_from_table([[0, 0], [0, 0]])

    def test_missing_inverse(self):
        # right-shift table: has an identity column pattern but rows without 0
        with pytest.raises((MissingInverse, NoIdentity)):
            build_from_table([[0, 1, 2], [1, 2, 2], [2, 2, 2]])

    def test_order_guard(self):
        with pytest.raises(OrderGuardExceeded):
            cyclic(100, order_guard=50)

    def test_only_frozen_owning_int16_tables_are_adopted(self):
        writable = np.array(z4_table(), dtype=np.int16)
        frozen = np.array(z4_table(), dtype=np.int16)
        frozen.setflags(write=False)
        view = np.tile(frozen, (2, 2))[:4, :4]
        view.setflags(write=False)
        for table in (writable, view, z4_table()):
            G = build_from_table(table)
            assert not np.shares_memory(G.table, table)
            assert not G.table.flags.writeable
        assert build_from_table(frozen).table is frozen


    def test_wide_entries_are_range_checked_before_narrowing(self):
        # 2**16 + 1 would wrap round to 1 in int16, a valid index of Z4
        wide = np.array(z4_table(), dtype=np.int64)
        wide[1, 2] = 2**16 + 1
        with pytest.raises(ParamOutOfRange):
            build_from_table(wide)

    def test_order_past_int16_is_refused_before_allocation(self):
        import tracemalloc

        huge = np.broadcast_to(np.int16(0), (40000, 40000))  # a view: no memory behind it
        tracemalloc.start()
        try:
            with pytest.raises(OrderGuardExceeded, match="guard 32767"):
                cyclic(40000, order_guard=10**6)
            with pytest.raises(OrderGuardExceeded, match="guard 32767"):
                FiniteGroup(huge, validate=False, inv=huge[0], order_guard=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# int64 closed forms of the constructors' tables, as functions of broadcast
# element indices x (rows) and y (columns); pair encoding is left-major
def _cyclic_ref(n):
    return lambda x, y: (x + y) % n


def _units_ref(p, k):
    m = p**k
    res = np.array([r for r in range(1, m) if r % p], dtype=np.int64)
    pos = np.full(m, -1, dtype=np.int64)
    pos[res] = np.arange(res.size)
    return lambda x, y: pos[res[x] * res[y] % m]


def _product_ref(ref_a, ref_b, nb):
    return lambda x, y: ref_a(x // nb, y // nb) * nb + ref_b(x % nb, y % nb)


def _semidirect_ref(ref_n, act, ref_h, nh):
    """(a, h)(b, k) = (a * act[h, b], h * k)."""
    return lambda x, y: ref_n(x // nh, act[x % nh, y // nh]) * nh + ref_h(x % nh, y % nh)


def _dihedral_ref(n):
    b = np.arange(n, dtype=np.int64)
    return _semidirect_ref(_cyclic_ref(n), np.stack([b, -b % n]), _cyclic_ref(2), 2)


def _unit_level_ref(p, k):
    m = p**k
    res = np.array([r for r in range(1, m) if r % p], dtype=np.int64)
    act = res[:, None] * np.arange(m, dtype=np.int64) % m
    return _semidirect_ref(_cyclic_ref(m), act, _units_ref(p, k), res.size)


def _assert_int16_table(G, ref):
    """``table`` and ``inv`` are read-only, owning int16 arrays equal to ``ref``,
    compared in blocks of rows so that no int64 copy of a large table is made.
    A factored table is checked through its dense form."""
    table = _full_table(G)
    for arr in (table, G.inv):
        assert arr.dtype == np.int16 and arr.flags.owndata and not arr.flags.writeable
    n = G.order
    y = np.arange(n, dtype=np.int64)
    for lo in range(0, n, 256):
        x = np.arange(lo, min(n, lo + 256), dtype=np.int64)
        rows = ref(x[:, None], y[None, :])
        assert np.array_equal(table[lo : lo + 256], rows), (G.label, lo)
        assert np.array_equal(G.inv[lo : lo + 256], np.argmax(rows == 0, axis=1)), (G.label, lo)


# the scenario of the order-12,500 group: far above the size rule, so its dense table would be 312.5 MB
BIG_SCENARIO = """set order_guard = 32000
group G = semidirect(cyclic(125), units_mod(5, 3), mult_action)
endo f on G = scale_first(5)
analyze theorem_a(G, f)
analyze o_pi(G, {5})
"""


def _builder_levels(depth=3):
    """(kind, levels, reference) for every tower builder at the given depth."""
    from pfg.tower import build_tower

    refs = {
        "zp": lambda k: _cyclic_ref(2**k),
        "zpn": lambda k: _product_ref(_cyclic_ref(3**k), _cyclic_ref(3**k), 3**k),
        "units_semidirect": lambda k: _unit_level_ref(3, k),
        "s3_times_z2": lambda k: _product_ref(_dihedral_ref(3), _cyclic_ref(2**k), 2**k),
        "product": lambda k: _product_ref(_cyclic_ref(2**k), _cyclic_ref(3**k), 3**k),
    }
    params = {
        "zp": (2,),
        "zpn": (3, 2),
        "units_semidirect": (3,),
        "s3_times_z2": (),
        "product": (build_tower("zp", (2,), depth), build_tower("zp", (3,), depth)),
    }
    for kind, ref in refs.items():
        levels = build_tower(kind, params[kind], depth)[0].levels
        yield kind, levels, [ref(k) for k in range(1, depth + 1)]


def _dense_rows(t, lo, hi):
    """Rows lo..hi-1 of ``t.dense()``, by the same broadcast sum, without the whole table."""
    a, b = np.divmod(np.arange(lo, min(hi, t.shape[0])), t.right.shape[0])
    return (t.left[a, b][:, :, None] + t.right[b][:, None, :]).reshape(a.size, -1)


def _assert_gathers_match(G, block=256):
    """Every index form pfg reads a table with, on G's factored table, against
    its dense rows in blocks: values, int16 and NumPy's result shapes (a slice
    is an outer axis in its place).  Each entry is read once by a whole-row
    form; the three such forms take turns from block to block."""
    t, n = G.table, G.order
    assert isinstance(t, PairTable), G
    rng = np.random.default_rng(n)
    m = np.sort(rng.choice(n, size=min(n, 37), replace=False)).astype(np.int32)  # a member list
    g = int(rng.integers(n))
    by_cols = t[:, m]  # (n, |m|)
    col_g = t[:, g]  # (n,)
    assert by_cols.shape == (n, m.size) and col_g.shape == (n,)
    m_rows = np.concatenate([_dense_rows(t, x, x + 1) for x in m.tolist()])
    for lo in range(0, n, block):
        dense = _dense_rows(t, lo, lo + block)
        rows = np.arange(lo, lo + dense.shape[0])
        r16 = rows.astype(np.int16)
        perm = rng.permutation(n)[: rows.size]
        whole_rows = (lambda: t[rows], lambda: t[lo : lo + block], lambda: t[r16, :])[lo // block % 3]
        for got, want in (
            (whole_rows(), dense),
            (t[rows[:, None], m], dense[:, m]),
            (t[rows[:, None], m[None, :]], dense[:, m]),
            (t[r16, g], dense[:, g]),
            (t[rows, perm], dense[np.arange(rows.size), perm]),
            (t[m[:, None], rows], m_rows[:, rows]),
            (by_cols[lo : lo + block], dense[:, m]),
            (col_g[lo : lo + block], dense[:, g]),
        ):
            assert got.dtype == np.int16 and np.array_equal(got, want), (G.label, lo)
        i = int(rng.integers(rows.size))
        x, y = lo + i, int(rng.integers(n))
        assert np.array_equal(t[x], dense[i]) and np.array_equal(t[np.int32(x), :], dense[i])
        for a, b in ((x, y), (np.int16(x), np.int32(y)), (np.intp(x), y)):
            got = t[a, b]
            assert got.shape == () and int(got) == dense[i, y], (G.label, x, y)


class TestInt16Tables:
    def test_constructors(self):
        from pfg.catalog import paper_example_level

        _assert_int16_table(cyclic(12), _cyclic_ref(12))
        _assert_int16_table(build_from_table(_cyclic_ref(7)(*np.ogrid[:7, :7])), _cyclic_ref(7))
        _assert_int16_table(units_mod(3, 3), _units_ref(3, 3))
        _assert_int16_table(direct_product(cyclic(4), units_mod(5, 2)), _product_ref(_cyclic_ref(4), _units_ref(5, 2), 20))
        act = np.array([[0, 1, 2, 3, 4], [0, 2, 4, 1, 3], [0, 4, 3, 2, 1], [0, 3, 1, 4, 2]])  # b -> 2^h * b mod 5
        _assert_int16_table(semidirect(cyclic(5), cyclic(4), act).group, _semidirect_ref(_cyclic_ref(5), act, _cyclic_ref(4), 4))
        _assert_int16_table(dihedral(9).group, _dihedral_ref(9))
        _assert_int16_table(paper_example_level(2, 6)[0].group, _unit_level_ref(2, 6))  # order 2048
        _assert_int16_table(paper_example_level(7, 2)[0].group, _unit_level_ref(7, 2))  # order 2058
        _assert_int16_table(unit_semidirect_level(3, 4).group, _unit_level_ref(3, 4))  # order 4374

    def test_quotient_and_subgroup_as_group(self):
        D = dihedral(6).group
        t = D.table.astype(np.int64)
        for N in (closure(D, [2]), closure(D, [6])):  # rotations of order 3 and the centre
            Q, proj = quotient(D, N)
            cosets = sorted({tuple(sorted(t[x, N.members])) for x in range(D.order)})
            reps = np.array([c[0] for c in cosets])
            coset_of = np.empty(D.order, dtype=np.int64)
            for i, c in enumerate(cosets):
                coset_of[list(c)] = i
            _assert_int16_table(Q, lambda x, y: coset_of[t[reps[x], reps[y]]])
        sd = unit_semidirect_level(3, 3)
        t = sd.group.table.astype(np.int64)
        for S in (sd.normal_part, sd.acting_part):
            H, incl = subgroup_as_group(sd.group, S)
            m = S.members.astype(np.int64)
            _assert_int16_table(H, lambda x, y: np.searchsorted(m, t[m[x], m[y]]))

    def test_tower_levels(self):
        for _, levels, refs in _builder_levels():
            for G, ref in zip(levels, refs):
                _assert_int16_table(G, ref)

    def test_cyclic_5000_rows(self):
        G = cyclic(5000)
        j = np.arange(5000)
        for i in (0, 1, 2499, 4999):
            assert np.array_equal(G.table[i], (i + j) % 5000)


class TestPairTable:
    """Products above ``DENSE_TABLE_BYTES`` keep a factored table; every read
    of it must give what the dense table gives."""

    def test_size_rule(self):
        assert isinstance(direct_product(cyclic(2), cyclic(1448)).table, np.ndarray)  # order 2896: 16,773,632 bytes
        assert isinstance(direct_product(cyclic(2), cyclic(1449)).table, PairTable)  # order 2898
        from pfg.catalog import paper_example_level

        assert isinstance(paper_example_level(2, 6)[0].group.table, np.ndarray)  # order 2048
        assert isinstance(paper_example_level(7, 2)[0].group.table, np.ndarray)  # order 2058
        assert isinstance(unit_semidirect_level(3, 4).group.table, PairTable)  # order 4374

    def test_gathers_match_dense_above_the_rule(self):
        """The dense rows are checked against the closed form too: in full
        where the whole table is small enough, at order 12,500 on three blocks."""
        _assert_gathers_match(unit_semidirect_level(3, 4).group)  # its closed form: test_constructors
        G = direct_product(cyclic(64), cyclic(64))
        _assert_gathers_match(G)
        _assert_int16_table(G, _product_ref(_cyclic_ref(64), _cyclic_ref(64), 64))
        G = direct_product(cyclic(500), dihedral(3).group)  # order 3000, a right factor that does not commute
        _assert_gathers_match(G)
        _assert_int16_table(G, _product_ref(_cyclic_ref(500), _dihedral_ref(3), 6))
        G = validate(parse(BIG_SCENARIO).spec).environment["G"][0].group
        _assert_gathers_match(G)
        ref, n = _unit_level_ref(5, 3), G.order
        for lo in (0, n // 2, n - 100):
            x = np.arange(lo, lo + 100, dtype=np.int64)
            assert np.array_equal(_dense_rows(G.table, lo, lo + 100), ref(x[:, None], np.arange(n)[None, :]))

    def test_gathers_match_dense_with_every_product_factored(self, monkeypatch):
        from pfg import core
        from pfg.catalog import paper_example_level

        monkeypatch.setattr(core, "DENSE_TABLE_BYTES", 0)
        for kind, levels, refs in _builder_levels():
            for G, ref in zip(levels, refs):
                if kind != "zp":  # the zp levels are cyclic, whose tables are raw
                    _assert_gathers_match(G)
                    _assert_int16_table(G, ref)
        for p, k in ((2, 6), (7, 2)):
            G = paper_example_level(p, k)[0].group
            _assert_gathers_match(G)
            _assert_int16_table(G, _unit_level_ref(p, k))

    def test_reports_unchanged_with_every_product_factored(self, monkeypatch):
        from importlib import resources
        from pathlib import Path

        from pfg import core
        from pfg.cli import run_demo
        from pfg.report import emit, run

        golden = Path(__file__).parent / "golden"
        monkeypatch.setattr(core, "DENSE_TABLE_BYTES", 0)
        assert isinstance(dihedral(3).group.table, PairTable)
        assert emit(run_demo(3, 3), "json") == (golden / "demo_p3_d3.json").read_bytes()
        for name in ("paper_example", "two_generator", "dihedral_controls"):
            source = (resources.files("pfg") / "scenarios" / f"{name}.pfg").read_text(encoding="utf-8")
            resolved = validate(parse(source).spec)
            resolved = type(resolved)(name, resolved.environment, resolved.analyses, resolved.options)
            assert emit(run(resolved), "json") == (golden / f"{name}.json").read_bytes(), name

    def test_no_implicit_array(self):
        t = unit_semidirect_level(3, 4).group.table
        for convert in (np.asarray, lambda a: np.take(a, [0], axis=0), lambda a: np.add(a, 0)):
            with pytest.raises(TypeError, match="dense"):
                convert(t)
        with pytest.raises(IndexError):
            t[np.ones(t.shape[0], dtype=bool)]

    def test_factored_groups_are_never_materialized(self, monkeypatch):
        """Neither the depth-4 demo nor the order-12,500 scenario builds a dense
        table above the rule, and the scenario's traced peak stays far below
        the 312.5 MB such a table would take."""
        import tracemalloc

        from pfg import core
        from pfg.cli import run_demo
        from pfg.report import run

        dense, above = PairTable.dense, []

        def counting(self):
            if self.dense_bytes > core.DENSE_TABLE_BYTES:
                above.append(self.shape[0])
            return dense(self)

        monkeypatch.setattr(PairTable, "dense", counting)
        demo = run_demo(3, 4)
        assert all(rec.status == "pass" for rec in demo.records)
        tracemalloc.start()
        try:
            resolved = validate(parse(BIG_SCENARIO).spec)
            report = run(resolved)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(resolved.environment["G"][0].group.table, PairTable)
        assert [rec.status for rec in report.records] == ["pass", "pass"]
        assert above == []
        assert peak < 32 * 2**20, peak  # about 6 MiB with numpy 2.4
        unit_semidirect_level(3, 4).group.table.dense()  # the counter does see one
        assert above == [4374]

    def test_is_abelian_matches_the_transpose(self):
        """``is_abelian`` checks the generators; the full transpose is the oracle."""
        from pfg.catalog import builtin_entries

        groups = [e.group for e in builtin_entries(500)]
        groups += [G for _, levels, _ in _builder_levels() for G in levels]
        assert {G.is_abelian() for G in groups} == {True, False}
        for G in groups:
            table = _full_table(G)
            assert G.is_abelian() == bool(np.array_equal(table, table.T)), G


class TestCatalogConstruct:
    def test_cyclic_one_is_trivial(self):
        assert cyclic(1).order == 1

    def test_semidirect_c3_c2_is_s3(self):
        G = semidirect(cyclic(3), cyclic(2), inversion_action).group
        # brute-force isomorphism against the symmetric group on 3 letters
        perms = list(itertools.permutations(range(3)))
        comp = {p: perms.index(p) for p in perms}
        table = [
            [comp[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
        ]
        S3 = build_from_table(table, "S3-perm")
        assert G.order == S3.order == 6
        found = False
        g_orders = sorted(G.element_order(x) for x in range(6))
        s_orders = sorted(S3.element_order(x) for x in range(6))
        assert g_orders == s_orders
        for images in itertools.permutations(range(6)):
            if images[0] != 0:
                continue
            if all(
                images[G.mul(x, y)] == S3.mul(images[x], images[y])
                for x in range(6)
                for y in range(6)
            ):
                found = True
                break
        assert found

    def test_units_mod_9(self):
        G = units_mod(3, 2)
        # oracle: count integers below 9 coprime to 9
        assert G.order == len([r for r in range(1, 9) if r % 3 != 0]) == 6
        assert G.is_abelian()

    def test_bad_action_witness_really_fails(self):
        N, H = cyclic(4), cyclic(3)
        with pytest.raises(BadAction) as exc:
            semidirect(N, H, inversion_action)
        x, g = exc.value.witness
        act = inversion_action(N, H)
        assert not np.array_equal(act[H.table[x, g]], act[x][act[g]])

    def test_trivial_acting_group_must_act_trivially(self):
        with pytest.raises(BadAction) as exc:
            semidirect(cyclic(3), cyclic(1), np.array([[0, 2, 1]]))
        assert exc.value.witness == (0, 0)

    def test_bad_action_rejected(self):
        broken = np.zeros((2, 3), dtype=np.int32)  # constant maps are no automorphisms
        with pytest.raises(BadAction):
            semidirect(cyclic(3), cyclic(2), broken)

    def test_param_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            cyclic(0)
        with pytest.raises(ParamOutOfRange):
            units_mod(4, 1)

    def test_units_mod_guard_comes_before_primality_and_residues(self, monkeypatch):
        import pfg.construct as construct

        def unreachable(*args):
            raise AssertionError("reached before the order guard")

        monkeypatch.setattr(construct, "is_prime", unreachable)
        monkeypatch.setattr(construct, "units_residues", unreachable)
        # orders 2*3^19 and 10^21 + 116: neither a residue list nor a trial division
        for p, k in ((3, 20), (1000000000000000000117, 1)):
            with pytest.raises(OrderGuardExceeded):
                units_mod(p, k)
        for p, k in ((1, 2), (0, 1), (2, 0)):
            with pytest.raises(ParamOutOfRange):
                units_mod(p, k)


def _is_prime_by_trial_division(p: int) -> bool:
    """Oracle: the trial division that ``is_prime`` replaced."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_matches_trial_division_below_1e5(self):
        for p in range(-3, 10**5):
            assert is_prime(p) == _is_prime_by_trial_division(p), p

    def test_large_values_and_the_bound(self):
        # Mersenne primes, a Carmichael number, a product of two primes near
        # 1e11, and the least strong pseudoprime to the bases 2..37
        assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
        assert not is_prime(561) and not is_prime(100000000003 * 100000000019)
        assert not is_prime(318665857834031151167461)
        assert is_prime(1000000000000000000117)
        with pytest.raises(ParamOutOfRange, match="3317044064679887385961981"):
            is_prime(3317044064679887385961981)


class TestProvenConstruction:
    def test_constructors_skip_the_associativity_scan(self, monkeypatch):
        import pfg.core as core
        from pfg.tower import build_tower

        calls = []
        scan = core._scan_associativity
        monkeypatch.setattr(core, "_scan_associativity", lambda t: calls.append(t.shape[0]) or scan(t))
        direct_product(cyclic(4), units_mod(3, 2))
        sd = semidirect(cyclic(5), cyclic(2), inversion_action)
        D = dihedral(6).group
        for kind, params in (("zp", (2,)), ("zpn", (3, 2)), ("units_semidirect", (3,)), ("s3_times_z2", ())):
            build_tower(kind, params, 3)
        build_tower("product", (build_tower("zp", (2,), 2), build_tower("zp", (3,), 2)), 2)
        quotient(D, closure(D, [2]))
        subgroup_as_group(sd.group, sd.normal_part)
        assert calls == []
        build_from_table(z4_table())
        assert calls == [4]

    def test_broken_promise_is_a_group_error(self):
        shifted = np.roll(np.array(z4_table()), 1, axis=1)  # a*b = a+b-1: identity at index 1
        with pytest.raises(NoIdentity):
            FiniteGroup(shifted, validate=False, inv=[0, 3, 2, 1])
        with pytest.raises(MissingInverse):  # Z4 with 1 and 3 claimed self-inverse
            FiniteGroup(z4_table(), validate=False, inv=[0, 1, 2, 3])
        with pytest.raises(MissingInverse):
            FiniteGroup([[0, 1, 2], [1, 2, 2], [2, 2, 2]], validate=False, inv=[0, 2, 1])

    def test_inverses_are_required_and_range_checked(self):
        with pytest.raises(TypeError):
            FiniteGroup(z4_table(), validate=False)
        with pytest.raises(TypeError):
            FiniteGroup(z4_table(), inv=[0, 3, 2, 1])
        for bad in ([0, 3, 2, 4], [0, 3, 2, -1], [0, 3, 2], [0, 3, 2, 65537]):
            with pytest.raises(ParamOutOfRange):
                FiniteGroup(z4_table(), validate=False, inv=bad)

    def test_demo_takes_no_inverse_as_a_power(self, monkeypatch):
        import sys

        import pfg.core as core
        from pfg.cli import run_demo

        init, real, calls = FiniteGroup.__init__.__code__, core.power_map, []

        def counted(t, xs, e):
            if sys._getframe(1).f_code is init:
                calls.append((t.shape[0], e))
            return real(t, xs, e)

        monkeypatch.setattr(core, "power_map", counted)
        run_demo(3, 4)
        assert calls == []


class TestPowerMap:
    class CountingTable:
        def __init__(self, table):
            self.table, self.dtype, self.gathers = table, table.dtype, 0

        def __getitem__(self, key):
            self.gathers += 1
            return self.table[key]

    def test_powers_match_repeated_products_with_one_gather_per_step(self):
        from pfg.core import power_map

        for G in (s3_group(), cyclic(12), units_mod(3, 3)):
            xs = np.arange(G.order, dtype=np.int32)
            expected = np.zeros_like(xs)
            for e in range(3 * G.order):
                t = self.CountingTable(G.table)
                got = power_map(t, xs, e)
                assert np.array_equal(got, expected), (G, e)
                assert got.dtype == (xs.dtype if e == 0 else G.table.dtype)
                assert got is not xs
                # squarings up to the top bit, one product per further set bit
                assert t.gathers == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0)
                expected = G.table[expected, xs]


class TestClosure:
    def test_empty_generators(self):
        S = closure(s3_group(), [])
        assert S.size == 1

    def test_z4_two(self):
        S = closure(cyclic(4), [2])
        assert sorted(S.members.tolist()) == [0, 2]

    def test_s3_generators(self):
        G = s3_group()
        S = closure(G, [2, 1])  # a 3-cycle and a transposition
        assert S.size == 6

    def test_subgroup_validation(self):
        G = cyclic(4)
        with pytest.raises(GroupError):
            Subgroup(G, [0, 1])  # not closed: 1+1=2 missing

    def test_subgroup_does_not_alias_a_writable_bool_array(self):
        G = cyclic(4)
        bools = np.array([True, False, True, False])
        S = Subgroup(G, bools)
        bools[1] = True
        assert not np.shares_memory(S.bools, bools)
        assert S.members.tolist() == [0, 2] and S.size == 2
        assert not S.bools.flags.writeable
        assert bools.flags.writeable  # the caller's array is left as it was

    def test_whole_group_walk_runs_once_per_group(self, monkeypatch):
        import pfg.core as core

        calls = []
        walk = core._orbit_closure
        monkeypatch.setattr(core, "_orbit_closure", lambda *a: calls.append(1) or walk(*a))
        G = dihedral(6).group
        whole = np.ones(G.order, dtype=bool)
        assert Subgroup(G, whole).is_whole
        assert calls and G.generators()  # the walk ran, and generators() keeps it
        ran = len(calls)
        Subgroup(G, whole)
        assert len(calls) == ran


def _normality_oracle(G, S):
    """(is_normal, normal closure, core) of S from the n x |S| matrix of all
    its conjugates: the reference the generator-based routines replace."""
    m = S.members
    conj = G.table[G.table[:, m], G.inv[:, None]]  # conj[g, j] = g*s_j*g^-1
    # s_j lies in the core iff every conjugate of s_j stays inside S
    return bool(S.bools[conj].all()), closure(G, np.unique(conj)), Subgroup(G, m[S.bools[conj].all(axis=0)])


def _assert_normality_matches_oracle(G, S):
    normal, nc, core = _normality_oracle(G, S)
    assert is_normal(G, S) == normal, (G.label, S)
    assert normal_closure(G, S.members) == nc, (G.label, S)
    assert normal_core(G, S) == core, (G.label, S)


def _permutation_group(k):
    """S_k from its permutation table; the identity permutation comes first."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return build_from_table([[index[tuple(p[i] for i in q)] for q in perms] for p in perms]), perms


class TestNormalityOps:
    def test_whole_group(self):
        G = s3_group()
        S = whole_subgroup(G)
        assert is_normal(G, S) and normal_closure(G, S.members).is_whole and normal_core(G, S).is_whole

    def test_s3_order_two(self):
        G = s3_group()
        S = closure(G, [1])
        assert not is_normal(G, S)
        assert normal_closure(G, [1]).is_whole
        assert normal_core(G, S).is_trivial

    def test_s3_order_three(self):
        G = s3_group()
        S = closure(G, [2])
        assert is_normal(G, S) and normal_closure(G, [2]) == S and normal_core(G, S) == S

    def test_empty_and_bad_generators(self):
        G = s3_group()
        assert normal_closure(G, []).is_trivial
        with pytest.raises(ParamOutOfRange):
            normal_closure(G, [6])
        with pytest.raises(DifferentParents):
            normal_core(G, whole_subgroup(s3_group()))

    def test_catalog_subgroups_match_oracle(self):
        from pfg.catalog import builtin_entries
        from pfg.lattice import all_subgroups

        pairs = 0
        for entry in builtin_entries(100):
            for S in all_subgroups(entry.group).entries:
                _assert_normality_matches_oracle(entry.group, S)
                pairs += 1
        assert pairs == 285

    def test_tower_levels_match_oracle(self):
        """Every subgroup of every builder's levels at depth 3, the order-486
        paper level among them."""
        from pfg.lattice import all_subgroups

        orders = []
        for _, levels, _ in _builder_levels(3):
            for G in levels:
                orders.append(G.order)
                for S in all_subgroups(G).entries:
                    _assert_normality_matches_oracle(G, S)
        assert 486 in orders

    def test_order_4374_level(self):
        """The oracle only where its n x |S| matrix is small; S = G by its closed form."""
        sd = unit_semidirect_level(3, 4)
        G = sd.group
        for S in (sd.normal_part, sd.acting_part, trivial_subgroup(G), closure(G, [G.order - 1])):
            _assert_normality_matches_oracle(G, S)
        assert normal_core(G, whole_subgroup(G)).is_whole
        assert normal_core(G, sd.normal_part) == sd.normal_part
        assert normal_core(G, sd.acting_part).is_trivial
        assert normal_closure(G, sd.normal_part.members) == sd.normal_part

    @pytest.mark.parametrize("k", [4, 5])
    def test_core_of_point_stabilizer_needs_several_drop_passes(self, k):
        """In S_k the stabilizer of a point has a trivial core, and one pass
        that drops members with a conjugate outside S leaves more than that."""
        G, perms = _permutation_group(k)
        S = Subgroup(G, [i for i, p in enumerate(perms) if p[-1] == k - 1])
        g = np.asarray(G.generators())
        conj = G.table[G.table[g[:, None], S.members], G.inv[g][:, None]]
        assert S.bools[conj].all(axis=0).sum() > 1  # what a single pass would keep
        assert normal_core(G, S).is_trivial
        _assert_normality_matches_oracle(G, S)


class TestQuotient:
    def test_by_whole_group(self):
        G = s3_group()
        Q, proj = quotient(G, whole_subgroup(G))
        assert Q.order == 1
        assert all(proj(x) == 0 for x in range(G.order))

    def test_s3_by_c3(self):
        G = s3_group()
        Q, proj = quotient(G, closure(G, [2]))
        assert Q.order == 2
        assert hom_parts(proj).kernel.size == 3

    def test_z4_by_two(self):
        G = cyclic(4)
        N = closure(G, [2])
        Q, proj = quotient(G, N)
        assert Q.order == 2
        assert proj(1) == 1
        assert hom_parts(proj).kernel == N

    def test_not_normal(self):
        G = s3_group()
        with pytest.raises(NotNormal):
            quotient(G, closure(G, [1]))

    def test_table_gathered_in_row_blocks(self):
        """By the trivial subgroup the quotient is G again: 486 rows are seven
        whole blocks of 64 and a part block."""
        G = unit_semidirect_level(3, 3).group
        Q, proj = quotient(G, trivial_subgroup(G))
        assert np.array_equal(proj.map, np.arange(G.order))
        assert np.array_equal(Q.table, G.table) and np.array_equal(Q.inv, G.inv)


class TestHoms:
    def test_identity_parts(self):
        G = s3_group()
        parts = hom_parts(identity_hom(G))
        assert parts.kernel.is_trivial and parts.image.is_whole
        assert parts.is_injective and parts.is_surjective

    def test_doubling_on_z4(self):
        G = cyclic(4)
        f = GroupHom(G, G, [0, 2, 0, 2])
        parts = hom_parts(f)
        assert sorted(parts.kernel.members.tolist()) == [0, 2]
        assert sorted(parts.image.members.tolist()) == [0, 2]

    def test_sign_map(self):
        G = s3_group()
        sign = GroupHom(G, cyclic(2), [x % 2 for x in range(6)])
        parts = hom_parts(sign)
        assert parts.kernel.size == 3
        assert parts.is_surjective

    def test_invalid_hom_rejected(self):
        G = cyclic(4)
        with pytest.raises(NotAHomomorphism):
            GroupHom(G, G, [0, 1, 3, 2])

    def test_hom_witness_really_fails(self):
        sd = unit_semidirect_level(3, 2)
        G = sd.group
        good = scale_first_map(G, 3, sd.acting_order)
        GroupHom(G, G, good)
        rng = np.random.default_rng(7)
        for bad in (good[rng.permutation(G.order)], np.where(np.arange(G.order) == 17, good[18], good)):
            with pytest.raises(NotAHomomorphism) as exc:
                GroupHom(G, G, bad)
            x, y = exc.value.witness
            assert bad[G.table[x, y]] != G.table[bad[x], bad[y]]

    def test_trivial_domain_must_hit_identity(self):
        with pytest.raises(NotAHomomorphism) as exc:
            GroupHom(cyclic(1), cyclic(2), [1])
        assert exc.value.witness == (0, 0)

    def test_compose_identity(self):
        G = s3_group()
        C2 = cyclic(2)
        sign = GroupHom(G, C2, [x % 2 for x in range(6)])
        assert compose(identity_hom(G), sign) == sign
        assert compose(sign, identity_hom(C2)) == sign

    def test_compose_doubling_on_z8(self):
        G = cyclic(8)
        d = GroupHom(G, G, [(2 * x) % 8 for x in range(8)])
        dd = compose(d, d)
        assert dd.map.tolist() == [(4 * x) % 8 for x in range(8)]

    def test_sign_after_inclusion_is_constant(self):
        G = s3_group()
        from pfg.core import subgroup_as_group

        C3, incl = subgroup_as_group(G, closure(G, [2]))
        sign = GroupHom(G, cyclic(2), [x % 2 for x in range(6)])
        comp = compose(incl, sign)
        assert comp.map.tolist() == [0, 0, 0]

    def test_compose_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            compose(identity_hom(cyclic(2)), identity_hom(cyclic(3)))

    def test_preimage_examples(self):
        G = cyclic(4)
        f = GroupHom(G, G, [0, 2, 0, 2])
        assert preimage(f, whole_subgroup(G)).is_whole
        assert preimage(f, closure(G, [2])).is_whole  # 2x always lands in {0,2}
        assert preimage(identity_hom(G), closure(G, [2])) == closure(G, [2])

    def test_order_product_law(self):
        G = s3_group()
        sign = GroupHom(G, cyclic(2), [x % 2 for x in range(6)])
        parts = hom_parts(sign)
        assert G.order == parts.kernel.size * parts.image.size


class TestNilpotency:
    def test_abelian(self):
        rep = nilpotency(cyclic(12))
        assert rep.is_nilpotent and rep.nilpotency_class <= 1 and rep.is_solvable

    def test_s3(self):
        rep = nilpotency(s3_group())
        assert not rep.is_nilpotent
        assert rep.nilpotency_class is None
        assert rep.is_solvable
        # derived subgroup is the rotation subgroup, and it is stable
        assert rep.lower_central_series[-1].size == 3

    def test_dihedral_8_class_two(self):
        rep = nilpotency(dihedral(4).group)
        assert rep.is_nilpotent and rep.nilpotency_class == 2
        assert [s.size for s in rep.lower_central_series] == [8, 2, 1]


class TestLagrange:
    def test_all_closures_divide(self):
        G = dihedral(6).group
        for x in range(G.order):
            for y in range(G.order):
                S = closure(G, [x, y])
                assert G.order % S.size == 0


class TestCatalogConstructDispatch:
    def test_direct_product(self):
        G = direct_product(cyclic(2), cyclic(3))
        assert G.order == 6 and G.is_abelian()


def _digit_ref(order, bases_in, bases_out, digit_maps):
    """Plain reference for a coordinatewise map: x read as digits in the mixed
    radix ``bases_in`` (most significant first) by divmod, each digit sent
    through its map, and the images read back in the radix ``bases_out``."""
    out = []
    for x in range(order):
        digits = []
        for base in reversed(bases_in):
            x, d = divmod(x, base)
            digits.append(d)
        y = 0
        for base, fn, d in zip(bases_out, digit_maps, reversed(digits)):
            y = y * base + fn(d)
        out.append(y)
    return out


def _units(p, k):
    return [r for r in range(1, p**k) if r % p]


# kind: (build_tower arguments, radix of level k, digit maps of the
# endomorphism at level k, digit maps of the connecting map from k + 1 to k)
_TOWER_CASES = {
    "zpn(2,3)": (
        ("zpn", (2, 3)),
        lambda k: (2**k,) * 3,
        lambda k: (lambda d: 2 * d % 2**k,) * 3,
        lambda k: (lambda d: d % 2**k,) * 3,
    ),
    "units_semidirect(3)": (
        ("units_semidirect", (3,)),
        lambda k: (3**k, len(_units(3, k))),
        lambda k: (lambda a: 3 * a % 3**k, lambda u: u),
        lambda k: (lambda a: a % 3**k, lambda u: _units(3, k).index(_units(3, k + 1)[u] % 3**k)),
    ),
    "s3_times_z2()": (
        ("s3_times_z2", ()),
        lambda k: (6, 2**k),
        lambda k: (lambda s: 0, lambda x: 2 * x % 2**k),
        lambda k: (lambda s: s, lambda x: x % 2**k),
    ),
    "product(zp(2),zp(3))": (
        ("product", None),
        lambda k: (2**k, 3**k),
        lambda k: (lambda a: 2 * a % 2**k, lambda b: 3 * b % 3**k),
        lambda k: (lambda a: a % 2**k, lambda b: b % 3**k),
    ),
}


class TestPairMapReference:
    """Every map built on pair-encoded elements against a divmod loop."""

    def test_catalog_pair_endos(self):
        from pfg.catalog import builtin_entries

        entries = {e.group.label: e for e in builtin_entries(500)}
        double, triple, keep, kill = (lambda a: 2 * a % 4), (lambda b: 3 * b % 9), (lambda x: x), (lambda x: 0)
        shipped = {
            "Z4xZ9": (9, [(double, keep), (keep, triple), (double, triple)]),
            "S3xZ4": (4, [(keep, double), (keep, kill)]),
        }
        for label, (nb, maps) in shipped.items():
            G, endos = entries[label].group, [f.map.tolist() for f in entries[label].endos]
            for left, right in maps:
                assert _digit_ref(G.order, (G.order // nb, nb), (G.order // nb, nb), (left, right)) in endos, label

        scales = {"A4": (0,), "H27": (0,)}
        scales.update({f"D{2 * n}": (0, 2, n) for n in (3, 4, 6)})
        scales.update({f"Z{p**k}:U{p**k}": (0, p) for p, kmax in ((2, 3), (3, 3), (5, 2)) for k in range(1, kmax + 1)})
        semidirect = [e for e in entries.values() if e.semidirect is not None]
        assert len(semidirect) == 13
        for e in semidirect:
            nn, nh = e.semidirect.normal_order, e.semidirect.acting_order
            endos = [f.map.tolist() for f in e.endos]
            for m in scales[e.group.label]:
                assert _digit_ref(nn * nh, (nn, nh), (nn, nh), (lambda a: m * a % nn, lambda h: h)) in endos

    def test_scale_first_map_on_catalog_semidirect_groups(self):
        from pfg.catalog import builtin_entries

        for e in builtin_entries(500):
            if e.semidirect is None:
                continue
            nn, nh = e.semidirect.normal_order, e.semidirect.acting_order
            for m in [*range(-1, nn + 2), 10**20, 2**62 + 1]:
                want = _digit_ref(nn * nh, (nn, nh), (nn, nh), (lambda a: m * a % nn, lambda h: h))
                assert scale_first_map(e.group, m, nh).tolist() == want, (e.group.label, m)

    @pytest.mark.parametrize("case", sorted(_TOWER_CASES))
    def test_tower_maps_at_depth_3(self, case):
        from pfg.tower import build_tower

        (kind, params), radix, endo_digits, down_digits = _TOWER_CASES[case]
        if params is None:
            params = (build_tower("zp", (2,), 3), build_tower("zp", (3,), 3))
        T, F = build_tower(kind, params, 3)
        for k in range(1, 4):
            order = T.levels[k - 1].order
            assert F.endos[k - 1].map.tolist() == _digit_ref(order, radix(k), radix(k), endo_digits(k)), k
        for k in range(1, 3):
            # the right factor's order changes from level k + 1 to level k
            order = T.levels[k].order
            want = _digit_ref(order, radix(k + 1), radix(k), down_digits(k))
            assert T.connecting[k - 1].map.tolist() == want, k
