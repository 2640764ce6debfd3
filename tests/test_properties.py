"""Property tests for the algebraic laws the library promises."""

import itertools
import signal
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from pfg.catalog import builtin_entries, paper_example_level, random_endo, random_subgroup
from pfg.core import (
    BadAction,
    FiniteGroup,
    GroupError,
    GroupHom,
    NotAssociative,
    PairTable,
    Subgroup,
    _orbit_closure,
    _scan_associativity,
    closure,
    conjugation_hom,
    derived_series,
    extend_images,
    hom_parts,
    is_normal,
    lower_central_series,
    nilpotency,
    preimage,
    product_covers,
    quotient,
    subgroup_as_group,
    trivial_subgroup,
    whole_subgroup,
)
from pfg.dsl import ScenarioError, _expand_hom
from pfg.endo import (
    EndoSemigroup,
    _deep_power,
    _eventual_cycle_containment,
    _window_all,
    contraction,
    hom_search,
    semigroup_contraction,
    shrinkind_check,
)
from pfg.construct import _full_table, cyclic, direct_product, is_prime, semidirect, unit_semidirect_level
from pfg.lattice import (
    AutoSet,
    _adjunction_enumeration,
    _Budget,
    _normal_lattice,
    _zuppos,
    all_subgroups,
    enumerate_normals,
    o_pi,
    prime_factors,
    residual_intersection,
)
from pfg.tower import build_tower


def _scan_associativity_full(table: np.ndarray) -> None:
    """Oracle: compare (a*b)*c with a*(b*c) on every triple, one row of a at a time."""
    n = table.shape[0]
    for a in range(n):
        left = table[table[a], :]
        right = table[a, table]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            raise NotAssociative(a, int(b), int(c))


def _quotient_by_least_element(G: FiniteGroup, N) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: quotient table and projection from the n x |N| coset matrix."""
    rep = G.table[:, N.members].min(axis=1)  # x -> least element of x*N
    reps = np.unique(rep)
    pos = np.full(G.order, -1, dtype=np.int32)
    pos[reps] = np.arange(reps.size, dtype=np.int32)
    return pos[rep[G.table[np.ix_(reps, reps)]]], pos[rep]


def _orbit_closure_all_generators(table: np.ndarray, gens) -> np.ndarray:
    """Oracle: breadth-first saturation by every generator at every step."""
    seen = np.zeros(table.shape[0], dtype=bool)
    seen[0] = True
    garr = np.asarray(list(gens), dtype=np.int64)
    frontier = np.array([0])
    while frontier.size and garr.size:
        prods = np.unique(table[np.ix_(frontier, garr)])
        frontier = prods[~seen[prods]]
        seen[frontier] = True
    return seen


def is_pi_number(m: int, primes) -> bool:
    """Oracle helper: every prime factor of m lies in ``primes``."""
    return prime_factors(m) <= set(primes)


def _o_pi_meet(G: FiniteGroup, primes) -> np.ndarray:
    """Oracle: meet of all normal subgroups whose index is a pi-number."""
    meet = np.ones(G.order, dtype=bool)
    for N in enumerate_normals(G):
        if is_pi_number(N.index, primes):
            meet &= N.bools
    return meet


def _validate_closed_quadratic(G: FiniteGroup, bools: np.ndarray) -> None:
    """Oracle: identity, inverses, then every product of two members."""
    if not bools[0]:
        raise GroupError("subgroup must contain the identity")
    m = np.flatnonzero(bools)
    if not bools[G.inv[m]].all():
        raise GroupError("set is not closed under inverses")
    if not bools[G.table[np.ix_(m, m)]].all():
        raise GroupError("set is not closed under multiplication")


def _orbit_hits_identity_loop(f_arr: np.ndarray) -> np.ndarray:
    """Oracle: f^1, then n+2 more gathers; x is marked when some f^m(x),
    m in [1, n+3], is the identity."""
    n = f_arr.shape[0]
    y = f_arr.copy()
    hit = y == 0
    for _ in range(min(2 * n, n + 2)):
        y = f_arr[y]
        hit |= y == 0
    return hit


def _simulation_loop(tau: np.ndarray, k_bools: np.ndarray) -> np.ndarray:
    """Oracle: 2n steps of tau, demanding membership in K for m in [n, 2n]."""
    n = tau.shape[0]
    y = np.arange(n)
    sim = np.ones(n, dtype=bool)
    for step in range(2 * n):
        y = tau[y]
        if step >= n - 1:
            sim &= k_bools[y]
    return sim


def _cycle_walk_oracle(tau: np.ndarray, k_bools: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: walk each eventual cycle of tau in Python, one step per element;
    an element contracts into K iff its whole eventual cycle lies in K."""
    n = tau.shape[0]
    rho = _deep_power(tau)
    cyc = np.unique(rho)
    ok = np.zeros(n, dtype=bool)
    visited = np.zeros(n, dtype=bool)
    for c in cyc:
        c = int(c)
        if visited[c]:
            continue
        loop = [c]
        visited[c] = True
        x = int(tau[c])
        while x != c:
            loop.append(x)
            visited[x] = True
            x = int(tau[x])
        if k_bools[loop].all():
            ok[loop] = True
    stable = np.zeros(n, dtype=bool)
    stable[cyc] = True
    return ok[rho], stable


def conjugacy_classes(G: FiniteGroup) -> list[np.ndarray]:
    """Oracle helper: every conjugacy class, as ascending element indices."""
    t, inv = G.table, G.inv
    done = np.zeros(G.order, dtype=bool)
    classes = []
    for x in range(G.order):
        if done[x]:
            continue
        orbit = np.unique(t[t[:, x], inv])
        done[orbit] = True
        classes.append(orbit)
    return classes


def _normal_lattice_product_joins(G: FiniteGroup) -> set[bytes]:
    """Oracle: class closures saturated under joins formed as product sets a*s."""
    t = G.table
    seeds = {}
    for cls in conjugacy_classes(G):
        b = _orbit_closure_all_generators(t, cls)
        seeds.setdefault(b.tobytes(), b)
    found = dict(seeds)
    work = list(seeds.values())
    while work:
        a = work.pop()
        am = np.flatnonzero(a)
        for s in seeds.values():
            join = np.zeros(G.order, dtype=bool)
            join[np.unique(t[np.ix_(am, np.flatnonzero(s))])] = True
            if join.tobytes() not in found:
                found[join.tobytes()] = join
                work.append(join)
    return set(found)


ENTRIES = [e for e in builtin_entries(100)]
entry_st = st.integers(min_value=0, max_value=len(ENTRIES) - 1).map(lambda i: ENTRIES[i])


@settings(max_examples=60, deadline=None)
@given(entry=entry_st, seed=st.integers(0, 2**32 - 1))
def test_random_endos_satisfy_hom_law(entry, seed):
    rng = np.random.default_rng(seed)
    f = random_endo(entry, rng)
    G = entry.group
    xs = rng.integers(0, G.order, size=16)
    ys = rng.integers(0, G.order, size=16)
    for x, y in zip(xs, ys):
        assert f.map[G.table[x, y]] == G.table[f.map[x], f.map[y]]


@settings(max_examples=60, deadline=None)
@given(entry=entry_st, seed=st.integers(0, 2**32 - 1))
def test_lagrange_and_kernel_image_product(entry, seed):
    rng = np.random.default_rng(seed)
    G = entry.group
    S = random_subgroup(G, rng)
    assert G.order % S.size == 0
    f = random_endo(entry, rng)
    parts = hom_parts(f)
    assert G.order == parts.kernel.size * parts.image.size


@settings(max_examples=60, deadline=None)
@given(entry=entry_st, seed=st.integers(0, 2**32 - 1))
def test_preimage_of_normal_is_normal(entry, seed):
    rng = np.random.default_rng(seed)
    G = entry.group
    f = random_endo(entry, rng)
    normals = enumerate_normals(G)
    N = normals[int(rng.integers(0, len(normals)))]
    assert is_normal(G, preimage(f, N))


@settings(max_examples=60, deadline=None)
@given(entry=entry_st, seed=st.integers(0, 2**32 - 1))
def test_contraction_chain_shape(entry, seed):
    rng = np.random.default_rng(seed)
    f = random_endo(entry, rng)
    rep = contraction(f)
    sizes = [s.size for s in rep.kernel_chain]
    for i in range(rep.depth):
        assert sizes[i] < sizes[i + 1]
    assert sizes[rep.depth] == sizes[rep.depth + 1]
    assert 2**rep.depth <= max(2 ** rep.depth, entry.group.order)
    assert rep.depth <= np.log2(entry.group.order) + 1e-9 if entry.group.order > 1 else rep.depth == 0


def _eager_chains(G: FiniteGroup, tail: np.ndarray, k_bools: np.ndarray) -> tuple[list[Subgroup], list[Subgroup]]:
    """Oracle: both chains built up front, one validated Subgroup per power
    tail^0, tail^1, ... until ker tail^m stops growing, and one power past."""
    p = np.arange(G.order)
    kernels: list[Subgroup] = []
    images: list[Subgroup] = []
    sizes = [-1]
    while len(sizes) < 3 or sizes[-1] != sizes[-2]:
        kernels.append(Subgroup(G, k_bools[p]))
        images.append(Subgroup(G, p))
        sizes.append(int((p == 0).sum()))
        p = tail[p]
    return kernels, images


def _assert_chains_match(rep, want: tuple[list[Subgroup], list[Subgroup]]) -> None:
    for got, chain in zip((rep.kernel_chain, rep.image_chain), want):
        assert len(got) == len(chain) == rep.depth + 2
        for a, b in zip(got, chain):
            assert a == b and a.size == b.size and np.array_equal(a.members, b.members)


def test_lazy_chains_match_eager_construction():
    cases = [(e.group, [f.map for f in e.endos]) for e in builtin_entries(500)]
    for p, k in ((2, 6), (7, 2)):  # orders 2048 and 2058
        sd, phi = paper_example_level(p, k)
        conj = conjugation_hom(sd.group, int(sd.acting_part.members[1]))
        cases.append((sd.group, [phi.map, phi.map[conj.map]]))
    rng = np.random.default_rng(14)
    for G, maps in cases:
        trivial = np.zeros(G.order, dtype=bool)
        trivial[0] = True
        for f in maps:
            hom = GroupHom(G, G, f, validate=False)
            _assert_chains_match(contraction(hom), _eager_chains(G, f, trivial))
            S = EndoSemigroup(G, [hom])
            _assert_chains_match(semigroup_contraction(S), _eager_chains(G, f, trivial))
            K = random_subgroup(G, rng)
            _assert_chains_match(semigroup_contraction(S, K), _eager_chains(G, f, K.bools))


@settings(max_examples=60, deadline=None)
@given(entry=entry_st, seed=st.integers(0, 2**32 - 1))
def test_shrinkind_random(entry, seed):
    rng = np.random.default_rng(seed)
    f = random_endo(entry, rng)
    K = random_subgroup(entry.group, rng)
    assert shrinkind_check(entry.group, f, K).passed


@settings(max_examples=30, deadline=None)
@given(entry=entry_st)
def test_residual_monotone_and_family_shrinks(entry):
    G = entry.group
    sizes = [residual_intersection(G, n).size for n in (1, 2, 3, 4, G.order)]
    assert sizes == sorted(sizes, reverse=True)
    autos = AutoSet(G, tuple(f for f in entry.endos if np.unique(f.map).size == G.order))
    for n in (2, G.order):
        plain = residual_intersection(G, n)
        invariant = residual_intersection(G, n, autos)
        # a larger automorphism set filters the family, so the meet can only grow
        assert not bool((plain.bools & ~invariant.bools).any())


@settings(max_examples=30, deadline=None)
@given(entry=entry_st, seed=st.integers(0, 2**32 - 1))
def test_quotient_laws(entry, seed):
    rng = np.random.default_rng(seed)
    G = entry.group
    normals = enumerate_normals(G)
    N = normals[int(rng.integers(0, len(normals)))]
    Q, proj = quotient(G, N)
    parts = hom_parts(proj)
    assert parts.kernel == N
    assert Q.order == G.order // N.size
    assert parts.is_surjective


@settings(max_examples=30, deadline=None)
@given(entry=entry_st)
def test_o_pi_laws(entry):
    G = entry.group
    for primes in ({2}, {3}, {2, 3}):
        N = o_pi(G, primes)
        assert is_pi_number(G.order // N.size, primes)


def test_constructed_groups_pass_full_associativity_scan():
    # includes derived groups: quotients and subgroups-as-groups
    for entry in builtin_entries(60):
        G = entry.group
        _scan_associativity_full(G.table)
        normals = enumerate_normals(G)
        Q, _ = quotient(G, normals[-1] if not normals[-1].is_whole else normals[0])
        _scan_associativity_full(Q.table)
        S = closure(G, [1 % G.order])
        H, _ = subgroup_as_group(G, S)
        _scan_associativity_full(H.table)


def _inverse_walk(table) -> np.ndarray:
    """Oracle for inverses: x^(n-1) by square and multiply, from the identity."""
    n = table.shape[0]
    result, base, e = np.zeros(n, dtype=np.int64), np.arange(n), n - 1
    while e:
        if e & 1:
            result = table[result, base]
        base = table[base, base]
        e >>= 1
    return result


def test_constructed_groups_pass_light_test_and_keep_their_inverses():
    # constructors skip Light's test (groups by proof), so run the raw-table
    # proof on every tower builder's levels, both paper levels and order 4374;
    # their inverses come from the construction and must equal x^(n-1)
    towers = [("zp", (2,)), ("zp", (3,)), ("zpn", (2, 2)), ("units_semidirect", (2,))]
    towers += [("units_semidirect", (3,)), ("s3_times_z2", ())]
    towers.append(("product", (build_tower("zp", (2,), 3), build_tower("zp", (3,), 3))))
    proved = [G for kind, params in towers for G in build_tower(kind, params, 3)[0].levels]
    proved += [paper_example_level(2, 6)[0].group, paper_example_level(7, 2)[0].group]
    proved.append(unit_semidirect_level(3, 4).group)
    assert isinstance(proved[-1].table, PairTable)  # order 4374 is kept factored
    for G in proved:
        assert _scan_associativity(_full_table(G)) == G.generators()
    derived = []
    for entry in builtin_entries(500):
        G = entry.group
        normals = enumerate_normals(G)
        N = normals[len(normals) // 2]
        derived += [G, quotient(G, N)[0], subgroup_as_group(G, N)[0]]
    assert sum(H.order > 1 for H in derived) > 2 * len(derived) // 3  # not a run of trivial groups
    for G in proved + derived:
        idx, table = np.arange(G.order), _full_table(G)
        assert np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)
        assert np.array_equal(G.inv, _inverse_walk(G.table)), G
        assert np.array_equal(G.inv, np.argmax(table == 0, axis=1)), G


def test_identity_and_inverse_laws_hold_everywhere():
    for entry in builtin_entries(60):
        G = entry.group
        n = G.order
        idx = np.arange(n)
        assert np.array_equal(G.table[0], idx) and np.array_equal(G.table[:, 0], idx)
        assert np.array_equal(G.table[idx, G.inv], np.zeros(n, dtype=G.table.dtype))


@settings(max_examples=200, deadline=None)
@given(entry=entry_st, data=st.data())
def test_one_corrupted_entry_accepted_only_if_oracle_accepts(entry, data):
    t = entry.group.table.copy()
    n = t.shape[0]
    a, b, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    t[a, b] = v
    try:
        FiniteGroup(t)
    except NotAssociative as exc:
        x, y, z = exc.triple
        assert t[t[x, y], z] != t[x, t[y, z]]
    except GroupError:
        pass
    else:
        _scan_associativity_full(t)


SMALL = [e.group for e in builtin_entries(12)]


@lru_cache(maxsize=None)
def _automorphisms(i: int) -> tuple[np.ndarray, ...]:
    N = SMALL[i]
    return tuple(w.map for w in hom_search(N, N, witness_cap=10**6).witnesses)


def _is_action_brute(N: FiniteGroup, H: FiniteGroup, act: np.ndarray) -> bool:
    """Oracle: every row an automorphism of N, and act_(xy) = act_x after act_y, on all pairs."""
    autos = all(sorted(a) == list(range(N.order)) and np.array_equal(a[N.table], N.table[np.ix_(a, a)]) for a in act)
    return autos and np.array_equal(act[H.table], act[:, act])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_action_is_rejected_or_gives_a_group(data):
    # rows are powers of one automorphism over a cyclic H (a valid action when
    # its order divides |H|) or the identity over any small H, and then some
    # rows are replaced by other automorphisms or by permutations fixing 0
    i = data.draw(st.integers(0, len(SMALL) - 1))
    N, autos = SMALL[i], _automorphisms(i)
    n = N.order
    if data.draw(st.booleans()):
        H = cyclic(data.draw(st.integers(1, 6)))
        alpha = autos[data.draw(st.integers(0, len(autos) - 1))]
        act = np.empty((H.order, n), dtype=np.int32)
        act[0] = np.arange(n)
        for h in range(1, H.order):
            act[h] = alpha[act[h - 1]]
    else:
        H = SMALL[data.draw(st.integers(0, len(SMALL) - 1))]
        act = np.tile(np.arange(n, dtype=np.int32), (H.order, 1))
    for _ in range(data.draw(st.integers(0, 2))):
        h = data.draw(st.integers(0, H.order - 1))
        if data.draw(st.booleans()):
            act[h] = autos[data.draw(st.integers(0, len(autos) - 1))]
        else:
            act[h] = [0, *data.draw(st.permutations(range(1, n)))]
    try:
        G = semidirect(N, H, act).group
    except BadAction:
        assert not _is_action_brute(N, H, act)
        return
    _scan_associativity_full(G.table)
    assert _is_action_brute(N, H, act)


def test_is_normal_matches_conjugation_by_every_element():
    for entry in builtin_entries(60):
        G = entry.group
        catalog = all_subgroups(G)
        assert catalog.complete
        for S in catalog.entries:
            conj = G.table[G.table[:, S.members], G.inv[:, None]]
            assert is_normal(G, S) == bool(S.bools[conj].all()), (G, S)


def test_product_covers_matches_all_pairs_set_product():
    outcomes = set()
    for entry in builtin_entries(60):
        G = entry.group
        catalog = all_subgroups(G)
        assert catalog.complete
        tbl = G.table.tolist()
        members = [S.members.tolist() for S in catalog.entries]
        for (S1, m1), (S2, m2) in itertools.product(zip(catalog.entries, members), repeat=2):
            want = len({tbl[a][b] for a in m1 for b in m2}) == G.order
            assert product_covers(G, S1, S2) == want, (G, S1, S2)
            outcomes.add((want, S1 == S2, S1.is_trivial or S1.is_whole))
        T, W = trivial_subgroup(G), whole_subgroup(G)
        assert product_covers(G, T, W) and product_covers(G, W, T) and product_covers(G, W, W)
        assert product_covers(G, T, T) == (G.order == 1)
    # covering and non-covering pairs, with S1 = S2 and trivial or whole factors
    # among them; S*S = S covers only when S is whole
    assert outcomes == set(itertools.product((False, True), repeat=3)) - {(True, True, False)}


def test_quotient_matches_least_element_oracle():
    groups = [e.group for e in builtin_entries(60)]
    groups += [paper_example_level(p, k)[0].group for p, k in ((3, 3), (2, 5))]
    for G in groups:
        normals = enumerate_normals(G)
        assert normals[0].is_trivial and normals[-1].is_whole
        for N in normals:
            Q, proj = quotient(G, N)
            qtable, projmap = _quotient_by_least_element(G, N)
            assert np.array_equal(Q.table, qtable), (G, N)
            assert np.array_equal(proj.map, projmap), (G, N)


CLOSURE_GROUPS = [e.group for e in builtin_entries(100)] + [paper_example_level(3, 3)[0].group]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_orbit_closure_matches_all_generator_oracle(data):
    G = data.draw(st.sampled_from(CLOSURE_GROUPS))
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=12))
    if gens:
        # repeats, and products of drawn generators, which are redundant
        pair = st.tuples(st.sampled_from(gens), st.sampled_from(gens))
        for a, b in data.draw(st.lists(pair, max_size=6)):
            gens += [a, int(G.table[a, b])]
        gens = data.draw(st.permutations(gens))
    assert np.array_equal(_orbit_closure(G.table, gens), _orbit_closure_all_generators(G.table, gens))


def _extend_pairwise(tG: np.ndarray, tH: np.ndarray, pairs) -> tuple[np.ndarray, np.ndarray] | None:
    """Oracle: close the given elements under products on both sides and
    check the law on every pair met.  None when an element is given two
    images or the law fails, else (members, images)."""
    img = np.full(tG.shape[0], -1, dtype=np.int64)
    img[0] = 0
    elems, work = [0], []
    for x, y in pairs:
        if img[x] != -1 and img[x] != y:
            return None
        if img[x] == -1:
            img[x] = y
            elems.append(x)
            work.append(x)
    while work:
        z = work.pop()
        for x in list(elems):
            for p, q in ((tG[x, z], tH[img[x], img[z]]), (tG[z, x], tH[img[z], img[x]])):
                if img[p] == -1:
                    img[p] = q
                    elems.append(p)
                    work.append(p)
                elif img[p] != q:
                    return None
    return np.sort(elems), img


HOM_ENTRIES = builtin_entries(60)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_extend_images_matches_pairwise_oracle(data):
    entry = data.draw(st.sampled_from(HOM_ENTRIES))
    G = entry.group
    keys = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    if data.draw(st.booleans()):
        # images under a known endomorphism always extend
        f = data.draw(st.sampled_from(entry.endos))
        H, pairs = G, [(x, int(f.map[x])) for x in keys]
    else:
        H = data.draw(st.sampled_from(HOM_ENTRIES)).group
        pairs = [(x, data.draw(st.integers(0, H.order - 1))) for x in keys]
    if keys:
        # a key given again, with a drawn image that may conflict
        for x in data.draw(st.lists(st.sampled_from(keys), max_size=2)):
            pairs.append((x, data.draw(st.integers(0, H.order - 1))))
    want = _extend_pairwise(G.table, H.table, pairs)

    given_images = {0: 0}
    if all(given_images.setdefault(x, y) == y for x, y in pairs):
        img = np.zeros(G.order, dtype=np.int64)
        img[list(given_images)] = list(given_images.values())
        members, witness = extend_images(G.table, list(given_images), img, lambda a, b: H.table[a, b])
        assert (witness is None) == (want is not None)
        if want is not None:
            assert np.array_equal(members, want[0])
            assert np.array_equal(img[members], want[1][members])
        else:
            x, g = witness
            assert img[G.table[x, g]] != H.table[img[x], img[g]]
    else:
        assert want is None

    try:
        got = _expand_hom(G, H, pairs, SimpleNamespace(line=1, column=1))
    except ScenarioError as exc:
        assert exc.kind == "NotAHomomorphism"
        got = None
    full = want is not None and want[0].size == G.order
    assert (got is not None) == full
    if full:
        assert np.array_equal(got, want[1])


def test_hom_search_matches_brute_force():
    """Counts and witnesses of injective homomorphisms equal those found by
    trying every image tuple for the generators with the pairwise oracle."""
    groups = [e.group for e in builtin_entries(16)]
    for G, T in itertools.product(groups, groups):
        res = hom_search(G, T, witness_cap=T.order**2)
        if T.order % G.order:
            assert res.count == 0
            continue
        gens = G.generators()
        maps = set()
        for images in itertools.product(range(T.order), repeat=len(gens)):
            got = _extend_pairwise(G.table, T.table, list(zip(gens, images)))
            if got is not None and got[0].size == G.order and np.unique(got[1]).size == G.order:
                maps.add(tuple(got[1].tolist()))
        assert res.count == len(res.witnesses) == len(maps), (G, T)
        assert {tuple(w.map.tolist()) for w in res.witnesses} == maps, (G, T)


def test_o_pi_matches_meet_oracle_for_every_prime_set():
    for entry in ENTRIES:
        G = entry.group
        primes = sorted(prime_factors(G.order))
        outside = next(q for q in range(2, 200) if is_prime(q) and G.order % q)
        for k in range(len(primes) + 1):
            for subset in itertools.combinations(primes, k):
                for pset in ({*subset}, {*subset, outside}):
                    if pset:
                        assert np.array_equal(o_pi(G, pset).bools, _o_pi_meet(G, pset)), (G, pset)


def _outcome(check, G, bools):
    try:
        check(G, bools)
    except GroupError as exc:
        return str(exc)
    return None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_validate_closed_matches_quadratic_oracle(data):
    G = data.draw(st.sampled_from(CLOSURE_GROUPS))
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    bools = _orbit_closure(G.table, gens)
    kind = data.draw(st.sampled_from(["subgroup", "union", "inverse_closed", "flipped"]))
    if kind == "union":
        # two subgroups together: inverse-closed, rarely closed under products
        bools = bools | _orbit_closure(G.table, data.draw(st.lists(st.integers(0, G.order - 1), max_size=2)))
    elif kind == "inverse_closed":
        picked = data.draw(st.lists(st.integers(0, G.order - 1), max_size=8))
        bools = bools.copy()
        bools[picked] = True
        bools[G.inv[picked]] = True
    elif kind == "flipped":
        bools = bools.copy()
        for x in data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3)):
            bools[x] = not bools[x]
    want = _outcome(_validate_closed_quadratic, G, bools)
    assert _outcome(Subgroup._validate_closed, G, bools) == want
    if want is None:
        assert Subgroup(G, bools).size == int(bools.sum())


def test_power_walk_that_never_returns_ends_in_group_error():
    # Z/60 with 30*1 rewired to 1: the powers of 1 cycle through 1..30 and
    # never reach the identity, while identity and inverses still look fine
    t = cyclic(60).table.copy()
    t[30, 1] = 1

    def give_up(signum, frame):
        raise TimeoutError("closure did not stop")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(20)
    try:
        seen = _orbit_closure(t, [1])
        assert np.array_equal(np.flatnonzero(seen), np.arange(31))
        try:
            FiniteGroup(t)
        except NotAssociative as exc:
            x, y, z = exc.triple
            assert t[t[x, y], z] != t[x, t[y, z]]
        else:
            raise AssertionError("corrupted table accepted")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_orbit_closure_of_long_cycle_stays_small():
    table = cyclic(4374).table
    tracemalloc.start()
    try:
        seen = _orbit_closure(table, [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen.all()
    assert peak < 2 * 2**20, peak


def test_normal_lattice_matches_product_join_oracle():
    for entry in ENTRIES:
        G = entry.group
        assert {N.bools.tobytes() for N in enumerate_normals(G)} == _normal_lattice_product_joins(G), G


def _orbit_by_doubling(f_arr: np.ndarray) -> np.ndarray:
    n = f_arr.shape[0]
    return ~_window_all(f_arr, np.arange(n) != 0, 1, n + 1)


def _tail_into_cycle(rng: np.random.Generator, n: int, c: int, identity_on_cycle: bool) -> tuple[np.ndarray, np.ndarray]:
    """A map whose points perm[:c] form a tail feeding the cycle perm[c:]."""
    perm = rng.permutation(n)
    if identity_on_cycle:  # the tail runs into the identity, c steps from its far end
        i = int(np.flatnonzero(perm == 0)[0])
        perm[[i, c]] = perm[[c, i]]
    f = np.empty(n, dtype=np.int64)
    f[perm[:c]] = perm[1 : c + 1]
    f[perm[c:]] = np.roll(perm[c:], -1)
    return f, perm


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_window_all_matches_step_loops(data):
    n = data.draw(st.integers(1, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["random", "tail_into_cycle", "tail_into_identity"]))
    if kind == "random":
        f = rng.integers(0, n, size=n)
        k = rng.random(n) < data.draw(st.sampled_from([0.5, 0.9, 1.0]))
    else:
        c = data.draw(st.integers(0, n - 1))
        f, perm = _tail_into_cycle(rng, n, c, kind == "tail_into_identity")
        k = np.ones(n, dtype=bool)
        # K misses exactly one cycle element, or only a tail element
        if c and data.draw(st.booleans()):
            k[perm[data.draw(st.integers(0, c - 1))]] = False
        else:
            k[perm[data.draw(st.integers(c, n - 1))]] = False
    assert np.array_equal(_orbit_by_doubling(f), _orbit_hits_identity_loop(f))
    assert np.array_equal(_window_all(f, k, n, n + 1), _simulation_loop(f, k))


def test_window_all_on_paper_levels_and_too_short_a_window():
    for p, k in ((2, 6), (7, 2)):  # orders 2048 and 2058
        sd, phi = paper_example_level(p, k)
        G = sd.group
        conj = conjugation_hom(G, int(sd.acting_part.members[1]))
        for f in (phi.map, phi.map[conj.map]):
            assert np.array_equal(_orbit_by_doubling(f), _orbit_hits_identity_loop(f))
            for K in (sd.normal_part, sd.acting_part):
                assert np.array_equal(_window_all(f, K.bools, G.order, G.order + 1), _simulation_loop(f, K.bools))

    # the window is the least power of two above n, here 512; half of it
    # misses the far end of a 299-step tail and most of a 300-cycle
    n = 300
    rng = np.random.default_rng(5)
    f, _ = _tail_into_cycle(rng, n, n - 1, True)
    want = _orbit_hits_identity_loop(f)
    assert np.array_equal(_orbit_by_doubling(f), want)
    assert not np.array_equal(~_window_all(f, np.arange(n) != 0, 1, 256), want)
    f, perm = _tail_into_cycle(rng, n, 0, False)
    k = perm != perm[0]
    want = _simulation_loop(f, k)
    assert np.array_equal(_window_all(f, k, n, n + 1), want)
    assert not np.array_equal(_window_all(f, k, n, 256), want)


def _short_cycles(rng: np.random.Generator, n: int, c: int, longest: int) -> np.ndarray:
    """A map on a random order perm of the points: perm[c:] split into cycles
    of 1 to ``longest`` points (1: fixed points), and each of perm[:c] sent
    to a random point after it."""
    perm = rng.permutation(n)
    f = np.empty(n, dtype=np.int64)
    start = c
    while start < n:
        block = perm[start : start + int(rng.integers(1, longest + 1))]
        f[block] = np.roll(block, -1)
        start += block.size
    for i in range(c):
        f[perm[i]] = perm[int(rng.integers(i + 1, n))]
    return f


def _assert_cycle_paths_agree(f: np.ndarray, k: np.ndarray) -> None:
    got, want = _eventual_cycle_containment(f, k), _cycle_walk_oracle(f, k)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_eventual_cycle_containment_matches_cycle_walk(data):
    n = data.draw(st.integers(1, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["random", "long_tail", "short_cycles", "fixed_points"]))
    c = data.draw(st.integers(0, n - 1))
    if kind == "random":
        f = rng.integers(0, n, size=n)
    elif kind == "long_tail":  # a tail of c points into one cycle
        f, _ = _tail_into_cycle(rng, n, c, data.draw(st.booleans()))
    else:
        f = _short_cycles(rng, n, c, 3 if kind == "short_cycles" else 1)
    if data.draw(st.booleans()):
        k = rng.random(n) < data.draw(st.sampled_from([0.5, 0.9, 1.0]))
    else:  # K misses exactly one cycle element, or only a tail element
        k = np.ones(n, dtype=bool)
        cycle = np.flatnonzero(_cycle_walk_oracle(f, k)[1])
        tail = np.setdiff1d(np.arange(n), cycle)
        on_tail = tail.size and data.draw(st.booleans())
        pool = tail if on_tail else cycle
        k[pool[data.draw(st.integers(0, pool.size - 1))]] = False
    _assert_cycle_paths_agree(f, k)


def test_eventual_cycle_containment_on_paper_levels():
    for p, k in ((2, 6), (7, 2)):  # orders 2048 and 2058
        sd, phi = paper_example_level(p, k)
        G = sd.group
        conj = conjugation_hom(G, int(sd.acting_part.members[1]))
        for f in (np.arange(G.order), np.zeros(G.order, dtype=np.int64), phi.map, conj.map, phi.map[conj.map]):
            for K in (sd.normal_part, sd.acting_part, closure(G, [])):
                _assert_cycle_paths_agree(f, K.bools)


def _element_orders_step_loop(G: FiniteGroup) -> np.ndarray:
    """Oracle: multiply every element by itself once per step until it reaches the identity."""
    n = G.order
    orders = np.zeros(n, dtype=np.int32)
    cur = np.arange(n, dtype=np.int32)
    base = cur.copy()
    k = 1
    while (orders == 0).any():
        orders[(orders == 0) & (cur == 0)] = k
        cur = G.table[cur, base]
        k += 1
        assert k <= n + 1, "element order exceeds group order"
    return orders


def _paper_groups() -> list[FiniteGroup]:
    return [paper_example_level(p, k)[0].group for p, k in ((2, 6), (7, 2))]  # orders 2048 and 2058


def test_element_orders_match_step_loop():
    groups = [e.group for e in builtin_entries(500)] + _paper_groups() + [cyclic(4096)]
    for G in groups:
        assert np.array_equal(G.element_orders(), _element_orders_step_loop(G)), G


def _commutator_set(G: FiniteGroup, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Oracle: all commutators a^-1 b^-1 a b with a in A, b in B (as element indices)."""
    left = G.table[np.ix_(G.inv[A], G.inv[B])]
    right = G.table[np.ix_(A, B)]
    return np.unique(G.table[left, right])


def _series_by_commutator_sets(G: FiniteGroup, lower: bool) -> list[bytes]:
    """Oracle: each term closes every commutator of the last term with G (lower
    central series) or with itself (derived series)."""
    series = [whole_subgroup(G)]
    everything = np.arange(G.order, dtype=np.int32)
    while True:
        m = series[-1].members
        comms = _commutator_set(G, m, everything if lower else m)
        nxt = Subgroup(G, _orbit_closure_all_generators(G.table, comms), _checked=True)
        if nxt == series[-1]:
            return [s.bools.tobytes() for s in series]
        series.append(nxt)


def test_commutator_series_match_commutator_set_oracle():
    for G in [e.group for e in builtin_entries(500)] + _paper_groups():
        assert [s.bools.tobytes() for s in lower_central_series(G)] == _series_by_commutator_sets(G, True), G
        assert [s.bools.tobytes() for s in derived_series(G)] == _series_by_commutator_sets(G, False), G


def test_nilpotency_of_a_paper_level_stays_small():
    G = _paper_groups()[0]
    tracemalloc.start()
    try:
        rep = nilpotency(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [s.size for s in rep.lower_central_series] == [2048, 32, 16, 8, 4, 2, 1]
    assert rep.is_nilpotent and rep.is_solvable
    assert peak < 2 * 2**20, peak


def _permutation_group(points: int, keep) -> FiniteGroup:
    """The permutations of 0..points-1 passing ``keep``, composed as functions; the identity comes first."""
    perms = [p for p in itertools.permutations(range(points)) if keep(p)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[x]] for x in range(points))] for b in perms] for a in perms]
    return FiniteGroup(table, f"perm{len(perms)}")


def _is_even(p) -> bool:
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2 == 0


def _adjunction_by_coset_reps(G: FiniteGroup) -> list[bytes]:
    """Oracle: from every subgroup found, adjoin one representative of each
    left coset (its least element) and keep each closure not seen before."""
    t = G.table
    triv = np.zeros(G.order, dtype=bool)
    triv[0] = True
    found = {triv.tobytes(): triv}
    queue = [triv]
    while queue:
        bools = queue.pop()
        members = np.flatnonzero(bools)
        for r in np.unique(t[:, members].min(axis=1)):
            if bools[r]:
                continue
            new = _orbit_closure_all_generators(t, np.append(members, r))
            if new.tobytes() not in found:
                found[new.tobytes()] = new
                queue.append(new)
    return list(found)


def _normal_lattice_all_class_seeds(G: FiniteGroup) -> set[bytes]:
    """Oracle: closures of every conjugacy class, saturated under joins with
    each seed, each join extending the member by the seed's class."""
    t = G.table
    seeds = {}
    for cls in conjugacy_classes(G):
        b = _orbit_closure(t, cls)
        seeds.setdefault(b.tobytes(), (b, cls))
    found = {key: b for key, (b, _) in seeds.items()}
    work = list(found.values())
    while work:
        a = work.pop()
        for s, cls in seeds.values():
            if (s & ~a).any():
                join = _orbit_closure(t, cls, a)
                if join.tobytes() not in found:
                    found[join.tobytes()] = join
                    work.append(join)
    return set(found)


def _lattice_test_groups() -> list[FiniteGroup]:
    """Catalog up to order 100, then S4 and A5 (perfect, not solvable) and the elementary abelian Z2^4."""
    z2 = cyclic(2)
    z2_4 = direct_product(direct_product(z2, z2), direct_product(z2, z2), "Z2^4")
    return [e.group for e in ENTRIES] + [_permutation_group(4, lambda p: True), _permutation_group(5, _is_even), z2_4]


def test_zuppos_are_the_cyclic_subgroups_of_prime_power_order():
    for G in _lattice_test_groups():
        zs, label = _zuppos(G)
        orders = G.element_orders()
        prime_power = np.array([len(prime_factors(int(q))) == 1 for q in orders])
        assert np.array_equal(label >= 0, prime_power), G
        cyclic_subs = {closure(G, [x]).bools.tobytes() for x in np.flatnonzero(prime_power)}
        assert len(cyclic_subs) == zs.size and np.all(np.diff(zs) > 0), G
        for x in np.flatnonzero(prime_power):  # x labels the zuppo it generates, whose least generator is listed
            gen_set = np.flatnonzero(closure(G, [x]).bools & (orders == orders[x]))
            assert zs[label[x]] == gen_set.min(), (G, x)


def test_adjunction_enumeration_matches_coset_representative_oracle():
    for G in _lattice_test_groups():
        subs, complete = _adjunction_enumeration(G, _Budget(10**7))
        keys = [b.tobytes() for b, _ in subs]
        assert complete and len(keys) == len(set(keys)), G  # each subgroup reached once
        assert set(keys) == set(_adjunction_by_coset_reps(G)), G
        for b, gens in subs:  # the chain's zuppos generate what they reached
            assert np.array_equal(_orbit_closure_all_generators(G.table, gens), b), G


def test_normal_lattice_matches_all_class_seed_oracle():
    for G in _lattice_test_groups():
        got = [N.bools.tobytes() for N in _normal_lattice(G)]
        assert len(got) == len(set(got)), G
        assert set(got) == _normal_lattice_all_class_seeds(G), G


def test_a_failing_property_test_is_reported_with_the_rest(tmp_path):
    # on a failure Hypothesis imports libcst, which warns on import; under the
    # project's warning filters the run must still list every failing test
    import subprocess
    import sys
    from pathlib import Path

    (tmp_path / "test_two_failures.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_property(x):\n"
        "    assert x < 5\n\n\n"
        "def test_plain():\n"
        "    assert False\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_two_failures.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    ).stdout
    assert "INTERNALERROR" not in out
    assert "2 failed" in out, out
