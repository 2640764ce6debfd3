"""Scenario texts for the scenario-batch workload, with their expected answers.

Every expectation is worked out here from closed forms (orders of
contraction subgroups of cyclic and dihedral groups, O^pi of abelian and
dihedral groups, subgroup counts of Z/p^k, injective homomorphism counts
between cyclic groups), never copied from pfg's output.

An expectation is a list with one ``(kind, status, details)`` triple per
report record; ``details`` holds the keys whose values are known.
"""

from __future__ import annotations

from math import gcd

import numpy as np

# ---------------------------------------------------------------- arithmetic


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def totient(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def scale_kernel_part(n: int, m: int) -> int:
    """Order of the contraction of x -> m*x on Z/n: the part of n on primes of m."""
    out = 1
    for p in prime_factors(n):
        if m % p == 0:
            out *= p_part(n, p)
    return out


def scale_chain(n: int, m: int) -> tuple[list[int], int]:
    """Kernel orders gcd(m^j, n) of x -> m*x on Z/n, j = 0..depth+1, and the depth."""
    sizes = [1, gcd(m, n)]
    while sizes[-1] != sizes[-2]:
        sizes.append(gcd(m ** (len(sizes)), n))
    return sizes, len(sizes) - 2


def residual_trivial_at(n: int) -> int:
    """Least divisor t of n with lcm of the divisors <= t equal to n (Z/n regulation)."""
    lcm = 1
    for t in range(1, n + 1):
        if n % t == 0:
            lcm = lcm * t // gcd(lcm, t)
            if lcm == n:
                return t
    raise ValueError(n)


# ---------------------------------------------------------------- shipped scenarios

SHIPPED = ("paper_example", "dihedral_controls", "two_generator")


def _theorem_a(con: int, stable: int, **extra) -> tuple:
    return ("theorem_a", "pass", {"con_order": con, "stable_order": stable, **extra})


def _typef(levels: list[dict[int, int]]) -> tuple:
    return ("typef", "pass", {"per_level": [{str(k): v for k, v in c.items()} for c in levels], "complete": True})


def shipped_expectation(name: str) -> list[tuple]:
    if name == "paper_example":  # Z9 x| U9 with the cyclic part scaled by 3; tower units_semidirect(3)
        return [
            ("contraction", "pass", {"con_order": 9, "stable_order": 6, "depth": 2}),
            _theorem_a(9, 6, depth=2),
            ("splitthm", "pass", {"con_order": 9, "stable_order": 6}),
            ("theorem_b", "pass", {"o_lambda_orders": [3, 9, 27], "part_i_nilpotent": [True] * 3}),
            _typef([{1: 1, 2: 1}] * 3),
        ]
    if name == "dihedral_controls":  # D8 = Z4 x| Z2, scaling the rotations by 2
        return [
            _theorem_a(4, 2, depth=2),
            ("regulation", "pass", {}),
            ("tfrelstab2", "pass", {}),
            ("hom_search", "pass", {"count": 0}),
            ("theorem_b", "pass", {"o_lambda_orders": [2, 4, 8, 16]}),
            _typef([{1: 1, 2: 1}] * 4),
            _typef([{1: 1, 2: 3}] * 3),
            ("theorem_b", "hypotheses_not_met", {"o_lambda_orders": []}),
        ]
    if name == "two_generator":  # Z4 x Z9 with f doubling the first and g tripling the second coordinate
        return [
            ("splitthm", "pass", {"con_order": 36, "stable_order": 1}),
            ("contraction", "pass", {"con_order": 4, "stable_order": 9, "depth": 2}),
            ("shrinkind", "pass", {"preimage_index": 6, "subgroup_index": 12}),
            ("o_pi", "pass", {"order": 9, "index": 4}),
        ]
    raise KeyError(name)


# ---------------------------------------------------------------- generated scenarios

# Group orders are fixed per slot, so every seed asks for the same amount of
# table building and lattice enumeration; the seed draws the maps, primes,
# subgroup generators and source groups.
CYCLIC_ORDERS = (36, 72, 100, 144)
DIHEDRAL_ORDERS = (9, 20, 28, 45)  # D_2n of order 18 to 90
UNIT_LEVELS = ((5, 1), (3, 2), (2, 4), (11, 1))  # orders 20, 54, 128, 110
PRODUCT_ORDERS = ((4, 9), (6, 10), (10, 12), (9, 16))
TOWER_DEPTHS = ((2, 6), (3, 3), (5, 2), (7, 2))  # zp(p) depth d, order p^d <= 125


def gen_cyclic(rng: np.random.Generator, n: int) -> tuple[str, list[tuple]]:
    m = int(rng.choice([q for q in range(2, 13) if gcd(q, n) > 1]))
    a = int(rng.choice(np.arange(2, 31)))
    k = int(rng.integers(0, n))
    p = int(rng.choice(prime_factors(n)))
    con = scale_kernel_part(n, m)
    chain, depth = scale_chain(n, m)
    d = gcd(n, k)  # K = <k> has index d (d = n for k = 0)
    text = (
        f"group A = cyclic({a})\n"
        f"group G = cyclic({n})\n"
        f"endo f on G = scale_first({m})\n"
        "semigroup L on G = {f}\n"
        "analyze contraction(G, f)\n"
        "analyze theorem_a(G, f)\n"
        "analyze splitthm(G, L)\n"
        f"analyze o_pi(G, {{{p}}})\n"
        "analyze hom_search(A, G)\n"
        f"analyze shrinkind(G, f, [{k}])\n"
        "analyze regulation(G, L, {})\n"
    )
    expect = [
        (
            "contraction",
            "pass",
            {
                "con_order": con,
                "stable_order": n // con,
                "depth": depth,
                "kernel_chain": chain,
                "image_chain": [n // s for s in chain],
            },
        ),
        _theorem_a(con, n // con, depth=depth),
        ("splitthm", "pass", {"con_order": con, "stable_order": n // con}),
        ("o_pi", "pass", {"order": n // p_part(n, p), "index": p_part(n, p)}),
        ("hom_search", "pass", {"count": totient(a) if n % a == 0 else 0}),
        ("shrinkind", "pass", {"preimage_index": d // gcd(d, m), "subgroup_index": d}),
        ("regulation", "pass", {"trivial_at": residual_trivial_at(n)}),
    ]
    return text, expect


def gen_dihedral(rng: np.random.Generator, n: int) -> tuple[str, list[tuple]]:
    m = int(rng.choice([q for q in range(2, 10) if gcd(q, n) > 1]))
    q = int(rng.choice([3, 5, 7, 11, 13]))
    # a generator r^j of the rotations, (j, 0) = 2j in pair encoding: the target is always <r>
    s = 2 * int(rng.choice([j for j in range(1, n) if gcd(j, n) == 1]))
    con = scale_kernel_part(n, m)
    two = p_part(n, 2)
    text = (
        f"group D = semidirect(cyclic({n}), cyclic(2), invert)\n"
        f"endo f on D = scale_first({m})\n"
        "semigroup L on D = {f}\n"
        "analyze theorem_a(D, f)\n"
        "analyze o_pi(D, {2})\n"
        f"analyze o_pi(D, {{{q}}})\n"
        "analyze regulation(D, L, {})\n"
        "analyze tfrelstab2(D, L, {})\n"
        f"analyze hom_search(D, [{s}])\n"
    )
    expect = [
        _theorem_a(con, 2 * n // con),
        ("o_pi", "pass", {"order": n // two, "index": 2 * two}),
        ("o_pi", "pass", {"order": 2 * n, "index": 1}),
        ("regulation", "pass", {}),
        ("tfrelstab2", "pass", {"normal_part_order": n}),
        (
            "hom_search",
            "pass",
            {"count": 0, "simple_witness": {"kernel_index": 2, "kernel_order": n, "quotient_simple": True}},
        ),
    ]
    return text, expect


def gen_units(rng: np.random.Generator, p: int, k: int) -> tuple[str, list[tuple]]:
    m = p**k
    units = [r for r in range(2, m) if gcd(r, m) == 1]
    r = int(rng.choice(units))
    text = (
        f"group G = semidirect(cyclic({m}), units_mod({p}, {k}), mult_action)\n"
        f"endo f on G = scale_first({p})\n"
        f"endo u on G = scale_first({r})\n"
        "semigroup L on G = {f}\n"
        "analyze theorem_a(G, f)\n"
        "analyze splitthm(G, L)\n"
        f"analyze fewprimes(u, {{{p}}})\n"
    )
    expect = [
        _theorem_a(m, totient(m), depth=k),
        ("splitthm", "pass", {"con_order": m, "stable_order": totient(m), "depth": k}),
        ("fewprimes", "pass", {}),
    ]
    return text, expect


def gen_product(rng: np.random.Generator, a: int, b: int) -> tuple[str, list[tuple]]:
    m = int(rng.choice([q for q in range(2, 10) if gcd(q, a) > 1]))
    p = int(rng.choice(prime_factors(a * b)))
    con = scale_kernel_part(a, m)
    text = (
        f"group A = cyclic({a})\n"
        f"group B = cyclic({b})\n"
        "group G = product(A, B)\n"
        f"endo f on G = map {{(1, 0) -> ({m % a}, 0), (0, 1) -> (0, 1)}}\n"
        "analyze contraction(G, f)\n"
        f"analyze o_pi(G, {{{p}}})\n"
    )
    expect = [
        ("contraction", "pass", {"con_order": con, "stable_order": a * b // con}),
        ("o_pi", "pass", {"order": a * b // p_part(a * b, p), "index": p_part(a * b, p)}),
    ]
    return text, expect


def gen_towers(p: int, d: int, d3: int) -> tuple[str, list[tuple]]:
    """Towers take no seeded parameter: their cost is set by p, d and the control depth d3."""
    d2 = 2 if p <= 3 else 1  # (Z/p^k)^2 stays below order 100
    text = (
        f"tower Z = zp({p}) depth {d}\n"
        "analyze theorem_a(Z)\n"
        "analyze contraction(Z)\n"
        "analyze theorem_b(Z)\n"
        f"analyze typef(Z, {p})\n"
        f"tower W = zpn({p}, 2) depth {d2}\n"
        f"analyze typef(W, {p})\n"
        f"tower N = s3_times_z2() depth {d3}\n"
        "analyze theorem_b(N)\n"
    )
    levels = range(1, d + 1)
    expect = [_theorem_a(p**k, 1, depth=k) for k in levels]
    expect += [("contraction", "pass", {"con_order": p**k, "stable_order": 1, "depth": k}) for k in levels]
    expect += [
        ("theorem_b", "pass", {"o_lambda_orders": [p**k for k in levels], "part_ii_passed": True}),
        _typef([{1: 1, p: 1}] * d),
        _typef([{1: 1, p: p + 1}] * d2),
        ("theorem_b", "hypotheses_not_met", {"o_lambda_orders": []}),
    ]
    return text, expect


def generated(seed: int, copies: int = 3) -> list[tuple[str, str, list[tuple]]]:
    """Sixty seeded scenarios: each of the twenty fixed sizes drawn three times."""
    rng = np.random.default_rng([seed, 0x5CE7])
    out = []
    for c in range(copies):
        for t, n in enumerate(CYCLIC_ORDERS):
            out.append((f"cyclic-{t}.{c}", *gen_cyclic(rng, n)))
        for t, n in enumerate(DIHEDRAL_ORDERS):
            out.append((f"dihedral-{t}.{c}", *gen_dihedral(rng, n)))
        for t, (p, k) in enumerate(UNIT_LEVELS):
            out.append((f"units-{t}.{c}", *gen_units(rng, p, k)))
        for t, (a, b) in enumerate(PRODUCT_ORDERS):
            out.append((f"product-{t}.{c}", *gen_product(rng, a, b)))
        for t, (p, d) in enumerate(TOWER_DEPTHS):
            out.append((f"towers-{t}.{c}", *gen_towers(p, d, 2 + (t + c) % 3)))
    return out


# ---------------------------------------------------------------- known faults

# Inputs that fail today because of faults in pfg.  Each must end in a
# located ScenarioError (or, for node_budget, an honest budget verdict); until
# then the operation is counted as failed.
# (name, text, fault): the fault is the name of the exception that escapes
# dsl.validate today, or "complete" for a typef that ignores node_budget
FAULTS = (
    ("fault-cyclic0", "group G = cyclic(0)\n", "ParamOutOfRange"),
    ("fault-units4", "group U = units_mod(4, 2)\n", "ParamOutOfRange"),
    ("fault-bad-invert", "group G = semidirect(cyclic(4), cyclic(3), invert)\n", "BadAction"),
    ("fault-missing-table", 'group G = table("perfbench-missing-table.txt")\n', "FileNotFoundError"),
    ("fault-node-budget", "set node_budget = 1\ntower T = zp(2) depth 3\nanalyze typef(T, 2)\n", "complete"),
)


# ---------------------------------------------------------------- checking


class CheckFailed(AssertionError):
    pass


def _all_true(d: dict) -> bool:
    return all(v for v in d.values())


def check_records(label: str, analyses: list[dict], expect: list[tuple]) -> None:
    """Compare decoded JSON records with an expectation; raise CheckFailed on a mismatch."""
    if len(analyses) != len(expect):
        raise CheckFailed(f"{label}: {len(analyses)} records, expected {len(expect)}")
    for i, (rec, (kind, status, details)) in enumerate(zip(analyses, expect)):
        where = f"{label} record {i} ({kind})"
        if rec["kind"] != kind:
            raise CheckFailed(f"{where}: kind {rec['kind']!r}")
        if rec["status"] != status:
            raise CheckFailed(f"{where}: status {rec['status']!r}, expected {status!r}")
        got = rec["details"]
        for key, want in details.items():
            if got.get(key) != want:
                raise CheckFailed(f"{where}: {key} = {got.get(key)!r}, expected {want!r}")
        if status == "pass":
            for sub in ("checks", "oracle"):
                if sub in got and not _all_true(got[sub]):
                    raise CheckFailed(f"{where}: {sub} not all true: {got[sub]}")
