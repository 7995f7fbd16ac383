import functools
import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conglab import subgroups
from conglab.domains import CapExceeded, _factor_int, parse_domain
from conglab.matgroups import FinMatGroup, _ops, closure_codes, extend_closure, full_sl2
from conglab.modular import psl2_group
from conglab.quotients import build_quotient, integer_quotient
from conglab.subgroups import DenseGroup, all_subgroups, subgroup_classes
from conglab.suites import _RANDOM_DOMAINS

Z = parse_domain("Z")
F3T = parse_domain("Fq[t] q=3")


def subgroup_classes_by_join(G):
    """Oracle: join every class representative with every cyclic subgroup of
    prime-power order; every subgroup of a finite group is such a join."""
    cyclics = {}
    for g in range(G.size):
        c = frozenset(G.powers(g))
        if c not in cyclics and len(_factor_int(len(c))) == 1:
            cyclics[c] = g
    cyclic_items = sorted(cyclics.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    seen = {}
    reps = []
    queue = []

    def register(elems, gens):
        if elems in seen:
            return
        cid = len(reps)
        orbit = {elems}
        stack = [elems]
        while stack:
            current = stack.pop()
            for g in G.gens:
                conj = frozenset(G.conj(x, g) for x in current)
                if conj not in orbit:
                    orbit.add(conj)
                    stack.append(conj)
        for member in orbit:
            seen[member] = cid
        reps.append((elems, tuple(gens)))
        queue.append((elems, tuple(gens)))

    register(frozenset({G.identity}), ())
    qi = 0
    while qi < len(queue):
        elems, gens = queue[qi]
        qi += 1
        for cyc, cg in cyclic_items:
            if cg in elems:
                continue
            joined = frozenset(extend_closure(elems, gens, cg, G.mul))
            register(joined, gens + (cg,))
    return reps, seen


def dense_closure_by_bfs(G, gens):
    """Oracle: BFS closure under the generators and their inverses."""
    step = list(gens) + [G.inv[g] for g in gens]
    seen = {G.identity}
    queue = [G.identity]
    for x in queue:
        for g in step:
            y = G.mul(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def dense_sl2(D, text):
    ring = build_quotient(D, D.parse_ideal(text))
    return DenseGroup.from_matgroup(full_sl2(ring))


# one small quotient of each random-suite domain: a composite modulus, a
# prime power, a prime, and a ramified and a split prime of an order
SMALL_MODULI = ("(6)", "(t^2)", "(t)", "(2)", "(3)")


@functools.lru_cache(maxsize=None)
def small_sl2(i):
    D = parse_domain(_RANDOM_DOMAINS[i])
    R = build_quotient(D, D.parse_ideal(SMALL_MODULI[i]))
    G = full_sl2(R)
    return R, G, DenseGroup.from_matgroup(G)


def test_dense_group_table_consistency():
    G = dense_sl2(Z, "(4)")
    assert G.size == 48
    for i in range(G.size):
        assert G.mul(i, G.identity) == i
        assert G.mul(i, G.inv[i]) == G.identity
    assert dense_closure_by_bfs(G, G.gens) == frozenset(range(G.size))


def test_subgroups_of_sl2_f2_vs_full_subset_oracle():
    # the order-6 group is small enough to test every subset directly
    G = dense_sl2(Z, "(2)")
    assert G.size == 6
    oracle = set()
    elements = list(range(6))
    for size in range(1, 7):
        for subset in itertools.combinations(elements, size):
            s = set(subset)
            if G.identity not in s:
                continue
            if all(G.mul(a, b) in s for a in s for b in s):
                oracle.add(frozenset(s))
    reps, seen = subgroup_classes(G)
    assert set(seen) == oracle
    assert len(oracle) == 6  # {1}, three C2, C3, S3
    assert len(reps) == 4


def test_subgroups_of_sl2_f3_vs_triple_closure_oracle():
    # orders dividing 24 force every subgroup to be 3-generated, so
    # closing all (<=3)-element subsets is an exact oracle
    G = dense_sl2(F3T, "(t)")
    assert G.size == 24
    oracle = {frozenset({G.identity})}
    rng = range(G.size)
    for a in rng:
        oracle.add(dense_closure_by_bfs(G, [a]))
        for b in rng:
            if b < a:
                oracle.add(dense_closure_by_bfs(G, [a, b]))
                for c in rng:
                    if c < b:
                        oracle.add(dense_closure_by_bfs(G, [a, b, c]))
    reps, seen = subgroup_classes(G)
    assert set(seen) == oracle
    assert len(oracle) == 15
    assert len(reps) == 7
    orders = sorted(len(e) for e, _ in reps)
    assert orders == [1, 2, 3, 4, 6, 8, 24]


def test_subgroup_classes_of_projective_group():
    G = psl2_group(2)  # isomorphic to S3
    reps, seen = subgroup_classes(G)
    assert len(seen) == 6
    assert len(reps) == 4


def test_all_subgroups_deterministic_order():
    G = dense_sl2(Z, "(2)")
    _, seen = subgroup_classes(G)
    listed = all_subgroups(seen)
    assert listed == sorted(listed, key=lambda s: (len(s), sorted(s)))
    assert len(listed) == len(seen)


def partition(seen):
    classes = {}
    for members, cid in seen.items():
        classes.setdefault(cid, set()).add(members)
    return {frozenset(c) for c in classes.values()}


ORACLE_GROUPS = {
    **{f"SL2(Z/{n})": (lambda n=n: dense_sl2(Z, f"({n})")) for n in (4, 5, 6, 8)},
    "SL2(F3[t]/(t^2))": lambda: dense_sl2(F3T, "(t^2)"),
    **{f"PSL2(Z/{n})": (lambda n=n: psl2_group(n)) for n in range(2, 9)},
}
NOT_SOLVABLE = {"SL2(Z/5)", "PSL2(Z/5)", "PSL2(Z/7)"}


def solvable_by_derived_series(G):
    """Oracle: the derived series of G reaches the trivial group."""
    current = frozenset(range(G.size))
    while len(current) > 1:
        commutators = {
            G.mul(G.mul(G.inv[x], G.inv[y]), G.mul(x, y)) for x in current for y in current
        }
        derived = dense_closure_by_bfs(G, sorted(commutators))
        if derived == current:
            return False
        current = derived
    return True


def classes_counting_fallbacks(G):
    fallbacks = []
    joins = subgroups._prime_power_joins
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(
            subgroups,
            "_prime_power_joins",
            lambda G, zuppos: fallbacks.append(G) or joins(G, zuppos),
        )
        reps, seen = subgroup_classes(G)
    return reps, seen, len(fallbacks)


def assert_matches_join_oracle(G, reps, seen):
    _, oracle_seen = subgroup_classes_by_join(G)
    assert set(seen) == set(oracle_seen)
    classes = partition(seen)
    assert classes == partition(oracle_seen)
    # one rep per class, its least member, sorted by (order, sorted elements)
    least = sorted((min(c, key=sorted) for c in classes), key=lambda s: (len(s), sorted(s)))
    assert [elems for elems, _ in reps] == least
    for cid, (elems, gens) in enumerate(reps):
        assert seen[elems] == cid
        assert dense_closure_by_bfs(G, gens or [G.identity]) == elems


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_cyclic_extension_matches_join_oracle(name):
    G = ORACLE_GROUPS[name]()
    reps, seen, fallbacks = classes_counting_fallbacks(G)
    # cyclic extension alone reaches every subgroup of a solvable group
    assert fallbacks == (name in NOT_SOLVABLE)
    assert_matches_join_oracle(G, reps, seen)


@pytest.mark.parametrize("name", ["SL2(Z/6)", "SL2(Z/8)", "PSL2(Z/7)"])
def test_zuppos_are_one_generator_per_prime_power_cyclic_subgroup(name):
    G = ORACLE_GROUPS[name]()
    cyclics = {frozenset(G.powers(g)) for g in range(G.size)}
    oracle = {c for c in cyclics if len(_factor_int(len(c))) == 1}
    zuppos = subgroups._zuppos(G)
    listed = [frozenset(G.powers(g)) for g, _ in zuppos]
    assert len(listed) == len(oracle)
    assert set(listed) == oracle
    assert listed == sorted(listed, key=lambda c: (len(c), sorted(c)))
    for (g, gp), c in zip(zuppos, listed):
        (p,) = _factor_int(len(c))
        assert gp == functools.reduce(G.mul, [g] * p)


@pytest.mark.parametrize("name", sorted(set(ORACLE_GROUPS) - NOT_SOLVABLE))
def test_cyclic_extensions_are_the_normal_overgroups_of_prime_index(name):
    # one step of the search: from each class rep H, exactly the K > H with
    # H normal in K and |K : H| prime, each once
    G = ORACLE_GROUPS[name]()
    reps, seen = subgroup_classes(G)
    zuppos = subgroups._zuppos(G)
    for H, gens in reps:
        found = [K for K, _ in subgroups._cyclic_extensions(G, zuppos, H, gens)]
        oracle = {
            K
            for K in seen
            if H < K
            and _factor_int(len(K) // len(H)) == {len(K) // len(H): 1}
            and all(G.conj(h, k) in H for h in gens for k in K)
        }
        assert len(found) == len(set(found))
        assert set(found) == oracle


RANDOM_GROUP_CAP = 200


# the explicit examples pin both paths: a subgroup SL2(F5) of SL2(F9), of
# order 120 and not solvable, and all of SL2(Z/6), of order 144 and solvable
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, len(SMALL_MODULI) - 1),
    st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=2),
)
@example(2, [0, 4])
@example(0, [1, 2])
def test_join_oracle_on_random_groups(i, picks):
    R, full, _ = small_sl2(i)
    codes = full.sorted_elements()
    try:
        closed = closure_codes(R, [codes[p % len(codes)] for p in picks], cap=RANDOM_GROUP_CAP)
    except CapExceeded:
        assume(False)
    G = DenseGroup.from_matgroup(FinMatGroup.from_elements(R, closed))
    reps, seen, fallbacks = classes_counting_fallbacks(G)
    assert fallbacks == (not solvable_by_derived_series(G))
    assert_matches_join_oracle(G, reps, seen)


def lazy_table_cases():
    ops = _ops(build_quotient(Z, Z.parse_ideal("(4)")))
    yield dense_sl2(Z, "(4)"), ops.mmul, ops.minv
    ops = _ops(integer_quotient(6))

    def label(x):
        return min(x, ops.mneg(x))

    yield psl2_group(6), lambda x, y: label(ops.mmul(x, y)), lambda x: label(ops.minv(x))


def test_lazy_table_agrees_with_label_arithmetic():
    for G, mul_label, inv_label in lazy_table_cases():
        assert len(G.products) < G.size ** 2  # products are computed on first use
        for i, x in enumerate(G.labels):
            assert G.labels[G.inv[i]] == inv_label(x)
            for j, y in enumerate(G.labels):
                assert G.labels[G.mul(i, j)] == mul_label(x, y)
        assert sorted(G.products) == list(range(G.size ** 2))


def test_subgroup_classes_read_few_products():
    # the product cache grows with the products used: under 5 % of |G|^2
    G = dense_sl2(Z, "(12)")
    reps, _ = subgroup_classes(G)
    assert (G.size, len(reps)) == (1152, 271)
    assert len(G.products) < 0.05 * G.size ** 2
