import collections
import functools
import hashlib
import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conglab import subgroups
from conglab.domains import CapExceeded, _factor_int, parse_domain
from conglab.matgroups import DEFAULT_GROUP_CAP, FinMatGroup, _ops, full_sl2
from conglab.modular import psl2_group
from conglab.quotients import build_quotient, integer_quotient
from conglab.subgroups import (
    DenseGroup,
    all_subgroups,
    conjugates,
    extend_closure,
    subgroup_classes,
)
from conglab.suites import _RANDOM_DOMAINS, FAMILY_SPECS, SOUNDNESS_LEVELS, SURVEY_FAMILIES

Z = parse_domain("Z")
F3T = parse_domain("Fq[t] q=3")


def powers(G, g):
    """Oracle: [1, g, g^2, ...], one entry per element of the cyclic group <g>."""
    out = [G.identity]
    acc = g
    while acc != G.identity:
        out.append(acc)
        acc = G.mul(acc, g)
    return out


def conj(G, x, g):
    """g^-1 x g through the product cache."""
    return G.mul(G.mul(G.inv[g], x), g)


def subgroup_classes_by_join(G):
    """Oracle: join every class representative with every cyclic subgroup of
    prime-power order; every subgroup of a finite group is such a join."""
    cyclics = {}
    for g in range(G.size):
        c = frozenset(powers(G, g))
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
                image = frozenset(conj(G, x, g) for x in current)
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
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


def closure_codes(ring, gen_codes, cap=DEFAULT_GROUP_CAP):
    """Oracle: the subgroup generated by gen_codes, closed by Dimino's coset
    extension one generator at a time."""
    ops = _ops(ring)
    elems = {ops.identity}
    gens = []
    for g in gen_codes:
        if g not in elems:
            elems = extend_closure(elems, gens, g, ops.mmul, cap)
            gens.append(g)
    return elems


def inverses_by_powers(G):
    """Oracle: each inverse read off the powers of the first element, in
    index order, of a cyclic group holding it: (g^k)^-1 = g^(m-k)."""
    inv = [-1] * G.size
    for g in range(G.size):
        if inv[g] < 0:
            cyclic = powers(G, g)
            for k, x in enumerate(cyclic):
                inv[x] = cyclic[-k]
    return inv


def zuppos_by_powers(G):
    """Oracle: (g, g^p, p, order) for the least generator g of each cyclic
    subgroup of order p^a > 1, from the powers of every element g with
    g^-1 >= g, sorted by (order, sorted elements)."""
    inv = inverses_by_powers(G)
    cyclics = {}
    for g in range(G.size):
        if inv[g] >= g:  # <g^-1> = <g>
            cyclic = powers(G, g)
            primes = list(_factor_int(len(cyclic)))
            if len(primes) == 1:
                p = primes[0]
                cyclics.setdefault(frozenset(cyclic), (g, cyclic[p % len(cyclic)], p, len(cyclic)))
    return [cyclics[c] for c in sorted(cyclics, key=lambda c: (len(c), sorted(c)))]


def assert_cyclic_pass_matches_the_powers(G):
    assert G.inv == inverses_by_powers(G)
    assert G.zuppos == zuppos_by_powers(G)


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
    cyclics = {frozenset(powers(G, g)) for g in range(G.size)}
    oracle = {c for c in cyclics if len(_factor_int(len(c))) == 1}
    zuppos = G.zuppos
    listed = [frozenset(powers(G, g)) for g, *_ in zuppos]
    assert len(listed) == len(oracle)
    assert set(listed) == oracle
    assert listed == sorted(listed, key=lambda c: (len(c), sorted(c)))
    for (g, gp, p, q), c in zip(zuppos, listed):
        assert _factor_int(len(c)).keys() == {p}
        assert q == len(c)
        assert gp == functools.reduce(G.mul, [g] * p)


SURVEY_GROUPS = {
    family: (lambda spec=spec, text=text: dense_sl2(parse_domain(spec), text))
    for family, (spec, text) in FAMILY_SPECS.items()
    if family in SURVEY_FAMILIES
}


@pytest.mark.parametrize("name", [*sorted(ORACLE_GROUPS), *SURVEY_GROUPS])
def test_cyclic_pass_matches_the_powers_of_every_element(name):
    # one walk per maximal cyclic subgroup gives what walking every
    # element's powers gives: inverses, and the zuppos with their orders
    assert_cyclic_pass_matches_the_powers({**ORACLE_GROUPS, **SURVEY_GROUPS}[name]())


@pytest.mark.parametrize("name", sorted(set(ORACLE_GROUPS) - NOT_SOLVABLE))
def test_cyclic_extensions_are_the_normal_overgroups_of_prime_index(name):
    # one step of the search: from each class rep H, exactly the K > H with
    # H normal in K and |K : H| prime, each once
    G = ORACLE_GROUPS[name]()
    reps, seen = subgroup_classes(G)
    zuppos = G.zuppos
    for H, gens in reps:
        found = [K for K, _ in subgroups._cyclic_extensions(G, zuppos, H, gens, 0, {})]
        oracle = {
            K
            for K in seen
            if H < K
            and _factor_int(len(K) // len(H)) == {len(K) // len(H): 1}
            and all(conj(G, h, k) in H for h in gens for k in K)
        }
        assert len(found) == len(set(found))
        assert set(found) == oracle


@pytest.mark.parametrize("name", sorted(set(ORACLE_GROUPS) - NOT_SOLVABLE))
def test_pruned_cyclic_extensions_yield_what_the_unpruned_path_yields(name, monkeypatch):
    # the normaliser order and the known subgroups only spare work; with
    # every subgroup known, no class rep closes a group again
    G = ORACLE_GROUPS[name]()
    reps, seen = subgroup_classes(G)
    zuppos = G.zuppos
    zuppo_gens = {g for g, *_ in zuppos}
    known = {}
    for S in seen:
        for g in S & zuppo_gens:
            known.setdefault((len(S), g), []).append(S)
    class_size = collections.Counter(seen.values())
    joins, closure = [], subgroups.extend_closure
    monkeypatch.setattr(subgroups, "extend_closure", lambda *a: joins.append(a) or closure(*a))
    for cid, (H, gens) in enumerate(reps):
        unpruned = list(subgroups._cyclic_extensions(G, zuppos, H, gens, 0, {}))
        normaliser = G.size // class_size[cid]
        joins.clear()
        pruned = list(subgroups._cyclic_extensions(G, zuppos, H, gens, normaliser, known))
        assert pruned == unpruned
        assert joins == []


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
    assert_cyclic_pass_matches_the_powers(G)
    reps, seen, fallbacks = classes_counting_fallbacks(G)
    assert fallbacks == (not solvable_by_derived_series(G))
    assert_matches_join_oracle(G, reps, seen)


# SL2 over a ring of each kind: Z/n, F_p[t] mod a prime power, F_q with
# q = p^e, e > 1, and an order of a quadratic field
KERNEL_RINGS = (
    ("Z", "(4)"), ("Fq[t] q=2", "(t^2)"), ("Fq[t] q=4", "(t)"), ("Q(sqrt(-1)) maximal", "(2)")
)


def lazy_table_cases():
    # the kernel on decoded entries against the packed-code arithmetic
    for spec, text in KERNEL_RINGS:
        D = parse_domain(spec)
        ops = _ops(build_quotient(D, D.parse_ideal(text)))
        yield dense_sl2(D, text), ops.mmul, ops.minv
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
    # the product cache grows with the products used, under 1 % of |G|^2;
    # the cyclic pass, the conjugation maps and the cyclic-extension joins
    # bypass it
    G = dense_sl2(Z, "(12)")
    reps, _ = subgroup_classes(G)
    assert (G.size, len(reps)) == (1152, 271)
    assert len(G.products) <= 8282


def class_search_digest(reps, seen):
    h = hashlib.sha256()
    h.update(repr([(sorted(elems), gens) for elems, gens in reps]).encode())
    h.update(repr(sorted((sorted(s), c) for s, c in seen.items())).encode())
    return h.hexdigest()


# sha256 of each class search's representatives with their generator
# tuples and its map of subgroups to classes, on dense indices
CLASS_SEARCH_DIGESTS = {
    "Z/4": "fbdd92ec367de26f196164c21642705ac5eb987cb7e29af08f0a794819c121a8",
    "Z/6": "a32de130bcbb782433409af2dc9cbc906373add66428b767933a2fab03edad55",
    "Z/8": "5713007cc75b497b335c49537d2cfde421816f9fb95dfdf89f915f6c6e46623d",
    "Z/9": "4fd15ca279415044dec4faeb0b5febbbdfc20235ca8ef2e0ae9c9d65e15ef75a",
    "Z/12": "fdc65f45c4a5dc229a5578628e51e42856de752dc87cfe3246bca2301531ba5a",
    "F3[t]/(t^2)": "8bcf97a7ef1563bfc8aa32b7beaf3bb45d5b9d42d02c01e5eb58faedb46d2835",
    "PSL2(Z/2)": "fa02cee0f37299b881315ef7ec10432df33688f200a19a2d615e1a3be390dae7",
    "PSL2(Z/3)": "9cc3588a196d353b5e7e5604c4c1cf791e6931590ae129aa1df8c466797ba47f",
    "PSL2(Z/4)": "4d1c7f26726dd704102ec4eb15946a93f24934d9b3310f3dd065d2242087e0cb",
    "PSL2(Z/5)": "8f5215aa3325c3cae4b41e6eb838bb1bab202f48f07b0587ec811a846562c35f",
    "PSL2(Z/6)": "fda59084f938d1e3fb2c7f28b7ae95b2f4bb2295442504c9bb22db6ab98eebd2",
    "PSL2(Z/8)": "4e0ee0d8ad932032143d1dec05dd8f5fbef3a5fee4721220ae8360248a779673",
}


def test_class_search_output_is_pinned():
    # every frame of the survey and of the exact-test soundness suite comes
    # from these searches, so their reps, generators and classes stay fixed
    groups = {**SURVEY_GROUPS, **{f"PSL2(Z/{n})": (lambda n=n: psl2_group(n)) for n in SOUNDNESS_LEVELS}}
    assert set(groups) == set(CLASS_SEARCH_DIGESTS)
    for name, group in groups.items():
        assert class_search_digest(*subgroup_classes(group())) == CLASS_SEARCH_DIGESTS[name], name


def closure_by_extension(G, gens):
    """The subgroup <gens>, closed by extend_closure one generator at a time."""
    elems, found = {G.identity}, []
    for g in gens:
        elems = extend_closure(elems, found, g, G.mul)
        found.append(g)
    return elems


def test_conjugates_walk_each_class_with_generators_of_each_member():
    # the walk from a class rep reaches exactly its class, and carries
    # generators that close to each member it reaches
    psl2 = {f"PSL2(Z/{n})": (lambda n=n: psl2_group(n)) for n in SOUNDNESS_LEVELS}
    for name, group in {**SURVEY_GROUPS, **psl2}.items():
        G = group()
        reps, seen = subgroup_classes(G)
        members = {}
        for s, c in seen.items():
            members.setdefault(c, set()).add(s)
        for c, (elems, gens) in enumerate(reps):
            walk = conjugates(G, elems, gens)
            assert set(walk) == members[c], name
            assert walk[elems] == gens
            for member, member_gens in walk.items():
                assert closure_by_extension(G, member_gens) == member, name
