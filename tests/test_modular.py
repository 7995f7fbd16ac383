import functools
import itertools
from math import inf, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conglab import modular
from conglab.analyzer import frame_from_group
from conglab.analyzer import level as frame_level
from conglab.domains import CapExceeded, InternalCheckError, ParseError, parse_domain
from conglab.matgroups import FinMatGroup, _MatOps, sl2_order_formula
from conglab.modular import (
    CongruenceVerdict,
    CuspSplit,
    PermRep,
    _hsu_relations,
    _is_canonical,
    _projective_order,
    coset_permrep,
    cusp_split,
    exact_congruence_test,
    index_level_checks,
    larcher_check,
    low_index_enumerate,
    parse_permrep,
    projective_group_order,
    psl2_group,
    screen_permrep,
    sl2_preimage,
)
from conglab.quotients import _quotient, integer_quotient
from conglab.subgroups import DenseGroup, all_subgroups, conjugates
from conglab.suites import SOUNDNESS_LEVELS, psl_subgroups

from test_matgroups import coset_labels, sl2_preimage_codes
from test_subgroups import dense_closure_by_bfs, powers

FULL = PermRep(1, (0,), (0,))


def perm_mul(p, q):
    """Right-action composition: apply p, then q."""
    return tuple(q[i] for i in p)


def raw_coset_tables(max_index):
    """Every subgroup of index <= max_index, conjugates included: the coset
    tables low_index_enumerate reaches, with its canonical filter keeping all."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modular, "_is_canonical", lambda sx, sy: True)
        return low_index_enumerate(max_index)


# ---------------------------------------------------------------------------
# validation


def test_parse_permrep_full_group():
    rep = parse_permrep({"n": 1, "S": [0], "T": [0]})
    assert rep == FULL


def test_parse_permrep_rejects_bad_relations():
    with pytest.raises(ParseError):
        parse_permrep({"n": 4, "S": [1, 2, 3, 0], "T": [0, 1, 2, 3]})  # S order 4
    with pytest.raises(ParseError):
        parse_permrep({"n": 2, "S": [0, 1], "T": [1, 0]})  # (ST)^3 != id
    with pytest.raises(ParseError):
        parse_permrep({"n": 2, "S": [0, 1], "T": [0, 1]})  # intransitive
    with pytest.raises(ParseError):
        parse_permrep({"n": 3, "S": [0, 0, 1], "T": [0, 1, 2]})  # not a permutation


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2.7, "S": [1, 0], "T": [1.9, 0]},  # int() would read n = 2, T = [1, 0]
        {"n": 1, "S": [True], "T": [0]},  # a JSON boolean is not an integer
        {"n": "1", "S": [0], "T": [0]},
        {"n": 1, "S": "0", "T": [0]},
    ],
)
def test_parse_permrep_refuses_non_integers(data):
    with pytest.raises(ParseError):
        parse_permrep(data)


def test_permrep_refuses_zero_points():
    with pytest.raises(ParseError):
        PermRep(0, (), ())


def gamma0_2_rep():
    # cosets of the upper-triangular subgroup of PSL2(Z/2)
    G = psl2_group(2)
    _, T = G.gens
    sub = [G.identity, T]
    return coset_permrep(G, sub)


def test_gamma0_2_rep_is_valid():
    rep = gamma0_2_rep()
    assert rep.n == 3


def oracle_coset_permrep(G, subgroup):
    """The permrep read off one coset labelling of G by products: the
    subgroup's coset first, then the others by least element."""
    S, T = G.gens
    reps, label = coset_labels([G.identity, *range(G.size)], sorted(subgroup), G.mul)
    sperm = tuple(label[G.mul(r, S)] for r in reps)
    tperm = tuple(label[G.mul(r, T)] for r in reps)
    return PermRep(len(reps), sperm, tperm)


def test_coset_permrep_matches_the_labelling_oracle():
    # every subgroup of PSL2(Z/n) that the exact-test soundness suite walks
    count = 0
    for n in (2, 3, 4, 5, 6, 8):
        P, _, seen = psl_subgroups(n)
        for subgroup in all_subgroups(seen):
            assert coset_permrep(P, subgroup) == oracle_coset_permrep(P, subgroup)
            count += 1
    assert count == 516


def test_coset_permrep_rejects_a_non_subgroup():
    G = psl2_group(3)  # A4, which has no subgroup of order 6
    _, T = G.gens  # order 3
    C = frozenset(powers(G, T))
    # some unions of two cosets of <T> tile G by their translates
    sixes = {C | {G.mul(c, x) for c in C} for x in range(G.size) if x not in C}
    for elems in ([G.identity, T], [T, G.inv[T]], [T], *sixes):
        with pytest.raises(InternalCheckError):
            coset_permrep(G, elems)


def test_coset_permrep_refuses_generators_off_the_modular_relations():
    G = DenseGroup({x: x for x in range(4)}, lambda x, y: (x + y) % 4, 0, [1, 2])  # "S" = 1 has order 4
    with pytest.raises(InternalCheckError, match="not S, T"):
        coset_permrep(G, [0])


def test_coset_permrep_refuses_st_of_order_other_than_1_or_3():
    # "S" = 3 squares to the identity, but "ST" = 5 has order 6
    G = DenseGroup({x: x for x in range(6)}, lambda x, y: (x + y) % 6, 0, [3, 2])
    with pytest.raises(InternalCheckError, match="not S, T"):
        coset_permrep(G, [0])


def test_built_permreps_pass_every_public_check():
    # coset_permrep and low_index_enumerate build permreps without
    # PermRep's checks, which hold by construction; the public
    # constructor re-runs all of them as the oracle
    reps = low_index_enumerate(12) + raw_coset_tables(12)
    for n in SOUNDNESS_LEVELS:
        P, _, seen = psl_subgroups(n)
        reps += [coset_permrep(P, subgroup) for subgroup in all_subgroups(seen)]
    for rep in reps:
        checked = PermRep(rep.n, rep.S, rep.T)
        assert checked == rep and hash(checked) == hash(rep)


def test_only_parsed_permreps_run_the_checks(monkeypatch):
    checked = []
    original = PermRep.__post_init__
    monkeypatch.setattr(PermRep, "__post_init__", lambda rep: checked.append(rep) or original(rep))
    low_index_enumerate(6)
    gamma0_2_rep()
    assert checked == []
    rep = parse_permrep({"n": 3, "S": [1, 0, 2], "T": [0, 2, 1]})
    assert checked == [rep]


# ---------------------------------------------------------------------------
# cusp splits


def test_cusp_split_examples():
    assert cusp_split(FULL) == CuspSplit((1,), 1)
    rep = gamma0_2_rep()
    assert cusp_split(rep) == CuspSplit((1, 2), 2)


def test_cusp_split_gamma_2():
    # the level-2 kernel itself on 6 cosets: three cusps of width 2
    G = psl2_group(2)
    rep = coset_permrep(G, [G.identity])
    assert rep.n == 6
    assert cusp_split(rep) == CuspSplit((2, 2, 2), 2)


def test_cusp_split_sums_to_degree():
    for rep in low_index_enumerate(6):
        assert cusp_split(rep).index == rep.n


# ---------------------------------------------------------------------------
# screens


def test_larcher_examples():
    assert not larcher_check(CuspSplit((3, 4), 12)).passed
    assert larcher_check(CuspSplit((3, 4), 12)).failure() == "min+max"
    assert larcher_check(CuspSplit((1, 6), 6)).passed
    assert larcher_check(CuspSplit((8,), 8)).passed


def brute_projective_order(n):
    """Oracle: count SL2(Z/n) four-tuples directly, halving for n > 2."""
    count = 0
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if (a * d - b * c) % n == 1 % n:
            count += 1
    return count if n <= 2 else count // 2


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 6), (6, 72), (7, 168), (8, 192)])
def test_projective_orders(n, expected):
    assert brute_projective_order(n) == expected
    assert projective_group_order(n) == expected


def test_projective_orders_match_the_ideal_order_formula():
    # the per-test path factors n directly; the frames' formula goes through ideals
    Z = parse_domain("Z")
    for n in range(1, 500):
        order = sl2_order_formula(Z.principal_ideal(n))
        assert projective_group_order(n, cap=order) == (order if n <= 2 else order // 2)
    for n in (0, 0, -1):  # refused on every call, though results are cached per level
        with pytest.raises(ValueError):
            projective_group_order(n)


# ---------------------------------------------------------------------------
# oracle: PSL2(Z/n) as 4-tuples mod n up to sign, and the two-phase exact
# test that walks it (first label every element, then check every edge)


def _matmul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


@functools.lru_cache(maxsize=None)
def oracle_psl2(n):
    """(elements, right_S, right_T) of PSL2(Z/n), by BFS from S and T."""

    def canon(m):
        m = tuple(v % n for v in m)
        return min(m, tuple(-v % n for v in m))

    s = canon((0, -1, 1, 0))
    t = canon((1, 1, 0, 1))
    elements = [canon((1, 0, 0, 1))]
    index = {elements[0]: 0}
    qi = 0
    while qi < len(elements):
        e = elements[qi]
        qi += 1
        for m in (s, t):
            prod = canon(_matmul(e, m))
            if prod not in index:
                index[prod] = len(elements)
                elements.append(prod)
    right_S = [index[canon(_matmul(e, s))] for e in elements]
    right_T = [index[canon(_matmul(e, t))] for e in elements]
    return elements, right_S, right_T


def oracle_exact_test(rep, n0):
    elements, right_S, right_T = oracle_psl2(n0)
    phi = [None] * len(elements)
    phi[0] = 0
    order = [0]
    actions = ((right_S, rep.S), (right_T, rep.T))
    qi = 0
    while qi < len(order):
        e = order[qi]
        qi += 1
        for right, sigma in actions:
            if phi[right[e]] is None:
                phi[right[e]] = sigma[phi[e]]
                order.append(right[e])
    return all(
        sigma[phi[e]] == phi[right[e]]
        for e in range(len(elements))
        for right, sigma in actions
    )


def test_projective_order_matches_oracle_group():
    for n in range(1, 31):
        assert projective_group_order(n) == len(oracle_psl2(n)[0])


def test_psl2_group_matches_oracle_group():
    for n in (1, 2, 3, 4, 6, 8):
        G = psl2_group(n)
        assert G.size == len(oracle_psl2(n)[0])
        assert dense_closure_by_bfs(G, G.gens) == frozenset(range(G.size))


def soundness_subgroups():
    """(ring, P, subgroup, generators) for each subgroup of the exact-test
    soundness suite, its generators conjugated from its class rep's."""
    for n in SOUNDNESS_LEVELS:
        P, reps, seen = psl_subgroups(n)
        gens = {}
        for elems, rep_gens in reps:
            gens.update(conjugates(P, elems, rep_gens))
        for subgroup in all_subgroups(seen):
            yield integer_quotient(n), P, subgroup, gens[subgroup]


def test_sl2_preimage_from_generators_is_the_element_preimage():
    count = 0
    for ring, P, subgroup, gens in soundness_subgroups():
        codes = sl2_preimage_codes(ring, P, subgroup)
        H = sl2_preimage(ring, P, subgroup, gens)
        assert H.elements == codes
        frame = frame_from_group(H)
        oracle = frame_from_group(FinMatGroup.from_elements(ring, codes))
        assert frame_level(frame) == frame_level(oracle)
        assert frame.index == oracle.index
        count += 1
    assert count == 516


def test_sl2_preimage_refuses_generators_of_a_proper_subgroup():
    # a class rep's last generator is the one its cyclic extension added,
    # so the others generate a proper subgroup
    refused = 0
    for n in SOUNDNESS_LEVELS:
        P, reps, _ = psl_subgroups(n)
        ring = integer_quotient(n)
        for elems, gens in reps[1:]:
            with pytest.raises(InternalCheckError, match="SL2 preimage"):
                sl2_preimage(ring, P, elems, gens[:-1])
            refused += 1
    assert refused == sum(len(psl_subgroups(n)[1]) - 1 for n in SOUNDNESS_LEVELS)


def test_exact_test_matches_oracle():
    # every rep of index <= 12 at its own level, and up to index 9 also the
    # walk at twice the level: by Wohlfahrt's theorem the verdict is the same
    for rep in low_index_enumerate(12):
        level = cusp_split(rep).level
        v = exact_congruence_test(rep)
        assert v.level == level
        assert v.congruence == oracle_exact_test(rep, level)
        if rep.n <= 9:
            assert v.congruence == oracle_exact_test(rep, 2 * level)


RANDOM_ORDER_BOUND = 10_000  # |PSL2(Z/N)| the oracle walks per random rep


@st.composite
def transitive_reps(draw, max_points=16, order_bound=RANDOM_ORDER_BOUND):
    """A transitive rep on S, an involution, and T = S*Z, Z of order 3;
    |PSL2(Z/N)| at its level N is at most order_bound unless that is None."""
    n = draw(st.integers(4, max_points))
    pairs = draw(st.permutations(range(n)))
    triples = draw(st.permutations(range(n)))
    S = list(range(n))
    Z = list(range(n))
    for i in range(0, 2 * draw(st.integers(max(0, n // 2 - 1), n // 2)), 2):
        S[pairs[i]], S[pairs[i + 1]] = pairs[i + 1], pairs[i]
    for i in range(0, 3 * draw(st.integers(max(0, n // 3 - 1), n // 3)), 3):
        x, y, z = triples[i : i + 3]
        Z[x], Z[y], Z[z] = y, z, x
    try:
        rep = PermRep(n, tuple(S), tuple(Z[x] for x in S))
    except ParseError:  # intransitive
        assume(False)
    if order_bound is not None:
        try:
            projective_group_order(cusp_split(rep).level, order_bound)
        except CapExceeded:
            assume(False)
    return rep


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(transitive_reps())
def test_exact_test_matches_oracle_on_random_reps(rep):
    v = exact_congruence_test(rep, cap=RANDOM_ORDER_BOUND)
    assert v.congruence == oracle_exact_test(rep, v.level)


# ---------------------------------------------------------------------------
# oracle: Hsu's test as a single call, rebuilding every level datum and
# every power table per rep


def percall_exact_test(rep):
    """(congruence, level) by Hsu's relations, with no state kept between calls."""
    cycles_T = cusp_split(rep).cycles
    N = lcm(*map(len, cycles_T))
    e = N & -N
    m = N // e
    c = e * pow(e, -1, m) % N
    d = (1 - c) % N
    h, f = pow(2, -1, m), pow(5, -1, e)
    cycles = {"L": cycles_T, "R": [[rep.S[x] for x in reversed(cyc)] for cyc in cycles_T]}

    def power(g, k):
        p = [0] * rep.n
        for cyc in cycles[g]:
            for x, y in zip(cyc, cyc[k % len(cyc) :] + cyc[: k % len(cyc)]):
                p[x] = y
        return tuple(p)

    def act(word):
        return functools.reduce(perm_mul, (power(g, k % N) for g, k in word), tuple(range(rep.n)))

    a, l, r = ("L", c), ("L", d), ("R", d)
    a_, b_, l_, r_ = ("L", -c), ("R", -c), ("L", -d), ("R", -d)
    s = [("L", 20 * d), ("R", f * d), ("L", -4 * d), r_]
    s_ = [r, ("L", 4 * d), ("R", -f * d), ("L", -20 * d)]
    u, u_ = [l, r_, l], [l_, r, l_]
    relations = [([a_, r_, a, r], [])] if c and d else []
    if c:
        relations += [
            ([a, b_, a] * 4, []),
            ([a, b_, a] * 2, [b_, a] * 3),
            ([a, b_, a] * 2, [("R", 2 * c), ("L", -c * h)] * 3),
        ]
    if d:
        relations += [
            (u_ + s + u + s, []),
            (s_ + [r] + s, [("R", 25 * d)]),
            (u * 2, (s + [("R", 5 * d)] + u) * 3),
        ]
    return all(act(lhs) == act(rhs) for lhs, rhs in relations), N


def test_exact_test_matches_the_per_call_oracle():
    reps = low_index_enumerate(12) + raw_coset_tables(12)
    for n in SOUNDNESS_LEVELS:
        P, _, seen = psl_subgroups(n)
        reps += [coset_permrep(P, subgroup) for subgroup in all_subgroups(seen)]
    assert len(reps) == 175 + 1558 + 516
    for rep in reps:
        v = exact_congruence_test(rep)
        assert (v.congruence, v.level) == percall_exact_test(rep)


def test_exact_test_matches_the_per_call_oracle_on_random_reps():
    # the oracle walks no group, so the level is bounded only by the degree
    seen = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(transitive_reps(max_points=40, order_bound=None))
    def check(rep):
        v = exact_congruence_test(rep, cap=inf)
        assert (v.congruence, v.level) == percall_exact_test(rep)
        seen.append((v.level, v.congruence))

    check()
    levels = {N for N, _ in seen}
    assert any(N % 2 == 0 and N & (N - 1) for N in levels)  # c and d both nonzero
    assert max(levels) > 1000 and {True, False} <= {congruence for _, congruence in seen}


def test_exact_test_needs_the_commutator_at_mixed_levels():
    # index 18, level 12 = 4 * 3, cusp widths (2, 4, 12): of Hsu's relations
    # only a^-1 r^-1 a r = 1 fails, the one that ties the 2-part to the odd part
    reps = [
        PermRep(
            18,
            (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 12, 13, 10, 11, 15, 14, 17, 16),
            (2, 0, 5, 4, 6, 1, 8, 3, 11, 10, 9, 14, 7, 12, 15, 16, 17, 13),
        ),
        PermRep(
            18,
            (1, 0, 3, 2, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 17, 16),
            (3, 2, 5, 4, 8, 9, 0, 1, 13, 6, 11, 12, 17, 14, 7, 16, 15, 10),
        ),
    ]
    for rep in reps:
        assert cusp_split(rep).lengths == (2, 4, 12)
        assert exact_congruence_test(rep) == CongruenceVerdict(False, 12)
        assert not oracle_exact_test(rep, 12)
        assert percall_exact_test(rep) == (False, 12)


def test_level_data_is_built_once_per_level():
    reps = low_index_enumerate(12)
    levels = {cusp_split(rep).level for rep in reps}
    _hsu_relations.cache_clear()
    _projective_order.cache_clear()
    for _ in range(2):
        for rep in reps:
            screen_permrep(rep, run_all=True)
    for cached in (_hsu_relations, _projective_order):
        info = cached.cache_info()
        assert info.misses == info.currsize == len(levels) == 23


def test_index_level_examples():
    # a split (3,4) subgroup of index 7 fails the index >= level screen
    for rep in low_index_enumerate(7):
        split = cusp_split(rep)
        if split.lengths == (3, 4):
            v = index_level_checks(rep, split)
            assert not v.index_at_least_level
        if split.lengths == (1, 6):
            v = index_level_checks(rep, split)
            assert v.index_at_least_level
            assert not v.index_divides_order  # 7 does not divide 72
            assert v.projective_order == 72


# ---------------------------------------------------------------------------
# exact test


def test_exact_test_examples():
    assert exact_congruence_test(FULL) == exact_congruence_test(FULL)
    v = exact_congruence_test(FULL)
    assert v.congruence and v.level == 1

    rep = gamma0_2_rep()
    v = exact_congruence_test(rep)
    assert v.congruence and v.level == 2


def level_eight_noncongruence_rep():
    # index 8, one cusp of width 8, passes every screen but the exact test
    for rep in low_index_enumerate(8):
        if rep.n == 8 and cusp_split(rep).lengths == (8,) and index_level_checks(rep).passed:
            if not oracle_exact_test(rep, 8):
                return rep
    raise AssertionError("no level-8 non-congruence rep of index 8")


def test_exact_test_builds_no_ring_and_multiplies_nothing(monkeypatch):
    # the relations act on the cosets only: no ring Z/(N), no matrix product
    reps = (gamma0_2_rep(), level_eight_noncongruence_rep())
    mmuls = []
    real_mmul = _MatOps.mmul

    def counting_mmul(self, x, y):
        mmuls.append((x, y))
        return real_mmul(self, x, y)

    monkeypatch.setattr(_MatOps, "mmul", counting_mmul)
    _quotient.cache_clear()
    assert [exact_congruence_test(r).congruence for r in reps] == [True, False]
    assert _quotient.cache_info().currsize == 0
    assert mmuls == []


@pytest.mark.parametrize("run_all", [False, True])
def test_warm_level_still_honours_the_cap(run_all):
    # a test that passed at a level is refused there under a smaller cap
    rep = gamma0_2_rep()
    assert exact_congruence_test(rep).congruence
    with pytest.raises(CapExceeded):
        exact_congruence_test(rep, cap=5)
    with pytest.raises(CapExceeded):
        projective_group_order(2, cap=5)
    with pytest.raises(CapExceeded):
        screen_permrep(rep, run_all=run_all, cap=5)


def test_exact_test_on_small_kernel_cosets():
    # every subgroup realized inside PSL2(Z/n) must test as congruence
    for n in (2, 3):
        G = psl2_group(n)
        # subgroups generated by one element
        seen = set()
        for g in range(G.size):
            sub = {G.identity}
            x = g
            while x not in sub:
                sub.add(x)
                x = G.mul(x, g)
            key = frozenset(sub)
            if key in seen:
                continue
            seen.add(key)
            rep = coset_permrep(G, sub)
            assert exact_congruence_test(rep).congruence


def test_wohlfahrt_coherence():
    # walking PSL2 at a multiple of the level gives the verdict at the level
    for rep in low_index_enumerate(7):
        v = exact_congruence_test(rep)
        assert oracle_exact_test(rep, 2 * v.level) == v.congruence


# ---------------------------------------------------------------------------
# enumeration


def _transitive(x, y):
    n = len(x)
    seen = {0}
    frontier = [0]
    while frontier:
        c = frontier.pop()
        for p in (x, y):
            if p[c] not in seen:
                seen.add(p[c])
                frontier.append(p[c])
    return len(seen) == n


def _standardize_xy(sx, sy, base):
    """Oracle: renumber the cosets breadth first from base."""
    old2new = {base: 0}
    order = [base]
    qi = 0
    while qi < len(order):
        c = order[qi]
        qi += 1
        for img in (sx[c], sy[c]):
            if img not in old2new:
                old2new[img] = len(order)
                order.append(img)
    n = len(sx)
    nsx = [0] * n
    nsy = [0] * n
    for old, new in old2new.items():
        nsx[new] = old2new[sx[old]]
        nsy[new] = old2new[sy[old]]
    return tuple(nsx), tuple(nsy)


def _rebased_minimum(sx, sy):
    """Oracle: the least renumbering of a table over every base coset."""
    return min(_standardize_xy(sx, sy, base) for base in range(len(sx)))


def brute_standardized_tables(n):
    """Oracle: filter all (involution, order-3) pairs directly."""
    idp = tuple(range(n))
    perms = list(itertools.permutations(range(n)))
    invol = [p for p in perms if perm_mul(p, p) == idp]
    order3 = [p for p in perms if perm_mul(perm_mul(p, p), p) == idp]
    subs = set()
    for x in invol:
        for y in order3:
            if _transitive(x, y):
                subs.add(_standardize_xy(x, y, 0))
    return subs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumeration_matches_brute_force(n):
    oracle = brute_standardized_tables(n)
    classes_oracle = {_rebased_minimum(*s) for s in oracle}
    mine = [r for r in low_index_enumerate(n) if r.n == n]
    mine_tables = {(r.S, perm_mul(r.S, r.T)) for r in mine}
    assert mine_tables == classes_oracle


def test_canonical_test_matches_the_rebased_minimum():
    # every raw coset table of index <= 12, read back as (x, z = x^-1 T)
    kept = 0
    for rep in raw_coset_tables(12):
        table = (rep.S, perm_mul(rep.S, rep.T))
        canonical = _is_canonical(*table)
        assert canonical == (_rebased_minimum(*table) == table)
        kept += canonical
    assert kept == len(low_index_enumerate(12)) == 175


def test_enumeration_trivial():
    assert low_index_enumerate(1) == [FULL]


def test_enumeration_finds_the_cited_splits():
    splits7 = {cusp_split(r).lengths for r in low_index_enumerate(7) if r.n == 7}
    assert (3, 4) in splits7 and (2, 5) in splits7 and (1, 6) in splits7
    splits8 = {cusp_split(r).lengths for r in low_index_enumerate(8) if r.n == 8}
    assert (8,) in splits8
    splits9 = {cusp_split(r).lengths for r in low_index_enumerate(9) if r.n == 9}
    assert (1, 1, 7) in splits9


def test_split_eight_noncongruence_exists():
    found = False
    for rep in low_index_enumerate(8):
        if rep.n == 8 and cusp_split(rep).lengths == (8,):
            v = index_level_checks(rep)
            if v.passed and larcher_check(cusp_split(rep)).passed:
                if not exact_congruence_test(rep).congruence:
                    found = True
    assert found


# ---------------------------------------------------------------------------
# screen driver


def test_screen_short_circuits_on_larcher():
    rep = next(
        r for r in low_index_enumerate(7) if cusp_split(r).lengths == (3, 4)
    )
    out = screen_permrep(rep)
    assert out["verdict"].startswith("non-congruence (larcher")
    assert "exact" not in out["screens"]
    out_all = screen_permrep(rep, run_all=True)
    assert "exact" in out_all["screens"]


@pytest.mark.parametrize("run_all", [False, True])
def test_screen_cap_below_kernel_index(run_all):
    rep = gamma0_2_rep()  # level 2, kernel index 6
    assert screen_permrep(rep, run_all=run_all, cap=6)["verdict"] == "congruence, level 2"
    with pytest.raises(CapExceeded):
        screen_permrep(rep, run_all=run_all, cap=5)


def test_screen_congruence_verdict():
    out = screen_permrep(gamma0_2_rep())
    assert out["verdict"] == "congruence, level 2"


def test_perm_helpers():
    assert perm_mul((1, 2, 0), (2, 0, 1)) == (0, 1, 2)


def test_subgroup_counts_match_transitive_action_recurrence():
    # independent oracle beyond brute-forceable degrees: with t_n the number
    # of transitive (involution, order-3) pairs on n labeled points and T_n
    # the unrestricted count, T_n = sum_k C(n-1, k-1) t_k T_{n-k}, and the
    # subgroup count of index n is t_n / (n-1)!
    import math

    N = 9
    invol = [1, 1]
    for n in range(2, N + 1):
        invol.append(invol[n - 1] + (n - 1) * invol[n - 2])
    ord3 = [1, 1, 1]
    for n in range(3, N + 1):
        ord3.append(ord3[n - 1] + (n - 1) * (n - 2) * ord3[n - 3])
    total = [invol[n] * ord3[n] for n in range(N + 1)]
    transitive = [0] * (N + 1)
    for n in range(1, N + 1):
        acc = total[n]
        for k in range(1, n):
            acc -= math.comb(n - 1, k - 1) * transitive[k] * total[n - k]
        transitive[n] = acc
    expected = {
        n: transitive[n] // math.factorial(n - 1) for n in range(1, N + 1)
    }
    assert all(
        transitive[n] % math.factorial(n - 1) == 0 for n in range(1, N + 1)
    )
    reps = raw_coset_tables(N)
    counts = {}
    for rep in reps:
        counts[rep.n] = counts.get(rep.n, 0) + 1
    assert counts == expected
