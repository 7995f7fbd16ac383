import itertools
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conglab
from conglab import matgroups, quotients, suites
from conglab.analyzer import EXAMPLE_NAMES, InternalCheckError, build_example
from conglab.domains import CapExceeded, factor_ideal, ideal_arith, ideal_pow, parse_domain
from conglab.matgroups import (
    FinMatGroup,
    Mat2,
    _ops,
    cube_law_check,
    cusp_representatives,
    full_sl2,
    make_generator,
    principal_congruence_image,
    projective_center_is_trivial,
    sl2_order_formula,
    standard_generators,
    unimodular_columns,
)
from conglab.quotients import additive_closure, build_quotient, ideal_image
from conglab.subgroups import (
    DenseGroup,
    all_subgroups,
    conjugates,
    extend_closure,
    subgroup_classes,
)
from conglab.suites import (
    SOUNDNESS_LEVELS,
    SURVEY_FAMILIES,
    exhaustive_frames,
    psl_subgroups,
)

from test_subgroups import (
    ORACLE_GROUPS,
    SMALL_MODULI,
    closure_codes,
    dense_closure_by_bfs,
    small_sl2,
)

Z = parse_domain("Z")
F3T = parse_domain("Fq[t] q=3")
F9T = parse_domain("Fq[t] q=9 mod=u^2+1")
ZSQ2 = parse_domain("Q(sqrt(-2)) maximal")


def ring_of(D, text):
    return build_quotient(D, D.parse_ideal(text))


def brute_sl2_codes(ring):
    """Oracle: enumerate all determinant-1 matrices directly."""
    ops = _ops(ring)
    out = set()
    n = ring.size
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if ring.sub(ring.mul(a, d), ring.mul(b, c)) == ring.one_idx:
            out.add(ops.encode(a, b, c, d))
    return out


# ---------------------------------------------------------------------------
# generators


def test_generator_T_zero_is_identity():
    R = ring_of(Z, "(5)")
    assert make_generator("T", R, R.zero_idx).code == _ops(R).identity


def test_generator_U_specializations():
    # U(a, c; x) = g T(x) g^-1 for g with first column (a, c)
    R = ring_of(Z, "(7)")
    conj = _ops(R).conj_translation
    one, zero = R.one_idx, R.zero_idx
    for x in range(R.size):
        assert conj(one, zero, x) == make_generator("T", R, x).code
        # U(0,1;x) is the lower unipotent with parameter -x; the family
        # {U(0,1;x)} equals {S(x)} as x ranges over the ring
        assert conj(zero, one, x) == make_generator("S", R, R.neg(x)).code


@pytest.mark.parametrize("D,text", [(Z, "(6)"), (F3T, "(t^2)")])
def test_conj_translation_matches_the_matrix_product(D, text):
    R = ring_of(D, text)
    ops = _ops(R)
    for g in full_sl2(R).sorted_elements():
        a, _, c, _ = ops.decode(g)
        for x in range(R.size):
            t = make_generator("T", R, x).code
            assert ops.conj_translation(a, c, x) == ops.mmul(ops.mmul(g, t), ops.minv(g))


def test_generator_Runi_over_z4():
    R = ring_of(Z, "(4)")
    m = make_generator("Runi", R, R.reduce(2))
    assert (m.a, m.b, m.c, m.d) == (3, 2, 2, 3)


def test_generator_errors():
    R = ring_of(Z, "(4)")
    with pytest.raises(ValueError):
        make_generator("Tdiag", R, R.reduce(2), R.zero_idx)  # 2 not a unit mod 4
    with pytest.raises(ValueError, match="unknown generator kind"):
        make_generator("U", R, R.reduce(2), R.reduce(2), R.one_idx)
    with pytest.raises(ValueError):
        Mat2(R, R.one_idx, R.zero_idx, R.zero_idx, R.reduce(3))  # det 3


# ---------------------------------------------------------------------------
# full SL2 and closure


@pytest.mark.parametrize(
    "D,text,expected",
    [(F3T, "(t)", 24), (F9T, "(t)", 720), (Z, "(4)", 48)],
)
def test_full_sl2_order_vs_brute_force(D, text, expected):
    R = ring_of(D, text)
    oracle = brute_sl2_codes(R)
    assert len(oracle) == expected
    G = full_sl2(R)
    assert G.elements == frozenset(oracle)
    assert sl2_order_formula(R.modulus) == expected


def test_warm_full_sl2_still_honours_the_cap():
    R = ring_of(Z, "(6)")
    assert full_sl2(R).order == 144
    with pytest.raises(CapExceeded):
        full_sl2(R, cap=10)
    assert full_sl2(R, cap=144).order == 144


def closure_codes_by_bfs(ring, gen_codes):
    """Oracle: BFS closure under the generators and their inverses."""
    ops = _ops(ring)
    step = list(gen_codes) + [ops.minv(g) for g in gen_codes]
    elems = {ops.identity}
    queue = [ops.identity]
    for x in queue:
        for g in step:
            y = ops.mmul(x, g)
            if y not in elems:
                elems.add(y)
                queue.append(y)
    return elems


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, len(SMALL_MODULI) - 1),
    st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
)
def test_closures_match_bfs_oracles(i, picks):
    R, G, dense = small_sl2(i)
    codes = G.sorted_elements()
    gens = [codes[p % len(codes)] for p in picks]
    closed = closure_codes(R, gens)
    assert closed == closure_codes_by_bfs(R, gens)
    H = FinMatGroup.from_elements(R, closed)
    assert closure_codes_by_bfs(R, H.gens) == closed
    idx = [dense.index[g] for g in gens]
    base = dense_closure_by_bfs(dense, idx[:-1])
    joined = extend_closure(base, idx[:-1], idx[-1], dense.mul)
    assert joined == dense_closure_by_bfs(dense, idx)
    assert {dense.labels[k] for k in joined} == closed


def test_closure_examples():
    R = ring_of(Z, "(5)")
    ops = _ops(R)
    assert closure_codes(R, [ops.identity]) == {ops.identity}
    t1 = make_generator("T", R, R.one_idx).code
    assert len(closure_codes(R, [t1])) == 5

    R2 = ring_of(Z, "(2)")
    gens = [make_generator("T", R2, R2.one_idx).code, make_generator("S", R2, R2.one_idx).code]
    assert closure_codes(R2, gens) == brute_sl2_codes(R2)
    assert len(brute_sl2_codes(R2)) == 6


def test_closure_cap():
    from conglab.domains import CapExceeded

    R = ring_of(Z, "(5)")
    gens = [make_generator("T", R, R.one_idx).code, make_generator("S", R, R.one_idx).code]
    with pytest.raises(CapExceeded) as exc:
        closure_codes(R, gens, cap=10)
    assert exc.value.partial == 10


def test_from_elements_rejects_non_groups():
    R = ring_of(Z, "(5)")
    t1 = make_generator("T", R, R.one_idx).code
    with pytest.raises(ValueError):
        FinMatGroup.from_elements(R, [_ops(R).identity, t1])


def test_lagrange_on_random_subgroups():
    R = ring_of(Z, "(6)")
    G = full_sl2(R)
    rng = random.Random(17)
    codes = G.sorted_elements()
    for _ in range(12):
        gens = [rng.choice(codes) for _ in range(2)]
        H = FinMatGroup.from_generators(R, gens)
        assert G.order % H.order == 0
        assert H.elements <= G.elements


# ---------------------------------------------------------------------------
# normal closure and congruence images


def normal_closure(ring, gen_codes, ambient):
    """Oracle: the smallest ambient-normal subgroup containing the generators.

    Each generator's conjugates by the ambient generators are queued, and
    the group is extended by those it does not yet contain; the result is
    then mapped into itself by every ambient generator, hence normal.
    """
    ops = _ops(ring)
    mmul, minv = ops.mmul, ops.minv
    grp = {ops.identity}
    gens = []
    queue = list(gen_codes)
    for s in queue:
        if s not in grp:
            grp = extend_closure(grp, gens, s, mmul)
            gens.append(s)
            queue.extend(mmul(mmul(minv(a), s), a) for a in ambient.gens)
    return FinMatGroup.from_elements(ring, grp)


def principal_congruence_image_by_scan(ring, a):
    """Oracle: the elements of SL2(R) congruent to 1 modulo the image of a."""
    A = ideal_image(ring, a).elements
    ops = _ops(ring)
    one = ring.one_idx
    out = set()
    for x in full_sl2(ring).elements:
        ma, mb, mc, md = ops.decode(x)
        if ring.sub(ma, one) in A and mb in A and mc in A and ring.sub(md, one) in A:
            out.add(x)
    return out


def ideals_containing(q):
    """Every ideal a >= q, the unit ideal included, from q's factorization."""
    out = [q.domain.unit_ideal()]
    for p, e in factor_ideal(q).pairs:
        out = [ideal_arith("product", a, ideal_pow(p, k)) for a in out for k in range(e + 1)]
    return out


@pytest.mark.parametrize(
    "D,text,count",
    [(Z, "(8)", 4), (Z, "(12)", 6), (Z, "(30)", 8), (F3T, "(t^2+t)", 4), (ZSQ2, "(6)", 12)],
)
def test_principal_congruence_image_matches_the_scan(D, text, count):
    R = ring_of(D, text)
    ideals = ideals_containing(R.modulus)
    assert len(set(ideals)) == count
    for a in ideals:
        assert a.contains_ideal(R.modulus)
        assert principal_congruence_image(R, a).elements == principal_congruence_image_by_scan(R, a)


def test_normal_closure_examples():
    R = ring_of(Z, "(4)")
    G = full_sl2(R)
    # translations over the image of (2) normally generate the level-(2)
    # image; its order is |(2)/(4)|^3 = 8 = |SL2(Z/4)| / |SL2(Z/2)|
    two = Z.parse_ideal("(2)")
    tgens = [make_generator("T", R, x).code for x in ideal_image(R, two).sorted_elements()]
    N = normal_closure(R, tgens, G)
    assert N.order == 8 == G.order // 6
    assert N.elements == principal_congruence_image(R, two).elements

    assert normal_closure(R, [_ops(R).identity], G).order == 1

    R3 = ring_of(F3T, "(t)")
    G3 = full_sl2(R3)
    N3 = normal_closure(R3, [make_generator("T", R3, R3.one_idx).code], G3)
    assert N3.elements == G3.elements


def test_principal_congruence_image_examples():
    R = ring_of(Z, "(4)")
    assert principal_congruence_image(R, Z.parse_ideal("(4)")).order == 1
    assert principal_congruence_image(R, Z.unit_ideal()).elements == full_sl2(R).elements
    img = principal_congruence_image(R, Z.parse_ideal("(2)"))
    # oracle: direct enumeration of X = I mod 2 with det 1 mod 4
    ops = _ops(R)
    direct = {
        x
        for x in brute_sl2_codes(R)
        if all(
            entry % 2 == target
            for entry, target in zip(ops.decode(x), (1, 0, 0, 1))
        )
    }
    assert len(direct) == 8
    assert img.elements == direct


def test_principal_congruence_image_requires_containment():
    R = ring_of(Z, "(4)")
    with pytest.raises(ValueError):
        principal_congruence_image(R, Z.parse_ideal("(3)"))


# Z/4 with no unit: the image of (2) gets no diagonal generator, so T(2) and
# S(2) give a group of order 4 against the kernel's 8
NO_DIAGONALS = """
import sys
from conglab import matgroups, quotients
from conglab.domains import InternalCheckError, parse_domain
Z = parse_domain("Z")
R = quotients._quotient.__wrapped__(Z, Z.parse_ideal("(4)").data)
R.is_unit = lambda i: False
try:
    matgroups.principal_congruence_image(R, Z.parse_ideal("(2)"))
except InternalCheckError as exc:
    print(sys.flags.optimize, exc)
"""


def test_principal_congruence_image_refuses_generators_short_of_the_kernel(monkeypatch):
    R = fresh_ring(Z, Z.parse_ideal("(4)"))
    two = Z.parse_ideal("(2)")
    assert principal_congruence_image(R, two).order == 8
    monkeypatch.setattr(R, "is_unit", lambda i: False)
    assert FinMatGroup(R, [make_generator(k, R, R.reduce(2)).code for k in "TS"]).order == 4
    with pytest.raises(InternalCheckError, match="fall short of the kernel"):
        principal_congruence_image(R, two)
    env = dict(os.environ, PYTHONPATH=str(Path(conglab.__file__).resolve().parents[1]))
    optimised = subprocess.run(
        [sys.executable, "-O", "-c", NO_DIAGONALS], capture_output=True, env=env, timeout=300
    )
    assert (optimised.returncode, optimised.stderr) == (0, b"")
    assert optimised.stdout == b"1 congruence image generators fall short of the kernel\n"


# ---------------------------------------------------------------------------
# cores and coset spaces


def borel_of_sl2_f3():
    R = ring_of(F3T, "(t)")
    gens = []
    for alpha in (1, 2):
        for beta in range(3):
            gens.append(
                make_generator("Tdiag", R, R.reduce((alpha,)), R.reduce((beta,)))
            )
    return R, FinMatGroup.from_generators(R, gens)


def coset_labels(elements, sub, mul):
    """Oracle: label the cosets {mul(h, x) : h in sub}, first seen first.

    Returns the representatives (the first element of each coset in the
    order of `elements`) and the map from each covered element to the
    index of its coset. Raises InternalCheckError when two cosets overlap,
    which the cosets of a subgroup never do.
    """
    label = {}
    reps = []
    for x in elements:
        if x in label:
            continue
        c = len(reps)
        reps.append(x)
        for h in sub:
            label[mul(h, x)] = c
    if len(label) != len(reps) * len(sub):
        raise InternalCheckError("cosets overlap: not the cosets of a subgroup")
    return reps, label


def core_of(subgroup, ambient):
    """Oracle: the largest ambient-normal subgroup inside the subgroup, as the
    kernel of the right-coset action (the intersection of all conjugates)."""
    mmul = _ops(subgroup.ring).mmul
    reps, label = coset_labels(ambient.sorted_elements(), subgroup.elements, mmul)
    core = [
        h
        for h in subgroup.sorted_elements()
        if all(label[mmul(r, h)] == i for i, r in enumerate(reps))
    ]
    return FinMatGroup.from_elements(subgroup.ring, core)


def test_core_examples():
    R, B = borel_of_sl2_f3()
    G = full_sl2(R)
    assert B.order == 6
    core = core_of(B, G)
    ops = _ops(R)
    assert core.elements == {ops.identity, ops.mneg(ops.identity)}

    # a normal subgroup is its own core
    N = principal_congruence_image(ring_of(Z, "(4)"), Z.parse_ideal("(2)"))
    G4 = full_sl2(ring_of(Z, "(4)"))
    assert core_of(N, G4).elements == N.elements


def test_coset_labels_partition_by_minimum():
    R, B = borel_of_sl2_f3()
    G = full_sl2(R)
    mmul = _ops(R).mmul
    for mul in (mmul, lambda b, x: mmul(x, b)):
        reps, label = coset_labels(G.sorted_elements(), B.elements, mul)
        assert len(reps) * B.order == G.order
        assert set(label) == G.elements
        # over sorted elements each representative is its coset's minimum
        for i, rep in enumerate(reps):
            coset = {mul(b, rep) for b in B.elements}
            assert {x for x in G.elements if label[x] == i} == coset
            assert min(coset) == rep


# ---------------------------------------------------------------------------
# borel image and double cosets


def borel_and_unipotent(ring):
    """Oracle: the images B of the upper-triangular subgroup of SL2(D), its
    diagonal over the image of the domain's unit group, and U = T(R)."""
    ops = _ops(ring)
    zero, one = ring.zero_idx, ring.one_idx
    borel = [
        ops.encode(u, r, zero, ring.inv(u)) for u in ring.domain_unit_image for r in range(ring.size)
    ]
    unipotent = [ops.encode(one, r, zero, one) for r in range(ring.size)]
    return FinMatGroup.from_elements(ring, borel), FinMatGroup.from_elements(ring, unipotent)


def test_borel_sizes():
    R = ring_of(Z, "(5)")
    B, U = borel_and_unipotent(R)
    assert B.order == 10 and U.order == 5

    R9 = ring_of(F9T, "(t)")
    B9, U9 = borel_and_unipotent(R9)
    assert B9.order == 72 and U9.order == 9

    ZSQ13 = parse_domain("Q(sqrt(-13)) maximal")
    R13 = build_quotient(ZSQ13, ZSQ13.principal_ideal((3, 0)))
    B13, U13 = borel_and_unipotent(R13)
    assert B13.order == 18 and U13.order == 9


def double_cosets_by_bfs(G, H, B):
    """Oracle: H\\G/B by a BFS over all of G under both generator sets."""
    ops = _ops(G.ring)
    mmul, minv = ops.mmul, ops.minv
    hgens = list(H.gens) + [minv(g) for g in H.gens]
    bgens = list(B.gens) + [minv(g) for g in B.gens]
    assigned = {}
    reps = []
    for x in G.sorted_elements():
        if x in assigned:
            continue
        reps.append(x)
        assigned[x] = x
        stack = [x]
        while stack:
            y = stack.pop()
            for z in [mmul(h, y) for h in hgens] + [mmul(y, b) for b in bgens]:
                if z not in assigned:
                    assigned[z] = x
                    stack.append(z)
    assert len(assigned) == G.order
    return reps


def stabiliser_count_by_conjugation(H, B, code):
    """Oracle: the distinct (1,1) entries of B intersected with code^-1 H code."""
    n3 = _ops(H.ring).n3
    return len({b // n3 for b in H.conjugated_by(code).elements & B.elements})


def assert_cusp_representatives_match_oracles(G, H, B):
    reps = cusp_representatives(H)
    assert [code for code, _ in reps] == double_cosets_by_bfs(G, H, B)
    assert [count for _, count in reps] == [
        stabiliser_count_by_conjugation(H, B, code) for code, _ in reps
    ]


@pytest.mark.parametrize("i", range(len(SMALL_MODULI)))
def test_unimodular_columns_hold_each_coset_minimum(i):
    # oracle: group all of SL2(R) by first column, in increasing code order
    R, G, _ = small_sl2(i)
    ops, n = _ops(R), R.size
    oracle = {}
    for x in G.sorted_elements():
        a, _, c, _ = ops.decode(x)
        oracle.setdefault(a * n + c, x)
    assert unimodular_columns(R) == oracle


def unimodular_columns_by_bfs(ring):
    """Oracle: a BFS from e1 under the standard generators, each new column's
    least code the minimum over all |R| completions x T(r), sorted by code."""
    ops = _ops(ring)
    n, add, mul = ring.size, ring.add_t, ring.mul_t
    gens = matgroups.standard_generators(ring)
    columns = {}
    queue = [ops.identity]
    for x in queue:  # queue grows as columns are found
        a, b, c, d = ops.decode(x)
        if a * n + c not in columns:
            b, d = min((add[b * n + mul[a * n + r]], add[d * n + mul[c * n + r]]) for r in range(n))
            columns[a * n + c] = ops.encode(a, b, c, d)
            queue.extend(ops.mmul(s, x) for s in gens)
    return dict(sorted(columns.items(), key=lambda item: item[1]))


def column_rings():
    """Z/n for n <= 40, the rings of five built-in examples and one small
    quotient of each random-suite domain."""
    rings = [ring_of(Z, f"({n})") for n in range(2, 41)]
    rings += [build_example(name).ring for name in ("ex2_13", "ex3_2", "ex3_5", "ex4_9", "ex4_10")]
    return rings + [small_sl2(i)[0] for i in range(len(SMALL_MODULI))]


def test_unimodular_columns_match_the_bfs_oracle_in_order(monkeypatch):
    for ring in column_rings():
        monkeypatch.setattr(ring, "_columns", None)
        assert list(unimodular_columns(ring).items()) == list(unimodular_columns_by_bfs(ring).items()), ring


def test_unimodular_columns_make_no_matrix_products(monkeypatch):
    def refuse(self, x, y):
        raise AssertionError("unimodular_columns multiplied matrices")

    rings = column_rings()
    monkeypatch.setattr(matgroups._MatOps, "mmul", refuse)
    for ring in rings:
        monkeypatch.setattr(ring, "_columns", None)
        assert len(unimodular_columns(ring)) * ring.size == matgroups.sl2_order(ring)


def translations_in_core(group, xs):
    """Oracle: whether g T(x) g^-1 lies in the group for every g in SL2(R), x in xs;
    it depends on g only through its first column."""
    ops = _ops(group.ring)
    return all(
        ops.conj_translation(a, c, x) in group.elements
        for a, _, c, _ in map(ops.decode, unimodular_columns(group.ring).values())
        for x in xs
    )


def quasi_amplitude_by_scan(group, code):
    """Oracle: {x in R : g T(x) g^-1 in H} at g = code, testing every x in R."""
    ring = group.ring
    ops = _ops(ring)
    a, _, c, _ = ops.decode(code)
    hits = [x for x in range(ring.size) if ops.conj_translation(a, c, x) in group.elements]
    return additive_closure(hits, ring)


def test_translations_in_core_matches_the_core_oracle():
    # T(x) lies in the core iff x lies in the quasi-amplitude of every orbit
    for frame in exhaustive_frames("Z/6") + exhaustive_frames("F3[t]/(t^2)"):
        R, H = frame.ring, frame.group
        core = core_of(H, full_sl2(R))
        for x in range(R.size):
            t = make_generator("T", R, x).code
            assert translations_in_core(H, [x]) == (t in core)
            assert all(x in A for A in H.amplitudes) == (t in core)
        assert frame.is_normal == (core.elements == H.elements)


def patch_sl2_order(monkeypatch, ring, order):
    """Make the order formula read `order`, and clear what the ring keeps of
    |SL2(R)|, all through monkeypatch, so its undo also drops what the ring
    cached from the patched formula."""
    monkeypatch.setattr(matgroups, "sl2_order_formula", lambda modulus: order)
    for attr in ("_sl2_order", "_full_sl2", "_columns"):
        monkeypatch.setattr(ring, attr, None)


def test_unimodular_columns_order_check_raises_internal_check(monkeypatch):
    ring = build_quotient(Z, Z.parse_ideal("(6)"))
    with monkeypatch.context() as patched:
        patch_sl2_order(patched, ring, 7)
        with pytest.raises(InternalCheckError, match="unimodular columns"):
            unimodular_columns(ring)
    assert len(unimodular_columns(ring)) * 6 == matgroups.sl2_order(ring) == 144


def test_double_cosets_examples():
    R, B = borel_of_sl2_f3()
    G = full_sl2(R)
    # G is one class, stabilised by all of B: both diagonal signs
    assert [count for _, count in cusp_representatives(G)] == [2]
    # Bruhat: B\G/B has the classes of 1 and of the Weyl element; B and the
    # Weyl conjugate of B meet in the diagonal torus
    assert [count for _, count in cusp_representatives(B)] == [2, 2]


@pytest.mark.parametrize("family", ["Z/4", "Z/6", "Z/8", "F3[t]/(t^2)"])
def test_double_cosets_match_oracle_on_every_frame(family):
    for frame in exhaustive_frames(family):
        B, _ = borel_and_unipotent(frame.ring)
        assert_cusp_representatives_match_oracles(full_sl2(frame.ring), frame.group, B)


@pytest.mark.parametrize(
    "spec, modulus", [("Z", "(20)"), ("Q(sqrt(-7)) maximal", "(4)")]
)
def test_double_cosets_match_oracle_on_random_frames(spec, modulus):
    R = ring_of(parse_domain(spec), modulus)
    G = full_sl2(R)
    B, _ = borel_and_unipotent(R)
    codes, bcodes = G.sorted_elements(), B.sorted_elements()
    rng = random.Random(f"double-cosets:{spec}")
    # two random elements mostly generate all of G; a Borel one keeps H small
    for _ in range(6):
        H = FinMatGroup.from_generators(R, [rng.choice(bcodes), rng.choice(codes)])
        assert_cusp_representatives_match_oracles(G, H, B)


# ---------------------------------------------------------------------------
# structural checks


def test_cube_law_examples():
    assert cube_law_check(Z, Z.parse_ideal("(2)"), Z.parse_ideal("(4)"))
    assert cube_law_check(F3T, F3T.parse_ideal("(t)"), F3T.parse_ideal("(t^2)"))
    p = factor_ideal(ZSQ2.principal_ideal((2, 0))).pairs[0][0]
    assert cube_law_check(ZSQ2, ideal_pow(p, 2), ideal_pow(p, 4))


def test_cube_law_orders():
    # the quotient orders |q/q'|^3 for the three frames above
    R = ring_of(Z, "(4)")
    assert principal_congruence_image(R, Z.parse_ideal("(2)")).order == (4 // 2) ** 3 == 8
    R = ring_of(F3T, "(t^2)")
    assert principal_congruence_image(R, F3T.parse_ideal("(t)")).order == (9 // 3) ** 3
    p = factor_ideal(ZSQ2.principal_ideal((2, 0))).pairs[0][0]
    R = build_quotient(ZSQ2, ideal_pow(p, 4))
    assert principal_congruence_image(R, ideal_pow(p, 2)).order == (16 // 4) ** 3


def cube_law_check_over_every_element(domain, q, q_sub, ring_cap=None):
    """Oracle: cube_law_check with S(x), T(x), R(x) over every x in q's image."""
    ring = build_quotient(domain, q_sub, ring_cap or quotients.DEFAULT_RING_CAP)
    img = principal_congruence_image(ring, q)
    gens = [
        make_generator(kind, ring, x).code
        for x in ideal_image(ring, q).sorted_elements()
        for kind in ("T", "S", "Runi")
    ]
    return all(g in img for g in gens) and FinMatGroup(ring, gens).order == img.order


def test_cube_law_check_from_generators_matches_every_element(monkeypatch):
    # each case of the cube-law suite gets the oracle's verdict
    verdicts = []

    def both(*args, **kwargs):
        verdicts.append(
            (cube_law_check(*args, **kwargs), cube_law_check_over_every_element(*args, **kwargs))
        )
        return verdicts[-1][0]

    monkeypatch.setattr(suites, "cube_law_check", both)
    result = suites.suite_cube_law(suites.DEFAULT_CAPS, 0)
    assert (result.checks, result.failures) == (9, [])
    assert verdicts == [(True, True)] * 9


def test_cube_law_precondition():
    with pytest.raises(ValueError):
        cube_law_check(Z, Z.parse_ideal("(2)"), Z.parse_ideal("(8)"))


def projective_center_by_scan(ring):
    """Oracle: every x in SL2(R) with x s = +-s x for each generator s of SL2(R)."""
    G = full_sl2(ring)
    ops = _ops(ring)
    mmul, mneg = ops.mmul, ops.mneg
    return {
        x for x in G.elements if all(mmul(x, g) in (mmul(g, x), mneg(mmul(g, x))) for g in G.gens)
    }


@pytest.mark.parametrize(
    "D,text",
    [
        (Z, "(5)"),
        (Z, "(9)"),
        (Z, "(25)"),
        (F9T, "(t)"),
        (F3T, "(t^2)"),
        (Z, "(7)"),
        (Z, "(27)"),
        (parse_domain("Fq[t] q=5"), "(t^2)"),
    ],
)
def test_projective_center_matches_the_scan(D, text):
    R = ring_of(D, text)
    ops = _ops(R)
    assert projective_center_by_scan(R) == {ops.identity, ops.mneg(ops.identity)}
    assert projective_center_is_trivial(R)


def test_projective_center_examples():
    with pytest.raises(CapExceeded):
        projective_center_is_trivial(ring_of(Z, "(5)"), cap=119)
    assert projective_center_is_trivial(ring_of(Z, "(5)"), cap=120)
    with pytest.raises(ValueError):
        projective_center_is_trivial(ring_of(Z, "(6)"))  # not local
    with pytest.raises(ValueError):
        projective_center_is_trivial(ring_of(Z, "(4)"))  # 2 not a unit


def _set_product(ring, A, B):
    ops = _ops(ring)
    return {ops.mmul(x, y) for x in A for y in B}


def test_coprime_congruence_images_multiply_to_full():
    R = ring_of(Z, "(12)")
    G = full_sl2(R)
    A = principal_congruence_image(R, Z.parse_ideal("(4)"))
    B = principal_congruence_image(R, Z.parse_ideal("(3)"))
    assert _set_product(R, A.elements, B.elements) == G.elements

    R2 = ring_of(F3T, "(t^2+t)")
    G2 = full_sl2(R2)
    A2 = principal_congruence_image(R2, F3T.parse_ideal("(t)"))
    B2 = principal_congruence_image(R2, F3T.parse_ideal("(t+1)"))
    assert _set_product(R2, A2.elements, B2.elements) == G2.elements


def test_elementary_times_congruence_image():
    # E(R, a-image) * G(b-image) = G((a+b)-image), including non-coprime
    # pairs; E(R, a) is the normal subgroup generated by the translations
    R = ring_of(Z, "(8)")
    G = full_sl2(R)
    a = Z.parse_ideal("(2)")
    b = Z.parse_ideal("(4)")
    egens = [
        make_generator("T", R, x).code for x in ideal_image(R, a).sorted_elements()
    ]
    E = normal_closure(R, egens, G)
    Gb = principal_congruence_image(R, b)
    Gsum = principal_congruence_image(R, Z.parse_ideal("(2)"))
    assert _set_product(R, E.elements, Gb.elements) == Gsum.elements


def test_core_equals_conjugate_intersection():
    # the coset-action kernel must agree with intersecting all conjugates
    R, B = borel_of_sl2_f3()
    G = full_sl2(R)
    ops = _ops(R)
    inter = set(B.elements)
    for g in G.elements:
        gi = ops.minv(g)
        inter &= {ops.mmul(ops.mmul(gi, h), g) for h in B.elements}
    assert core_of(B, G).elements == inter

    R6 = ring_of(Z, "(6)")
    G6 = full_sl2(R6)
    rng = random.Random(23)
    codes = G6.sorted_elements()
    H = FinMatGroup.from_generators(R6, [rng.choice(codes) for _ in range(2)])
    ops6 = _ops(R6)
    inter = set(H.elements)
    for g in G6.elements:
        gi = ops6.minv(g)
        inter &= {ops6.mmul(ops6.mmul(gi, h), g) for h in H.elements}
    assert core_of(H, G6).elements == inter


def test_full_sl2_order_check_raises_internal_check(monkeypatch):
    # the verifier must survive python -O and map to exit 4, not be an assert
    assert conglab.InternalCheckError is InternalCheckError
    ring = build_quotient(Z, Z.parse_ideal("(2)"))
    with monkeypatch.context() as patched:
        patch_sl2_order(patched, ring, 7)
        with pytest.raises(InternalCheckError):
            full_sl2(ring)
    assert full_sl2(ring).order == matgroups.sl2_order(ring) == 6


# ---------------------------------------------------------------------------
# column chain against the closure


def assert_chain_matches_closure(ring, gens, universe):
    """The column chain of <gens> against closure_codes: order, membership of
    every code in universe, the orbit of e1 and the translations T(x) in H."""
    H = FinMatGroup.from_generators(ring, gens)
    closed = closure_codes(ring, gens)
    assert H.order == len(closed)
    assert [x for x in universe if (x in H) != (x in closed)] == []
    ops, n = _ops(ring), ring.size
    columns = {a * n + c for a, _, c, _ in map(ops.decode, closed)}
    dns, nbns = H.transversal
    assert {v for v, dn in enumerate(dns) if dn >= 0} == columns
    for v in columns:  # (d*n, -b*n) of a t(v) = (a, b, c, d) in H
        a, c = divmod(v, n)
        assert ops.encode(a, ring.neg_t[nbns[v] // n], c, dns[v] // n) in closed
    assert {v for v, orbit in enumerate(H.orbit_of) if orbit == 0} == columns
    shifts = {b for a, b, c, d in map(ops.decode, closed) if (a, c) == (ring.one_idx, ring.zero_idx)}
    assert H.amplitudes[0].elements == shifts
    assert H.sorted_elements() == sorted(closed)  # listed from the chain


@pytest.mark.parametrize("family", SURVEY_FAMILIES)
def test_column_chain_matches_the_closure_on_every_survey_frame(family):
    frames = exhaustive_frames(family)
    ring = frames[0].ring
    universe = full_sl2(ring).sorted_elements()
    columns = unimodular_columns(ring)
    for F in frames:
        # the frame's group carries the survey's element set; rebuild from its generators
        assert_chain_matches_closure(ring, F.group.gens, universe)
        H = F.group
        assert H.order == len(H.elements)
        # each orbit starts at the least code of one of its columns
        for k, code in enumerate(H.least):
            assert any(columns[v] == code for v, orbit in enumerate(H.orbit_of) if orbit == k)


def test_the_full_transversal_holds_every_unimodular_column():
    rings = [ring_of(Z, "(12)"), ring_of(Z, "(30)"), ring_of(F3T, "(t^2)"), build_example("ex3_5").ring]
    for R in rings:
        dns, _ = full_sl2(R).transversal
        assert {v for v, dn in enumerate(dns) if dn >= 0} == set(unimodular_columns(R)), R


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, len(SMALL_MODULI) - 1),
    st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
)
def test_column_chain_matches_the_closure_on_random_frames(i, picks):
    # the first generator is upper triangular, which keeps many frames small
    R, G, _ = small_sl2(i)
    B, _ = borel_and_unipotent(R)
    codes, bcodes = G.sorted_elements(), B.sorted_elements()
    gens = [bcodes[picks[0] % len(bcodes)]] + [codes[p % len(codes)] for p in picks[1:]]
    assert_chain_matches_closure(R, gens, codes)


def orbits_by_matrix_walk(H):
    """Oracle: H's orbits on the unimodular columns, walked by matrix
    products, orbit 0 from the identity and each later one from the least
    code of the first column not yet reached, in code order. Returns the
    orbit of each column in code order, each orbit's least code and its A_k,
    the additive closure of the Schreier x with t(s v) T(x) = s t(v)."""
    ring, ops = H.ring, _ops(H.ring)
    n = ring.size
    columns = unimodular_columns(ring)

    def key(g):
        a, _, c, _ = ops.decode(g)
        return a * n + c

    orbit_of, least, amplitudes = {}, [], []
    for g0 in [ops.identity, *columns.values()]:
        if key(g0) in orbit_of:
            continue
        t, xs, walk = {key(g0): g0}, set(), [g0]
        for g in walk:
            for s in H.gens:
                h = ops.mmul(s, g)
                if key(h) not in t:
                    t[key(h)] = h
                    walk.append(h)
                else:
                    xs.add(ops.decode(ops.mmul(ops.minv(t[key(h)]), h))[1])
        orbit_of.update(dict.fromkeys(t, len(least)))
        least.append(min(columns[v] for v in t))
        amplitudes.append(additive_closure(xs, ring))
    return [orbit_of[v] for v in columns], least, amplitudes


def assert_orbits_match_matrix_walk(H):
    orbit_of, least, amplitudes = orbits_by_matrix_walk(H)
    assert [H.orbit_of[v] for v in unimodular_columns(H.ring)] == orbit_of
    assert H.least == least
    assert [A.elements for A in H.amplitudes] == [A.elements for A in amplitudes]
    # the ring's closure of the Schreier x's lists the set's greedy generators
    for A in H.amplitudes:
        assert A.generators == additive_closure(A.elements, H.ring).generators


@pytest.mark.parametrize("family", SURVEY_FAMILIES)
def test_table_walk_matches_the_matrix_walk_on_every_survey_frame(family):
    # the trivial group's frame is among them: one orbit per column
    for F in exhaustive_frames(family):
        assert_orbits_match_matrix_walk(F.group)


@pytest.mark.parametrize("i", range(len(SMALL_MODULI)))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3))
def test_table_walk_matches_the_matrix_walk_on_random_frames(i, picks):
    # one small ring of each random-suite domain; some frames have one orbit
    R, G, _ = small_sl2(i)
    codes = G.sorted_elements()
    H = FinMatGroup.from_generators(R, [codes[p % len(codes)] for p in picks])
    assert_orbits_match_matrix_walk(H)


def fresh_ring(D, modulus, ring_cap=None):
    """D/q built anew, not the interned ring, so no other test has used it."""
    return quotients._quotient.__wrapped__(D, modulus.data)


def test_cube_law_and_congruence_images_build_no_column_tables(monkeypatch):
    # only the walk of every orbit reads the columns and the generator
    # tables; a ring only ever walked from e1 must not pay for them (Z/81
    # has 6,480 columns)
    built = []

    def build(*args):
        built.append(fresh_ring(*args))
        return built[-1]

    monkeypatch.setattr(matgroups, "build_quotient", build)
    assert cube_law_check(Z, Z.parse_ideal("(9)"), Z.parse_ideal("(81)"))
    assert cube_law_check(F3T, F3T.parse_ideal("(t)"), F3T.parse_ideal("(t^2)"))
    R = fresh_ring(Z, Z.parse_ideal("(8)"))
    assert principal_congruence_image(R, Z.parse_ideal("(2)")).order == 64
    for ring in [*built, R]:
        assert ring._columns is None, ring
        assert "column_tables" not in ring.memo, ring


def test_a_prebuilt_element_set_is_checked_against_the_chain():
    R = ring_of(Z, "(6)")
    t1 = make_generator("T", R, R.one_idx).code
    with pytest.raises(TypeError):
        FinMatGroup(R, [t1], full_sl2(R).elements)  # a group takes no element set
    F = FinMatGroup.from_elements(R, closure_codes(R, [t1]))
    assert F.gens == (t1,) and F.order == 6
    # the chain of the greedy generators must reach the set's size
    with pytest.raises(ValueError, match="not multiplicatively closed"):
        FinMatGroup.from_elements(R, [_ops(R).identity, t1])


def test_elements_on_demand_match_the_chain():
    R = ring_of(Z, "(6)")
    t1 = make_generator("T", R, R.one_idx).code
    s2 = make_generator("S", R, R.reduce(2)).code
    H = FinMatGroup.from_generators(R, [t1, s2])
    order = H.order
    assert t1 in H and H._elements is None  # the chain answered both
    assert order == len(H.elements)
    assert H.sorted_elements() == sorted(closure_codes(R, [t1, s2]))
    ops = _ops(R)
    K = H.conjugated_by(s2)  # from the conjugated generators only
    assert K.elements == {ops.mmul(ops.mmul(ops.minv(s2), h), s2) for h in H.elements}


@pytest.mark.parametrize("D,text", [(Z, "(12)"), (Z, "(25)"), (Z, "(30)"), (F3T, "(t^2)")])
def test_full_sl2_lists_the_closure_in_sorted_order(D, text):
    R = ring_of(D, text)
    G = full_sl2(R)
    assert G.sorted_elements() == sorted(closure_codes(R, G.gens))


def test_chain_listing_matches_the_closure_on_the_examples():
    for name in EXAMPLE_NAMES:
        F = build_example(name)
        H = FinMatGroup(F.ring, F.group.gens)  # listed from its chain, however the frame was built
        assert H.sorted_elements() == sorted(closure_codes(F.ring, F.group.gens)), name
        assert H.elements == F.group.elements, name


def test_listing_makes_no_matrix_products(monkeypatch):
    calls = []
    real = matgroups._MatOps.mmul

    def counting(self, x, y):
        calls.append((x, y))
        return real(self, x, y)

    rings = [ring_of(Z, "(12)"), ring_of(F3T, "(t^2)"), ring_of(F9T, "(t)")]
    monkeypatch.setattr(matgroups._MatOps, "mmul", counting)
    for R in rings:
        monkeypatch.setattr(R, "_full_sl2", None)
        G = full_sl2(R)
        assert len(G.sorted_elements()) == G.order
        gens = [make_generator(k, R, R.one_idx).code for k in "TS"]
        H = FinMatGroup.from_generators(R, gens)
        assert len(H.elements) == H.order  # on demand
        assert FinMatGroup.from_elements(R, H.elements).order == H.order
        assert FinMatGroup.from_elements(R, G.elements).order == G.order
    assert calls == []


def test_from_elements_refuses_a_matrix_of_determinant_other_than_one():
    # {I, diag(3, 1)} over Z/6 is closed under products, but 3 * 1 = 3 is not 1
    R = ring_of(Z, "(6)")
    ops = _ops(R)
    diag = ops.encode(R.reduce(3), R.zero_idx, R.zero_idx, R.one_idx)
    with pytest.raises(ValueError, match="determinant"):
        FinMatGroup.from_elements(R, [ops.identity, diag])


@pytest.mark.parametrize("D, text, entry", [(Z, "(6)", "5"), (ZSQ2, "(3)", "w")])
def test_groups_refuse_a_generator_of_determinant_other_than_one(D, text, entry):
    # diag(x, 1) has determinant x: 5 over Z/6, and w over Z[sqrt(-2)]/(3)
    R = ring_of(D, text)
    ops = _ops(R)
    diag = ops.encode(R.reduce(D.parse_element(entry)), R.zero_idx, R.zero_idx, R.one_idx)
    t1 = make_generator("T", R, R.one_idx).code
    with pytest.raises(ValueError, match="determinant other than 1"):
        FinMatGroup(R, [t1, diag])
    with pytest.raises(ValueError, match="determinant other than 1"):
        FinMatGroup.from_generators(R, [diag])
    assert t1 in FinMatGroup.from_generators(R, [t1])


def greedy_generators_by_closure(ring, codes):
    """Oracle: the codes, in increasing order, outside the Dimino closure of
    the codes picked before them."""
    ops = _ops(ring)
    closed, found = {ops.identity}, []
    for x in sorted(codes):
        if x not in closed:
            closed = extend_closure(closed, found, x, ops.mmul)
            found.append(x)
    assert closed == set(codes)
    return tuple(found)


def sl2_preimage_codes(ring, P, elems):
    """Oracle: the codes +-x over ring = Z/n of the labels at the indices
    elems of P = psl2_group(n), the SL2(Z/n) preimage of a set of PSL2
    elements."""
    mneg = _ops(ring).mneg
    labels = [P.labels[e] for e in elems]
    return set(labels) | {mneg(x) for x in labels}


def test_from_elements_finds_the_closure_greedy_generators_on_every_soundness_subgroup():
    count = 0
    for n in SOUNDNESS_LEVELS:
        P, _, seen = psl_subgroups(n)
        R = build_quotient(Z, Z.principal_ideal(n))
        for subgroup in all_subgroups(seen):
            codes = sl2_preimage_codes(R, P, subgroup)
            H = FinMatGroup.from_elements(R, codes)
            assert H.gens == greedy_generators_by_closure(R, codes)
            assert H.elements == codes
            count += 1
    assert count == 516


# ---------------------------------------------------------------------------
# generators sifted into the column walk


class WalkEveryGenerator(FinMatGroup):
    """Oracle: the group walked on every given generator, with no sifting:
    e1's orbit from the identity, each column reached taking every
    generator in turn. The other orbits are FinMatGroup's own walk, on
    every generator's column table."""

    def __init__(self, ring, gens):
        ops, n = _ops(ring), ring.size
        add, mul, neg = ring.add_t, ring.mul_t, ring.neg_t
        one, zero = ring.one_idx, ring.zero_idx
        self.ring, self.gens = ring, tuple(gens)
        self._elements = self._sorted = None
        acts = [(a * n, b * n, c * n, d * n) for a, b, c, d in map(ops.decode, self.gens)]
        dns, nbns = array("i", [-1]) * n ** 2, array("i", [-1]) * n ** 2
        dns[one * n + zero], nbns[one * n + zero] = one * n, zero * n
        walk, xs = [(one, zero, zero, one)], set()
        for a, b, c, d in walk:
            for p, q, r, s in acts:
                a2 = add[mul[p + a] * n + mul[q + c]]
                c2 = add[mul[r + a] * n + mul[s + c]]
                b2 = add[mul[p + b] * n + mul[q + d]]
                d2 = add[mul[r + b] * n + mul[s + d]]
                v = a2 * n + c2
                if dns[v] < 0:
                    dns[v], nbns[v] = d2 * n, neg[b2] * n
                    walk.append((a2, b2, c2, d2))
                else:
                    xs.add(add[mul[dns[v] + b2] * n + mul[nbns[v] + d2]])
        self.transversal = dns, nbns
        self._amplitude0 = additive_closure(additive_closure(xs, ring).elements, ring)
        self.order = len(walk) * len(self._amplitude0)
        self._shifts = self._amplitude0.elements
        self._n, self._n2, self._n3 = n, n * n, n * n * n
        self._add, self._mul = add, mul


def orbit_zero(H):
    return {v for v, dn in enumerate(H.transversal[0]) if dn >= 0}


def assert_sifted_like_every_generator(ring, gens):
    """The sifted group against the oracle on the same generators: the
    same chain, and gens kept exactly where the earlier ones fall short."""
    gens = list(gens)
    H, oracle = FinMatGroup(ring, gens), WalkEveryGenerator(ring, gens)
    assert H.order == oracle.order
    assert orbit_zero(H) == orbit_zero(oracle)
    assert H.amplitudes[0].elements == oracle.amplitudes[0].elements  # A_0
    assert H.least == oracle.least
    assert [A.elements for A in H.amplitudes] == [A.elements for A in oracle.amplitudes]
    assert H.orbit_of == oracle.orbit_of
    before = [WalkEveryGenerator(ring, gens[:i]) for i in range(len(gens))]
    assert H.gens == tuple(g for g, group in zip(gens, before) if g not in group)
    return H


def class_generators(ring):
    """(order, generator codes) of each subgroup class rep of SL2(ring), as
    exhaustive_frames finds them, before it reverses them."""
    dense = DenseGroup.from_matgroup(full_sl2(ring))
    reps = subgroup_classes(dense)[0]
    return [(len(elems), [dense.labels[i] for i in gens]) for elems, gens in reps]


ORACLE_SL2_RINGS = {
    **{f"SL2(Z/{n})": (Z, f"({n})") for n in (4, 5, 6, 8)},
    "SL2(F3[t]/(t^2))": (F3T, "(t^2)"),
}


def test_sifting_matches_every_generator_on_the_oracle_groups():
    # the SL2 oracle groups on their standard generators both ways round,
    # and SL2(Z/5), which no survey holds, on every class rep's generators
    assert set(ORACLE_SL2_RINGS) == {name for name in ORACLE_GROUPS if name.startswith("SL2")}
    for name, (D, text) in ORACLE_SL2_RINGS.items():
        ring = ring_of(D, text)
        gens = standard_generators(ring)
        assert assert_sifted_like_every_generator(ring, gens).order == full_sl2(ring).order
        assert_sifted_like_every_generator(ring, gens[::-1])
    ring = ring_of(Z, "(5)")
    for order, gens in class_generators(ring):
        for ordered in (gens, gens[::-1]):
            assert assert_sifted_like_every_generator(ring, ordered).order == order


@pytest.mark.parametrize("family", SURVEY_FAMILIES)
def test_sifting_matches_every_generator_on_every_survey_class(family):
    ring = exhaustive_frames(family)[0].ring
    classes = class_generators(ring)
    for (order, gens), F in zip(classes, exhaustive_frames(family)):
        # the frames take their class's generators last first
        assert F.group.gens == assert_sifted_like_every_generator(ring, gens[::-1]).gens
        assert assert_sifted_like_every_generator(ring, gens).order == order


def test_sifting_matches_every_generator_on_every_soundness_preimage():
    # each subgroup's generators conjugated along its class walk, then -I,
    # as sl2_preimage takes them, and first first
    count = 0
    for n in SOUNDNESS_LEVELS:
        P, reps, seen = psl_subgroups(n)
        ring = build_quotient(Z, Z.principal_ideal(n))
        ops = _ops(ring)
        minus = [ops.mneg(ops.identity)] if n > 2 else []
        walked = {}
        for elems, gens in reps:
            walked.update(conjugates(P, elems, gens))
        for subgroup in all_subgroups(seen):
            labels = [P.labels[g] for g in walked[subgroup]]
            order = len(subgroup) * (1 + len(minus))
            assert assert_sifted_like_every_generator(ring, labels[::-1] + minus).order == order
            assert assert_sifted_like_every_generator(ring, labels + minus).order == order
            count += 1
    assert count == 516


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, len(SMALL_MODULI) - 1),
    st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=5),
)
def test_sifting_matches_every_generator_on_random_groups(i, picks):
    R, G, _ = small_sl2(i)
    B, _ = borel_and_unipotent(R)
    codes, bcodes = G.sorted_elements(), B.sorted_elements()
    # Borel generators first keep some groups small; repeats are dropped
    gens = [bcodes[p % len(bcodes)] for p in picks[:2]]
    gens += [codes[p % len(codes)] for p in picks[2:]]
    assert_sifted_like_every_generator(R, gens + gens[:1])


def test_sifting_keeps_only_the_final_amplitude_on_the_ring():
    # T(2) is sifted against <T(1)>, whose A_0 = R is closed then; S(1)
    # then adds Schreier x's, so the final A_0 has other ones
    R = fresh_ring(Z, Z.parse_ideal("(12)"))
    t1, t2, s1 = (make_generator(k, R, R.reduce(x)).code for k, x in (("T", 1), ("T", 2), ("S", 1)))
    H = FinMatGroup(R, [t1, t2, s1])
    assert H.gens == (t1, s1) and H.order == 1152
    closures = list(R.memo["column_amplitudes"].values())
    assert closures == [H.amplitudes[0]]


DROPPED_DETERMINANT = """
import sys
from conglab.domains import parse_domain
from conglab.matgroups import FinMatGroup, _ops, full_sl2, standard_generators
from conglab.quotients import build_quotient
Z = parse_domain("Z")
R = build_quotient(Z, Z.parse_ideal("(6)"))
ops = _ops(R)
diag = ops.encode(R.reduce(5), R.zero_idx, R.zero_idx, R.one_idx)
try:
    FinMatGroup(R, standard_generators(R) + [diag])
except ValueError as exc:
    print(sys.flags.optimize, exc)
"""


def test_a_generator_of_determinant_other_than_one_is_refused_where_sifting_drops_it():
    # diag(5, 1) over Z/6 has determinant 5; once the group is SL2(Z/6) its
    # column and its entry read as those of a member, diag(5, 5^-1)
    R = ring_of(Z, "(6)")
    ops, G = _ops(R), full_sl2(R)
    diag = ops.encode(R.reduce(5), R.zero_idx, R.zero_idx, R.one_idx)
    assert diag in G and diag not in G.elements
    with pytest.raises(ValueError, match="determinant other than 1"):
        FinMatGroup(R, standard_generators(R) + [diag])
    env = dict(os.environ, PYTHONPATH=str(Path(conglab.__file__).resolve().parents[1]))
    optimised = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_DETERMINANT], capture_output=True, env=env, timeout=300
    )
    assert (optimised.returncode, optimised.stderr) == (0, b"")
    assert optimised.stdout == b"1 generator has determinant other than 1\n"
