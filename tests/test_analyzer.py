import dataclasses
import hashlib
import json
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conglab import analyzer, matgroups, modular
from conglab.analyzer import (
    Caps,
    FramedSubgroup,
    InternalCheckError,
    quasi_level,
    TranslationSubspace,
    amplitude_at,
    amplitude_extrema_check,
    amplitude_join_search,
    analyze,
    build_example,
    cusp_split_check,
    cusps,
    frame_from_group,
    frame_ring,
    frame_subgroup,
    index_level_inequality_check,
    level,
    level_chain,
    level_index_divisibility_check,
    quasi_amplitude_at,
    quasi_level_ideal_check,
    screen_translation_subspace,
    standard_screen_subspace,
    unit_square_closure_check,
)
from conglab.domains import CapExceeded, factor_ideal, ideal_arith, parse_domain, residue_norm
from conglab.matgroups import (
    FinMatGroup,
    Mat2,
    _ops,
    full_sl2,
    make_generator,
    sl2_order_formula,
)
from conglab.quotients import _quotient, additive_closure, build_quotient, ideal_image
from conglab.subgroups import DenseGroup, subgroup_classes
from conglab.suites import exhaustive_frames

from test_matgroups import (
    SMALL_MODULI,
    assert_cusp_representatives_match_oracles,
    borel_and_unipotent,
    core_of,
    quasi_amplitude_by_scan,
    small_sl2,
)
from test_subgroups import closure_codes

Z = parse_domain("Z")
F3T = parse_domain("Fq[t] q=3")
F9T = parse_domain("Fq[t] q=9 mod=u^2+1")


# ---------------------------------------------------------------------------
# framing


def test_frame_full_group():
    ring = build_quotient(Z, Z.parse_ideal("(5)"))
    gens = [make_generator(k, ring, ring.one_idx) for k in ("T", "S")]
    F = frame_subgroup(Z, Z.parse_ideal("(5)"), gens)
    assert F.index == 1
    assert F.is_normal


def test_frame_borel_mod_t():
    q0 = F3T.parse_ideal("(t)")
    ring = build_quotient(F3T, q0)
    gens = [
        make_generator("Tdiag", ring, u, r)
        for u in ring.domain_unit_image
        for r in range(ring.size)
    ]
    F = frame_subgroup(F3T, q0, gens)
    assert F.index == 24 // 6 == 4


def test_frames_refuse_a_group_over_another_ring():
    z6 = _quotient.__wrapped__(Z, 6)  # not the interned ring
    t1 = make_generator("T", z6, z6.one_idx)
    with pytest.raises(ValueError, match="different ring"):
        frame_subgroup(Z, Z.parse_ideal("(5)"), [t1])
    # a ring built separately but equal is accepted
    F = frame_subgroup(Z, Z.parse_ideal("(6)"), [t1])
    assert F.ring is not z6 and F.index == 144 // 6
    assert frame_from_group(F.group).index == 24


def test_frame_from_group_holds_only_the_group_cap():
    # |SL2(Z/30)| = 17280
    F = z30_frame()
    with pytest.raises(CapExceeded, match=r"^\|SL2\(R\)\| = 17280 exceeds cap 17279$"):
        frame_from_group(F.group, Caps(group=17279))
    assert frame_from_group(F.group, Caps(group=17280)).index == F.index


def test_frames_hold_the_factor_cap_on_the_size_of_their_ring():
    # every ideal a frame factors contains q0, so its norm divides |D/q0| = 30
    q0 = Z.parse_ideal("(30)")
    F = z30_frame()
    for build in (lambda caps: frame_ring(Z, q0, caps), lambda caps: frame_from_group(F.group, caps)):
        with pytest.raises(CapExceeded, match=r"^ideal norm 30 exceeds factoring cap 29$"):
            build(Caps(factor=29))
        build(Caps(factor=30))


def test_a_frame_reads_its_domain_modulus_and_ring_off_its_group():
    ring = build_quotient(F3T, F3T.parse_ideal("(t^2)"))
    group = FinMatGroup.from_generators(ring, [make_generator("T", ring, ring.one_idx)])
    F = FramedSubgroup(group, info={"name": "t1"})
    assert (F.domain, F.modulus, F.ring, F.group) == (ring.domain, ring.modulus, ring, group)
    assert F.index * group.order == sl2_order_formula(ring.modulus)
    s = make_generator("S", ring, ring.one_idx).code
    G = F.conjugated_by(s)
    assert G.info == {"name": "t1"} and G.info is not F.info
    assert (G.domain, G.modulus, G.ring, G.index) == (F.domain, F.modulus, ring, F.index)
    assert FramedSubgroup(group).info == {}


def test_frame_ring_factors_the_modulus_only_past_the_cube_of_its_size(monkeypatch):
    # |SL2(Z/30)| = 17280 < 30^3 = 27000; the formula is read only when the
    # group cap is below 27000, and then it decides
    q0 = Z.parse_ideal("(30)")
    calls = []
    real = analyzer.sl2_order_formula
    monkeypatch.setattr(analyzer, "sl2_order_formula", lambda q: calls.append(q) or real(q))
    for cap in (5 * 10 ** 6, 27000):
        assert frame_ring(Z, q0, Caps(group=cap)).size == 30
    assert calls == []
    assert frame_ring(Z, q0, Caps(group=17280)).size == 30
    with pytest.raises(CapExceeded, match=r"\|SL2\(R\)\| = 17280 exceeds cap 17279"):
        frame_ring(Z, q0, Caps(group=17279))
    assert calls == [q0, q0]


def test_frame_trivial_image_is_kernel_itself():
    q0 = Z.parse_ideal("(6)")
    F = frame_subgroup(Z, q0, [])
    assert F.index == 144  # |SL2(Z/6)|
    lvl, ql, o = level_chain(F)
    assert lvl == q0 and o == q0
    assert len(ql) == 1


# ---------------------------------------------------------------------------
# the named example frames


def test_example_borel_kernel_facts():
    F = build_example("ex2_13")
    cs = cusps(F)
    assert F.index == 4
    assert len(cs) == 2
    amps = sorted(str(c.amplitude) for c in cs)
    assert amps == ["(1)", "(t)"]
    assert sorted(c.term for c in cs) == [1, 3]
    cusp_split_check(F)
    assert level(F) == F3T.parse_ideal("(t)")
    v = amplitude_extrema_check(F)
    assert str(v.c_min) == "(t)" and str(v.c_max) == "(1)"


def test_example_icosahedral_function_field_facts():
    F = build_example("ex3_2")
    assert F.index == 6
    cs = cusps(F)
    assert len(cs) == 1
    c = cs[0]
    assert residue_norm(F.ring.modulus) // len(c.quasi_amplitude) * len(
        c.quasi_amplitude
    ) == 9
    assert F.ring.size // len(c.quasi_amplitude) == 3
    assert c.m_factor == 2
    assert c.width == 6
    lvl = level(F)
    assert lvl == F9T.parse_ideal("(t)")
    verdict = quasi_level_ideal_check(F)
    assert verdict.status == "pass"


def test_example_icosahedral_quasi_amplitudes_differ():
    F = build_example("ex3_2")
    ring = F.ring
    ops = _ops(ring)
    # a primitive root of F_9 placed on the diagonal
    zeta = next(
        u for u in ring.units
        if len({_pow(ring, u, k) for k in range(1, 9)}) == 8
    )
    gamma = make_generator("Tdiag", ring, zeta, ring.zero_idx)
    b_id = quasi_amplitude_at(F, ops.identity)
    b_gamma = quasi_amplitude_at(F, gamma)
    assert b_gamma.elements != b_id.elements
    zsq = ring.mul(zeta, zeta)
    scaled = {ring.mul(zsq, x) for x in b_id.elements}
    assert b_gamma.elements == scaled or b_gamma.elements == {
        ring.mul(ring.inv(zsq), x) for x in b_id.elements
    }


def _pow(ring, x, k):
    out = ring.one_idx
    for _ in range(k):
        out = ring.mul(out, x)
    return out


def test_example_icosahedral_bianchi_facts():
    F = build_example("ex3_5")
    D = F.domain
    assert F.index == 6
    cs = cusps(F)
    assert len(cs) == 2
    three = D.principal_ideal((3, 0))
    assert all(c.amplitude == three for c in cs)
    sets = [c.quasi_amplitude.elements for c in cs]
    assert not (sets[0] <= sets[1]) and not (sets[1] <= sets[0])
    v = amplitude_extrema_check(F)
    assert list(v.amplitudes) == [three]


def test_example_square_coordinates_facts():
    F = build_example("ex4_9")
    D = F.domain
    assert F.group.order == 16
    assert F.is_normal
    lvl, ql, o = level_chain(F)
    assert lvl == F.modulus  # p^4
    assert ideal_image(F.ring, lvl).elements != ql.elements
    verdict = quasi_level_ideal_check(F)
    assert verdict.status == "not_applicable"
    assert verdict.condition.failed_clause == "i"
    assert not verdict.ql_equals_l


def test_example_translation_join_facts():
    F = build_example("ex4_10")
    assert F.info["index_of_join_base"] == 9
    assert F.info["order_of_join_base"] == 64
    assert F.index == 3
    assert F.is_normal
    lvl, ql, o = level_chain(F)
    assert lvl == F3T.parse_ideal("(t^2+t)")
    assert F.ring.one_idx in ql.elements
    assert ideal_image(F.ring, lvl).elements != ql.elements


def test_example_split_two_facts():
    F = build_example("ex5_4")
    D = F.domain
    assert F.index == 2
    assert F.is_normal
    lvl, ql, o = level_chain(F)
    assert lvl == F.modulus
    assert residue_norm(lvl) == 4 == F.index ** 2
    assert F.ring.size // len(ql) == 2
    verdict = level_index_divisibility_check(F)
    assert verdict.status == "not_applicable"
    assert not verdict.divides_index and not verdict.divides_factorial


def test_checks_share_one_condition_L_per_level_per_ring(monkeypatch):
    calls = []
    real = analyzer.condition_L
    monkeypatch.setattr(analyzer, "condition_L", lambda q: calls.append(q) or real(q))
    frames = [build_example(name) for name in ("ex2_13", "ex4_9", "ex5_4")]
    # the survey frames over Z/6 share their ring, and their levels, with the trivial group's
    frames += [frame_subgroup(Z, Z.parse_ideal("(6)"), [])] + exhaustive_frames("Z/6")
    for ring in {F.ring for F in frames}:  # what earlier tests computed on these rings
        monkeypatch.setitem(ring.memo, "condition_L", {})
    for F in frames:
        analyze(F)
        # the survey's sequence: amplitude_extrema, then level_divisibility
        amplitude_extrema_check(F)
        level(F)
        cusp_split_check(F)
        level_chain(F)
        quasi_level_ideal_check(F)
        level_index_divisibility_check(F)
        index_level_inequality_check(F)
    first = {}
    for F in frames:
        first.setdefault((F.ring, level(F)), level(F))
    assert calls == list(first.values())
    assert len(calls) < len(frames) - 10


def test_frames_keep_their_quasi_level_and_conjugates_start_empty(monkeypatch):
    F = build_example("ex2_13")
    assert quasi_level(F) is quasi_level(F)
    assert isinstance(cusps(F), tuple) and cusps(F) is cusps(F)  # no copy per call
    analyze(F)
    k = full_sl2(F.ring).sorted_elements()[5]
    G = F.conjugated_by(k)
    assert (G._cusps, G._quasi_level, G._level) == (None, None, None)
    assert quasi_level(G).elements == quasi_level(F).elements
    # the level is kept too: no further search for the largest ideal inside
    calls = []
    monkeypatch.setattr(analyzer, "largest_ideal_inside", calls.append)
    assert level(F) is level(F) is level_chain(F)[0] == F.modulus
    assert calls == []


def proj_order_filter_by_powers(ring, ambient):
    """Oracle for analyzer._proj_order_filter: square and cube each element."""
    ops = _ops(ring)
    identity = ops.identity
    center = {identity, ops.mneg(identity)}
    invol = []
    third = []
    for x in ambient.sorted_elements():
        if x in center:
            continue
        if ops.mmul(x, x) in center:
            invol.append(x)
        elif ops.mmul(ops.mmul(x, x), x) in center:
            third.append(x)
    return invol, third, center


@pytest.mark.parametrize("name", ["ex3_2", "ex3_5"])
def test_proj_order_filter_matches_the_power_oracle(name):
    ring = build_example(name).ring
    ambient = full_sl2(ring)
    found = analyzer._proj_order_filter(ring, ambient)
    assert found == proj_order_filter_by_powers(ring, ambient)
    assert (len(found[0]), len(found[1])) == (90, 160)


# ---------------------------------------------------------------------------
# cusp invariants


def test_cusp_term_equals_width_everywhere():
    for name in ("ex2_13", "ex3_2", "ex3_5", "ex5_4"):
        F = build_example(name)
        for c in cusps(F):
            assert c.term == c.width
        cusp_split_check(F)


@pytest.mark.parametrize("family", ["Z/6", "F3[t]/(t^2)"])
def test_cusp_stabiliser_matches_conjugate_intersection(family):
    # oracles: the stabiliser as B intersected with the full conjugate of H,
    # and m from the product set U * stab, which cusps() only counts
    for F in exhaustive_frames(family):
        B, U = (grp.elements for grp in borel_and_unipotent(F.ring))
        mmul = _ops(F.ring).mmul
        for c in cusps(F):
            stab = F.group.conjugated_by(c.rep.code).elements & B
            assert c.width == len(B) // len(stab)
            assert c.m_factor == len(B) // len({mmul(u, x) for u in U for x in stab})


def test_widths_sum_to_index():
    F = build_example("ex2_13")
    assert sum(c.width for c in cusps(F)) == F.index


GAMMA0_LEVELS = (4, 6, 8, 9, 12, 15, 18, 20, 24, 30)


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@pytest.mark.parametrize("N", GAMMA0_LEVELS)
def test_gamma0_matches_closed_forms(N):
    # classical values for Gamma0(N) (Diamond and Shurman, 1.2 and 3.8),
    # computed without any of the library's walks: the index is |P^1(Z/N)|
    # and the cusps number sum over d | N of phi(gcd(d, N/d))
    q0 = Z.parse_ideal(f"({N})")
    ring = build_quotient(Z, q0)
    gens = [make_generator("T", ring, ring.one_idx)]
    units = [ring.reduce(u) for u in range(1, N) if gcd(u, N) == 1]
    gens += [make_generator("Tdiag", ring, u, ring.zero_idx) for u in units]
    F = frame_subgroup(Z, q0, gens)
    primes = [p for p in range(2, N + 1) if N % p == 0 and all(p % d for d in range(2, p))]
    assert F.index == N // prod(primes) * prod(p + 1 for p in primes)
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    cusp_list = cusps(F)
    assert len(cusp_list) == sum(totient(gcd(d, N // d)) for d in divisors)
    assert sum(c.width for c in cusp_list) == F.index
    assert level(F) == q0


def prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


@pytest.mark.parametrize("N", range(5, 17))
def test_gamma1_and_gamma_match_closed_forms(N):
    # Gamma1(N) has image <T(1)>, Gamma(N) the trivial image (Diamond and
    # Shurman, 1.2 and 3.8): |SL2(Z/N)| = N^3 prod_p (1 - 1/p^2), Gamma1(N)
    # has 1/2 sum over d | N of phi(d) phi(N/d) cusps for N >= 5, and Gamma(N)
    # has |SL2(Z/N)| / 2N cusps, all of width N
    q0 = Z.parse_ideal(f"({N})")
    ring = build_quotient(Z, q0)
    primes = prime_divisors(N)
    order = N ** 3 // prod(p * p for p in primes) * prod(p * p - 1 for p in primes)
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    expected = [
        (
            [make_generator("T", ring, ring.one_idx)],
            order // N,
            sum(totient(d) * totient(N // d) for d in divisors) // 2,
        ),
        ([], order, order // (2 * N)),
    ]
    for gens, index, cusp_count in expected:
        F = frame_subgroup(Z, q0, gens)
        cusp_list = cusps(F)
        assert F.index == index
        assert len(cusp_list) == cusp_count
        assert sum(c.width for c in cusp_list) == index
        assert level(F) == q0


@pytest.mark.parametrize(
    "spec,text",
    [
        ("Fq[t] q=3", "(t^2)"),
        ("Fq[t] q=3", "(t^3)"),
        ("Fq[t] q=3", "(t^2+1)"),
        ("Fq[t] q=3", "(t^2+t)"),
        ("Fq[t] q=2", "(t^3)"),
        ("Fq[t] q=2", "(t^4)"),
        ("Fq[t] q=2", "(t^2+t)"),
        ("Q(sqrt(-7)) maximal", "(2)"),
        ("Q(sqrt(-7)) maximal", "(3)"),
        ("Q(sqrt(-7)) maximal", "(4)"),
        ("Q(sqrt(-7)) maximal", "(6)"),
    ],
)
def test_gamma0_index_and_level_over_every_domain_kind(spec, text):
    # the image of Gamma0(q) is the upper-triangular group, of index
    # |P^1(D/q)| = N(q) prod_{p | q} (1 + 1/N(p)); its level is q
    D = parse_domain(spec)
    q0 = D.parse_ideal(text)
    ring = build_quotient(D, q0)
    gens = [make_generator("T", ring, g) for g in ring.additive_generators]
    gens += [make_generator("Tdiag", ring, u, ring.zero_idx) for u in ring.units]
    F = frame_subgroup(D, q0, gens)
    norms = [residue_norm(p) for p, _ in factor_ideal(q0).pairs]
    index = residue_norm(q0) // prod(norms) * prod(n + 1 for n in norms)
    assert F.index == index
    assert sum(c.width for c in cusps(F)) == index
    assert level(F) == q0


def test_level_equals_intersection_over_all_group_elements():
    F = build_example("ex2_13")
    lvl = level(F)
    inter = None
    for code in full_sl2(F.ring).sorted_elements():
        amp = amplitude_at(F, code)
        inter = amp if inter is None else ideal_arith("intersect", inter, amp)
    assert inter == lvl


def test_conjugation_invariance_of_amplitudes():
    F = build_example("ex2_13")
    ops = _ops(F.ring)
    rng = random.Random(8)
    codes = full_sl2(F.ring).sorted_elements()
    for _ in range(10):
        k = rng.choice(codes)
        g = rng.choice(codes)
        conj_frame = F.conjugated_by(k)
        lhs = amplitude_at(conj_frame, ops.mmul(ops.minv(k), g))
        assert lhs == amplitude_at(F, g)


def test_unit_square_closure_on_examples():
    for name in ("ex2_13", "ex3_2", "ex3_5", "ex4_9", "ex4_10", "ex5_4"):
        F = build_example(name)
        unit_square_closure_check(F)


def test_cusp_split_check_raises_when_the_index_moves():
    F = frame_subgroup(Z, Z.parse_ideal("(6)"), [])
    assert cusp_split_check(F) is None
    F.index += 1
    with pytest.raises(InternalCheckError, match="^cusp split equation fails$"):
        cusp_split_check(F)


def t2_kernel_frame():
    """The kernel frame over F3[t]/(t^2), whose additive subgroups are not all
    ideals: the squared units are 1, 1+t and 1+2t, and (1+t)*1 leaves F3."""
    return frame_subgroup(F3T, F3T.parse_ideal("(t^2)"), [])


def test_unit_square_closure_check_raises_on_an_unstable_quasi_level(monkeypatch):
    F = t2_kernel_frame()
    assert unit_square_closure_check(F) is None
    prime_field = additive_closure({F.ring.one_idx}, F.ring)
    monkeypatch.setattr(analyzer, "quasi_level", lambda frame: prime_field)
    with pytest.raises(InternalCheckError, match="^squared-unit closure fails on a frame$"):
        unit_square_closure_check(F)


def test_unit_square_closure_check_raises_off_the_quasi_amplitude_family(monkeypatch):
    F = t2_kernel_frame()
    quasi_level(F)
    real = cusps(F)
    # with every orbit emptied no quasi-amplitude element lies in the family
    monkeypatch.setattr(
        analyzer, "cusps", lambda frame: tuple(dataclasses.replace(c, orbit=()) for c in real)
    )
    with pytest.raises(InternalCheckError, match="^squared-unit closure fails on a frame$"):
        unit_square_closure_check(F)


def test_amplitude_extrema_check_raises_when_the_intersection_is_not_the_level(monkeypatch):
    F = frame_subgroup(Z, Z.parse_ideal("(6)"), [])
    verdict = amplitude_extrema_check(F)
    assert verdict.c_min == level(F) == Z.parse_ideal("(6)")
    assert verdict.to_json()["passed"] is True
    monkeypatch.setattr(analyzer, "level", lambda frame: Z.parse_ideal("(3)"))
    with pytest.raises(
        InternalCheckError, match="^amplitude intersection differs from the level$"
    ):
        amplitude_extrema_check(F)


def test_amplitude_join_search():
    F = build_example("ex2_13")
    ops = _ops(F.ring)
    identity = ops.identity
    rep = amplitude_join_search(
        F, identity, identity, F3T.parse_ideal("(t)"), F3T.parse_ideal("(t)")
    )
    assert isinstance(rep, Mat2)
    cs = cusps(F)
    # join of the two example amplitudes: (t) + (1) = (1), attained at a cusp
    rep = amplitude_join_search(
        F, identity, cs[1].rep, F3T.parse_ideal("(t)"), cs[1].amplitude
    )
    assert amplitude_at(F, rep).is_unit_ideal() or str(
        amplitude_at(F, rep)
    ) == "(1)"
    with pytest.raises(ValueError):
        amplitude_join_search(F, identity, identity, F3T.zero_ideal(), F3T.parse_ideal("(t)"))


# ---------------------------------------------------------------------------
# sandwich and coprime-splitting properties


def test_sandwich_between_kernel_and_scalars():
    # frames of the kernel itself have level = quasi-level = order ideal = q0
    for D, text in ((Z, "(4)"), (F3T, "(t^2)")):
        q0 = D.parse_ideal(text)
        F = frame_subgroup(D, q0, [])
        lvl, ql, o = level_chain(F)
        assert lvl == q0 and o == q0
        assert len(ql) == 1


def test_coprime_level_splitting():
    # intersect the join base with one local kernel, multiply by the other
    from conglab.matgroups import FinMatGroup, principal_congruence_image

    F = build_example("ex4_10")
    ring = F.ring
    q1 = F3T.parse_ideal("(t)")
    q2 = F3T.parse_ideal("(t+1)")
    assert level(F) == ideal_arith("product", q1, q2)
    g1 = principal_congruence_image(ring, q1)
    g2 = principal_congruence_image(ring, q2)
    ops = _ops(ring)
    inter = F.group.elements & g1.elements
    prod = {ops.mmul(x, y) for x in inter for y in g2.elements}
    mixed = frame_subgroup(
        F3T, F.modulus, list(FinMatGroup.from_elements(ring, prod).gens)
    )
    assert level(mixed) == q2


def test_commutator_landing():
    # [G, N*G(q2)] lands in (N meet G(q1)) * G(q2) for the split level
    from conglab.matgroups import principal_congruence_image

    F = build_example("ex4_10")
    ring = F.ring
    ops = _ops(ring)
    q1 = F3T.parse_ideal("(t)")
    q2 = F3T.parse_ideal("(t+1)")
    g1 = principal_congruence_image(ring, q1)
    g2 = principal_congruence_image(ring, q2)
    nbar = {ops.mmul(x, y) for x in F.group.elements for y in g2.elements}
    target = {
        ops.mmul(x, y) for x in (F.group.elements & g1.elements) for y in g2.elements
    }
    G = full_sl2(ring)
    rng = random.Random(2)
    sample_g = [rng.choice(G.sorted_elements()) for _ in range(40)]
    sample_n = [rng.choice(sorted(nbar)) for _ in range(40)]
    for g in sample_g:
        for n in sample_n:
            comm = ops.mmul(
                ops.mmul(ops.minv(g), ops.minv(n)), ops.mmul(g, n)
            )
            assert comm in target


# ---------------------------------------------------------------------------
# analyze report


def test_analyze_report_shape():
    report = analyze(build_example("ex2_13")).to_json()
    assert report["index"] == 4
    assert report["level"] == "(t)"
    assert {"A", "B", "C", "cusp_split", "unit_square", "index_level"} <= set(
        report["theorems"]
    )
    assert report["theorems"]["cusp_split"] is True
    assert len(report["cusps"]) == 2


def test_analyze_inequality_tight_example():
    report = analyze(build_example("ex5_4"))
    assert report.inequality.applicable
    assert report.inequality.tight


# ---------------------------------------------------------------------------
# translation-subspace screen


def test_screen_example_f2_cubic():
    D = parse_domain("Fq[t] q=2")
    f = D.parse_element("t^3+t+1")
    ts = standard_screen_subspace(D, f)
    report = screen_translation_subspace(ts)
    assert report.level == D.principal_ideal(f)
    assert report.ql_codim == 1
    assert report.congruence_possible is False
    # oracle: t^2 * t = t^3 = t + 1 mod f, which has a constant term
    assert D.divmod(D.parse_element("t^3"), f)[1] == D.parse_element("t+1")
    assert report.certificate is not None


def test_screen_whole_space_inconclusive():
    D = parse_domain("Fq[t] q=2")
    f = D.parse_element("t^3+t+1")
    basis = tuple(
        D.parse_element(s) for s in ("1", "t", "t^2")
    )
    report = screen_translation_subspace(TranslationSubspace(D, f, basis))
    assert report.level.is_unit_ideal()
    assert report.ql_codim == 0
    assert report.congruence_possible is None


def test_screen_f3_quadratic():
    D = parse_domain("Fq[t] q=3")
    f = D.parse_element("t^2+1")
    ts = standard_screen_subspace(D, f)
    report = screen_translation_subspace(ts)
    # f(0) = 1 != 0 but f'(0) = 0: the screen stays inconclusive
    assert report.level == D.principal_ideal(f)
    assert report.ql_codim == 1
    assert report.congruence_possible is None


def test_screen_f3_quadratic_with_linear_term():
    D = parse_domain("Fq[t] q=3")
    f = D.parse_element("t^2+t+1")
    report = screen_translation_subspace(standard_screen_subspace(D, f))
    assert report.level == D.principal_ideal(f)
    assert report.congruence_possible is False


def test_quasi_amplitude_family_is_covered_by_cusp_orbits():
    # every quasi-amplitude b(H, g) equals a squared-unit scaling of some
    # cusp representative's quasi-amplitude
    for name in ("ex2_13", "ex3_5"):
        F = build_example(name)
        orbit_sets = set()
        for c in cusps(F):
            for member in c.orbit:
                orbit_sets.add(member.elements)
        for code in full_sl2(F.ring).sorted_elements():
            assert quasi_amplitude_at(F, code).elements in orbit_sets


def test_quasi_amplitude_family_min_no_max_on_degree_two_residue():
    # same construction as the upper-triangular example but with an
    # irreducible quadratic modulus: all amplitudes equal the modulus, the
    # quasi-amplitude family has a minimum and no maximum
    from conglab.quotients import build_quotient

    q0 = F3T.parse_ideal("(t^2+1)")
    ring = build_quotient(F3T, q0)
    gens = [
        make_generator("Tdiag", ring, u, r)
        for u in ring.domain_unit_image
        for r in (ring.reduce((0,)), ring.reduce((1,)), ring.reduce((2,)))
    ]
    F = frame_subgroup(F3T, q0, gens)
    cs = cusps(F)
    assert all(c.amplitude == q0 for c in cs)
    family = set()
    for c in cs:
        for member in c.orbit:
            family.add(frozenset(member.elements))
    zero_only = frozenset({ring.zero_idx})
    assert zero_only in family
    assert all(zero_only <= s for s in family)
    assert not any(all(other <= s for other in family) for s in family)


def test_coprime_level_splitting_on_kernel_frame():
    # splitting the level of the plain kernel frame over a composite modulus
    from conglab.matgroups import FinMatGroup, principal_congruence_image

    Zd = Z
    q0 = Zd.parse_ideal("(6)")
    F = frame_subgroup(Zd, q0, [])
    ring = F.ring
    ops = _ops(ring)
    for q1txt, q2txt in (("(2)", "(3)"), ("(3)", "(2)")):
        q1 = Zd.parse_ideal(q1txt)
        q2 = Zd.parse_ideal(q2txt)
        g2 = principal_congruence_image(ring, q2)
        inter = F.group.elements & principal_congruence_image(ring, q1).elements
        prod = {ops.mmul(x, y) for x in inter for y in g2.elements}
        mixed = frame_subgroup(
            Zd, q0, list(FinMatGroup.from_elements(ring, prod).gens)
        )
        assert level(mixed) == q2


def test_square_coordinate_quasi_level_is_the_square_set():
    # the quasi-level computed from the cusps must equal the set of
    # squares of the ramified prime's image, found independently here
    from conglab.domains import factor_ideal
    from conglab.quotients import ideal_image as _ideal_image

    F = build_example("ex4_9")
    D = F.domain
    p = factor_ideal(D.principal_ideal((2, 0))).pairs[0][0]
    squares = {F.ring.mul(x, x) for x in _ideal_image(F.ring, p).elements}
    ql = quasi_level(F)
    assert ql.elements == frozenset(squares)
    assert len(ql) == 2


# ---------------------------------------------------------------------------
# the column walk against the core and G/B oracles


def assert_quasi_level_is_the_core_quasi_amplitude(F):
    core = FramedSubgroup(core_of(F.group, full_sl2(F.ring)))
    oracle = quasi_amplitude_at(core, _ops(F.ring).identity)
    ql = quasi_level(F)
    assert ql == oracle
    assert ql.generators == oracle.generators  # the JSON prints the generators


@pytest.mark.parametrize("family", ["Z/4", "Z/6", "Z/8", "Z/9", "F3[t]/(t^2)"])
def test_quasi_level_matches_core_oracle_on_every_frame(family):
    for F in exhaustive_frames(family):
        assert_quasi_level_is_the_core_quasi_amplitude(F)


def test_quasi_level_matches_core_oracle_on_examples():
    for name in analyzer.EXAMPLE_NAMES:
        assert_quasi_level_is_the_core_quasi_amplitude(build_example(name))


def frames_of_every_class(spec, text):
    """One frame per subgroup conjugacy class of SL2(D/q), built the way
    exhaustive_frames builds its families' frames: generators last first."""
    D = parse_domain(spec)
    q0 = D.parse_ideal(text)
    ring = build_quotient(D, q0)
    dense = DenseGroup.from_matgroup(full_sl2(ring))
    frames = []
    for elems, gens in subgroup_classes(dense)[0]:
        grp = FinMatGroup(ring, [dense.labels[i] for i in reversed(gens)])
        assert grp.order == len(elems)
        frames.append(frame_from_group(grp))
    return frames


# quotients whose domain has units beyond -1 and 1: F4* and F5* of orders 3
# and 4, and the fourth and sixth roots of unity of Z[i] and Z[w]
UNIT_GROUP_FAMILIES = (
    ("Fq[t] q=4", "(t)"),
    ("Fq[t] q=5", "(t)"),
    ("Q(sqrt(-1)) maximal", "(2)"),
    ("Q(sqrt(-3)) maximal", "(2)"),
)


@pytest.mark.parametrize("spec, text", UNIT_GROUP_FAMILIES)
def test_theorems_hold_on_every_frame_over_larger_unit_groups(spec, text):
    frames = frames_of_every_class(spec, text)
    assert len(frames[0].domain.units) > 2
    ring = frames[0].ring
    G, (B, _) = full_sl2(ring), borel_and_unipotent(ring)
    for F in frames:
        assert_cusp_representatives_match_oracles(G, F.group, B)
        assert_quasi_level_is_the_core_quasi_amplitude(F)
        unit_square_closure_check(F)
        quasi_level_ideal_check(F)  # raises when condition L holds and ql != l
        # Theorem A: the least cusp amplitude is attained and is the level
        assert amplitude_extrema_check(F).c_min == level(F)
        cusp_split_check(F)
        # Theorem C: raises when condition L holds at the level and fails
        level_index_divisibility_check(F)


# larger than the survey, and kept out of it: 2-adic depth 4, the mixed
# level 2 * 3^2, and characteristic 2 at depth 3, whose six standard
# generators sift to four; (spec, modulus, classes, standard generators kept)
LARGER_FAMILIES = (
    ("Z", "(16)", 463, 2),
    ("Z", "(18)", 341, 2),
    ("Fq[t] q=2", "(t^3)", 293, 4),
)


@pytest.mark.parametrize("spec, text, classes, kept", LARGER_FAMILIES)
def test_theorems_hold_on_every_class_of_larger_families(spec, text, classes, kept):
    frames = frames_of_every_class(spec, text)
    assert len(frames) == classes
    ring = frames[0].ring
    G, (B, _) = full_sl2(ring), borel_and_unipotent(ring)
    assert len(G.gens) == kept
    for F in frames:
        # raises on any failed verdict: Theorem A (extrema attained), B
        # (ql = l under condition L), C (level-index divisibility), the
        # cusp split and the squared-unit closure
        analyze(F)
        assert amplitude_extrema_check(F).c_min == level(F)
    for F in random.Random(f"larger:{spec}:{text}").sample(frames, 8):
        assert_cusp_representatives_match_oracles(G, F.group, B)
        assert_quasi_level_is_the_core_quasi_amplitude(F)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, len(SMALL_MODULI) - 1),
    st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
)
def test_column_walk_matches_oracles_on_random_frames(i, picks):
    # the first generator is upper triangular, which keeps many frames small
    R, G, _ = small_sl2(i)
    B, _ = borel_and_unipotent(R)
    codes, bcodes = G.sorted_elements(), B.sorted_elements()
    gens = [bcodes[picks[0] % len(bcodes)]] + [codes[p % len(codes)] for p in picks[1:]]
    F = frame_from_group(FinMatGroup.from_generators(R, gens))
    # raises unless the column check passes on the true quasi-level, the cusp
    # split holds and c_min == level
    analyze(F)
    assert F.group._elements is None  # the walk answered alone
    closed = FinMatGroup.from_elements(R, closure_codes(R, gens))
    assert F.group.order * F.index == sl2_order_formula(R.modulus) == closed.order * F.index
    for c in cusps(F):
        oracle = quasi_amplitude_by_scan(closed, c.rep.code)
        assert c.quasi_amplitude == oracle
        assert c.quasi_amplitude.generators == oracle.generators  # the JSON prints them
    for code in F.group.least:
        assert quasi_amplitude_at(F, code) == quasi_amplitude_by_scan(closed, code)
    assert_quasi_level_is_the_core_quasi_amplitude(F)
    assert_cusp_representatives_match_oracles(G, F.group, B)


def z30_frame():
    ring = build_quotient(Z, Z.parse_ideal("(30)"))
    gens = [
        make_generator("T", ring, ring.one_idx),
        make_generator("S", ring, ring.reduce(6)),
        make_generator("Tdiag", ring, ring.reduce(7), ring.zero_idx),
    ]
    return frame_subgroup(Z, ring.modulus, gens)


def test_frames_never_build_sl2(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("SL2(R) enumerated")

    for module in (matgroups, analyzer):
        monkeypatch.setattr(module, "full_sl2", refuse)
    monkeypatch.setattr(modular, "coset_permrep", refuse)
    # digests of the reports before frames stopped building SL2(R)
    ex2_13 = "3063c24b4d67dc577fec5473c02aa0b8bad70bb299a208ca2b92ea620e7b50b2"
    z30 = "c6c0dbab8a44171fd3c828c76800af26dee03ec1226b086a7d26229dc3d5a220"
    F = z30_frame()
    for frame, digest in (
        (build_example("ex2_13"), ex2_13),
        (F, z30),
        (frame_from_group(F.group), z30),
    ):
        report = json.dumps(analyze(frame).to_json(), sort_keys=True).encode()
        assert hashlib.sha256(report).hexdigest() == digest


def test_column_check_catches_a_wrong_quasi_level(monkeypatch):
    F = z30_frame()
    true_ql = quasi_level(F)
    wrong = additive_closure(set(true_ql.elements) | {F.ring.reduce(3)}, F.ring)
    monkeypatch.setattr(analyzer, "quasi_level", lambda frame: wrong)
    with pytest.raises(InternalCheckError, match="quasi-level translation"):
        analyze(F)


# ---------------------------------------------------------------------------
# per-frame work without matrix products


def order_ideal_by_elements(frame):
    """Oracle: the modulus plus the ideal spanned by R * {a-d, b, c} over all of H."""
    ring = frame.ring
    ops = _ops(ring)
    seeds = set()
    for code in frame.group.elements:
        a, b, c, d = ops.decode(code)
        seeds.update((ring.sub(a, d), b, c))
    span = additive_closure({ring.mul(s, r) for s in seeds for r in range(ring.size)}, ring)
    out = ring.modulus
    for g in span.generators:
        out = ideal_arith("sum", out, ring.domain.principal_ideal(ring.lift(g)))
    return out


@pytest.mark.parametrize("family", ["Z/6", "Z/8", "F3[t]/(t^2)"])
def test_order_ideal_matches_elementwise_oracle_on_every_frame(family):
    for F in exhaustive_frames(family):
        assert analyzer.order_ideal(F) == order_ideal_by_elements(F)


def test_order_ideal_matches_elementwise_oracle_on_examples():
    # a diagonal image has b = c = 0, so only a - d = 7 - 7^-1 = -6 lifts (30) to (6)
    ring = build_quotient(Z, Z.parse_ideal("(30)"))
    diagonal = frame_subgroup(
        Z, ring.modulus, [make_generator("Tdiag", ring, ring.reduce(7), ring.zero_idx)]
    )
    assert analyzer.order_ideal(diagonal) == Z.parse_ideal("(6)")
    for F in [build_example(name) for name in analyzer.EXAMPLE_NAMES] + [z30_frame(), diagonal]:
        assert analyzer.order_ideal(F) == order_ideal_by_elements(F)


def test_cusps_and_order_ideal_make_no_matrix_products(monkeypatch):
    calls = []
    mmul = matgroups._MatOps.mmul

    def counting(self, x, y):
        calls.append(1)
        return mmul(self, x, y)

    for F in (build_example("ex2_13"), z30_frame()):
        matgroups.unimodular_columns(F.ring)
        monkeypatch.setattr(matgroups._MatOps, "mmul", counting)
        cusps(F)
        analyzer.order_ideal(F)
        monkeypatch.undo()
        assert len(calls) == 0
