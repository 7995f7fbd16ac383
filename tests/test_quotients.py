import random
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conglab.analyzer import DEFAULT_CAPS, EXAMPLE_NAMES, analyze, build_example
from conglab.domains import (
    CapExceeded,
    IntegerDomain,
    PolynomialDomain,
    QuadraticDomain,
    factor_ideal,
    ideal_arith,
    ideal_pow,
    parse_domain,
    residue_norm,
)
from conglab import quotients
from conglab.domains import InternalCheckError
from conglab.quotients import (
    additive_closure,
    build_quotient,
    ideal_image,
    largest_ideal_inside,
    local_decompose,
)
from conglab.suites import DEFAULT_SUITE_NAMES, SURVEY_FAMILIES, run_suite


Z = parse_domain("Z")
F3T = parse_domain("Fq[t] q=3")
F9T = parse_domain("Fq[t] q=9 mod=u^2+1")
ZSQ13 = parse_domain("Q(sqrt(-13)) maximal")
ZSQ2 = parse_domain("Q(sqrt(-2)) maximal")


def ring_of(D, ideal_text, cap=2 ** 16):
    return build_quotient(D, D.parse_ideal(ideal_text), ring_cap=cap)


def test_build_examples():
    R = ring_of(Z, "(6)")
    assert R.size == 6

    R9 = build_quotient(ZSQ13, ZSQ13.principal_ideal((3, 0)))
    assert R9.size == 9
    # oracle: x^2 + 13 has no root mod 3, so D/(3) is the field with 9 elements
    assert all((r * r + 13) % 3 != 0 for r in range(3))
    assert len(R9.units) == 8

    p = factor_ideal(ZSQ2.principal_ideal((2, 0))).pairs[0][0]
    R16 = build_quotient(ZSQ2, ideal_pow(p, 4))
    assert R16.size == 16
    assert residue_norm(ideal_pow(p, 4)) == 16


def test_ring_cap():
    with pytest.raises(CapExceeded):
        ring_of(Z, "(100)", cap=50)
    with pytest.raises(ValueError):
        build_quotient(Z, Z.zero_ideal())


# ---------------------------------------------------------------------------
# interned rings


@pytest.mark.parametrize(
    "spec,text",
    [("Z", "(12)"), ("Fq[t] q=3", "(t^2+1)"), ("Q(sqrt(-7)) maximal", "(2)")],
)
def test_one_spec_parsed_twice_gives_one_ring(spec, text):
    rings = []
    for _ in range(2):
        D = parse_domain(spec)
        rings.append(build_quotient(D, D.parse_ideal(text)))
    assert rings[0] is rings[1]
    assert quotients._quotient.cache_info().misses == 1


def test_warm_ring_still_honours_the_ring_cap():
    # the cap is checked in front of the cache, with the cold path's message
    with pytest.raises(CapExceeded) as cold:
        ring_of(Z, "(100)", cap=50)
    warm = ring_of(Z, "(100)")
    assert ring_of(Z, "(100)", cap=100) is warm
    with pytest.raises(CapExceeded) as hit:
        ring_of(Z, "(100)", cap=50)
    assert str(hit.value) == str(cold.value) == "quotient of size 100 exceeds cap 50"
    with pytest.raises(ValueError):
        build_quotient(Z, Z.zero_ideal())


def test_integer_quotient_is_the_interned_ring_with_the_same_checks():
    # Z/(n) by its integer: the ring build_quotient interns, cap checked warm and cold
    with pytest.raises(CapExceeded) as cold:
        quotients.integer_quotient(12, ring_cap=11)
    ring = quotients.integer_quotient(12)
    assert ring is ring_of(Z, "(12)") and ring.modulus == Z.parse_ideal("(12)")
    assert quotients._quotient.cache_info().misses == 1
    with pytest.raises(CapExceeded) as hit:
        quotients.integer_quotient(12, ring_cap=11)
    assert str(hit.value) == str(cold.value) == "quotient of size 12 exceeds cap 11"
    with pytest.raises(ValueError):
        quotients.integer_quotient(0)


def test_ring_cache_keeps_the_32_rings_used_last():
    bound = quotients._quotient.cache_info().maxsize
    assert bound == 32
    moduli = range(2, 2 + bound + 1)  # 33 distinct rings
    rings = {n: ring_of(Z, f"({n})") for n in moduli}
    assert quotients._quotient.cache_info().currsize == bound
    assert all(ring_of(Z, f"({n})") is rings[n] for n in moduli[1:])
    # the first ring was evicted: it is built again, equal but not identical
    again = ring_of(Z, f"({moduli[0]})")
    assert again is not rings[moduli[0]] and again == rings[moduli[0]]


@pytest.mark.parametrize(
    "D,text",
    [
        (Z, "(12)"),
        (F3T, "(t^2+t)"),
        (F9T, "(t^2)"),
        (ZSQ13, "(3)"),
        (ZSQ2, "(6)"),
    ],
)
def test_lift_reduce_round_trip(D, text):
    R = ring_of(D, text)
    assert R.size == residue_norm(D.parse_ideal(text))
    for i in range(R.size):
        assert R.reduce(R.lift(i)) == i
    assert R.reduce(D.zero()) == R.zero_idx
    assert R.reduce(D.one()) == R.one_idx


@pytest.mark.parametrize("D,text", [(Z, "(12)"), (F9T, "(t)"), (ZSQ2, "(4)")])
def test_unit_predicate_matches_invertibility(D, text):
    R = ring_of(D, text)
    for i in range(R.size):
        has_inverse = any(R.mul(i, j) == R.one_idx for j in range(R.size))
        assert R.is_unit(i) == has_inverse


def test_arith_tables_agree_with_domain_ops():
    for D, text in [(Z, "(12)"), (F9T, "(t^2)"), (ZSQ2, "(6)")]:
        R = ring_of(D, text)
        for i in range(R.size):
            assert R.neg(i) == R.reduce(D.neg(R.lift(i)))
            for j in range(R.size):
                assert R.sub(i, j) == R.reduce(D.sub(R.lift(i), R.lift(j)))
                assert R.add(i, j) == R.reduce(D.add(R.lift(i), R.lift(j)))
                assert R.mul(i, j) == R.reduce(D.mul(R.lift(i), R.lift(j)))
            if R.is_unit(i):
                assert R.mul(i, R.inv(i)) == R.one_idx
            else:
                with pytest.raises(ZeroDivisionError):
                    R.inv(i)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ring_of(Z, "(30)"),
        lambda: quotients.integer_quotient(300),
        lambda: ring_of(F3T, "(t^2+1)"),
        lambda: ring_of(ZSQ13, "(3)"),
        lambda: ring_of(ZSQ2, "(6)"),
    ],
)
def test_every_ring_is_built_with_its_tables(build):
    R = build()
    n = R.size
    assert len(R.add_t) == len(R.mul_t) == n * n and len(R.neg_t) == n


def test_rings_above_the_table_limit_are_refused_before_they_are_built(monkeypatch):
    built = []
    monkeypatch.setattr(quotients, "_quotient", lambda D, data: built.append(data) or data)
    message = "ring of size 2049 above arithmetic-table limit"
    with pytest.raises(CapExceeded, match=message):
        build_quotient(Z, Z.parse_ideal("(2049)"), ring_cap=10 ** 6)
    with pytest.raises(CapExceeded, match=message):
        quotients.integer_quotient(2049, ring_cap=10 ** 6)
    with pytest.raises(CapExceeded, match="ring of size 2187 above"):
        ring_of(F3T, "(t^7)")
    with pytest.raises(CapExceeded, match="ring of size 2500 above"):
        ring_of(ZSQ2, "(50)")
    assert built == []
    # the ring cap is checked first, with its own message
    with pytest.raises(CapExceeded, match="quotient of size 2049 exceeds cap 2000"):
        quotients.integer_quotient(2049, ring_cap=2000)
    # 2048 elements pass both checks
    assert quotients.integer_quotient(2048) == 2048 and built == [2048]


def test_additive_generators_span():
    for D, text in [(Z, "(12)"), (F9T, "(t^2)"), (ZSQ2, "(6)")]:
        R = ring_of(D, text)
        span = additive_closure(R.additive_generators, R)
        assert len(span) == R.size


def oracle_codec(D, data):
    """The oracle: lift, reduce and the additive generators of D/q, q with
    the given data, written per kind from that data."""
    if isinstance(D, IntegerDomain):
        lift, reduce, basis = (lambda i: i), (lambda x: x % data), [1]
    elif isinstance(D, PolynomialDomain):
        places = [D.q ** k for k in range(D.deg(data))]
        lift = lambda i: D._norm(i // place % D.q for place in places)
        reduce = lambda x: sum(map(mul, D.divmod(x, data)[1], places))
        # p^i is u^i in F_q: t^j u^i for j < deg f and i < e
        basis = [(0,) * j + (D.p ** i,) for j in range(len(places)) for i in range(D.e)]
    else:
        a, b, c = data
        lift = lambda i: divmod(i, c)
        reduce = lambda x: x[0] % a * c + (x[1] - x[0] // a * b) % c
        basis = [(1, 0), (0, 1)]
    return lift, reduce, tuple(sorted({reduce(x) for x in basis} - {reduce(D.zero())}))


def random_element(D, rng):
    if isinstance(D, IntegerDomain):
        return rng.randrange(-10 ** 6, 10 ** 6)
    if isinstance(D, PolynomialDomain):
        return D._norm(rng.randrange(D.q) for _ in range(rng.randrange(12)))
    return rng.randrange(-10 ** 4, 10 ** 4), rng.randrange(-10 ** 4, 10 ** 4)


def assert_ring_matches_the_oracle(R):
    """R's lifts, its reduce on random elements of D, its additive generators
    and its tables against the oracle codec; the tables from one domain add,
    mul and neg on lifts per pair or element, n^2/2 of each."""
    D, n = R.domain, R.size
    lift, reduce, gens = oracle_codec(D, R.modulus.data)
    lifts = [lift(i) for i in range(n)]
    assert [R.lift(i) for i in range(n)] == lifts, f"lifts of {R}"
    rng = random.Random(str(R))
    for x in (random_element(D, rng) for _ in range(200)):
        assert R.reduce(x) == reduce(x), f"reduce of {x} in {R}"
    assert R.additive_generators == gens, f"additive generators of {R}"
    add_t = [0] * (n * n)
    mul_t = [0] * (n * n)
    for i in range(n):
        for j in range(i, n):
            add_t[i * n + j] = add_t[j * n + i] = reduce(D.add(lifts[i], lifts[j]))
            mul_t[i * n + j] = mul_t[j * n + i] = reduce(D.mul(lifts[i], lifts[j]))
    assert R.add_t == add_t, f"add table of {R}"
    assert R.mul_t == mul_t, f"mul table of {R}"
    assert R.neg_t == [reduce(D.neg(x)) for x in lifts], f"neg table of {R}"
    # units come from ideal sums; the tables must agree with them
    assert set(R.units) == {i for i in range(n) if R.one_idx in R.mul_t[i * n:(i + 1) * n]}


# the seven rings of the benchmark's frames workload
FRAME_RINGS = (
    ("Z", "(20)"),
    ("Z", "(24)"),
    ("Z", "(30)"),
    ("Fq[t] q=3", "(t^3)"),
    ("Fq[t] q=5", "(t^2)"),
    ("Fq[t] q=2", "(t^4)"),
    ("Q(sqrt(-7)) maximal", "(4)"),
)


def test_tables_of_every_suite_example_and_frame_ring_match_the_oracle(monkeypatch):
    built = {}
    real = quotients._quotient

    def record(domain, data):
        built[domain, data] = None
        return real(domain, data)

    monkeypatch.setattr(quotients, "_quotient", record)
    for name in ("amplitude_extrema", "level_divisibility"):
        run_suite(name, families=SURVEY_FAMILIES)
    for name in DEFAULT_SUITE_NAMES:
        run_suite(name)
    for name in EXAMPLE_NAMES:
        analyze(build_example(name, DEFAULT_CAPS))
    for spec, text in FRAME_RINGS:
        D = parse_domain(spec)
        build_quotient(D, D.parse_ideal(text))
    assert (F9T, F9T.parse_ideal("(t^2)").data) in built
    assert (F3T, F3T.parse_ideal("(t^2)").data) in built
    assert len(built) >= 30
    for domain, data in built:
        assert_ring_matches_the_oracle(real(domain, data))


ORACLE_DOMAINS = (
    "Z",
    "Fq[t] q=2",
    "Fq[t] q=3",
    "Fq[t] q=5",
    "Fq[t] q=4",
    "Fq[t] q=9 mod=u^2+1",
    *(f"Q(sqrt({m})) maximal" for m in (-1, -2, -3, -7, -13)),
)


@st.composite
def small_moduli(draw):
    """A nonzero ideal of Z, of F_q[t] over a prime or a prime-power field,
    or of a quadratic order; |D/q| <= 256 over Z and F_q[t], and mostly so
    over the quadratic orders."""
    D = parse_domain(draw(st.sampled_from(ORACLE_DOMAINS)))
    if isinstance(D, IntegerDomain):
        return D.principal_ideal(draw(st.integers(1, 256)))
    if isinstance(D, PolynomialDomain):
        degree = draw(st.integers(0, max(d for d in range(9) if D.q ** d <= 256)))
        coeffs = draw(st.lists(st.integers(0, D.q - 1), min_size=degree, max_size=degree))
        return D.principal_ideal(tuple(coeffs) + (draw(st.integers(1, D.q - 1)),))
    elements = st.tuples(st.integers(-12, 12), st.integers(-3, 3)).filter(any)
    ideal = D.principal_ideal(draw(elements))
    if draw(st.booleans()):
        ideal = ideal_arith("sum", ideal, D.principal_ideal(draw(elements)))
    return ideal


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_moduli())
def test_tables_of_random_rings_match_the_oracle(modulus):
    assume(residue_norm(modulus) <= 256)
    assert_ring_matches_the_oracle(build_quotient(modulus.domain, modulus))


def test_generators_that_miss_part_of_the_ring_are_an_internal_check_error(monkeypatch):
    real = QuadraticDomain.residues

    def truncated(self, data):
        residues, reduce, basis = real(self, data)
        return residues, reduce, basis[:1]

    monkeypatch.setattr(QuadraticDomain, "residues", truncated)
    with pytest.raises(InternalCheckError, match="additive generators reach 6 of 36 elements"):
        ring_of(ZSQ2, "(6)")
    assert quotients._quotient.cache_info().currsize == 0


def test_a_kind_that_lists_too_few_residues_is_an_internal_check_error(monkeypatch):
    real = IntegerDomain.residues

    def short(self, n):
        residues, reduce, basis = real(self, n)
        return residues[1:], reduce, basis

    monkeypatch.setattr(IntegerDomain, "residues", short)
    with pytest.raises(InternalCheckError, match="Z lists 11 residues of a ring of 12"):
        ring_of(Z, "(12)")


# ---------------------------------------------------------------------------
# additive closure


def test_additive_closure_examples():
    R = ring_of(Z, "(12)")
    A = additive_closure([4], R)
    assert A.sorted_elements() == [0, 4, 8]

    # F_9 as F_9[t]/(t): the additive order of 1 is 3
    R9 = ring_of(F9T, "(t)")
    A = additive_closure([R9.one_idx], R9)
    assert len(A) == 3

    R6 = ring_of(Z, "(6)")
    A = additive_closure([2, 3], R6)
    assert len(A) == 6
    assert A.generators == (2, 3)


def test_additive_closure_is_closed():
    rng = random.Random(5)
    for D, text in [(Z, "(30)"), (F9T, "(t^2)"), (ZSQ2, "(6)")]:
        R = ring_of(D, text)
        for _ in range(15):
            seed = [rng.randrange(R.size) for _ in range(rng.randrange(1, 4))]
            A = additive_closure(seed, R)
            xs = A.sorted_elements()
            assert R.zero_idx in A
            for x in xs:
                assert R.neg(x) in A
                for y in xs:
                    assert R.add(x, y) in A
            # greedy generators regenerate the subgroup
            assert additive_closure(A.generators, R).elements == A.elements


# ---------------------------------------------------------------------------
# largest ideal inside


def test_largest_ideal_examples():
    R = ring_of(Z, "(12)")
    A = additive_closure([4], R)
    assert largest_ideal_inside(A) == Z.parse_ideal("(4)")

    R9 = ring_of(F9T, "(t)")
    A = additive_closure([R9.one_idx], R9)  # F_3 inside F_9
    assert largest_ideal_inside(A) == F9T.parse_ideal("(t)")

    R = ring_of(F3T, "(t^2)")
    A = additive_closure([R.reduce((1,)), R.reduce((2,))], R)
    assert A.sorted_elements() == sorted({R.reduce(()), R.reduce((1,)), R.reduce((2,))})
    assert largest_ideal_inside(A) == F3T.parse_ideal("(t^2)")


@pytest.mark.parametrize(
    "D,text",
    [(Z, "(12)"), (Z, "(30)"), (F3T, "(t^2+t)"), (ZSQ2, "(6)"), (ZSQ13, "(3)")],
)
def test_largest_ideal_fixed_point(D, text):
    # for any ideal a containing q, the image of a pulls back to a itself
    q = D.parse_ideal(text)
    R = build_quotient(D, q)
    for p, e in factor_ideal(q).pairs:
        for k in range(e + 1):
            a = ideal_arith("sum", ideal_pow(p, k), q)
            image = ideal_image(R, a)
            assert largest_ideal_inside(image) == a


def test_largest_ideal_is_maximal_among_divisors():
    # no strictly larger divisor ideal of q fits inside the subgroup
    D, text = Z, "(24)"
    q = D.parse_ideal(text)
    R = build_quotient(D, q)
    rng = random.Random(11)
    divisors = []
    pf = factor_ideal(q).pairs
    from itertools import product as iproduct

    ranges = [range(e + 1) for _, e in pf]
    for exps in iproduct(*ranges):
        I = D.unit_ideal()
        for (p, _), k in zip(pf, exps):
            I = ideal_arith("product", I, ideal_pow(p, k))
        divisors.append(I)
    for _ in range(10):
        seed = [rng.randrange(R.size) for _ in range(2)]
        A = additive_closure(seed, R)
        best = largest_ideal_inside(A)
        for I in divisors:
            image = ideal_image(R, I)
            if image.elements <= A.elements:
                assert best.contains_ideal(I)


def test_exponent_ideal_maps_inside():
    # an additive subgroup absorbs the ideal generated by its quotient exponent
    rng = random.Random(3)
    for D, text in [(ZSQ2, "(6)"), (ZSQ13, "(3)")]:
        R = ring_of(D, text)
        for _ in range(10):
            seed = [rng.randrange(R.size) for _ in range(2)]
            A = additive_closure(seed, R)
            e = 1
            while not all(_times(R, e, x) in A for x in range(R.size)):
                e += 1
            ideal_e = ideal_arith(
                "sum", D.principal_ideal(D.from_int(e)), R.modulus
            )
            image = ideal_image(R, ideal_e)
            assert image.elements <= A.elements


def _times(R, k, x):
    out = R.zero_idx
    for _ in range(k):
        out = R.add(out, x)
    return out


# ---------------------------------------------------------------------------
# local decomposition


def test_local_decompose_examples():
    factors = local_decompose(ring_of(Z, "(6)"))
    assert sorted(f.ring.size for f in factors) == [2, 3]

    factors = local_decompose(ring_of(F3T, "(t^2+t)"))
    assert [f.ring.size for f in factors] == [3, 3]

    factors = local_decompose(ring_of(Z, "(8)"))
    assert [f.ring.size for f in factors] == [8]

    factors = local_decompose(ring_of(Z, "(210)"))
    assert [f.ring.size for f in factors] == [2, 3, 5, 7]


def corrupt_local_factor(monkeypatch, prime, remap):
    """Make local_decompose project onto Z/(prime) through remap(i) in place of i.

    The corrupted factor is a private ring, never the interned one.
    """
    real = quotients.build_quotient
    local_modulus = Z.parse_ideal(f"({prime})")

    def build(domain, modulus, ring_cap):
        if modulus != local_modulus:
            return real(domain, modulus, ring_cap)
        local = quotients._quotient.__wrapped__(domain, modulus.data)
        reduce = local.reduce
        local.reduce = lambda value: reduce(remap(value))
        return local

    monkeypatch.setattr(quotients, "build_quotient", build)


def test_local_decompose_catches_an_additive_projection_that_is_not_multiplicative(monkeypatch):
    R = ring_of(Z, "(15)")
    corrupt_local_factor(monkeypatch, 5, lambda x: 2 * x)
    with pytest.raises(InternalCheckError, match="not a ring map"):
        local_decompose(R)


def test_local_decompose_catches_a_projection_that_is_not_injective(monkeypatch):
    R = ring_of(Z, "(15)")
    corrupt_local_factor(monkeypatch, 5, lambda x: 0)
    with pytest.raises(InternalCheckError, match="not injective"):
        local_decompose(R)


def test_local_decompose_catches_a_corrupted_entry_above_128_elements(monkeypatch):
    # 3 and 33 agree modulo 30, so swapping their images modulo 7 keeps the
    # CRT map injective and only the ring-map check can see it
    R = ring_of(Z, "(210)")
    corrupt_local_factor(monkeypatch, 7, lambda x: {3: 33, 33: 3}.get(x, x))
    with pytest.raises(InternalCheckError, match="not a ring map"):
        local_decompose(R)


def test_ideal_image_sizes():
    R = ring_of(Z, "(12)")
    img = ideal_image(R, Z.parse_ideal("(4)"))
    assert img.sorted_elements() == [0, 4, 8]
    img = ideal_image(R, Z.parse_ideal("(1)"))
    assert len(img) == 12


def test_domain_unit_image_is_subgroup_of_ring_units():
    for D, text in [(Z, "(12)"), (F9T, "(t^2)"), (ZSQ2, "(6)")]:
        R = ring_of(D, text)
        img = set(R.domain_unit_image)
        assert img <= set(R.units)
        for x in img:
            assert R.inv(x) in img
            for y in img:
                assert R.mul(x, y) in img
        squares = set(R.domain_unit_squares_image)
        assert squares == {R.mul(u, u) for u in img}
