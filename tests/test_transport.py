"""One subgroup over two domain kinds.

The invariants of H in SL2(D/q0) depend only on the ring D/q0 and on the
image of D's units in it. So a ring isomorphism phi: D1/q1 -> D2/q2 that
carries one unit image onto the other carries every subgroup frame over
D1/q1 to one over D2/q2 with the same index, cusps, level, quasi-level,
extreme amplitudes and theorem verdicts, although the ideal norms, the
HNFs and the ideal arithmetic behind them differ by kind.
"""

import pytest

from conglab.analyzer import (
    amplitude_extrema_check,
    cusps,
    frame_from_group,
    frame_subgroup,
    level,
    level_index_divisibility_check,
    quasi_amplitude_at,
    quasi_level,
    quasi_level_ideal_check,
)
from conglab.domains import parse_domain, residue_norm
from conglab.matgroups import FinMatGroup, _ops
from conglab.quotients import build_quotient, ideal_image

from test_analyzer import frames_of_every_class


def quotient(spec, text):
    D = parse_domain(spec)
    return build_quotient(D, D.parse_ideal(text))


def ring_isomorphism(R1, R2):
    """phi[i], the index in R2 of R1's element text i read in R2, with t and
    u read as w when R2 is quadratic. Checks that phi is an additive,
    multiplicative bijection; ValueError unless it carries the unit image
    of R1's domain onto that of R2's."""
    def text(i):
        s = R1.element_str(i)
        return s.replace("t", "w").replace("u", "w") if "w" in R2.domain.symbols else s

    phi = [R2.reduce(R2.domain.parse_element(text(i))) for i in range(R1.size)]
    assert sorted(phi) == list(range(R2.size))
    for i in range(R1.size):
        for j in range(R1.size):
            assert phi[R1.add(i, j)] == R2.add(phi[i], phi[j])
            assert phi[R1.mul(i, j)] == R2.mul(phi[i], phi[j])
    if {phi[u] for u in R1.domain_unit_image} != set(R2.domain_unit_image):
        raise ValueError(f"phi does not carry the unit image of {R1.domain} onto that of {R2.domain}")
    return phi


def transported(F, phi, R2):
    """The frame over R2 generated by the phi-images of F's generators."""
    ops1, ops2 = _ops(F.ring), _ops(R2)
    gens = [ops2.encode(*(phi[x] for x in ops1.decode(g))) for g in F.group.gens]
    return frame_from_group(FinMatGroup(R2, gens))


def invariants(F, phi):
    """What a frame's ring isomorphism class fixes: ring elements are read
    through phi, ideals by their norms |D/I|."""
    def image(subgroup):
        return frozenset(phi[x] for x in subgroup.elements)

    extrema = amplitude_extrema_check(F)
    condition = quasi_level_ideal_check(F).condition
    return {
        "index": F.index,
        "cusps": sorted(
            (c.width, c.m_factor, len(c.quasi_amplitude), residue_norm(c.amplitude))
            for c in cusps(F)
        ),
        "cusp orbits": sorted(sorted(map(sorted, map(image, c.orbit))) for c in cusps(F)),
        "level": residue_norm(level(F)),
        "quasi-level": sorted(image(quasi_level(F))),
        "c_min": residue_norm(extrema.c_min),
        "c_max": residue_norm(extrema.c_max),
        "theorem B": quasi_level_ideal_check(F).status,
        "theorem C": level_index_divisibility_check(F).to_json(),
        # the clause condition L fails at the level, and the primes that fail it
        "condition L": (
            condition.failed_clause,
            sorted(sorted(image(ideal_image(F.ring, p))) for p in condition.witnesses),
        ),
    }


def cusp_classes(F):
    """{column key a*n + c: index of the cusp whose class holds (a, c)}."""
    ring, orbit_of = F.ring, F.group.orbit_of
    n, decode = ring.size, _ops(ring).decode
    owner = {}
    for i, c in enumerate(cusps(F)):
        a, _, cc, _ = decode(c.code)
        orbits = {orbit_of[ring.mul(u, a) * n + ring.mul(u, cc)] for u in ring.domain_unit_image}
        owner.update((v, i) for v, k in enumerate(orbit_of) if k in orbits)
    return owner


def assert_cusp_representatives_correspond(F, G, phi):
    """phi carries each cusp representative of F to a matrix whose first
    column lies in one cusp class of G, a different class for each cusp,
    with the same width, and at which G's quasi-amplitude is the phi-image
    of F's at the representative."""
    ops1, ops2, n2 = _ops(F.ring), _ops(G.ring), G.ring.size
    owner, matched = cusp_classes(G), []
    for c in cusps(F):
        code = ops2.encode(*(phi[x] for x in ops1.decode(c.code)))
        a, _, cc, _ = ops2.decode(code)
        d = cusps(G)[owner[a * n2 + cc]]
        assert d.width == c.width
        assert quasi_amplitude_at(G, code).elements == {phi[x] for x in c.quasi_amplitude.elements}
        matched.append(owner[a * n2 + cc])
    assert sorted(matched) == list(range(len(cusps(G))))


# isomorphic quotients of two kinds whose units have the same image: +-1
# for the first four and the last two (F2* = 1 = {+-1} and F3* = +-1), all
# of F5* and F4* for the two between; with the number of subgroup classes
TRANSPORT_PAIRS = (
    (("Z", "(5)"), ("Q(sqrt(-5)) maximal", "(w)"), 12),
    (("Z", "(6)"), ("Q(sqrt(-2)) maximal", "(w*(1+w))"), 39),
    (("Z", "(9)"), ("Q(sqrt(-2)) maximal", "(-1+2*w)"), 48),
    (("Fq[t] q=2", "(t^2)"), ("Q(sqrt(-2)) maximal", "(2)"), 33),
    (("Fq[t] q=5", "(t)"), ("Q(sqrt(-1)) maximal", "(2+w)"), 12),
    (("Fq[t] q=4", "(t)"), ("Q(sqrt(-3)) maximal", "(2)"), 9),
    (("Z", "(2)"), ("Fq[t] q=2", "(t)"), 4),
    (("Z", "(3)"), ("Fq[t] q=3", "(t)"), 7),
)


@pytest.mark.parametrize(
    "first, second, classes",
    TRANSPORT_PAIRS,
    ids=["Z/5", "Z/6", "Z/9", "F2[t]/(t^2)", "F5[t]/(t)", "F4[t]/(t)", "Z/2", "Z/3"],
)
def test_isomorphic_quotients_frame_every_subgroup_alike(first, second, classes):
    R2 = quotient(*second)
    frames = frames_of_every_class(*first)
    phi = ring_isomorphism(frames[0].ring, R2)
    for F in frames:
        G = transported(F, phi, R2)
        assert G.group.order == F.group.order
        assert invariants(G, range(R2.size)) == invariants(F, phi), F.group.gens
        assert_cusp_representatives_correspond(F, G, phi)
    assert len(frames) == classes


def test_quotients_with_different_unit_images_are_refused():
    # Z/5 and F5[t]/(t) are one ring, but Z's units map onto +-1 and
    # F5[t]'s onto all of F5*, so the Borel images and the cusps differ
    Z5, F5 = quotient("Z", "(5)"), quotient("Fq[t] q=5", "(t)")
    with pytest.raises(ValueError, match="unit image"):
        ring_isomorphism(Z5, F5)
    trivial = [frame_subgroup(R.domain, R.modulus, []) for R in (Z5, F5)]
    assert [sorted(c.width for c in cusps(F)) for F in trivial] == [[10] * 12, [20] * 6]
