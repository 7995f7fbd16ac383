import pytest

from conglab.analyzer import Caps
from conglab.domains import CapExceeded, parse_domain
from conglab.matgroups import _ops, full_sl2, principal_congruence_image
from conglab.quotients import build_quotient
from conglab.suites import exhaustive_frames, psl_subgroups


def test_psl_subgroups_cache_respects_caps():
    P, _, _ = psl_subgroups(8)
    assert P.size == 192
    with pytest.raises(CapExceeded):
        psl_subgroups(8, Caps(group=10))


def test_exhaustive_frames_cache_respects_caps():
    assert exhaustive_frames("Z/4")
    with pytest.raises(CapExceeded):
        exhaustive_frames("Z/4", Caps(group=10))


@pytest.mark.parametrize(
    "spec, modulus, a, b, full",
    [
        ("Fq[t] q=3", "(t^2+t)", "(t)", "(t+1)", True),
        ("Z", "(6)", "(2)", "(3)", True),
        ("Z", "(8)", "(2)", "(4)", False),  # not coprime: AB is the level-2 image
    ],
)
def test_coprime_product_count_matches_product_set(spec, modulus, a, b, full):
    # oracle: every product xy, x in A, y in B, against the counting test
    # |A||B| = |G||A n B| of suite_coprime_product
    D = parse_domain(spec)
    R = build_quotient(D, D.parse_ideal(modulus))
    G = full_sl2(R)
    A = principal_congruence_image(R, D.parse_ideal(a))
    B = principal_congruence_image(R, D.parse_ideal(b))
    mmul = _ops(R).mmul
    assert ({mmul(x, y) for x in A.elements for y in B.elements} == G.elements) is full
    assert (A.order * B.order == G.order * len(A.elements & B.elements)) is full
