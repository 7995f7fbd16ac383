import pytest

from conglab import matgroups, suites
from conglab.analyzer import Caps
from conglab.domains import CapExceeded, InternalCheckError, parse_domain
from conglab.matgroups import _ops, full_sl2, principal_congruence_image
from conglab.quotients import _quotient, build_quotient
from conglab.suites import exhaustive_frames, psl_subgroups, run_suite


def test_psl_subgroups_respects_the_group_cap():
    P, _, _ = psl_subgroups(8)
    assert P.size == 192
    with pytest.raises(CapExceeded):
        psl_subgroups(8, Caps(group=10))


def test_exhaustive_frames_cache_respects_caps():
    assert exhaustive_frames("Z/4")
    with pytest.raises(CapExceeded):
        exhaustive_frames("Z/4", Caps(group=10))


def test_survey_caches_live_and_die_with_the_ring():
    frames = exhaustive_frames("Z/4")
    assert exhaustive_frames("Z/4") is frames
    _quotient.cache_clear()  # no interned ring keeps them now
    assert exhaustive_frames("Z/4") is not frames


def set_aside_cached_frames(monkeypatch, family):
    """Make exhaustive_frames build the family's frames anew in this test."""
    spec, text = suites.FAMILY_SPECS[family]
    D = parse_domain(spec)
    ring = build_quotient(D, D.parse_ideal(text), ring_cap=Caps().ring)
    monkeypatch.setitem(ring.memo, "exhaustive_frames", {})


def test_survey_frames_keep_no_element_sets(monkeypatch):
    set_aside_cached_frames(monkeypatch, "Z/6")
    frames = exhaustive_frames("Z/6")
    for name in ("amplitude_extrema", "level_divisibility", "square_unit_closure"):
        assert run_suite(name, families=["Z/6"]).ok
    assert all(F.group._elements is None for F in frames)


def test_survey_frames_check_each_class_order_against_its_chain(monkeypatch):
    set_aside_cached_frames(monkeypatch, "Z/6")
    real = suites.subgroup_classes

    def short_generators(dense):
        reps, seen = real(dense)
        elems, gens = reps[-1]  # all of SL2(Z/6), which is not cyclic
        return reps[:-1] + [(elems, gens[:1])], seen

    monkeypatch.setattr(suites, "subgroup_classes", short_generators)
    with pytest.raises(InternalCheckError, match="column chain"):
        exhaustive_frames("Z/6")


def test_exact_soundness_refuses_a_class_walk_that_misses_a_subgroup(monkeypatch):
    # a subgroup no walk reaches keeps no generators, and its SL2 preimage
    # from none is {+-I}, whose order is not the preimage's
    real = suites.conjugates

    def short_walk(G, elems, gens):
        walk = real(G, elems, gens)
        if len(walk) > 1:
            del walk[list(walk)[-1]]  # a member other than the rep
        return walk

    monkeypatch.setattr(suites, "conjugates", short_walk)
    with pytest.raises(InternalCheckError, match="SL2 preimage"):
        run_suite("exact_soundness")


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


@pytest.mark.parametrize("name, checks", [("center_triviality", 5), ("coprime_product", 7), ("cube_law", 9)])
def test_structural_suites_never_build_sl2(monkeypatch, name, checks):
    def refuse(*args, **kwargs):
        raise RuntimeError("SL2(R) enumerated")

    for module in (matgroups, suites):
        monkeypatch.setattr(module, "full_sl2", refuse)
    result = run_suite(name)
    assert (result.checks, result.failures) == (checks, [])


def test_center_triviality_reads_columns_not_the_group(monkeypatch):
    # scanning all of SL2(R) took 70,524 matrix products on these five rings
    calls = [0]
    mmul = matgroups._MatOps.mmul

    def counting(self, x, y):
        calls[0] += 1
        return mmul(self, x, y)

    monkeypatch.setattr(matgroups._MatOps, "mmul", counting)
    result = run_suite("center_triviality")
    assert (result.checks, result.failures) == (5, [])
    assert calls[0] < 5000
