"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (visible with
pytest -s).  All arithmetic is exact, so every comparison is equality.
"""

import time
from contextlib import contextmanager

from conglab.analyzer import (
    build_example,
    cusps,
    level,
    level_chain,
    level_index_divisibility_check,
    quasi_amplitude_at,
    quasi_level_ideal_check,
)
from conglab.domains import residue_norm
from conglab.matgroups import _ops, make_generator
from conglab.modular import (
    cusp_split,
    exact_congruence_test,
    index_level_checks,
    larcher_check,
    low_index_enumerate,
    projective_group_order,
)
from conglab.quotients import ideal_image
from conglab.suites import (
    SURVEY_FAMILIES,
    run_suite,
)


@contextmanager
def criterion(num, desc):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{num} FAIL ({time.time() - t0:.1f}s): {desc}")
        raise
    print(f"[acceptance] C{num} PASS ({time.time() - t0:.1f}s): {desc}")


def test_c1_borel_kernel_frame():
    with criterion(1, "F3[t]/(t) upper-triangular frame: cusps and split"):
        F = build_example("ex2_13")
        cs = cusps(F)
        assert F.index == 4
        assert len(cs) == 2
        assert sorted(str(c.amplitude) for c in cs) == ["(1)", "(t)"]
        terms = sorted(c.term for c in cs)
        assert terms == [1, 3] and sum(terms) == 4


def test_c2_icosahedral_function_field_frame():
    with criterion(2, "F9[t]/(t) icosahedral frame: level, m-factor, quasi-levels"):
        F = build_example("ex3_2")
        assert F.index == 6
        cs = cusps(F)
        assert len(cs) == 1
        c = cs[0]
        assert F.ring.size // len(c.quasi_amplitude) == 3
        assert c.m_factor == 2
        assert level(F) == F.domain.parse_ideal("(t)")
        verdict = quasi_level_ideal_check(F)
        assert verdict.status == "pass" and verdict.ql_equals_l
        ring = F.ring
        ops = _ops(ring)
        zeta = next(
            u for u in ring.units
            if len({_power(ring, u, k) for k in range(1, 9)}) == 8
        )
        gamma = make_generator("Tdiag", ring, zeta, ring.zero_idx)
        assert (
            quasi_amplitude_at(F, gamma).elements
            != quasi_amplitude_at(F, ops.identity).elements
        )


def _power(ring, x, k):
    out = ring.one_idx
    for _ in range(k):
        out = ring.mul(out, x)
    return out


def test_c3_icosahedral_bianchi_frame():
    with criterion(3, "Z[sqrt(-13)]/(3) icosahedral frame: amplitudes and orbit"):
        F = build_example("ex3_5")
        cs = cusps(F)
        assert len(cs) == 2
        three = F.domain.principal_ideal((3, 0))
        assert all(c.amplitude == three for c in cs)
        sets = [c.quasi_amplitude.elements for c in cs]
        assert not (sets[0] <= sets[1]) and not (sets[1] <= sets[0])
        from conglab.analyzer import amplitude_extrema_check

        verdict = amplitude_extrema_check(F)
        assert list(verdict.amplitudes) == [three]
        assert verdict.c_min == three and verdict.c_max == three


def test_c4_square_coordinate_frame():
    with criterion(4, "Z[sqrt(-2)] frame at the 4th prime power: level gap"):
        F = build_example("ex4_9")
        assert F.is_normal
        lvl, ql, _ = level_chain(F)
        assert lvl == F.modulus  # the 4th power of the ramified prime
        assert residue_norm(lvl) == 16
        assert ideal_image(F.ring, lvl).elements != ql.elements
        verdict = quasi_level_ideal_check(F)
        assert verdict.status == "not_applicable"
        assert verdict.condition.failed_clause == "i"


def test_c5_translation_join_frame():
    with criterion(5, "F3[t]/(t^2+t) translation join: counts and level gap"):
        F = build_example("ex4_10")
        assert F.is_normal
        assert F.index == 3
        assert F.info["index_of_join_base"] == 9
        assert F.info["order_of_join_base"] == 64
        lvl, ql, _ = level_chain(F)
        assert lvl == F.domain.parse_ideal("(t^2+t)")
        assert F.ring.one_idx in ql.elements
        assert ideal_image(F.ring, lvl).elements != ql.elements


def test_c6_split_two_frame():
    with criterion(6, "Q(sqrt(-7))/(2) sign-kernel frame: tight index bound"):
        F = build_example("ex5_4")
        assert F.is_normal
        assert F.index == 2
        lvl, ql, _ = level_chain(F)
        assert residue_norm(lvl) == 4 == F.index ** 2
        assert F.ring.size // len(ql) == 2
        verdict = level_index_divisibility_check(F)
        assert verdict.status == "not_applicable"
        assert not verdict.divides_index and not verdict.divides_factorial
        from conglab.analyzer import index_level_inequality_check

        ineq = index_level_inequality_check(F)
        assert ineq.applicable and ineq.tight


def test_c7_modular_screens():
    with criterion(7, "low-index modular screens: widths, divisibility, exact"):
        reps = low_index_enumerate(9)
        by_split = {}
        for rep in reps:
            split = cusp_split(rep)
            by_split.setdefault((rep.n, split.lengths), []).append(rep)
        for lengths in ((3, 4), (2, 5)):
            group = by_split[(7, lengths)]
            assert group
            for rep in group:
                assert not larcher_check(cusp_split(rep)).passed
        assert projective_group_order(6) == 72
        assert projective_group_order(7) == 168
        for n, lengths, order in ((7, (1, 6), 72), (9, (1, 1, 7), 168)):
            group = by_split[(n, lengths)]
            assert group
            for rep in group:
                split = cusp_split(rep)
                assert larcher_check(split).passed
                v = index_level_checks(rep, split)
                assert v.index_at_least_level
                assert v.projective_order == order
                assert not v.index_divides_order
        found = False
        for rep in by_split.get((8, (8,)), []):
            split = cusp_split(rep)
            v = index_level_checks(rep, split)
            if (
                larcher_check(split).passed
                and v.passed
                and not exact_congruence_test(rep).congruence
            ):
                found = True
        assert found


def test_c8_exact_test_soundness():
    with criterion(8, "exact test sound on every kernel-containing subgroup"):
        result = run_suite("exact_soundness", seed=0)
        assert result.ok, result.failures[:5]
        assert result.checks > 0


def test_c9_amplitude_extrema_exhaustive():
    with criterion(9, "amplitude extrema attained over the exhaustive families"):
        result = run_suite("amplitude_extrema", seed=0, families=SURVEY_FAMILIES)
        assert result.ok, result.failures[:5]
        assert result.checks >= 400


def test_c10_level_divisibility_exhaustive():
    with criterion(10, "quasi-level and divisibility over the exhaustive families"):
        result = run_suite("level_divisibility", seed=0, families=SURVEY_FAMILIES)
        assert result.ok, result.failures[:5]
        assert result.checks >= 400


def test_c11_structural_suite():
    with criterion(11, "cube law, centres, CRT selections, coprime products"):
        cube = run_suite("cube_law", seed=0)
        assert cube.ok and cube.checks >= 5
        centers = run_suite("center_triviality", seed=0)
        assert centers.ok and centers.checks == 5
        crt = run_suite("crt", seed=0)
        assert crt.ok and crt.checks == 100
        prod = run_suite("coprime_product", seed=0)
        assert prod.ok


def test_c12_subspace_screen():
    with criterion(12, "translation-subspace screens certify non-congruence"):
        result = run_suite("subspace_screen", seed=0)
        assert result.ok, result.failures[:5]
        # admissible moduli: over F2 there are 1+4+8 of degrees 2..4 with
        # nonzero constant term (and nonzero linear term in degree 2),
        # over F3 there are 4+18+54; three checks each
        assert result.checks == 3 * ((1 + 4 + 8) + (4 + 18 + 54))
