"""Bundled verification suites.

Each suite replays one family of checks (arithmetic laws, structural
group identities, exhaustive subgroup surveys, modular screens) and
reports a check count plus any failures.  The CLI's verify-suite command
and the acceptance tests both drive these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .analyzer import (
    DEFAULT_CAPS,
    InternalCheckError,
    amplitude_at,
    amplitude_extrema_check,
    amplitude_join_search,
    build_example,
    cusp_split_check,
    cusps,
    frame_from_group,
    frame_subgroup,
    index_level_inequality_check,
    level,
    level_chain,
    level_index_divisibility_check,
    quasi_level_ideal_check,
    screen_translation_subspace,
    standard_screen_subspace,
    unit_square_closure_check,
)
from .domains import (
    IntegerDomain,
    PolynomialDomain,
    QuadraticDomain,
    _monic_polys,
    condition_L,
    crt_select,
    factor_ideal,
    ideal_arith,
    ideal_pow,
    parse_domain,
    residue_norm,
)
from .matgroups import (
    FinMatGroup,
    _ops,
    cube_law_check,
    full_sl2,
    principal_congruence_image,
    projective_center_is_trivial,
    sl2_order,
)
from .modular import (
    coset_permrep,
    cusp_split,
    exact_congruence_test,
    index_level_checks,
    larcher_check,
    low_index_enumerate,
    psl2_group,
    sl2_preimage,
)
from .quotients import (
    build_quotient,
    ideal_image,
    largest_ideal_inside,
    local_decompose,
)
from .subgroups import DenseGroup, all_subgroups, conjugates, subgroup_classes


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def check(self, condition, message):
        self.checks += 1
        if not condition:
            self.failures.append(message)

    def run_guarded(self, message, fn):
        self.checks += 1
        try:
            fn()
        except InternalCheckError as exc:
            self.failures.append(f"{message}: {exc}")


# ---------------------------------------------------------------------------
# family plumbing for the exhaustive suites


FAMILY_SPECS = {
    "Z/4": ("Z", "(4)"),
    "Z/6": ("Z", "(6)"),
    "Z/8": ("Z", "(8)"),
    "Z/9": ("Z", "(9)"),
    "Z/12": ("Z", "(12)"),
    "F3[t]/(t^2)": ("Fq[t] q=3", "(t^2)"),
}

SURVEY_FAMILIES = ("Z/4", "Z/6", "Z/8", "Z/9", "Z/12", "F3[t]/(t^2)")


def exhaustive_frames(family, caps=DEFAULT_CAPS):
    """All subgroup-conjugacy-class frames over one built-in quotient, kept
    on its ring per caps. Each frame's group is built on its class's
    generators, last first, since the later ones extend larger groups and
    so leave the constructor more of the earlier ones to drop; its column
    chain must reach the class's order."""
    spec, text = FAMILY_SPECS[family]
    D = parse_domain(spec)
    q0 = D.parse_ideal(text)
    ring = build_quotient(D, q0, ring_cap=caps.ring)
    cache = ring.memo["exhaustive_frames"]
    if caps not in cache:
        ambient = full_sl2(ring, cap=caps.group)
        dense = DenseGroup.from_matgroup(ambient)
        reps = subgroup_classes(dense)[0]
        frames = []
        for elems, gens in reps:
            grp = FinMatGroup(ring, [dense.labels[i] for i in reversed(gens)])
            if grp.order != len(elems):
                raise InternalCheckError("subgroup class does not match its column chain")
            frames.append(frame_from_group(grp, caps))
        cache[caps] = frames
    return cache[caps]


def pick_families(families):
    """The named families, or every survey family when none is named."""
    if not families:
        return SURVEY_FAMILIES
    unknown = [f for f in families if f not in FAMILY_SPECS]
    if unknown:
        raise ValueError(f"unknown families {unknown}; known: {sorted(FAMILY_SPECS)}")
    return tuple(families)


def _random_ideal(D, rng):
    if isinstance(D, IntegerDomain):
        return D.principal_ideal(rng.randrange(2, 400))
    if isinstance(D, PolynomialDomain):
        deg = rng.randrange(1, 4)
        coeffs = [rng.randrange(D.q) for _ in range(deg)] + [1]
        return D.principal_ideal(tuple(coeffs))
    x = (rng.randrange(-6, 7), rng.randrange(-6, 7))
    if x == (0, 0):
        x = (2, 1)
    I = D.principal_ideal(x)
    if rng.random() < 0.5:
        y = (rng.randrange(-6, 7), rng.randrange(-6, 7))
        if y != (0, 0):
            I = ideal_arith("sum", I, D.principal_ideal(y))
    return I


_RANDOM_DOMAINS = (
    "Z",
    "Fq[t] q=3",
    "Fq[t] q=9 mod=u^2+1",
    "Q(sqrt(-13)) maximal",
    "Q(sqrt(-2)) maximal",
)


# ---------------------------------------------------------------------------
# arithmetic suites


def suite_ideal_laws(caps, seed, families=None):
    res = SuiteResult("ideal_laws")
    for spec in _RANDOM_DOMAINS:
        D = parse_domain(spec)
        rng = random.Random(f"{seed}:laws:{spec}")
        for _ in range(30):
            I, J, K = (_random_ideal(D, rng) for _ in range(3))
            res.check(
                ideal_arith("sum", I, J) == ideal_arith("sum", J, I),
                f"sum not commutative over {spec}",
            )
            res.check(
                ideal_arith("product", ideal_arith("product", I, J), K)
                == ideal_arith("product", I, ideal_arith("product", J, K)),
                f"product not associative over {spec}",
            )
            prod = ideal_arith("product", I, J)
            inter = ideal_arith("intersect", I, J)
            total = ideal_arith("sum", I, J)
            res.check(
                inter.contains_ideal(prod)
                and I.contains_ideal(inter)
                and total.contains_ideal(I),
                f"containment chain fails over {spec}",
            )
            if not isinstance(D, QuadraticDomain):
                res.check(
                    ideal_arith("product", total, inter) == prod,
                    f"sum*intersection identity fails over {spec}",
                )
            res.check(
                ideal_arith("sum", I, I) == I
                and ideal_arith("intersect", I, I) == I,
                f"idempotence fails over {spec}",
            )
    return res


def suite_factor_roundtrip(caps, seed, families=None):
    res = SuiteResult("factor_roundtrip")
    for spec in _RANDOM_DOMAINS:
        D = parse_domain(spec)
        rng = random.Random(f"{seed}:factor:{spec}")
        for _ in range(25):
            I = _random_ideal(D, rng)
            if I.is_unit_ideal():
                continue
            pf = factor_ideal(I, cap=caps.factor)
            res.check(pf.product() == I, f"factor round-trip fails for {I} over {spec}")
    return res


def suite_crt(caps, seed, families=None):
    res = SuiteResult("crt")
    count = 0
    rng = random.Random(f"{seed}:crt")
    while count < 100:
        D = parse_domain(_RANDOM_DOMAINS[count % len(_RANDOM_DOMAINS)])
        I = _random_ideal(D, rng)
        if I.is_unit_ideal():
            continue
        pf = factor_ideal(I, cap=caps.factor)
        factors = [(p, rng.randrange(0, e + 1)) for p, e in pf.pairs]
        d = crt_select(factors)
        ok = True
        for p, e in factors:
            pe = ideal_pow(p, e)
            pe1 = ideal_arith("product", pe, p)
            if not pe.contains(d) or pe1.contains(d):
                ok = False
        res.check(ok, f"crt postcondition fails for {I}")
        count += 1
    return res


def suite_residue_norm(caps, seed, families=None):
    res = SuiteResult("residue_norm")
    for spec in _RANDOM_DOMAINS:
        D = parse_domain(spec)
        rng = random.Random(f"{seed}:norm:{spec}")
        for _ in range(25):
            I = _random_ideal(D, rng)
            J = _random_ideal(D, rng)
            if not ideal_arith("sum", I, J).is_unit_ideal():
                continue
            res.check(
                residue_norm(ideal_arith("product", I, J))
                == residue_norm(I) * residue_norm(J),
                f"norm not multiplicative over {spec}",
            )
    return res


def suite_condition_L(caps, seed, families=None):
    res = SuiteResult("condition_L")
    Z = parse_domain("Z")
    res.check(not condition_L(Z.parse_ideal("(3)"), caps.factor).holds, "(3) must fail")
    res.check(condition_L(Z.parse_ideal("(9)"), caps.factor).holds, "(9) must hold")
    F2T = parse_domain("Fq[t] q=2")
    r = condition_L(F2T.parse_ideal("(t)"), caps.factor)
    res.check(not r.holds and r.failed_clause == "i", "(t) over F2 must fail clause i")
    for spec in _RANDOM_DOMAINS:
        D = parse_domain(spec)
        six = D.principal_ideal(D.from_int(6))
        rng = random.Random(f"{seed}:condL:{spec}")
        for _ in range(30):
            q = _random_ideal(D, rng)
            if ideal_arith("sum", q, six).is_unit_ideal():
                res.check(
                    condition_L(q, caps.factor).holds,
                    f"coprime-to-6 ideal {q} fails over {spec}",
                )
    return res


def suite_quotients(caps, seed, families=None):
    res = SuiteResult("quotients")
    cases = [
        ("Z", "(12)"),
        ("Z", "(30)"),
        ("Fq[t] q=3", "(t^2+t)"),
        ("Fq[t] q=9 mod=u^2+1", "(t)"),
        ("Q(sqrt(-2)) maximal", "(6)"),
    ]
    for spec, text in cases:
        D = parse_domain(spec)
        q = D.parse_ideal(text)
        R = build_quotient(D, q, ring_cap=caps.ring)
        res.check(R.size == residue_norm(q), f"size mismatch for {spec}/{text}")
        res.check(
            all(R.reduce(R.lift(i)) == i for i in range(R.size)),
            f"lift/reduce mismatch for {spec}/{text}",
        )
        units_ok = all(
            R.is_unit(i) == any(R.mul(i, j) == R.one_idx for j in range(R.size))
            for i in range(R.size)
        )
        res.check(units_ok, f"unit predicate mismatch for {spec}/{text}")
        res.run_guarded(
            f"local decomposition fails for {spec}/{text}",
            lambda R=R: local_decompose(R),
        )
        for p, e in factor_ideal(q).pairs:
            for k in range(e + 1):
                a = ideal_arith("sum", ideal_pow(p, k), q)
                res.check(
                    largest_ideal_inside(ideal_image(R, a)) == a,
                    f"ideal-image fixed point fails for {a} in {spec}/{text}",
                )
    return res


# ---------------------------------------------------------------------------
# structural group suites


def suite_cube_law(caps, seed, families=None):
    res = SuiteResult("cube_law")
    Z = parse_domain("Z")
    F3T = parse_domain("Fq[t] q=3")
    F9T = parse_domain("Fq[t] q=9 mod=u^2+1")
    ZSQ2 = parse_domain("Q(sqrt(-2)) maximal")
    ZSQ13 = parse_domain("Q(sqrt(-13)) maximal")
    p2 = factor_ideal(ZSQ2.principal_ideal((2, 0))).pairs[0][0]
    cases = [
        (Z, Z.parse_ideal("(2)"), Z.parse_ideal("(4)")),
        (Z, Z.parse_ideal("(3)"), Z.parse_ideal("(9)")),
        (Z, Z.parse_ideal("(6)"), Z.parse_ideal("(12)")),
        (F3T, F3T.parse_ideal("(t)"), F3T.parse_ideal("(t^2)")),
        (F3T, F3T.parse_ideal("(t+1)"), F3T.parse_ideal("(t^2+2*t+1)")),
        (F9T, F9T.parse_ideal("(t)"), F9T.parse_ideal("(t^2)")),
        (ZSQ2, p2, ideal_pow(p2, 2)),
        (ZSQ2, ideal_pow(p2, 2), ideal_pow(p2, 4)),
        (ZSQ13, ZSQ13.principal_ideal((3, 0)), ZSQ13.principal_ideal((9, 0))),
    ]
    for D, q, q2 in cases:
        res.check(
            cube_law_check(D, q, q2, ring_cap=caps.ring),
            f"cube law fails for {q} / {q2} over {D}",
        )
    return res


def suite_center_triviality(caps, seed, families=None):
    res = SuiteResult("center_triviality")
    Z = parse_domain("Z")
    F3T = parse_domain("Fq[t] q=3")
    F9T = parse_domain("Fq[t] q=9 mod=u^2+1")
    cases = [
        (Z, "(5)"),
        (Z, "(9)"),
        (Z, "(25)"),
        (F9T, "(t)"),
        (F3T, "(t^2)"),
    ]
    for D, text in cases:
        R = build_quotient(D, D.parse_ideal(text), ring_cap=caps.ring)
        res.check(
            projective_center_is_trivial(R, cap=caps.group),
            f"projective centre not trivial for {D}/{text}",
        )
    return res


def suite_coprime_product(caps, seed, families=None):
    res = SuiteResult("coprime_product")
    Z = parse_domain("Z")
    F3T = parse_domain("Fq[t] q=3")
    cases = [
        (Z, "(30)", ["(2)", "(3)", "(5)", "(6)", "(15)", "(10)"]),
        (F3T, "(t^2+t)", ["(t)", "(t+1)"]),
    ]
    for D, text, parts in cases:
        q0 = D.parse_ideal(text)
        R = build_quotient(D, q0, ring_cap=caps.ring)
        order = sl2_order(R, cap=caps.group)
        ideals = [D.parse_ideal(p) for p in parts]
        for i, a in enumerate(ideals):
            for b in ideals[i + 1:]:
                if not ideal_arith("sum", a, b).is_unit_ideal():
                    continue
                A = principal_congruence_image(R, a)
                B = principal_congruence_image(R, b)
                # |AB| = |A||B|/|A n B| and AB lies in G, so AB = G iff:
                res.check(
                    A.order * B.order == order * len(A.elements & B.elements),
                    f"coprime product not full for {a}, {b} over {D}/{text}",
                )
    return res


def suite_examples(caps, seed, families=None):
    res = SuiteResult("examples")
    F3T = parse_domain("Fq[t] q=3")

    F = build_example("ex2_13", caps)
    cs = cusps(F)
    res.check(F.index == 4, "borel-kernel frame index")
    res.check(len(cs) == 2, "borel-kernel frame cusp count")
    res.check(
        sorted(str(c.amplitude) for c in cs) == ["(1)", "(t)"],
        "borel-kernel frame amplitudes",
    )
    res.check(sorted(c.term for c in cs) == [1, 3], "borel-kernel cusp split")

    F = build_example("ex3_2", caps)
    res.check(F.index == 6, "function-field icosahedral index")
    res.check(len(cusps(F)) == 1, "function-field icosahedral cusp count")
    res.check(level(F) == F.domain.parse_ideal("(t)"), "icosahedral level")
    res.check(
        quasi_level_ideal_check(F).status == "pass", "icosahedral quasi-level verdict"
    )

    F = build_example("ex3_5", caps)
    cs = cusps(F)
    res.check(F.index == 6 and len(cs) == 2, "bianchi icosahedral shape")
    three = F.domain.principal_ideal((3, 0))
    res.check(all(c.amplitude == three for c in cs), "bianchi amplitudes")

    F = build_example("ex4_9", caps)
    lvl, ql, _ = level_chain(F)
    res.check(F.is_normal and F.group.order == 16, "square-coordinate frame shape")
    res.check(lvl == F.modulus, "square-coordinate level")
    res.check(
        ideal_image(F.ring, lvl).elements != ql.elements,
        "square-coordinate quasi-level gap",
    )

    F = build_example("ex4_10", caps)
    lvl, ql, _ = level_chain(F)
    res.check(F.index == 3 and F.is_normal, "translation-join shape")
    res.check(lvl == F3T.parse_ideal("(t^2+t)"), "translation-join level")
    res.check(F.ring.one_idx in ql.elements, "translation-join quasi-level")

    F = build_example("ex5_4", caps)
    lvl, ql, _ = level_chain(F)
    res.check(F.index == 2 and F.is_normal, "split-two shape")
    res.check(residue_norm(lvl) == 4, "split-two residue")
    res.check(F.ring.size // len(ql) == 2, "split-two quasi-level index")
    return res


# ---------------------------------------------------------------------------
# exhaustive subgroup-survey suites


def _frame_survey(name, caps, families, check):
    """check(frame) on every exhaustive frame of each family, one guarded check each."""
    res = SuiteResult(name)
    for family in families:
        for F in exhaustive_frames(family, caps):
            res.run_guarded(f"{family} frame of order {F.group.order}", lambda F=F: check(F))
    return res


def suite_amplitude_extrema(caps, seed, families=None):
    def check(frame):
        amplitude_extrema_check(frame)
        cusp_split_check(frame)

    return _frame_survey("amplitude_extrema", caps, pick_families(families), check)


def suite_level_divisibility(caps, seed, families=None):
    def check(frame):
        level_chain(frame)
        quasi_level_ideal_check(frame)
        level_index_divisibility_check(frame)
        index_level_inequality_check(frame)

    return _frame_survey("level_divisibility", caps, pick_families(families), check)


def suite_square_unit_closure(caps, seed, families=None):
    use = pick_families(families) if families else ("Z/6", "Z/8", "F3[t]/(t^2)")
    return _frame_survey("square_unit_closure", caps, use, unit_square_closure_check)


def _join_every_cusp_pair(frame):
    cusp_list = cusps(frame)
    for c1 in cusp_list:
        for c2 in cusp_list:
            amplitude_join_search(frame, c1.code, c2.code, c1.amplitude, c2.amplitude)


def suite_amplitude_join(caps, seed, families=None):
    res = _frame_survey("amplitude_join", caps, ("Z/6",), _join_every_cusp_pair)
    # sampled subgroups of a larger frame
    Z = parse_domain("Z")
    q0 = Z.parse_ideal("(30)")
    ring = build_quotient(Z, q0, ring_cap=caps.ring)
    G = full_sl2(ring, cap=caps.group)
    rng = random.Random(f"{seed}:join30")
    codes = G.sorted_elements()
    for _ in range(6):
        gens = [rng.choice(codes), rng.choice(codes)]
        frame = frame_subgroup(Z, q0, gens, caps)
        res.run_guarded(
            f"Z/30 sampled frame of order {frame.group.order}",
            lambda F=frame: _join_every_cusp_pair(F),
        )
    return res


def suite_amplitude_invariance(caps, seed, families=None):
    res = SuiteResult("amplitude_invariance")
    rng = random.Random(f"{seed}:inv")
    frames = [build_example("ex2_13", caps)] + exhaustive_frames("Z/6", caps)[:12]
    for frame in frames:
        G = full_sl2(frame.ring, cap=caps.group)
        ops = _ops(frame.ring)
        codes = G.sorted_elements()
        for _ in range(5):
            k = rng.choice(codes)
            g = rng.choice(codes)
            lhs = amplitude_at(frame.conjugated_by(k), ops.mmul(ops.minv(k), g))
            res.check(
                lhs == amplitude_at(frame, g),
                "conjugation invariance of amplitudes fails",
            )
        inter = None
        for code in codes:
            amp = amplitude_at(frame, code)
            inter = amp if inter is None else ideal_arith("intersect", inter, amp)
        res.check(
            inter == level(frame),
            "level differs from the all-elements amplitude intersection",
        )
    return res


# ---------------------------------------------------------------------------
# modular suites


def suite_modular_screens(caps, seed, families=None):
    res = SuiteResult("modular_screens")
    reps = low_index_enumerate(9)
    by_split = {}
    for rep in reps:
        split = cusp_split(rep)
        res.check(split.index == rep.n, "cusp split does not sum to the degree")
        by_split.setdefault((rep.n, split.lengths), []).append(rep)
    for lengths in ((3, 4), (2, 5)):
        group = by_split.get((7, lengths), [])
        res.check(bool(group), f"no index-7 subgroup with split {lengths}")
        for rep in group:
            res.check(
                not larcher_check(cusp_split(rep)).passed,
                f"split {lengths} should fail the width-extrema screen",
            )
    for n, lengths, order in ((7, (1, 6), 72), (9, (1, 1, 7), 168)):
        group = by_split.get((n, lengths), [])
        res.check(bool(group), f"no index-{n} subgroup with split {lengths}")
        for rep in group:
            split = cusp_split(rep)
            res.check(
                larcher_check(split).passed, f"split {lengths} should pass widths"
            )
            v = index_level_checks(rep, split, cap=caps.group)
            res.check(v.projective_order == order, f"kernel index for level {split.level}")
            res.check(not v.index_divides_order, f"split {lengths} should fail divisibility")
    found = False
    for rep in by_split.get((8, (8,)), []):
        split = cusp_split(rep)
        v = index_level_checks(rep, split, cap=caps.group)
        if (
            larcher_check(split).passed
            and v.passed
            and not exact_congruence_test(rep, cap=caps.group).congruence
        ):
            found = True
    res.check(found, "no split-(8) subgroup passing all screens but the exact test")
    # congruence implies every screen passes
    for rep in reps:
        if rep.n > 8:
            continue
        if exact_congruence_test(rep, cap=caps.group).congruence:
            split = cusp_split(rep)
            v = index_level_checks(rep, split, cap=caps.group)
            res.check(
                larcher_check(split).passed and v.passed,
                f"congruence subgroup of index {rep.n} fails a screen",
            )
    return res


def psl_subgroups(n, caps=DEFAULT_CAPS):
    """(P, reps, seen): P = PSL2(Z/n) and its subgroup classes."""
    P = psl2_group(n, cap=caps.group)
    return (P, *subgroup_classes(P))


SOUNDNESS_LEVELS = (2, 3, 4, 5, 6, 8)


def suite_exact_soundness(caps, seed, families=None):
    res = SuiteResult("exact_soundness")
    Z = parse_domain("Z")
    for n in SOUNDNESS_LEVELS:
        ring = build_quotient(Z, Z.principal_ideal(n), ring_cap=caps.ring)
        P, reps, seen = psl_subgroups(n, caps)
        classes = {elems: None for elems, _ in reps}  # (permrep, frame) per class rep
        gens = dict.fromkeys(seen, ())  # keys stay seen's sets, so each walk's copies go;
        for c in reps:  # a subgroup no walk reaches keeps (), which sl2_preimage refuses
            gens.update(conjugates(P, *c))
        for subgroup in all_subgroups(seen):
            rep = coset_permrep(P, subgroup)
            verdict = exact_congruence_test(rep, cap=caps.group)
            res.check(verdict.congruence, f"PSL(Z/{n}) subgroup tests non-congruence")
            frame = frame_from_group(sl2_preimage(ring, P, subgroup, gens[subgroup]), caps)
            lvl = level(frame)
            res.check(
                lvl == Z.principal_ideal(verdict.level),
                f"level mismatch: frame {lvl} vs permrep {verdict.level} at n={n}",
            )
            res.check(
                frame.index == rep.n,
                f"index mismatch: frame {frame.index} vs permrep degree {rep.n}",
            )
            if subgroup in classes:
                classes[subgroup] = rep, frame
        for rep, frame in classes.values():  # widths against T-cycles, off level()'s cusps
            widths = sorted(c.width for c in cusps(frame))
            res.check(
                tuple(widths) == cusp_split(rep).lengths,
                f"width multiset differs from the cusp split at n={n}",
            )
    return res


def suite_subspace_screen(caps, seed, families=None):
    res = SuiteResult("subspace_screen")
    for q in (2, 3):
        D = parse_domain(f"Fq[t] q={q}")
        for deg in (2, 3, 4):
            for f in _monic_polys(q, deg):
                if f[0] == 0:
                    continue
                if deg == 2 and f[1] == 0:
                    continue
                report = screen_translation_subspace(D, f, standard_screen_subspace(D, f))
                res.check(
                    report.level == D.principal_ideal(f),
                    f"level not (f) for {D.element_str(f)} over F{q}",
                )
                res.check(
                    report.ql_codim == 1,
                    f"codimension not 1 for {D.element_str(f)} over F{q}",
                )
                res.check(
                    report.congruence_possible is False
                    and report.certificate is not None,
                    f"no violation certificate for {D.element_str(f)} over F{q}",
                )
    return res


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "ideal_laws": suite_ideal_laws,
    "factor_roundtrip": suite_factor_roundtrip,
    "crt": suite_crt,
    "residue_norm": suite_residue_norm,
    "condition_L": suite_condition_L,
    "quotients": suite_quotients,
    "cube_law": suite_cube_law,
    "center_triviality": suite_center_triviality,
    "coprime_product": suite_coprime_product,
    "examples": suite_examples,
    "amplitude_extrema": suite_amplitude_extrema,
    "level_divisibility": suite_level_divisibility,
    "square_unit_closure": suite_square_unit_closure,
    "amplitude_join": suite_amplitude_join,
    "amplitude_invariance": suite_amplitude_invariance,
    "modular_screens": suite_modular_screens,
    "exact_soundness": suite_exact_soundness,
    "subspace_screen": suite_subspace_screen,
}

# spelling used by the CLI contract
SUITE_ALIASES = {
    "lemma4_5": "center_triviality",
    "theoremA": "amplitude_extrema",
}

# suites cheap enough for the default verify-suite run
DEFAULT_SUITE_NAMES = (
    "ideal_laws",
    "factor_roundtrip",
    "crt",
    "residue_norm",
    "condition_L",
    "quotients",
    "cube_law",
    "center_triviality",
    "coprime_product",
    "examples",
    "square_unit_closure",
    "amplitude_join",
    "amplitude_invariance",
    "subspace_screen",
    "modular_screens",
)


def run_suite(name, caps=DEFAULT_CAPS, seed=0, families=None):
    key = SUITE_ALIASES.get(name, name)
    if key not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    return SUITES[key](caps, seed, families)
