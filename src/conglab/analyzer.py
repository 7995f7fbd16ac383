"""Invariants of a congruence subgroup framed by a modulus and finite image.

A FramedSubgroup holds the image of a subgroup H >= SL2(D, q0) inside
SL2(D/q0); every invariant below (cusps, amplitudes, quasi-amplitudes,
level, quasi-level, order ideal) is computed exactly in that finite frame
and pulled back to D.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

from .domains import (
    DEFAULT_FACTOR_CAP,
    CapExceeded,
    Ideal,
    InternalCheckError,
    _factor_int,
    _power,
    _variable_pow,
    condition_L,
    factor_ideal,
    ideal_arith,
    ideal_pow,
    parse_domain,
    residue_norm,
)
from .matgroups import (
    DEFAULT_GROUP_CAP,
    FinMatGroup,
    Mat2,
    _ops,
    _sl2_total,
    cusp_representatives,
    full_sl2,
    group_cap_check,
    make_generator,
    principal_congruence_image,
    sl2_order,
    sl2_order_formula,
    standard_generators,
)
from .quotients import (
    DEFAULT_RING_CAP,
    AdditiveSubgroup,
    additive_closure,
    build_quotient,
    ideal_image,
    largest_ideal_inside,
    local_decompose,
    quotient_size,
)


@dataclass(frozen=True)
class Caps:
    ring: int = DEFAULT_RING_CAP
    group: int = DEFAULT_GROUP_CAP
    factor: int = DEFAULT_FACTOR_CAP


DEFAULT_CAPS = Caps()


# ---------------------------------------------------------------------------
# frames


class FramedSubgroup:
    """A congruence subgroup H >= SL2(D, q0) encoded by its image in SL2(D/q0).

    The image group names its ring D/q0, so the domain, modulus and ring
    are read off it; the group has already checked that its order divides
    |SL2(D/q0)|.
    """

    def __init__(self, group, info=None):
        self.ring = ring = group.ring
        self.domain = ring.domain
        self.modulus = ring.modulus
        self.group = group
        self.info = dict(info or {})
        self.index = _sl2_total(ring) // group.order
        self._cusps = None
        self._quasi_level = None
        self._level = None

    @property
    def is_normal(self):
        """Whether conjugating by the standard generators keeps the group."""
        ops = _ops(self.ring)
        return all(
            ops.mmul(ops.mmul(ops.minv(g), s), g) in self.group
            for g in standard_generators(self.ring)
            for s in self.group.gens
        )

    def conjugated_by(self, code):
        return FramedSubgroup(self.group.conjugated_by(code), info=self.info)

    def __repr__(self):
        return (
            f"<FramedSubgroup index {self.index} over {self.domain}/{self.modulus}>"
        )


def _factor_cap_check(n, caps):
    """Every ideal a frame factors contains q0, so its norm divides n = |D/q0|."""
    if n > caps.factor:
        raise CapExceeded(f"ideal norm {n} exceeds factoring cap {caps.factor}")


def frame_ring(domain, modulus, caps=DEFAULT_CAPS):
    """D/q0, built only once the caps allow a frame over it: |D/q0| against
    the ring cap comes first, since it bounds q0 before q0 is factored, then
    against the factor cap, then |SL2(D/q0)| by the order formula against
    the group cap."""
    n = quotient_size(modulus, caps.ring)
    _factor_cap_check(n, caps)
    if n ** 3 > caps.group:  # |SL2(D/q0)| < |D/q0|^3: smaller rings need no factoring
        group_cap_check(sl2_order_formula(modulus), caps.group)
    return build_quotient(domain, modulus, ring_cap=caps.ring)


def frame_subgroup(domain, modulus, gens, caps=DEFAULT_CAPS, info=None):
    """Frame the subgroup generated by gens together with the level-q0 kernel."""
    ring = frame_ring(domain, modulus, caps)
    return FramedSubgroup(FinMatGroup.from_generators(ring, gens), info)


def frame_from_group(group, caps=DEFAULT_CAPS, info=None):
    """Frame a prebuilt FinMatGroup, once |D/q0| is within the factor cap
    and |SL2(R)| over its ring within the group cap."""
    _factor_cap_check(group.ring.size, caps)
    sl2_order(group.ring, cap=caps.group)
    return FramedSubgroup(group, info)


# ---------------------------------------------------------------------------
# cusp data


@dataclass
class CuspData:
    code: int  # the cusp's least packed code
    quasi_amplitude: AdditiveSubgroup
    amplitude: Ideal
    m_factor: int
    width: int
    term: int
    orbit: tuple  # quasi-amplitudes of the cusp under squared-unit scaling

    @cached_property
    def rep(self):
        """The representative as a Mat2 over the quasi-amplitude's ring, built
        and checked on first read."""
        return Mat2.from_code(self.quasi_amplitude.ring, self.code)

    def to_json(self):
        return {
            "rep": str(self.rep),
            "amplitude": str(self.amplitude),
            "quasi_amplitude": self.quasi_amplitude.to_json(),
            "m": self.m_factor,
            "width": self.width,
            "orbit_under_squared_units": [a.to_json() for a in self.orbit],
        }


def quasi_amplitude_at(frame, code):
    """The additive group {x in R : g T(x) g^-1 in H} at the element g of this
    code: the A_k of the H-orbit of g's first column in the frame's column walk."""
    return frame.group.column_amplitude(code)


def amplitude_at(frame, g):
    return largest_ideal_inside(quasi_amplitude_at(frame, g))


def cusps(frame):
    """One CuspData per double coset of the frame against the Borel image.

    The stabiliser B cap g^-1 H g of the cusp at g has |quasi| elements
    above each of its count distinct (1,1) entries, so with
    |B| = |unit image| * |R| the width is |B| / (|quasi| * count), and
    |U * stab| = |R| * count gives m. The tuple is computed once per frame.
    """
    if frame._cusps is not None:
        return frame._cusps
    ring = frame.ring
    borel_order = len(ring.domain_unit_image) * ring.size
    out = []
    for code, count in cusp_representatives(frame.group):
        quasi = quasi_amplitude_at(frame, code)
        amp = largest_ideal_inside(quasi)
        width = borel_order // (len(quasi) * count)
        m = borel_order // (ring.size * count)
        term = m * (ring.size // len(quasi))
        if term != width:
            raise InternalCheckError("cusp width does not factor as m * |D:b|")
        orbit = _squared_unit_orbit(ring, quasi)
        out.append(CuspData(code, quasi, amp, m, width, term, orbit))
    frame._cusps = tuple(out)
    return frame._cusps


def _squared_unit_orbit(ring, quasi):
    key = quasi.elements, quasi.generators  # the JSON prints each member's generators
    cache = ring.memo["squared_unit_orbit"]
    if key not in cache:
        seen = {}
        for scaled in map(quasi.scaled, ring.domain_unit_squares_image):
            seen.setdefault(tuple(sorted(scaled.elements)), scaled)
        cache[key] = tuple(seen[k] for k in sorted(seen))
    return cache[key]


# ---------------------------------------------------------------------------
# level-type invariants


def quasi_level(frame):
    """Translations landing in every conjugate of the frame: the quasi-amplitude
    at g depends only on HgU, so this is the intersection of the cusps' orbits."""
    if frame._quasi_level is None:
        inter = set(range(frame.ring.size))
        for c in cusps(frame):
            for member in c.orbit:
                inter &= member.elements
        frame._quasi_level = additive_closure(inter, frame.ring)
    return frame._quasi_level


def level(frame):
    """The largest ideal inside the quasi-level, computed once per frame."""
    if frame._level is None:
        frame._level = largest_ideal_inside(quasi_level(frame))
    return frame._level


def _level_condition(frame):
    """Condition L at the frame's level, computed once per level over its ring."""
    lvl = level(frame)
    cache = frame.ring.memo["condition_L"]
    if lvl not in cache:
        cache[lvl] = condition_L(lvl)
    return cache[lvl]


def order_ideal(frame):
    """The ideal generated by the modulus and a-d, b, c over the frame image.

    The matrices that are scalar modulo an ideal form a group, so the
    generators of the image suffice.
    """
    ring = frame.ring
    ops = _ops(ring)
    seeds = set()
    for code in frame.group.gens:
        a, b, c, d = ops.decode(code)
        seeds.update((ring.sub(a, d), b, c))
    lifts = [ring.lift(s) for s in sorted(seeds - {ring.zero_idx})]
    return ring.domain.ideal_from_gens(ring.modulus.generators() + lifts)


def level_chain(frame):
    """(level, quasi-level, order ideal); enforces l <= ql <= o elementwise, and
    g T(x) g^-1 in H for x in ql at one g per H-orbit of columns, by membership."""
    ql = quasi_level(frame)
    group = frame.group
    ops = _ops(frame.ring)
    for a, _, c, _ in map(ops.decode, group.least):
        if any(ops.conj_translation(a, c, x) not in group for x in ql.generators):
            raise InternalCheckError("a quasi-level translation leaves a conjugate of the frame")
    lvl = level(frame)
    o = order_ideal(frame)
    ring = frame.ring
    lvl_img = ideal_image(ring, lvl).elements
    o_img = ideal_image(ring, o).elements
    if not (lvl_img <= ql.elements and ql.elements <= o_img):
        raise InternalCheckError("level chain containments fail")
    return lvl, ql, o


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class AmplitudeExtremaVerdict:
    amplitudes: tuple
    c_min: Ideal
    c_max: Ideal

    def to_json(self):
        return {
            "amplitudes": [str(a) for a in self.amplitudes],
            "c_min": str(self.c_min),
            "c_max": str(self.c_max),
            "passed": True,
        }


def amplitude_extrema_check(frame):
    """Intersection and sum of all cusp amplitudes must be attained, and the
    intersection must be the level (Theorem A)."""
    amplitudes = list(dict.fromkeys(c.amplitude for c in cusps(frame)))
    c_min = amplitudes[0]
    c_max = amplitudes[0]
    for a in amplitudes[1:]:
        c_min = ideal_arith("intersect", c_min, a)
        c_max = ideal_arith("sum", c_max, a)
    if not (any(c_min == a for a in amplitudes) and any(c_max == a for a in amplitudes)):
        raise InternalCheckError(
            f"amplitude extrema not attained (min {c_min}, max {c_max}, "
            f"set {[str(a) for a in amplitudes]})"
        )
    if c_min != level(frame):
        raise InternalCheckError("amplitude intersection differs from the level")
    amplitudes.sort(key=lambda a: (residue_norm(a), str(a)), reverse=True)
    return AmplitudeExtremaVerdict(tuple(amplitudes), c_min, c_max)


@dataclass
class QuasiLevelVerdict:
    status: str  # "pass" | "not_applicable"
    condition: object
    ql_equals_l: bool

    def to_json(self):
        return {
            "status": self.status,
            "condition_L": self.condition.to_json(),
            "ql_equals_l": self.ql_equals_l,
        }


def quasi_level_ideal_check(frame):
    """Under condition L at the level the quasi-level must equal the level."""
    cond = _level_condition(frame)
    equal = ideal_image(frame.ring, level(frame)).elements == quasi_level(frame).elements
    if cond.holds and not equal:
        raise InternalCheckError("quasi-level differs from level despite the level condition")
    return QuasiLevelVerdict("pass" if cond.holds else "not_applicable", cond, equal)


@dataclass
class DivisibilityVerdict:
    status: str  # "pass" | "not_applicable"
    residue: int
    index: int
    divides_factorial: bool
    divides_index: bool
    normal: bool

    to_json = asdict


def _divides_factorial(m, n):
    """Whether m divides n!, by prime-exponent comparison."""
    for p, e in _factor_int(m).items():
        total = 0
        pk = p
        while pk <= n:
            total += n // pk
            pk *= p
        if total < e:
            return False
    return True


def level_index_divisibility_check(frame):
    """|D/l| divides index! (the index too when H is normal) under condition L at l."""
    cond = _level_condition(frame)
    res = residue_norm(level(frame))
    idx = frame.index
    fact = _divides_factorial(res, idx)
    div = idx % res == 0
    normal = frame.is_normal
    if cond.holds and (not fact or (normal and not div)):
        raise InternalCheckError("level-index divisibility fails despite the level condition")
    status = "pass" if cond.holds else "not_applicable"
    return DivisibilityVerdict(status, res, idx, fact, div, normal)


@dataclass
class IndexLevelInequality:
    applicable: bool
    degree: int
    residue: int
    bound: int
    tight: bool

    to_json = asdict


def index_level_inequality_check(frame):
    """|D/l| <= index^d over number-ring kinds (d = field degree)."""
    degree = frame.domain.field_degree
    if degree is None:
        return IndexLevelInequality(False, 0, 0, 0, False)
    res = residue_norm(level(frame))
    bound = frame.index ** degree
    if res > bound:
        raise InternalCheckError("index-level inequality fails on a frame")
    return IndexLevelInequality(True, degree, res, bound, res == bound)


def cusp_split_check(frame):
    """index = sum over cusps of m * |D : b|."""
    if frame.index != sum(c.term for c in cusps(frame)):
        raise InternalCheckError("cusp split equation fails")


def unit_square_closure_check(frame):
    """Squared units stabilize the quasi-level, and map quasi-amplitude
    elements into the quasi-amplitude family of some cusp.

    x -> s*x is additive, so the quasi-level is tested on its generators;
    the family is a union of subgroups, so quasi-amplitudes are tested
    element by element."""
    ring = frame.ring
    ql = quasi_level(frame)
    squares = {ring.mul(alpha, alpha) for alpha in ring.units}
    cusp_list = cusps(frame)
    family = set()
    for c in cusp_list:
        for member in c.orbit:
            family |= member.elements
    stable = all(ring.mul(sq, x) in ql.elements for sq in squares for x in ql.generators)
    if not stable or any(
        ring.mul(sq, x) not in family
        for c in cusp_list
        for x in c.quasi_amplitude.elements
        for sq in squares
    ):
        raise InternalCheckError("squared-unit closure fails on a frame")


def amplitude_join_search(frame, g1, g2, q1, q2):
    """A cusp representative whose amplitude contains q1 + q2.

    q_i must be nonzero ideals inside the amplitudes at the codes g_i; existence is
    guaranteed for frames, so exhaustion raises an internal error.
    """
    for g, q in ((g1, q1), (g2, q2)):
        if q.is_zero():
            raise ValueError("the joined ideals must be nonzero")
        amp = amplitude_at(frame, g)
        if not amp.contains_ideal(q):
            raise ValueError("ideal is not contained in the amplitude at g")
    target = ideal_arith("sum", q1, q2)
    for c in cusps(frame):
        if c.amplitude.contains_ideal(target):
            return c.rep
    raise InternalCheckError("no cusp amplitude contains the join")


# ---------------------------------------------------------------------------
# full report


@dataclass
class AnalysisReport:
    frame: FramedSubgroup
    cusp_list: tuple
    extrema: AmplitudeExtremaVerdict
    lvl: Ideal
    ql: AdditiveSubgroup
    o_ideal: Ideal
    condition: object
    quasi_verdict: QuasiLevelVerdict
    divisibility: DivisibilityVerdict
    inequality: IndexLevelInequality

    def to_json(self):
        return {
            "domain": str(self.frame.domain),
            "modulus": str(self.frame.modulus),
            "index": self.frame.index,
            "cusps": [c.to_json() for c in self.cusp_list],
            "amplitudes": [str(a) for a in self.extrema.amplitudes],
            "c_min": str(self.extrema.c_min),
            "c_max": str(self.extrema.c_max),
            "level": str(self.lvl),
            "quasi_level": self.ql.to_json(),
            "order_ideal": str(self.o_ideal),
            "condition_L": self.condition.to_json(),
            "theorems": {
                "A": self.extrema.to_json(),
                "B": self.quasi_verdict.to_json(),
                "C": self.divisibility.to_json(),
                "cusp_split": True,
                "unit_square": True,
                "index_level": self.inequality.to_json(),
            },
        }


def analyze(frame):
    """Compute every frame invariant and run all verdicts; each check raises
    InternalCheckError on the contradiction it finds."""
    lvl, ql, o_ideal = level_chain(frame)
    extrema = amplitude_extrema_check(frame)
    quasi_verdict = quasi_level_ideal_check(frame)
    divisibility = level_index_divisibility_check(frame)
    inequality = index_level_inequality_check(frame)
    cusp_split_check(frame)
    unit_square_closure_check(frame)
    return AnalysisReport(
        frame,
        cusps(frame),
        extrema,
        lvl,
        ql,
        o_ideal,
        _level_condition(frame),
        quasi_verdict,
        divisibility,
        inequality,
    )


# ---------------------------------------------------------------------------
# built-in example frames


EXAMPLE_NAMES = ("ex2_13", "ex3_2", "ex3_5", "ex4_9", "ex4_10", "ex5_4")


def build_example(name, caps=DEFAULT_CAPS):
    """Construct one of the named built-in frames."""
    if name == "ex2_13":
        return _example_borel_plus_kernel(caps)
    if name == "ex3_2":
        return _example_icosahedral(name, parse_domain("Fq[t] q=9 mod=u^2+1"), "(t)", caps)
    if name == "ex3_5":
        D = parse_domain("Q(sqrt(-13)) maximal")
        return _example_icosahedral(name, D, "(3)", caps)
    if name == "ex4_9":
        return _example_square_coordinates(caps)
    if name == "ex4_10":
        return _example_translation_join(caps)
    if name == "ex5_4":
        return _example_split_two(caps)
    raise ValueError(f"unknown example {name!r}")


def _example_borel_plus_kernel(caps):
    # upper-triangular matrices with constant entries over F_3[t], modulo (t)
    D = parse_domain("Fq[t] q=3")
    q0 = D.parse_ideal("(t)")
    ring = build_quotient(D, q0, ring_cap=caps.ring)
    gens = [
        make_generator("Tdiag", ring, u, r)
        for u in ring.domain_unit_image
        for r in range(ring.size)
    ]
    return frame_subgroup(D, q0, gens, caps, info={"name": "ex2_13"})


def _proj_order_filter(ring, ambient):
    """The non-central x of order 2 and of order 3 modulo the centre +-I.

    With t = tr x, x^2 = t*x - I and x^3 = (t^2 - 1)*x - t*I. Over a field
    (both example rings are F9) a non-central x is not scalar, so x^2 is
    central iff t = 0, and x^3 is central iff t^2 = 1.
    """
    ops = _ops(ring)
    center = {ops.identity, ops.mneg(ops.identity)}
    invol = []
    third = []
    for x in ambient.sorted_elements():
        if x in center:
            continue
        a, _, _, d = ops.decode(x)
        t = ring.add(a, d)
        if t == ring.zero_idx:
            invol.append(x)
        elif ring.mul(t, t) == ring.one_idx:
            third.append(x)
    return invol, third, center


def _example_icosahedral(name, D, modulus_text, caps):
    # the lexicographically first (2,3,5)-generated subgroup of order 120
    q0 = D.parse_ideal(modulus_text)
    ring = build_quotient(D, q0, ring_cap=caps.ring)
    ambient = full_sl2(ring, cap=caps.group)
    ops = _ops(ring)
    invol, third, center = _proj_order_filter(ring, ambient)
    for x in invol:
        for y in third:
            z = ops.mmul(x, y)
            if z in center or _power(z, 5, ops.mmul, ops.identity) not in center:
                continue
            group = FinMatGroup(ring, (x, y))
            if group.order == 120:
                frame = frame_from_group(
                    group, caps,
                    info={"name": name,
                          "generators": (str(Mat2.from_code(ring, x)),
                                         str(Mat2.from_code(ring, y)))},
                )
                quasi = quasi_amplitude_at(frame, ops.identity)
                beta = min(e for e in quasi.elements if e != ring.zero_idx)
                frame.info["beta"] = ring.element_str(beta)
                return frame
    raise InternalCheckError("no order-120 subgroup found")


def _example_square_coordinates(caps):
    # kernel-square coordinates over the ramified prime above 2
    D = parse_domain("Q(sqrt(-2)) maximal")
    p = D.principal_ideal((0, 1))
    q0 = ideal_pow(p, 4)
    ring = build_quotient(D, q0, ring_cap=caps.ring)
    level_two = principal_congruence_image(ring, ideal_pow(p, 2))
    p_img = ideal_image(ring, p)
    squares = {ring.mul(x, x) for x in p_img.elements}
    ops = _ops(ring)
    codes = []
    for code in level_two.sorted_elements():
        _, b, c, _ = ops.decode(code)
        if b in squares and c in squares:
            codes.append(code)
    group = FinMatGroup.from_elements(ring, codes)
    return frame_from_group(group, caps, info={"name": "ex4_9", "prime": str(p)})


def _matrix_projector(ring, factor):
    ops = _ops(ring)
    fops = _ops(factor.ring)
    proj = factor.projection

    def project(code):
        a, b, c, d = ops.decode(code)
        return fops.encode(proj[a], proj[b], proj[c], proj[d])

    return project


def _example_translation_join(caps):
    # join of T(1) with the product of the two local 2-Sylow kernels
    D = parse_domain("Fq[t] q=3")
    q0 = D.parse_ideal("(t^2+t)")
    ring = build_quotient(D, q0, ring_cap=caps.ring)
    ambient = full_sl2(ring, cap=caps.group)
    ops = _ops(ring)
    locals_ = []
    for f in local_decompose(ring):
        lg = full_sl2(f.ring, cap=caps.group)
        fops = _ops(f.ring)
        syl = {x for x in lg.elements if _power(x, 4, fops.mmul, fops.identity) == fops.identity}
        locals_.append((syl, _matrix_projector(ring, f)))
    n_codes = [
        code
        for code in ambient.sorted_elements()
        if all(project(code) in syl for syl, project in locals_)
    ]
    n_group = FinMatGroup.from_elements(ring, n_codes)
    m_group = FinMatGroup.from_generators(
        ring, list(n_group.gens) + [make_generator("T", ring, ring.one_idx).code]
    )
    info = {
        "name": "ex4_10",
        "index_of_join_base": ambient.order // n_group.order,
        "order_of_join_base": n_group.order,
    }
    return frame_from_group(m_group, caps, info=info)


def _example_split_two(caps):
    # even-sign-product subgroup over the split prime 2 in Q(sqrt(-7))
    D = parse_domain("Q(sqrt(-7)) maximal")
    q0 = D.principal_ideal((2, 0))
    ring = build_quotient(D, q0, ring_cap=caps.ring)
    ambient = full_sl2(ring, cap=caps.group)
    signs = []
    for f in local_decompose(ring):
        fops = _ops(f.ring)
        # each local ring is F2, and SL2(F2) is S3, where x has odd order iff x^3 = I
        table = {
            x: 1 if _power(x, 3, fops.mmul, fops.identity) == fops.identity else -1
            for x in full_sl2(f.ring, cap=caps.group).elements
        }
        signs.append((table, _matrix_projector(ring, f)))
    codes = [
        code
        for code in ambient.sorted_elements()
        if _sign_product(code, signs) == 1
    ]
    group = FinMatGroup.from_elements(ring, codes)
    return frame_from_group(group, caps, info={"name": "ex5_4", "degree": 2})


def _sign_product(code, signs):
    out = 1
    for table, project in signs:
        out *= table[project(code)]
    return out


# ---------------------------------------------------------------------------
# translation-subspace screen


@dataclass
class SubspaceScreenReport:
    level: Ideal
    ql_codim: int
    congruence_possible: object  # False | None (inconclusive)
    certificate: object

    def to_json(self):
        return {
            "level": str(self.level),
            "ql_codim": self.ql_codim,
            "congruence_possible": self.congruence_possible,
            "certificate": self.certificate,
        }


def _vec_of(D, poly, d):
    return [poly[i] if i < len(poly) else 0 for i in range(d)]


def _rref(D, rows):
    rows = [list(r) for r in rows]
    pivots = []
    out = []
    col = 0
    d = len(rows[0]) if rows else 0
    while rows and col < d:
        pivot_row = None
        for r in rows:
            if r[col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        rows.remove(pivot_row)
        inv = D.fq_inv(pivot_row[col])
        pivot_row = [D.fq_mul(inv, x) for x in pivot_row]
        for r in rows + out:
            factor = r[col]
            if factor:
                for i in range(d):
                    r[i] = D.fq_add(r[i], D.fq_neg(D.fq_mul(factor, pivot_row[i])))
        out.append(pivot_row)
        pivots.append(col)
        rows = [r for r in rows if any(r)]
        col += 1
    return out, pivots


def _in_span(D, rref_rows, pivots, vec):
    v = list(vec)
    for row, col in zip(rref_rows, pivots):
        factor = v[col]
        if factor:
            for i in range(len(v)):
                v[i] = D.fq_add(v[i], D.fq_neg(D.fq_mul(factor, row[i])))
    return not any(v)


def screen_translation_subspace(D, f, basis):
    """Level, quasi-level codimension, and a squared-unit violation screen of
    the k-subspace of k[t]/(f) that the polynomials basis span, for D = k[t]
    a polynomial domain and f monic; the subspace's preimage contains (f)."""
    d = D.deg(f)
    if d < 1:
        raise ValueError("modulus must be non-constant")
    vectors = [_vec_of(D, D.divmod(b, f)[1], d) for b in basis]
    span, pivots = _rref(D, vectors)
    dim = len(span)

    def contains_poly(poly):
        return _in_span(D, span, pivots, _vec_of(D, D.divmod(poly, f)[1], d))

    best = f
    for h in _monic_divisors(D, f):
        if D.deg(h) < D.deg(best) and all(
            contains_poly(D.mul(h, _variable_pow(i))) for i in range(d)
        ):
            best = h
    lvl = D.principal_ideal(best)
    codim = d - dim
    t_poly = _variable_pow(1)
    invertible = D.gcd(t_poly, f) == D.one()
    certificate = None
    possible = None
    if invertible:
        t2 = D.mul(t_poly, t_poly)
        for row in span:
            v_poly = D._norm(row)
            image = D.divmod(D.mul(t2, v_poly), f)[1]
            if not contains_poly(image):
                certificate = {
                    "alpha": D.element_str(t_poly),
                    "witness": D.element_str(v_poly),
                    "image": D.element_str(image),
                }
                possible = False
                break
    return SubspaceScreenReport(lvl, codim, possible, certificate)


def _monic_divisors(D, f):
    pf = factor_ideal(D.principal_ideal(f))
    divisors = [D.one()]
    for p, e in pf.pairs:
        (g,) = p.generators()
        divisors = [D.mul(dv, _power(g, k, D.mul, D.one())) for dv in divisors for k in range(e + 1)]
    return divisors


def standard_screen_subspace(D, f):
    """The basis t, t^2, ..., t^(deg f - 1) of a subspace modulo f."""
    return tuple(_variable_pow(i) for i in range(1, D.deg(f)))
