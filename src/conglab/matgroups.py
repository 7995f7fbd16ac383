"""SL2 over a finite quotient ring.

Matrices are packed into a single integer code (four ring-element indices,
base |R|), so subgroup closures of 10^5..10^6 matrices hash compactly.
The ring's flat arithmetic tables are required and built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import CapExceeded, InternalCheckError, factor_ideal, ideal_arith, residue_norm
from .quotients import build_quotient, ideal_image

DEFAULT_GROUP_CAP = 5 * 10 ** 6


class _MatOps:
    """Packed-code matrix arithmetic bound to one ring."""

    def __init__(self, ring):
        ring.ensure_tables()
        n = ring.size
        self.ring = ring
        self.n = n
        self.n2 = n * n
        self.n3 = n * n * n
        self.neg_t = [ring.neg(i) for i in range(n)]
        self.identity = self.encode(ring.one_idx, ring.zero_idx, ring.zero_idx, ring.one_idx)

    def encode(self, a, b, c, d):
        return ((a * self.n + b) * self.n + c) * self.n + d

    def decode(self, code):
        a, r = divmod(code, self.n3)
        b, r = divmod(r, self.n2)
        c, d = divmod(r, self.n)
        return a, b, c, d

    def mmul(self, x, y):
        n, n2, n3 = self.n, self.n2, self.n3
        add, mul = self.ring.add_t, self.ring.mul_t
        a, r = divmod(x, n3)
        b, r = divmod(r, n2)
        c, d = divmod(r, n)
        e, r = divmod(y, n3)
        f, r = divmod(r, n2)
        g, h = divmod(r, n)
        return (
            (
                (add[mul[a * n + e] * n + mul[b * n + g]] * n
                 + add[mul[a * n + f] * n + mul[b * n + h]]) * n
                + add[mul[c * n + e] * n + mul[d * n + g]]
            ) * n
            + add[mul[c * n + f] * n + mul[d * n + h]]
        )

    def minv(self, x):
        # inverse of a determinant-1 matrix is its adjugate
        a, b, c, d = self.decode(x)
        neg = self.neg_t
        return self.encode(d, neg[b], neg[c], a)

    def mneg(self, x):
        a, b, c, d = self.decode(x)
        neg = self.neg_t
        return self.encode(neg[a], neg[b], neg[c], neg[d])


def _ops(ring):
    ops = getattr(ring, "_matops", None)
    if ops is None:
        ops = _MatOps(ring)
        ring._matops = ops
    return ops


@dataclass(frozen=True)
class Mat2:
    """An element of SL2(R); entries are ring element indices."""

    ring: object
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        R = self.ring
        det = R.sub(R.mul(self.a, self.d), R.mul(self.b, self.c))
        if det != R.one_idx:
            raise ValueError("matrix determinant is not 1")

    @property
    def code(self):
        return _ops(self.ring).encode(self.a, self.b, self.c, self.d)

    @classmethod
    def from_code(cls, ring, code):
        a, b, c, d = _ops(ring).decode(code)
        return cls(ring, a, b, c, d)

    def __mul__(self, other):
        return Mat2.from_code(self.ring, _ops(self.ring).mmul(self.code, other.code))

    def inverse(self):
        return Mat2.from_code(self.ring, _ops(self.ring).minv(self.code))

    def __str__(self):
        e = self.ring.element_str
        return f"[[{e(self.a)},{e(self.b)}],[{e(self.c)},{e(self.d)}]]"


def make_generator(kind, ring, *params):
    """The standard generator matrices.

    kind "T": T(r) upper unipotent; "S": S(r) lower unipotent;
    "Tdiag": T(alpha, r) upper triangular with unit alpha;
    "Runi": R(r) = [[1+r, r], [-r, 1-r]];
    "U": U(a, b; x), the conjugate g T(x) g^{-1} for g with first column
    (a, b), defined for (a, b) lifting to a unimodular pair.
    """
    R = ring
    one, zero = R.one_idx, R.zero_idx
    if kind == "T":
        (r,) = params
        return Mat2(R, one, r, zero, one)
    if kind == "S":
        (r,) = params
        return Mat2(R, one, zero, r, one)
    if kind == "Tdiag":
        alpha, r = params
        if not R.is_unit(alpha):
            raise ValueError("diagonal entry must be a unit")
        return Mat2(R, alpha, r, zero, R.inv(alpha))
    if kind == "Runi":
        (r,) = params
        return Mat2(R, R.add(one, r), r, R.neg(r), R.sub(one, r))
    if kind == "U":
        a, b, x = params
        lifted = R.domain.ideal_from_gens([R.lift(a), R.lift(b)])
        if not ideal_arith("sum", lifted, R.modulus).is_unit_ideal():
            raise ValueError("(a, b) does not lift to a unimodular pair")
        xab = R.mul(x, R.mul(a, b))
        xa2 = R.mul(x, R.mul(a, a))
        xb2 = R.mul(x, R.mul(b, b))
        return Mat2(R, R.sub(one, xab), xa2, R.neg(xb2), R.add(one, xab))
    raise ValueError(f"unknown generator kind {kind!r}")


def closure_codes(ring, gen_codes, cap=DEFAULT_GROUP_CAP):
    """BFS closure of the generated subgroup, deterministic insertion order."""
    ops = _ops(ring)
    gset = []
    seen_g = set()
    for g in gen_codes:
        for h in (g, ops.minv(g)):
            if h not in seen_g:
                seen_g.add(h)
                gset.append(h)
    identity = ops.identity
    elems = {identity}
    order = [identity]
    mmul = ops.mmul
    qi = 0
    while qi < len(order):
        x = order[qi]
        qi += 1
        for g in gset:
            y = mmul(x, g)
            if y not in elems:
                if len(elems) >= cap:
                    raise CapExceeded(
                        f"group closure exceeded cap {cap}", partial=len(elems)
                    )
                elems.add(y)
                order.append(y)
    return elems


class FinMatGroup:
    """A subgroup of SL2(R): generator list plus the closed element set."""

    def __init__(self, ring, gens, elements):
        self.ring = ring
        self.gens = tuple(gens)
        self.elements = frozenset(elements)
        self._sorted = None
        self._core = None
        self._normal_in_full = None

    @property
    def order(self):
        return len(self.elements)

    def sorted_elements(self):
        if self._sorted is None:
            self._sorted = sorted(self.elements)
        return self._sorted

    def __contains__(self, code):
        return code in self.elements

    def __eq__(self, other):
        return (
            isinstance(other, FinMatGroup)
            and other.ring == self.ring
            and other.elements == self.elements
        )

    def __hash__(self):
        return hash((self.ring, self.elements))

    def __repr__(self):
        return f"<FinMatGroup of order {self.order} over {self.ring!r}>"

    @classmethod
    def from_generators(cls, ring, gens, cap=DEFAULT_GROUP_CAP):
        codes = [g.code if isinstance(g, Mat2) else g for g in gens]
        for code in codes:
            Mat2.from_code(ring, code)  # validates det = 1
        return cls(ring, codes, closure_codes(ring, codes, cap))

    @classmethod
    def from_elements(cls, ring, codes, gens=None):
        """Wrap a closed element set; generators found greedily if not given."""
        elems = frozenset(codes)
        ops = _ops(ring)
        if ops.identity not in elems:
            raise ValueError("element set lacks the identity")
        if gens is None:
            gens = _greedy_generators(ring, elems)
        try:
            closed = closure_codes(ring, gens, cap=len(elems))
        except CapExceeded:
            raise ValueError("element set is not multiplicatively closed")
        if closed != elems:
            raise ValueError("element set is not multiplicatively closed")
        return cls(ring, gens, elems)

    def conjugated_by(self, code):
        """The subgroup code^-1 * self * code."""
        ops = _ops(self.ring)
        inv = ops.minv(code)
        mmul = ops.mmul
        elems = frozenset(mmul(mmul(inv, x), code) for x in self.elements)
        gens = tuple(mmul(mmul(inv, g), code) for g in self.gens)
        return FinMatGroup(self.ring, gens, elems)

    def is_normal_in(self, ambient):
        ops = _ops(self.ring)
        mmul, minv = ops.mmul, ops.minv
        for g in ambient.gens:
            gi = minv(g)
            for s in self.gens:
                if mmul(mmul(gi, s), g) not in self.elements:
                    return False
        return True

    def is_normal_in_full(self):
        if self._normal_in_full is None:
            self._normal_in_full = self.is_normal_in(full_sl2(self.ring))
        return self._normal_in_full


def _greedy_generators(ring, elements):
    gens = []
    closed = {_ops(ring).identity}
    for x in sorted(elements):
        if x not in closed:
            gens.append(x)
            try:
                closed = closure_codes(ring, gens, cap=len(elements) + 1)
            except CapExceeded:
                raise ValueError("element set is not multiplicatively closed")
            if len(closed) > len(elements):
                raise ValueError("element set is not multiplicatively closed")
    return gens


def sl2_order_formula(modulus):
    """|SL2(D/q)| from the factorization of q."""
    total = 1
    for p, e in factor_ideal(modulus).pairs:
        f = residue_norm(p)
        total *= f ** (3 * (e - 1)) * f * (f * f - 1)
    return total


def full_sl2(ring, cap=DEFAULT_GROUP_CAP):
    """SL2(R), generated by elementary matrices over an additive basis of R."""
    if ring._full_sl2 is not None:
        return ring._full_sl2
    expected = sl2_order_formula(ring.modulus)
    if expected > cap:
        raise CapExceeded(f"|SL2(R)| = {expected} exceeds cap {cap}")
    gens = []
    for g in ring.additive_generators:
        gens.append(make_generator("T", ring, g))
        gens.append(make_generator("S", ring, g))
    grp = FinMatGroup.from_generators(ring, gens, cap=expected + 1)
    if grp.order != expected:
        raise InternalCheckError("SL2 closure does not match the order formula")
    ring._full_sl2 = grp
    return grp


def normal_closure(ring, gen_codes, ambient, cap=DEFAULT_GROUP_CAP):
    """Smallest ambient-normal subgroup containing the generators."""
    ops = _ops(ring)
    mmul, minv = ops.mmul, ops.minv
    gset = []
    seen = set()
    for g in gen_codes:
        code = g.code if isinstance(g, Mat2) else g
        if code not in seen:
            seen.add(code)
            gset.append(code)
    agens = list(ambient.gens) + [minv(g) for g in ambient.gens]
    while True:
        grp = closure_codes(ring, gset, cap)
        new = []
        for s in gset:
            for g in agens:
                c = mmul(mmul(minv(g), s), g)
                if c not in grp and c not in seen:
                    seen.add(c)
                    new.append(c)
        if not new:
            return FinMatGroup(ring, gset, grp)
        gset.extend(new)


def principal_congruence_image(ring, a, cap=DEFAULT_GROUP_CAP):
    """Image of the kernel-of-reduction subgroup for an ideal a containing q."""
    if not a.contains_ideal(ring.modulus):
        raise ValueError("ideal does not contain the frame modulus")
    A = ideal_image(ring, a).elements
    ops = _ops(ring)
    one = ring.one_idx
    sub, add, mul = ring.sub, ring.add, ring.mul
    codes = []
    if len(A) ** 4 <= 4 * sl2_order_formula(ring.modulus):
        # enumerate I + M with entries of M in the ideal image directly
        shifted = sorted(add(one, x) for x in A)
        offdiag = sorted(A)
        for ma in shifted:
            for md in shifted:
                admo = sub(mul(ma, md), one)
                for mb in offdiag:
                    for mc in offdiag:
                        if mul(mb, mc) == admo:
                            codes.append(ops.encode(ma, mb, mc, md))
        codes.sort()
    else:
        G = full_sl2(ring, cap)
        for x in G.sorted_elements():
            ma, mb, mc, md = ops.decode(x)
            if sub(ma, one) in A and mb in A and mc in A and sub(md, one) in A:
                codes.append(x)
    grp = FinMatGroup.from_elements(ring, codes)
    a2 = ideal_arith("product", a, a)
    if a.contains_ideal(ring.modulus) and ring.modulus.contains_ideal(a2):
        expected = (residue_norm(ring.modulus) // residue_norm(a)) ** 3
        if grp.order != expected:
            raise InternalCheckError("congruence image violates the cube law")
    return grp


def coset_labels(elements, sub, mul):
    """Label the cosets {mul(h, x) : h in sub}, first seen first.

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
    """Largest ambient-normal subgroup inside the subgroup.

    Computed as the kernel of the right-coset action, which equals the
    intersection of all conjugates.
    """
    if subgroup._core is not None:
        return subgroup._core
    mmul = _ops(subgroup.ring).mmul
    reps, label = coset_labels(ambient.sorted_elements(), subgroup.elements, mmul)
    core = [
        h
        for h in subgroup.sorted_elements()
        if all(label[mmul(r, h)] == i for i, r in enumerate(reps))
    ]
    grp = FinMatGroup.from_elements(subgroup.ring, core)
    if not grp.is_normal_in(ambient):
        raise InternalCheckError("core is not normal in the ambient group")
    subgroup._core = grp
    return grp


def borel_and_unipotent(ring):
    """Images of the upper-triangular and translation subgroups of SL2(D).

    The diagonal entries range over the image of the domain's unit group,
    not over all units of R.
    """
    cached = getattr(ring, "_borel_pair", None)
    if cached is not None:
        return cached
    ops = _ops(ring)
    zero = ring.zero_idx
    borel_codes = []
    for u in ring.domain_unit_image:
        uinv = ring.inv(u)
        for r in range(ring.size):
            borel_codes.append(ops.encode(u, r, zero, uinv))
    gens = [make_generator("T", ring, g).code for g in ring.additive_generators]
    gens += [
        make_generator("Tdiag", ring, u, zero).code
        for u in ring.domain_unit_image
        if u != ring.one_idx
    ]
    borel = FinMatGroup.from_elements(ring, borel_codes, gens=gens or [ops.identity])
    uni_codes = [ops.encode(ring.one_idx, r, zero, ring.one_idx) for r in range(ring.size)]
    ugens = [make_generator("T", ring, g).code for g in ring.additive_generators]
    unipotent = FinMatGroup.from_elements(ring, uni_codes, gens=ugens or [ops.identity])
    ring._borel_pair = (borel, unipotent)
    return borel, unipotent


def _double_coset_data(G, H, B):
    """One representative per H\\G/B class: its minimum packed code.

    The left cosets xB are labelled once over G in sorted order, so each
    coset's representative is its minimum; the double cosets are then the
    orbits of H's generators on those |G/B| points.
    """
    mmul = _ops(G.ring).mmul
    points, label = coset_labels(G.sorted_elements(), B.elements, lambda b, x: mmul(x, b))
    seen = [False] * len(points)
    reps = []
    for i, x in enumerate(points):
        if seen[i]:
            continue
        # points are in increasing order, so an orbit's first point is its minimum
        reps.append(x)
        seen[i] = True
        stack = [x]
        while stack:
            y = stack.pop()
            for h in H.gens:
                j = label[mmul(h, y)]
                if not seen[j]:
                    seen[j] = True
                    stack.append(points[j])
    return reps


def cube_law_check(domain, q, q_sub, ring_cap=None, group_cap=DEFAULT_GROUP_CAP):
    """Check the congruence-quotient cube law for q >= q_sub >= q^2.

    True iff the image of the level-q kernel modulo q_sub has order
    |q/q_sub|^3 and is generated by the images of S(x), T(x), R(x), x in q.
    """
    if not q.contains_ideal(q_sub):
        raise ValueError("q must contain q_sub")
    q2 = ideal_arith("product", q, q)
    if not q_sub.contains_ideal(q2):
        raise ValueError("q_sub must contain q^2")
    from .quotients import DEFAULT_RING_CAP

    ring = build_quotient(domain, q_sub, ring_cap or DEFAULT_RING_CAP)
    img = principal_congruence_image(ring, q, group_cap)
    expected = (residue_norm(q_sub) // residue_norm(q)) ** 3
    if img.order != expected:
        return False
    gens = []
    for x in ideal_image(ring, q).sorted_elements():
        gens.append(make_generator("T", ring, x).code)
        gens.append(make_generator("S", ring, x).code)
        gens.append(make_generator("Runi", ring, x).code)
    generated = closure_codes(ring, gens, cap=img.order + 1)
    return generated == img.elements


def projective_center_is_trivial(ring, cap=DEFAULT_GROUP_CAP):
    """Whether the centre of SL2(R)/{+-1} is trivial (R local, 2 a unit)."""
    pf = factor_ideal(ring.modulus)
    if len(pf.pairs) != 1:
        raise ValueError("ring is not local")
    if not ring.is_unit(ring.reduce(ring.domain.from_int(2))):
        raise ValueError("2 must be invertible")
    G = full_sl2(ring, cap)
    ops = _ops(ring)
    mmul, mneg = ops.mmul, ops.mneg
    projective_center = []
    for x in G.sorted_elements():
        if all(mmul(x, g) in (mmul(g, x), mneg(mmul(g, x))) for g in G.gens):
            projective_center.append(x)
    return set(projective_center) == {ops.identity, ops.mneg(ops.identity)}
