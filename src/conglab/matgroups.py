"""SL2 over a finite quotient ring.

Matrices are packed into a single integer code (four ring-element indices,
base |R|), so element sets of 10^5..10^6 matrices hash compactly. The
ring's flat arithmetic tables are required and built on demand.

A subgroup (`FinMatGroup`) is its generators plus a column chain, with
elements on demand. The chain (`ColumnChain`) walks H's orbits on the
unimodular columns once: order, membership, cusp classes and every
quasi-amplitude come from it, so frames never list H. The columns and
their least codes come from the ring tables with no matrix product.
`full_sl2`, the examples and the surveys still close their groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import CapExceeded, InternalCheckError, factor_ideal, ideal_arith, residue_norm
from .quotients import additive_closure, build_quotient, ideal_image

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
        self.neg_t = ring.neg_t
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

    def conj_translation(self, a, c, x):
        """g T(x) g^-1 for any g with first column (a, c): [[1-xac, xa^2], [-xc^2, 1+xac]]."""
        n, add, mul, neg = self.n, self.ring.add_t, self.ring.mul_t, self.neg_t
        one = self.ring.one_idx
        xa = mul[x * n + a]
        xac = mul[xa * n + c]
        xc2 = mul[mul[x * n + c] * n + c]
        return self.encode(add[one * n + neg[xac]], mul[xa * n + a], neg[xc2], add[one * n + xac])


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

    def __str__(self):
        e = self.ring.element_str
        return f"[[{e(self.a)},{e(self.b)}],[{e(self.c)},{e(self.d)}]]"


def make_generator(kind, ring, *params):
    """The standard generator matrices.

    kind "T": T(r) upper unipotent; "S": S(r) lower unipotent;
    "Tdiag": T(alpha, r) upper triangular with unit alpha;
    "Runi": R(r) = [[1+r, r], [-r, 1-r]].
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
    raise ValueError(f"unknown generator kind {kind!r}")


def closure_codes(ring, gen_codes, cap=DEFAULT_GROUP_CAP):
    """The subgroup generated by gen_codes, one generator at a time."""
    ops = _ops(ring)
    elems = {ops.identity}
    gens = []
    for g in gen_codes:
        if g not in elems:
            elems = extend_closure(elems, gens, g, ops.mmul, cap)
            gens.append(g)
    return elems


class FinMatGroup:
    """A subgroup H of SL2(R): generators plus a column chain; elements on demand.

    The chain (`ColumnChain`, built on first use) answers |H| and
    membership from the generators alone. A prebuilt element set, when
    given, must be the group the generators generate, and then answers
    both itself, and the chain checks its size. Otherwise `elements`
    closes the generators on first use.
    """

    def __init__(self, ring, gens, elements=None):
        self.ring = ring
        self.gens = tuple(gens)
        self._elements = None if elements is None else frozenset(elements)
        self._chain = None
        self._sorted = None

    @property
    def chain(self):
        if self._chain is None:
            chain = ColumnChain(self.ring, self.gens)
            if self._elements is not None and chain.order != len(self._elements):
                raise InternalCheckError("element set does not match the column chain")
            self._chain = chain
        return self._chain

    @property
    def elements(self):
        if self._elements is None:
            elems = frozenset(closure_codes(self.ring, self.gens))
            if len(elems) != self.chain.order:
                raise InternalCheckError("group closure does not match the column chain")
            self._elements = elems
        return self._elements

    @property
    def order(self):
        if self._elements is not None:
            return len(self._elements)
        return self.chain.order

    def sorted_elements(self):
        if self._sorted is None:
            self._sorted = sorted(self.elements)
        return self._sorted

    def __contains__(self, code):
        """Membership of code, which must lie in SL2(R): the chain reads only
        its first column and one entry of t(v)^-1 code, not its determinant."""
        if self._elements is not None:
            return code in self._elements
        return code in self.chain

    def __repr__(self):
        return f"<FinMatGroup of order {self.order} over {self.ring!r}>"

    @classmethod
    def from_generators(cls, ring, gens):
        gens = list(gens)
        if any(isinstance(g, Mat2) and g.ring != ring for g in gens):
            raise ValueError("generator matrix lies over a different ring")
        codes = [g.code if isinstance(g, Mat2) else g for g in gens]
        for code in codes:
            Mat2.from_code(ring, code)  # validates det = 1
        return cls(ring, codes)

    @classmethod
    def from_elements(cls, ring, codes):
        """Wrap a closed element set; generators found greedily.

        The greedy generators are the elements, in increasing order, that
        the group generated by the earlier ones does not yet contain.
        """
        elems = frozenset(codes)
        ops = _ops(ring)
        if ops.identity not in elems:
            raise ValueError("element set lacks the identity")
        closed = {ops.identity}
        found = []
        try:
            for x in sorted(elems):
                if x not in closed:
                    closed = extend_closure(closed, found, x, ops.mmul, cap=len(elems))
                    found.append(x)
        except CapExceeded:
            raise ValueError("element set is not multiplicatively closed")
        if closed != elems:
            raise ValueError("element set is not multiplicatively closed")
        return cls(ring, found, elems)

    def conjugated_by(self, code):
        """The subgroup code^-1 * self * code, from its conjugated generators."""
        ops = _ops(self.ring)
        inv = ops.minv(code)
        mmul = ops.mmul
        return FinMatGroup(self.ring, (mmul(mmul(inv, g), code) for g in self.gens))


class ColumnChain:
    """H = <gens> read through one walk of its orbits on the unimodular columns.

    A stabiliser chain of length 2 (Sims 1970; Seress, *Permutation Group
    Algorithms*, ch. 4) run on every H-orbit: e1's first, from the identity,
    then each column not yet reached, in increasing code order, from its
    least code g0. Along orbit k, t(s v) = s t(v) for each generator s; when
    s t(v) lands on a column already reached, t(s v)^-1 s t(v) fixes e1, so
    it is some T(x), and by Schreier's lemma these x generate
    A_k = {x : g0 T(x) g0^-1 in H}, the quasi-amplitude at every g whose
    column lies in orbit k (such a g is h g0 T(y) with h in H).

    `orbit_of` maps each column (a, c), keyed a*n + c, to its k; `least[k]`
    is the least code over orbit k and `amplitudes[k]` is A_k, closed again
    over its elements so that its generators are the set's greedy ones; the
    ring keeps these closures, keyed by the Schreier x's, for every chain.
    Orbit 0 keeps `transversal`, column -> (d*n, -b*n) for the second column
    (b, d) of t(v) in H: g lies in H iff its column v is in orbit 0 and
    t(v)^-1 g = T(x), x = d*g_b - b*g_d, with x in A_0. Raises
    InternalCheckError unless |orbit k| * |A_k| is one order |H| for every k
    and |H| divides |SL2(R)|.
    """

    def __init__(self, ring, gens):
        ops = _ops(ring)
        n, add, mul, neg = ring.size, ring.add_t, ring.mul_t, ring.neg_t
        columns = unimodular_columns(ring)
        # each action is a matrix [[p, q], [r, s]], its entries stored times n
        acts = [tuple(e * n for e in ops.decode(g)) for g in gens]
        orbit_of, self.least, self.amplitudes, sizes = {}, [], [], []
        closed = ring.memo["column_amplitudes"]  # A_k by its Schreier x's, shared by every chain
        for (a, c), g0 in [((ring.one_idx, ring.zero_idx), ops.identity), *columns.items()]:
            if a * n + c in orbit_of:
                continue
            k = len(sizes)
            _, b, _, d = ops.decode(g0)
            orbit = {a * n + c: (d * n, neg[b] * n)}
            walk = [(a, b, c, d)]
            xs = set()
            for a, b, c, d in walk:  # walk grows as columns are found
                for p, q, r, s in acts:
                    a2 = add[mul[p + a] * n + mul[q + c]]
                    c2 = add[mul[r + a] * n + mul[s + c]]
                    b2 = add[mul[p + b] * n + mul[q + d]]
                    d2 = add[mul[r + b] * n + mul[s + d]]
                    t = orbit.get(a2 * n + c2)
                    if t is None:
                        orbit[a2 * n + c2] = (d2 * n, neg[b2] * n)
                        walk.append((a2, b2, c2, d2))
                    else:
                        xs.add(add[mul[t[0] + b2] * n + mul[t[1] + d2]])
            orbit_of.update(dict.fromkeys(orbit, k))
            if k == 0:
                self.transversal = orbit
                g0 = min(columns[(a, c)] for a, _, c, _ in walk)
            self.least.append(g0)
            key = frozenset(xs)
            if key not in closed:
                closed[key] = additive_closure(additive_closure(xs, ring).elements, ring)
            self.amplitudes.append(closed[key])
            sizes.append(len(orbit))
        self.orbit_of = orbit_of
        self.order = sizes[0] * len(self.amplitudes[0])
        if any(size * len(A) != self.order for size, A in zip(sizes, self.amplitudes)):
            raise InternalCheckError("column chain orbits disagree on |H|")
        if _sl2_total(ring) % self.order:
            raise InternalCheckError("column chain order does not divide |SL2(R)|")
        self._shifts = self.amplitudes[0].elements
        self._n, self._n2, self._n3 = n, n * n, n * n * n
        self._add, self._mul = add, mul

    def __contains__(self, code):
        n = self._n
        a, r = divmod(code, self._n3)
        b, r = divmod(r, self._n2)
        c, d = divmod(r, n)
        t = self.transversal.get(a * n + c)
        if t is None:
            return False
        mul = self._mul
        return self._add[mul[t[0] + b] * n + mul[t[1] + d]] in self._shifts


def sl2_order_formula(modulus):
    """|SL2(D/q)| from the factorization of q."""
    return sl2_order_from_factors((residue_norm(p), e) for p, e in factor_ideal(modulus).pairs)


def sl2_order_from_factors(pairs):
    """|SL2(D/q)| from (N(p), e) for each prime power p^e exactly dividing q."""
    total = 1
    for f, e in pairs:
        total *= f ** (3 * (e - 1)) * f * (f * f - 1)
    return total


def _sl2_total(ring):
    """|SL2(R)| by the order formula, computed on first use and kept on the ring."""
    if ring._sl2_order is None:
        ring._sl2_order = sl2_order_formula(ring.modulus)
    return ring._sl2_order


def sl2_order(ring, cap=DEFAULT_GROUP_CAP):
    """|SL2(R)| by the order formula; CapExceeded when it is above cap."""
    expected = _sl2_total(ring)
    if expected > cap:
        raise CapExceeded(f"|SL2(R)| = {expected} exceeds cap {cap}")
    return expected


def standard_generators(ring):
    """Codes of T(g) and S(g) over an additive basis of R; they generate SL2(R)."""
    return [make_generator(k, ring, g).code for g in ring.additive_generators for k in "TS"]


def full_sl2(ring, cap=DEFAULT_GROUP_CAP):
    """SL2(R), generated by the standard generators; the cap holds on every call."""
    expected = sl2_order(ring, cap)
    if ring._full_sl2 is not None:
        return ring._full_sl2
    gens = standard_generators(ring)
    grp = FinMatGroup(ring, gens, closure_codes(ring, gens, cap=expected + 1))
    if grp.order != expected:
        raise InternalCheckError("SL2 closure does not match the order formula")
    ring._full_sl2 = grp
    return grp


def principal_congruence_image(ring, a):
    """Image of the kernel-of-reduction subgroup for an ideal a containing q.

    Its elements are I + M with every entry of M in the image A of a: for
    each (ma, mb, mc) in (1+A) x A x A, every md in 1+A with ma*md = 1 + mb*mc,
    read from a table of (1+A)^2 keyed by (ma, ma*md).
    """
    if not a.contains_ideal(ring.modulus):
        raise ValueError("ideal does not contain the frame modulus")
    A = ideal_image(ring, a).elements
    ops = _ops(ring)
    n, add, mul = ring.size, ring.add_t, ring.mul_t
    one = ring.one_idx
    shifted = [add[one * n + x] for x in A]
    solve = {}
    for ma in shifted:
        for md in shifted:
            solve.setdefault((ma, mul[ma * n + md]), []).append(md)
    codes = [
        ops.encode(ma, mb, mc, md)
        for ma in shifted
        for mb in A
        for mc in A
        for md in solve.get((ma, add[one * n + mul[mb * n + mc]]), ())
    ]
    grp = FinMatGroup.from_elements(ring, codes)
    a2 = ideal_arith("product", a, a)
    if ring.modulus.contains_ideal(a2):
        expected = (residue_norm(ring.modulus) // residue_norm(a)) ** 3
        if grp.order != expected:
            raise InternalCheckError("congruence image violates the cube law")
    return grp


def extend_closure(group, gens, g, mul, cap=DEFAULT_GROUP_CAP):
    """The set <group, g>, where group is a closed group generated by gens.

    Dimino's coset extension: the new group is a union of right cosets
    group*r. Starting from group*g, each representative r is multiplied by
    every generator s, and r*s opens a new coset when it is not yet
    covered. Right multiplication by the generators suffices in a finite
    group, so no inverses are taken. Raises CapExceeded, with partial ==
    cap, exactly when the new group has more than cap elements.
    """
    elems = set(group)
    reps = []

    def add_coset(r):
        for h in group:
            if len(elems) >= cap:
                raise CapExceeded(f"group closure exceeded cap {cap}", partial=len(elems))
            elems.add(mul(h, r))
        reps.append(r)

    if g not in elems:
        add_coset(g)
    step = [*gens, g]
    for r in reps:  # reps grows as cosets are found
        for s in step:
            y = mul(r, s)
            if y not in elems:
                add_coset(y)
    return elems


def unimodular_columns(ring):
    """Map each first column (a, c) of SL2(R), that is each coset gU, to the
    minimum code in it, in increasing code order: (a, b, c, d) with the least
    b for which 1 + b*c lies in aR, then the least d with a*d = 1 + b*c, both
    read from a table of the least r with a*r = v, built per a."""
    if getattr(ring, "_columns", None) is not None:
        return ring._columns
    ops = _ops(ring)
    n, mul = ring.size, ring.mul_t
    one_plus = ring.add_t[ring.one_idx * n:ring.one_idx * n + n]
    columns = {}
    for a in range(n):
        row = mul[a * n:a * n + n]
        solve = {row[r]: r for r in reversed(range(n))}  # v -> least r with a*r = v
        for c in range(n):
            for b in range(n):
                d = solve.get(one_plus[mul[b * n + c]])
                if d is not None:
                    columns[(a, c)] = ops.encode(a, b, c, d)
                    break
    if len(columns) * n != _sl2_total(ring):
        raise InternalCheckError("unimodular columns do not match the order formula")
    ring._columns = columns = dict(sorted(columns.items(), key=lambda item: item[1]))
    return columns


def cusp_representatives(group):
    """One (code, count) pair per H\\G/B class, read off the group's column walk.

    gB is the column of g up to scaling by the domain's unit images, so a
    class is a set of H-orbits on the |G/U| unimodular columns that the
    scalings u permute. code is the class's minimum packed code; count is
    #{u : u*c lies in the H-orbit of c}, the number of distinct (1,1)
    entries of B intersected with g^-1 H g, the same for every column c of
    the class since the scalings commute with H.
    """
    ring = group.ring
    chain = group.chain
    n, mul, orbit_of = ring.size, ring.mul_t, chain.orbit_of
    decode = _ops(ring).decode
    reps = []
    placed = set()
    # taken by least code, a class's first orbit holds its minimum
    for k in sorted(range(len(chain.least)), key=chain.least.__getitem__):
        if k in placed:
            continue
        a, _, c, _ = decode(chain.least[k])
        images = [orbit_of[mul[u * n + a] * n + mul[u * n + c]] for u in ring.domain_unit_image]
        placed.update(images)
        reps.append((chain.least[k], images.count(k)))
    return reps


def cube_law_check(domain, q, q_sub, ring_cap=None):
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
    img = principal_congruence_image(ring, q)
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
    """Whether the centre of SL2(R)/{+-1} is trivial (R local, 2 a unit).

    x T(g) x^-1 = +-T(g) for every additive generator g is necessary for x
    to be central up to sign, and depends only on x's first column; the
    matrices over the columns that pass are tested against every standard
    generator.
    """
    pf = factor_ideal(ring.modulus)
    if len(pf.pairs) != 1:
        raise ValueError("ring is not local")
    if not ring.is_unit(ring.reduce(ring.domain.from_int(2))):
        raise ValueError("2 must be invertible")
    sl2_order(ring, cap)
    ops = _ops(ring)
    mmul, mneg = ops.mmul, ops.mneg
    n, add, mul = ring.size, ring.add_t, ring.mul_t
    signed = []
    for g in ring.additive_generators:
        t = make_generator("T", ring, g).code
        signed.append((g, (t, mneg(t))))
    gens = standard_generators(ring)
    projective_center = []
    for (a, c), code in unimodular_columns(ring).items():
        if any(ops.conj_translation(a, c, g) not in pm for g, pm in signed):
            continue
        _, b, _, d = ops.decode(code)
        for r in range(n):
            x = ops.encode(a, add[b * n + mul[a * n + r]], c, add[d * n + mul[c * n + r]])
            if all(mmul(x, s) in (mmul(s, x), mneg(mmul(s, x))) for s in gens):
                projective_center.append(x)
    return set(projective_center) == {ops.identity, ops.mneg(ops.identity)}
