"""SL2 over a finite quotient ring.

Matrices are packed into a single integer code (four ring-element indices,
base |R|), so element sets of 10^5..10^6 matrices hash compactly, and
multiplied by reads of the ring's flat arithmetic tables.

A subgroup (`FinMatGroup`) is its generators read through its orbits on
the unimodular columns, a stabiliser chain of length 2. The walk of e1's
orbit, made when the group is built, gives its order, membership and
element list, so no group is closed by matrix products, SL2(R) included.
The other orbits, walked on first use, give the cusp classes and every
quasi-amplitude, so frames never list H. The columns and their least
codes come from the ring tables with no matrix product. This module alone
knows how a column is keyed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

from .domains import CapExceeded, InternalCheckError, factor_ideal, ideal_arith, residue_norm
from .quotients import DEFAULT_RING_CAP, additive_closure, build_quotient, ideal_image

DEFAULT_GROUP_CAP = 5 * 10 ** 6
_OFF_ORBIT = array("i", [-1])  # repeated, never written: cheaper than a new array per walk


class _MatOps:
    """Packed-code matrix arithmetic bound to one ring."""

    def __init__(self, ring):
        n = ring.size
        self.ring = ring
        self.n = n
        self.n2 = n * n
        self.n3 = n * n * n
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
        neg = self.ring.neg_t
        return self.encode(d, neg[b], neg[c], a)

    def mneg(self, x):
        a, b, c, d = self.decode(x)
        neg = self.ring.neg_t
        return self.encode(neg[a], neg[b], neg[c], neg[d])

    def conj_translation(self, a, c, x):
        """g T(x) g^-1 for any g with first column (a, c): [[1-xac, xa^2], [-xc^2, 1+xac]]."""
        n, add, mul, neg = self.n, self.ring.add_t, self.ring.mul_t, self.ring.neg_t
        one = self.ring.one_idx
        xa = mul[x * n + a]
        xac = mul[xa * n + c]
        xc2 = mul[mul[x * n + c] * n + c]
        return self.encode(add[one * n + neg[xac]], mul[xa * n + a], neg[xc2], add[one * n + xac])


def _ops(ring):
    if ring._matops is None:
        ring._matops = _MatOps(ring)
    return ring._matops


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


class FinMatGroup:
    """A subgroup H = <gens> of SL2(R), read through its orbits on the
    unimodular columns.

    A stabiliser chain of length 2 (Sims 1970; Seress, *Permutation Group
    Algorithms*, ch. 4). Orbit k is walked from a g0 in SL2(R): along it,
    t(s v) = s t(v) for each generator s; when s t(v) lands on a column
    already reached, t(s v)^-1 s t(v) fixes e1, so it is some T(x), and by
    Schreier's lemma these x generate A_k = {x : g0 T(x) g0^-1 in H}, the
    quasi-amplitude at every g whose column lies in orbit k. A_k is closed
    again over its elements so that its generators are the set's greedy
    ones; the ring keeps these closures, keyed by the Schreier x's.

    A column (a, c) is keyed a*n + c. The constructor sifts the given
    generators, in order, into one walk of e1's orbit 0 from the identity:
    it keeps a generator only when the group walked so far lacks it, read
    by membership (the closure of the Schreier x's so far is needed only
    when its column is already reached and neither those x's nor their
    last closure hold its x), and then applies it to the
    columns already reached and every kept generator to the columns newly
    reached, so each column meets each kept generator once. The closures
    made while sifting are not kept on the ring. `gens` is the kept
    subsequence. `transversal` is two arrays indexed by column key
    that hold (d*n, -b*n) for the second column (b, d) of t(v) in H at
    each column of orbit 0, and -1 off it. H is the disjoint union of
    the t(v) T(A_0), so |H| = |orbit 0| * |A_0|, and g lies in H iff its
    column is in orbit 0 and t(v)^-1 g = T(x), x = d*g_b - b*g_d, with x
    in A_0. `elements` lists H from these on first use. The other orbits
    are walked, with no ring product, on the first read of `orbit_of`
    (column key -> k), `least` (k -> least code over orbit k) or
    `amplitudes` (k -> A_k), each from the least code of a column not yet
    reached, in code order. Raises ValueError unless every given
    generator, kept or not, has determinant 1, and InternalCheckError
    unless |H| divides |SL2(R)| and |orbit k| * |A_k| = |H| for every k.
    """

    def __init__(self, ring, gens):
        ops, n = _ops(ring), ring.size
        add, mul, neg = ring.add_t, ring.mul_t, ring.neg_t
        one, zero = ring.one_idx, ring.zero_idx
        self.ring = ring
        self._elements = None
        self._sorted = None
        dns, nbns = _OFF_ORBIT * n ** 2, _OFF_ORBIT * n ** 2
        dns[one * n + zero], nbns[one * n + zero] = one * n, zero * n
        walk, xs = [(one, zero, zero, one)], set()
        kept, acts = [], []  # each action is a matrix [[p, q], [r, s]], its entries stored times n
        shifts, closed_over = {zero}, 0  # A_0 so far, the closure of xs when it had that size
        for code in gens:
            a, b, c, d = ops.decode(code)
            if add[mul[a * n + d] * n + neg[mul[b * n + c]]] != one:
                raise ValueError("generator has determinant other than 1")
            dn = dns[a * n + c]
            if dn >= 0:  # a member iff t(v)^-1 code = T(x) with x in A_0
                x = add[mul[dn + b] * n + mul[nbns[a * n + c] + d]]
                # xs and its last closure lie in A_0; close again only when neither holds x
                if x in xs or x in shifts:
                    continue
                if closed_over != len(xs):
                    shifts, closed_over = additive_closure(xs, ring).elements, len(xs)
                    if x in shifts:
                        continue
            kept.append(code)
            acts.append((a * n, b * n, c * n, d * n))
            reached, new = len(walk), acts[-1:]
            # the new generator on the columns already reached, every kept one on the rest
            for i, (a, b, c, d) in enumerate(walk):  # walk grows as columns are found
                for p, q, r, s in new if i < reached else acts:
                    a2 = add[mul[p + a] * n + mul[q + c]]
                    c2 = add[mul[r + a] * n + mul[s + c]]
                    b2 = add[mul[p + b] * n + mul[q + d]]
                    d2 = add[mul[r + b] * n + mul[s + d]]
                    v = a2 * n + c2
                    dn = dns[v]
                    if dn < 0:
                        dns[v], nbns[v] = d2 * n, neg[b2] * n
                        walk.append((a2, b2, c2, d2))
                    else:
                        xs.add(add[mul[dn + b2] * n + mul[nbns[v] + d2]])
        self.gens = tuple(kept)
        self.transversal, self._amplitude0 = (dns, nbns), _closed_amplitude(ring, xs)
        self.order = len(walk) * len(self._amplitude0)
        if _sl2_total(ring) % self.order:
            raise InternalCheckError("column chain order does not divide |SL2(R)|")
        self._shifts = self._amplitude0.elements
        self._n, self._n2, self._n3 = n, n * n, n * n * n
        self._add, self._mul = add, mul

    @cached_property
    def _orbits(self):
        """(orbit_of, least, amplitudes) past e1's orbit, each walked from the
        least code m(v) of its first column on the generators' column tables:
        t(v) = m(v) T(z[v]) gives t(s v) = m(s v) T(z[v] + y_s[v])."""
        ring = self.ring
        n, add, neg = ring.size, ring.add_t, ring.neg_t
        columns = unimodular_columns(ring)
        tables = [_column_table(ring, g) for g in self.gens]
        dns = self.transversal[0]
        orbit_of, z = [-1] * n ** 2, [0] * n ** 2  # indexed by column key
        least = [next(g0 for v0, g0 in columns.items() if dns[v0] >= 0)]  # in code order
        amplitudes = [self._amplitude0]
        for v0, g0 in columns.items():
            if orbit_of[v0] >= 0:
                continue
            if dns[v0] >= 0:  # orbit 0, which no other orbit's walk reaches
                orbit_of[v0] = 0
                continue
            k = len(least)
            orbit_of[v0], z[v0] = k, ring.zero_idx
            walk, xs = [v0], set()
            for v in walk:  # walk grows as columns are found
                zv = z[v] * n
                for perm, ys in tables:
                    w, x = perm[v], add[zv + ys[v]]
                    if orbit_of[w] < 0:
                        orbit_of[w], z[w] = k, x
                        walk.append(w)
                    else:
                        xs.add(add[x * n + neg[z[w]]])
            A = _closed_amplitude(ring, xs)
            if len(walk) * len(A) != self.order:
                raise InternalCheckError("column chain orbits disagree on |H|")
            least.append(g0)
            amplitudes.append(A)
        return array("i", orbit_of), least, amplitudes

    orbit_of = property(lambda self: self._orbits[0])
    least = property(lambda self: self._orbits[1])
    amplitudes = property(lambda self: self._orbits[2])

    def column_amplitude(self, code):
        """{x in R : g T(x) g^-1 in H} at g = code: the A_k of its column's orbit."""
        a, _, c, _ = _ops(self.ring).decode(code)
        return self.amplitudes[self.orbit_of[a * self._n + c]]

    def __contains__(self, code):
        """Membership of code, which must lie in SL2(R): reads only its first
        column and one entry of t(v)^-1 code, not its determinant."""
        n = self._n
        a, r = divmod(code, self._n3)
        b, r = divmod(r, self._n2)
        c, d = divmod(r, n)
        dns, nbns = self.transversal
        dn = dns[a * n + c]
        if dn < 0:
            return False
        mul = self._mul
        return self._add[mul[dn + b] * n + mul[nbns[a * n + c] + d]] in self._shifts

    def codes(self):
        """Every code of H: t(v) T(x) = (a, b + a*x, c, d + c*x) for each
        column v = (a, c) in orbit 0 and each x in A_0."""
        n, n2, add, mul = self._n, self._n2, self._add, self._mul
        neg, shifts = self.ring.neg_t, self._shifts
        out = []
        for v, (dn, nbn) in enumerate(zip(*self.transversal)):
            if dn < 0:
                continue
            a, c = divmod(v, n)
            head, bn, an, cn = a * self._n3 + c * n, neg[nbn // n] * n, a * n, c * n
            out.extend(head + add[bn + mul[an + x]] * n2 + add[dn + mul[cn + x]] for x in shifts)
        return out

    @property
    def elements(self):
        if self._elements is None:
            self._elements = frozenset(self.codes())
        return self._elements

    def sorted_elements(self):
        if self._sorted is None:
            self._sorted = sorted(self.elements)
        return self._sorted

    def index_kernel(self):
        """(index, kernel) on the sorted codes: index maps each code to its
        place and kernel(i, j) is the place of the product. A product reads
        the decoded entries of both factors, the left one's premultiplied by
        |R|, through the ring tables, scaled once per group so that the
        products come premultiplied by |R| and the sums by their place in a
        code: 12 table reads and one index lookup."""
        ring = self.ring
        ops = _ops(ring)
        n, add, mul = ring.size, ring.add_t, ring.mul_t
        labels = self.sorted_elements()
        index = {x: i for i, x in enumerate(labels)}
        entries = [ops.decode(x) for x in labels]
        rows = [(a * n, b * n, c * n, d * n) for a, b, c, d in entries]
        muln = [x * n for x in mul]
        add3, add2, add1 = ([x * n ** k for x in add] for k in (3, 2, 1))

        def kernel(i, j):
            an, bn, cn, dn = rows[i]
            e, f, g, h = entries[j]
            return index[
                add3[muln[an + e] + mul[bn + g]] + add2[muln[an + f] + mul[bn + h]]
                + add1[muln[cn + e] + mul[dn + g]] + add[muln[cn + f] + mul[dn + h]]
            ]

        return index, kernel

    def __repr__(self):
        return f"<FinMatGroup of order {self.order} over {self.ring!r}>"

    @classmethod
    def from_generators(cls, ring, gens):
        gens = list(gens)
        if any(isinstance(g, Mat2) and g.ring != ring for g in gens):
            raise ValueError("generator matrix lies over a different ring")
        return cls(ring, [g.code if isinstance(g, Mat2) else g for g in gens])

    @classmethod
    def from_elements(cls, ring, codes):
        """Wrap a group given by its elements, which it keeps as its element list.

        The group is built on the sorted elements, so its generators are
        the greedy ones: each element, in increasing order, that the group
        generated by the earlier ones does not yet contain. Raises
        ValueError unless every element has determinant 1 and the elements
        are the group they generate.
        """
        elems = frozenset(codes)
        if _ops(ring).identity not in elems:
            raise ValueError("element set lacks the identity")
        group = cls(ring, sorted(elems))
        if group.order != len(elems):
            raise ValueError("element set is not multiplicatively closed")
        group._elements = elems
        return group

    def conjugated_by(self, code):
        """The subgroup code^-1 * self * code, from its conjugated generators."""
        ops = _ops(self.ring)
        inv = ops.minv(code)
        mmul = ops.mmul
        return FinMatGroup(self.ring, (mmul(mmul(inv, g), code) for g in self.gens))


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


def group_cap_check(order, cap):
    """order, an |SL2(R)|; CapExceeded when it is above cap."""
    if order > cap:
        raise CapExceeded(f"|SL2(R)| = {order} exceeds cap {cap}")
    return order


def sl2_order(ring, cap=DEFAULT_GROUP_CAP):
    """|SL2(R)| by the order formula; CapExceeded when it is above cap."""
    return group_cap_check(_sl2_total(ring), cap)


def standard_generators(ring):
    """Codes of T(g) and S(g) over an additive basis of R; they generate SL2(R)."""
    return [make_generator(k, ring, g).code for g in ring.additive_generators for k in "TS"]


def full_sl2(ring, cap=DEFAULT_GROUP_CAP):
    """SL2(R) on the standard generators; the cap holds on every call. The
    chain order must equal the order formula, which certifies that T(g)
    and S(g) generate SL2(R)."""
    expected = sl2_order(ring, cap)
    if ring._full_sl2 is None:
        grp = FinMatGroup(ring, standard_generators(ring))
        if grp.order != expected:
            raise InternalCheckError("SL2 column chain does not match the order formula")
        ring._full_sl2 = grp
    return ring._full_sl2


def principal_congruence_image(ring, a):
    """Image of the kernel-of-reduction subgroup for an ideal a containing q:
    the I + M in SL2(R) with every entry of M in the image A of a.

    It is one FinMatGroup on T(x) and S(x) for x in A's additive
    generators, then diag(u, 1/u) for the units u in 1 + A in increasing
    order, which the constructor keeps only when the group so far lacks
    them. On a local factor of R where A is the whole factor, the T(x) and
    S(x) generate SL2 of it; on the others every element of 1 + A is a
    unit, and I + M = S(c/u) diag(u, 1/u) T(b/u) with u its (1,1) entry;
    T and S are additive in x. The order
    certifies it. R is finite, so a product of local rings, over each of
    which SL2 is generated by elementary matrices (row reduction), and
    these lift along R -> D/a; so SL2(R) -> SL2(D/a) is onto, its kernel
    has order |SL2(R)| / |SL2(D/a)|, and a subgroup of the kernel of that
    order is the kernel. Raises InternalCheckError unless the chain order
    is that quotient.
    """
    if not a.contains_ideal(ring.modulus):
        raise ValueError("ideal does not contain the frame modulus")
    A = ideal_image(ring, a)
    gens = [make_generator(kind, ring, x).code for x in sorted(A.generators) for kind in "TS"]
    for u in sorted(ring.add(ring.one_idx, x) for x in A.elements):
        if ring.is_unit(u):
            gens.append(make_generator("Tdiag", ring, u, ring.zero_idx).code)
    grp = FinMatGroup(ring, gens)
    if grp.order != _sl2_total(ring) // sl2_order_formula(a):
        raise InternalCheckError("congruence image generators fall short of the kernel")
    a2 = ideal_arith("product", a, a)
    if ring.modulus.contains_ideal(a2):
        expected = (residue_norm(ring.modulus) // residue_norm(a)) ** 3
        if grp.order != expected:
            raise InternalCheckError("congruence image violates the cube law")
    return grp


def unimodular_columns(ring):
    """Map each first column (a, c) of SL2(R), keyed a*n + c, that is each
    coset gU, to the minimum code in it, in increasing code order:
    (a, b, c, d) with the least b for which 1 + b*c lies in aR, then the
    least d with a*d = 1 + b*c, both read from a table of the least r with
    a*r = v, built per a."""
    if ring._columns is not None:
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
                    columns[a * n + c] = ops.encode(a, b, c, d)
                    break
    if len(columns) * n != _sl2_total(ring):
        raise InternalCheckError("unimodular columns do not match the order formula")
    ring._columns = columns = dict(sorted(columns.items(), key=lambda item: item[1]))
    return columns


def _column_table(ring, s):
    """(perm, y) for the generator code s, kept on the ring and indexed by
    column key: column s v is perm[v], and s m(v) = m(s v) T(y[v]) for m(v)
    the least code of column v, so y[v] = d*g_b - b*g_d for m(s v) = (a, b,
    c, d) and g = s m(v). Only the walk of every orbit builds them, so rings
    only ever walked from e1, such as cube_law_check's, never do."""
    tables = ring.memo["column_tables"]
    if s not in tables:
        columns = unimodular_columns(ring)
        n, n2, add, mul, neg = ring.size, ring.size ** 2, ring.add_t, ring.mul_t, ring.neg_t
        p, q, r, t = (e * n for e in _ops(ring).decode(s))
        perm, ys = array("i", [0]) * n2, array("i", [0]) * n2
        for v, code in columns.items():  # code = ((a*n + b)*n + c)*n + d, v = a*n + c
            a, c = divmod(v, n)
            b, d = code // n2 % n, code % n
            w = perm[v] = add[mul[p + a] * n + mul[q + c]] * n + add[mul[r + a] * n + mul[t + c]]
            b2 = add[mul[p + b] * n + mul[q + d]]
            d2 = add[mul[r + b] * n + mul[t + d]]
            mw = columns[w]
            ys[v] = add[mul[mw % n * n + b2] * n + neg[mul[mw // n2 % n * n + d2]]]
        tables[s] = perm, ys
    return tables[s]


def _closed_amplitude(ring, xs):
    """A_k from its Schreier x's, closed twice for greedy generators; kept on the ring."""
    closed, key = ring.memo["column_amplitudes"], frozenset(xs)
    if key not in closed:
        closed[key] = additive_closure(additive_closure(xs, ring).elements, ring)
    return closed[key]


def cusp_representatives(group):
    """One (code, count) pair per H\\G/B class, read off the group's column walk.

    gB is the column of g up to scaling by the domain's unit images, so a
    class is a set of H-orbits on the |G/U| unimodular columns that the
    scalings u permute. code is the class's minimum packed code; count is
    #{u : u*c lies in the H-orbit of c}, the number of distinct (1,1)
    entries of B intersected with g^-1 H g, the same for every column c of
    the class since the scalings commute with H.
    """
    ring, least, orbit_of = group.ring, group.least, group.orbit_of
    n, mul = ring.size, ring.mul_t
    decode = _ops(ring).decode
    reps = []
    placed = set()
    # taken by least code, a class's first orbit holds its minimum
    for k in sorted(range(len(least)), key=least.__getitem__):
        if k in placed:
            continue
        a, _, c, _ = decode(least[k])
        images = [orbit_of[mul[u * n + a] * n + mul[u * n + c]] for u in ring.domain_unit_image]
        placed.update(images)
        reps.append((least[k], images.count(k)))
    return reps


def cube_law_check(domain, q, q_sub, ring_cap=None):
    """Check the congruence-quotient cube law for q >= q_sub >= q^2: True iff
    the image of the level-q kernel modulo q_sub, whose order |q/q_sub|^3
    principal_congruence_image checks, is generated by the images of S(x),
    T(x), R(x), x in q."""
    if not q.contains_ideal(q_sub):
        raise ValueError("q must contain q_sub")
    q2 = ideal_arith("product", q, q)
    if not q_sub.contains_ideal(q2):
        raise ValueError("q_sub must contain q^2")
    ring = build_quotient(domain, q_sub, ring_cap or DEFAULT_RING_CAP)
    img = principal_congruence_image(ring, q)
    # S, T and R are additive in x (R(x) = I + xN with N^2 = 0), so the
    # images over every x in q generate what those over its generators do
    gens = [
        make_generator(kind, ring, x).code
        for x in sorted(ideal_image(ring, q).generators)
        for kind in ("T", "S", "Runi")
    ]
    # gens lie in img, so they generate it iff <gens> is as large
    return all(g in img for g in gens) and FinMatGroup(ring, gens).order == img.order


def projective_center_is_trivial(ring, cap=DEFAULT_GROUP_CAP):
    """Whether the centre of SL2(R)/{+-1} is trivial (R local, 2 a unit).

    x T(g) x^-1 = +-T(g) for every additive generator g is necessary for x
    to be central up to sign, and depends only on x's first column; the
    matrices over the columns that pass are tested against every standard
    generator.
    """
    if len(factor_ideal(ring.modulus).pairs) != 1:
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
    for a, b, c, d in map(ops.decode, unimodular_columns(ring).values()):
        if any(ops.conj_translation(a, c, g) not in pm for g, pm in signed):
            continue
        for r in range(n):
            x = ops.encode(a, add[b * n + mul[a * n + r]], c, add[d * n + mul[c * n + r]])
            if all(mmul(x, s) in (mmul(s, x), mneg(mmul(s, x))) for s in gens):
                projective_center.append(x)
    return set(projective_center) == {ops.identity, ops.mneg(ops.identity)}
