"""Finite quotient rings R = D/q and their additive subgroups.

Elements of a quotient are referenced by dense integer indices.  The
domain's `residues` lists the ring's canonical representatives in index
order (residues 0..n-1, polynomials of degree < deg f, or HNF-box
coordinate pairs), with its reduce map and an additive basis, so one
ring class serves every kind and nothing here reads an ideal's data.
lift reads the stored list and reduce is the domain's map.  A ring's
add/mul/neg tables are built with it and are its only arithmetic, so a
ring of more than 2048 elements is refused before anything is listed.
The add and mul tables come by additive recursion: a breadth-first walk
from 0 along the additive generators asks the domain only for x + g and
x * g, n * |gens| of each, and every other row is read off its parent's
by bilinearity.  `build_quotient` interns rings, the 32 used last, one
per (domain, modulus), and checks its caps on every call;
`integer_quotient` finds the same Z/(n) by n alone, with the same
checks.  Besides this module only matgroups reads the tables, to pack
and multiply matrix codes.  A ring's tables and the caches other layers
hang off it are pure functions of the ring, so each is built once per
process and safe to share; `memo` holds those results per kind and
input, and lives and dies with the ring.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

from .domains import (
    DEFAULT_RING_CAP,
    CapExceeded,
    Ideal,
    IntegerDomain,
    InternalCheckError,
    factor_ideal,
    ideal_arith,
    ideal_pow,
    residue_norm,
)

_TABLE_LIMIT = 2048
_Z = IntegerDomain()


class QuotientRing:
    """The finite ring D/q, built whole: its residues, units and add/mul/neg
    tables. Its domain lists the residues (lift reads them) and gives
    reduce and an additive basis; the additive generators are the basis's
    nonzero images."""

    def __init__(self, domain, modulus):
        self.domain = domain
        self.modulus = modulus
        self.size = n = residue_norm(modulus)
        self._residues, self.reduce, basis = domain.residues(modulus.data)
        if len(self._residues) != n:
            raise InternalCheckError(f"{domain} lists {len(self._residues)} residues of a ring of {n}")
        # kept for matgroups, each filled on first use
        self._sl2_order = None
        self._full_sl2 = None
        self._matops = None
        self._columns = None
        self.memo = defaultdict(dict)  # kind -> input -> result
        self.zero_idx = self.reduce(domain.zero())
        self.one_idx = self.reduce(domain.one())
        self.additive_generators = tuple(sorted({self.reduce(x) for x in basis} - {self.zero_idx}))
        self.add_t, self.mul_t = _tables(self, self._residues)
        self.neg_t = [self.reduce(domain.neg(x)) for x in self._residues]
        # units by ideal sums, independent of the tables
        self.units = tuple(
            i
            for i, x in enumerate(self._residues)
            if ideal_arith("sum", domain.principal_ideal(x), modulus).is_unit_ideal()
        )
        self._unit_set = frozenset(self.units)
        self.domain_unit_image = tuple(sorted({self.reduce(u) for u in domain.units}))
        self.domain_unit_squares_image = tuple(sorted({self.reduce(u) for u in domain.unit_squares}))

    def lift(self, idx):
        return self._residues[idx]

    # -- arithmetic on indices: reads of the flat tables built with the ring --

    def add(self, i, j):
        return self.add_t[i * self.size + j]

    def mul(self, i, j):
        return self.mul_t[i * self.size + j]

    def neg(self, i):
        return self.neg_t[i]

    def sub(self, i, j):
        return self.add_t[i * self.size + self.neg_t[j]]

    def is_unit(self, i):
        return i in self._unit_set

    def inv(self, i):
        if not self.is_unit(i):
            raise ZeroDivisionError(f"element {i} is not a unit")
        row = self.mul_t[i * self.size:(i + 1) * self.size]
        if self.one_idx not in row:
            raise InternalCheckError("unit without inverse")
        return row.index(self.one_idx)

    def element_str(self, idx):
        return self.domain.element_str(self.lift(idx))

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and other.domain == self.domain
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash((self.domain, self.modulus.data))

    def __repr__(self):
        return f"<QuotientRing {self.domain}/{self.modulus}, {self.size} elements>"


def quotient_size(modulus, ring_cap):
    """|D/q| once q is nonzero and |D/q| is at most ring_cap: the first check
    of every ring build, made before q is factored or any ring is listed."""
    if modulus.is_zero():
        raise ValueError("cannot form a quotient by the zero ideal")
    n = residue_norm(modulus)
    if n > ring_cap:
        raise CapExceeded(f"quotient of size {n} exceeds cap {ring_cap}")
    return n


def build_quotient(domain, modulus, ring_cap=DEFAULT_RING_CAP):
    """D/q with full enumeration, unit detection and arithmetic tables,
    interned: one ring per (domain, modulus), at most 32 per process.

    The zero-modulus, ring_cap and table-limit checks run on every call,
    warm or cold, and a ring past them is never built.
    """
    n = quotient_size(modulus, ring_cap)
    if n > _TABLE_LIMIT:
        raise CapExceeded(f"ring of size {n} above arithmetic-table limit")
    return _quotient(domain, modulus.data)


def integer_quotient(n, ring_cap=DEFAULT_RING_CAP):
    """Z/(n) for an integer n >= 1: the ring build_quotient(Z, (n)) interns,
    with the same checks."""
    if n < 1:
        raise ValueError("Z/(n) needs n >= 1")
    return build_quotient(_Z, Ideal(_Z, n), ring_cap)


@lru_cache(maxsize=32)
def _quotient(domain, data):
    """The interned ring D/q, keyed by the canonical data of q: equal ideals
    have equal data, so the key is as fine as the ideal itself and cheaper
    to hash."""
    return QuotientRing(domain, Ideal(domain, data))


def _tables(ring, lifts):
    """The flat add and mul tables, index i*n + j, by additive recursion: the
    domain gives x + g and x * g for each generator g, a breadth-first walk
    from 0 gives each j != 0 a parent j' = j - g, and as R is commutative,
    row j is column j: add(i, j) = add(i, j') + g, mul(i, j) = mul(i, j') + i*g.
    """
    D, n, zero = ring.domain, ring.size, ring.zero_idx
    plus, times = {}, {}  # g -> [x + g for x in R], [x * g for x in R]
    for g in ring.additive_generators:
        plus[g] = [ring.reduce(D.add(x, lifts[g])) for x in lifts]
        times[g] = [ring.reduce(D.mul(x, lifts[g])) for x in lifts]
    order, parent = [zero], {zero: None}
    for x in order:
        for g, row in plus.items():
            if row[x] not in parent:
                parent[row[x]] = (x, g)
                order.append(row[x])
    if len(order) != n:
        raise InternalCheckError(f"additive generators reach {len(order)} of {n} elements")
    add_t = [0] * (n * n)
    mul_t = [zero] * (n * n)
    add_t[zero * n:(zero + 1) * n] = range(n)
    for j in order[1:]:
        jp, g = parent[j]
        add_t[j * n:(j + 1) * n] = map(plus[g].__getitem__, add_t[jp * n:(jp + 1) * n])
    for j in order[1:]:
        jp, g = parent[j]
        row = zip(mul_t[jp * n:(jp + 1) * n], times[g])
        mul_t[j * n:(j + 1) * n] = [add_t[m * n + t] for m, t in row]
    return add_t, mul_t


@dataclass(frozen=True, slots=True)
class AdditiveSubgroup:
    """A subgroup of (R, +) held as a full sorted element list; slotted, since
    rings keep many of them in their memo."""

    ring: QuotientRing
    elements: frozenset
    generators: tuple = field(default=(), compare=False)

    def __contains__(self, idx):
        return idx in self.elements

    def __len__(self):
        return len(self.elements)

    def sorted_elements(self):
        return sorted(self.elements)

    def index_in_ring(self):
        return self.ring.size // len(self.elements)

    def scaled(self, factor_idx):
        """The set factor * A (again a subgroup when factor is a unit)."""
        R = self.ring
        return AdditiveSubgroup(
            R,
            frozenset(R.mul(factor_idx, x) for x in self.elements),
            tuple(R.mul(factor_idx, g) for g in self.generators),
        )

    def to_json(self):
        return {
            "generators": [self.ring.element_str(g) for g in sorted(self.generators)],
            "index_in_ring": self.index_in_ring(),
        }


def additive_closure(seed, ring):
    """Smallest additive subgroup of R containing the given element indices.

    The recorded generator list is a greedily-minimal subset of the seed.
    """
    elements = {ring.zero_idx}
    gens = []
    for s in sorted(set(seed)):
        if s in elements:
            continue
        gens.append(s)
        # extend the closed set by the cosets elements + k*s
        new = set(elements)
        shift = s
        while shift not in elements:
            new.update(ring.add(x, shift) for x in elements)
            shift = ring.add(shift, s)
        elements = new
    return AdditiveSubgroup(ring, frozenset(elements), tuple(gens))


def largest_ideal_inside(subgroup):
    """The largest D-ideal whose image lies in the additive subgroup.

    Returns the preimage in D (an ideal containing the modulus); the
    modulus itself when only 0 maps inside. Computed once per element set.
    """
    R = subgroup.ring
    cache = R.memo["largest_ideal_inside"]
    if subgroup.elements in cache:
        return cache[subgroup.elements]
    gens = R.additive_generators
    core = [
        x
        for x in subgroup.sorted_elements()
        if all(R.mul(x, g) in subgroup.elements for g in gens)
    ]
    ideal = R.modulus
    D = R.domain
    span = additive_closure(core, R)
    for g in span.generators:
        ideal = ideal_arith("sum", ideal, D.principal_ideal(R.lift(g)))
    cache[subgroup.elements] = ideal
    return ideal


def ideal_image(ring, ideal):
    """The image of a D-ideal in R as an additive subgroup, computed once per ideal."""
    cache = ring.memo["ideal_image"]
    if ideal not in cache:
        seeds = set()
        for g in ideal.generators():
            gi = ring.reduce(g)
            for r in range(ring.size):
                seeds.add(ring.mul(gi, r))
        cache[ideal] = additive_closure(seeds, ring)
    return cache[ideal]


@dataclass
class LocalFactor:
    ring: QuotientRing
    projection: list  # R index -> factor index


def local_decompose(ring):
    """Split R into its local factors D/p^a, as a list of LocalFactors;
    verifies the CRT isomorphism.

    Each projection is checked to respect + and * on the pairs (g, y), g an
    additive generator and y in R. By induction on a sum of generators that
    makes it additive on all pairs, and with distributivity multiplicative.
    """
    pf = factor_ideal(ring.modulus)
    factors = []
    for p, e in pf.pairs:
        local_modulus = ideal_pow(p, e)
        local = build_quotient(ring.domain, local_modulus, ring_cap=ring.size)
        proj = [local.reduce(ring.lift(i)) for i in range(ring.size)]
        factors.append(LocalFactor(local, proj))
    images = {tuple(f.projection[i] for f in factors) for i in range(ring.size)}
    if len(images) != ring.size:
        raise InternalCheckError("CRT tuple map is not injective")
    sizes = 1
    for f in factors:
        sizes *= f.ring.size
    if sizes != ring.size:
        raise InternalCheckError("CRT factor sizes do not multiply up")
    for g in ring.additive_generators:
        for y in range(ring.size):
            s = ring.add(g, y)
            p = ring.mul(g, y)
            for f in factors:
                if (
                    f.projection[s] != f.ring.add(f.projection[g], f.projection[y])
                    or f.projection[p] != f.ring.mul(f.projection[g], f.projection[y])
                ):
                    raise InternalCheckError("CRT projection is not a ring map")
    return factors
