"""Finite quotient rings R = D/q and their additive subgroups.

Elements of a quotient are referenced by dense integer indices; the ring
holds the canonical-representative scheme (residues 0..n-1, polynomials
of degree < deg f, or HNF-box coordinate pairs) and transports elements
between D and R via lift/reduce.  `build_quotient` interns rings, the 32
used last, one per (domain, modulus), and checks its caps on every call;
`integer_quotient` finds the same Z/(n) by n alone, with the same checks.
A ring's tables and the caches other layers hang off it are pure functions
of the ring, so each is built once per process and safe to share; `memo`
holds those results per kind and input, and lives and dies with the ring.
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
    """The finite ring D/q with element enumeration and index arithmetic."""

    def __init__(self, domain, modulus, size):
        self.domain = domain
        self.modulus = modulus
        self.size = size
        self.add_t = None
        self.mul_t = None
        self.neg_t = None
        self._inv_cache = {}
        # kept for matgroups, each filled on first use
        self._sl2_order = None
        self._full_sl2 = None
        self._matops = None
        self._columns = None
        self.memo = defaultdict(dict)  # kind -> input -> result

    # -- enumeration (kind-specific, filled in by build_quotient) --

    def lift(self, idx):
        raise NotImplementedError

    def reduce(self, value):
        raise NotImplementedError

    # -- arithmetic on indices --

    def add(self, i, j):
        if self.add_t is not None:
            return self.add_t[i * self.size + j]
        return self.reduce(self.domain.add(self.lift(i), self.lift(j)))

    def mul(self, i, j):
        if self.mul_t is not None:
            return self.mul_t[i * self.size + j]
        return self.reduce(self.domain.mul(self.lift(i), self.lift(j)))

    def neg(self, i):
        if self.neg_t is not None:
            return self.neg_t[i]
        return self.reduce(self.domain.neg(self.lift(i)))

    def sub(self, i, j):
        return self.add(i, self.neg(j))

    def is_unit(self, i):
        return i in self._unit_set

    @property
    def units(self):
        return self._units

    def inv(self, i):
        if i in self._inv_cache:
            return self._inv_cache[i]
        if not self.is_unit(i):
            raise ZeroDivisionError(f"element {i} is not a unit")
        for j in range(self.size):
            if self.mul(i, j) == self.one_idx:
                self._inv_cache[i] = j
                return j
        raise InternalCheckError("unit without inverse")

    def ensure_tables(self):
        """Build flat add/mul/neg tables (required by the matrix-group layer)."""
        if self.mul_t is not None:
            return
        n = self.size
        if n > _TABLE_LIMIT:
            raise CapExceeded(f"ring of size {n} above arithmetic-table limit")
        lifts = [self.lift(i) for i in range(n)]
        D = self.domain
        add_t = [0] * (n * n)
        mul_t = [0] * (n * n)
        for i in range(n):
            xi = lifts[i]
            row = i * n
            for j in range(i, n):
                s = self.reduce(D.add(xi, lifts[j]))
                p = self.reduce(D.mul(xi, lifts[j]))
                add_t[row + j] = s
                add_t[j * n + i] = s
                mul_t[row + j] = p
                mul_t[j * n + i] = p
        self.neg_t = [self.reduce(D.neg(x)) for x in lifts]
        self.add_t = add_t
        self.mul_t = mul_t

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


class _IntQuotient(QuotientRing):
    def lift(self, idx):
        return idx

    def reduce(self, value):
        return value % self.size

    def add(self, i, j):
        return (i + j) % self.size

    def mul(self, i, j):
        return i * j % self.size

    def neg(self, i):
        return -i % self.size


class _PolyQuotient(QuotientRing):
    def __init__(self, domain, modulus, size):
        super().__init__(domain, modulus, size)
        self._f = modulus.data
        self._d = domain.deg(self._f)

    def lift(self, idx):
        digits = []
        q = self.domain.q
        for _ in range(self._d):
            digits.append(idx % q)
            idx //= q
        return self.domain._norm(digits)

    def reduce(self, value):
        rem = self.domain.divmod(value, self._f)[1]
        q = self.domain.q
        idx = 0
        for c in reversed(range(self._d)):
            idx = idx * q + (rem[c] if c < len(rem) else 0)
        return idx


class _QuadQuotient(QuotientRing):
    def __init__(self, domain, modulus, size):
        super().__init__(domain, modulus, size)
        self._a, self._b, self._c = modulus.data

    def lift(self, idx):
        x, y = divmod(idx, self._c)
        return (x, y)

    def reduce(self, value):
        u, v = value
        x = u % self._a
        y = (v - (u // self._a) * self._b) % self._c
        return x * self._c + y


def build_quotient(domain, modulus, ring_cap=DEFAULT_RING_CAP):
    """D/q with full enumeration and unit detection, interned: one ring per
    (domain, modulus), at most 32 per process.

    The zero-modulus and ring_cap checks run on every call, warm or cold.
    """
    if modulus.is_zero():
        raise ValueError("cannot form a quotient by the zero ideal")
    n = residue_norm(modulus)
    if n > ring_cap:
        raise CapExceeded(f"quotient of size {n} exceeds cap {ring_cap}")
    return _quotient(domain, modulus.data)


def integer_quotient(n, ring_cap=DEFAULT_RING_CAP):
    """Z/(n) for an integer n >= 1: the ring build_quotient(Z, (n)) interns,
    with the same checks, looked up by n without forming the ideal."""
    if n < 1:
        raise ValueError("Z/(n) needs n >= 1")
    if n > ring_cap:
        raise CapExceeded(f"quotient of size {n} exceeds cap {ring_cap}")
    return _quotient(_Z, n)


@lru_cache(maxsize=32)
def _quotient(domain, data):
    """The ring D/q, keyed by the canonical data of q: equal ideals have
    equal data, so the key is as fine as the ideal itself and cheaper to hash."""
    modulus = Ideal(domain, data)
    n = residue_norm(modulus)
    if domain.kind == "integers":
        ring = _IntQuotient(domain, modulus, n)
    elif domain.kind == "polynomials":
        ring = _PolyQuotient(domain, modulus, n)
    else:
        ring = _QuadQuotient(domain, modulus, n)
    ring.zero_idx = ring.reduce(domain.zero())
    ring.one_idx = ring.reduce(domain.one())
    units = []
    for i in range(n):
        lifted = domain.principal_ideal(ring.lift(i))
        if ideal_arith("sum", lifted, modulus).is_unit_ideal():
            units.append(i)
    ring._units = tuple(units)
    ring._unit_set = frozenset(units)
    ring.domain_unit_image = tuple(sorted({ring.reduce(u) for u in domain.units}))
    ring.domain_unit_squares_image = tuple(
        sorted({ring.reduce(u) for u in domain.unit_squares})
    )
    if domain.kind == "integers":
        gens = [ring.reduce(1)]
    elif domain.kind == "polynomials":
        gens = set()
        d = domain.deg(modulus.data)
        for j in range(d):
            for i in range(domain.e):
                coeffs = [0] * (j + 1)
                coeffs[j] = domain.p ** i
                gens.add(ring.reduce(tuple(coeffs)))
        gens = sorted(gens)
    else:
        gens = sorted({ring.reduce((1, 0)), ring.reduce((0, 1))})
    ring.additive_generators = tuple(g for g in gens if g != ring.zero_idx)
    if n <= 256:
        ring.ensure_tables()
    return ring


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
    prime: Ideal
    exponent: int
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
        factors.append(LocalFactor(p, e, local, proj))
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
