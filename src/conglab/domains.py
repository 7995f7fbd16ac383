"""Exact arithmetic for the three supported Dedekind-domain kinds.

* ``Z``            -- the rational integers,
* ``Fq[t]``        -- univariate polynomials over a finite field F_q,
  q = p^e, with a fixed irreducible modulus polynomial m in ``u`` defining
  the field when e > 1: F_q is then the quotient ring F_p[u]/(m), whose
  indices, the base-p digits of a value low degree first, are F_q's
  values and whose tables are its arithmetic,
* ``Q(sqrt(m))``   -- the maximal order of an imaginary quadratic field,
  m < 0 squarefree, with Z-basis {1, w}.

Elements are plain immutable values interpreted by their owning Domain:
an int, a tuple of F_q values (ints in range(q); low degree first, no
trailing zeros), or an integer pair ``(a, b)`` meaning ``a + b*w``.

Each kind's class owns the format of its ideals' data, and in this
module only that class reads it: ``Ideal`` and the module-level ideal
functions delegate to the domain.  Z and F_q[t] share one Euclidean path
(``_EuclideanDomain``): an ideal is its canonical generator (nonnegative
integer, monic polynomial, zero allowed), and sum, product, intersection
and Bezout pairs come from one gcd and one extended gcd over the kind's
own ``divmod`` and ``normalise``.  Ideals of a quadratic order are
stored as the Hermite normal form ``[[a, b], [0, c]]`` of a Z-basis of
the ideal as a sublattice of ``Z*1 + Z*w`` (diagonal positive,
``0 <= b < c``, multiplicative closure under ``w`` checked on
construction); intersections and Bezout pairs are read off these rows
in closed form.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache


class ParseError(ValueError):
    """Malformed domain, element, or ideal text."""


class InternalCheckError(RuntimeError):
    """A structural identity that is guaranteed for frames failed."""


class CapExceeded(RuntimeError):
    """A configured size cap would be exceeded."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


DEFAULT_FACTOR_CAP = 2 ** 64
DEFAULT_RING_CAP = 2 ** 16  # also bounds the units a prime field lists
TEXT_DEGREE_CAP = 1024  # see _evaluate
TEXT_NESTING_CAP = 1000  # parentheses open at once in an element text

# Fixed field moduli (coefficients in u, low degree first) so element
# encodings are reproducible across runs.
FIXED_FIELD_MODULI = {
    4: (1, 1, 1),      # u^2 + u + 1 over F_2
    8: (1, 1, 0, 1),   # u^3 + u + 1 over F_2
    9: (1, 0, 1),      # u^2 + 1 over F_3
}

_FQ_TABLE_LIMIT = 512


# ---------------------------------------------------------------------------
# small integer helpers


def _factor_int(n, cap=DEFAULT_FACTOR_CAP):
    """Trial-division factorization of n >= 1 as an ordered dict prime -> exp."""
    if n > cap:
        raise CapExceeded(f"integer {n} exceeds factoring cap {cap}")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _is_squarefree(n, cap=DEFAULT_FACTOR_CAP):
    """Whether n >= 1 has no square factor. Trial division while d^3 <= n
    leaves a cofactor whose primes exceed its cube root: 1, p, p*q or p^2."""
    if n > cap:
        raise CapExceeded(f"integer {n} exceeds factoring cap {cap}")
    d = 2
    while d * d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1 if d == 2 else 2
    return n == 1 or math.isqrt(n) ** 2 != n


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin to the bases 2..37, exact below 3.18 * 10^23
    (Sorenson and Webster 2015), so for every n up to the factoring cap."""
    if n > DEFAULT_FACTOR_CAP:
        raise CapExceeded(f"integer {n} exceeds factoring cap {DEFAULT_FACTOR_CAP}")
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False
    return True


def _prime_power(q):
    """(p, e) with q = p^e and p prime, or None. Below the factoring cap, which
    _is_prime enforces, a float e-th root rounds to the exact one."""
    for e in range(1, q.bit_length() + 1):
        p = q if e == 1 else round(q ** (1 / e))
        if p ** e == q and _is_prime(p):
            return p, e
    return None


def _power(x, k, mul, one):
    """x^k by square-and-multiply, never multiplying by one. Each product
    puts the higher power on the left, so in a group that caches products
    it makes the x^i * x^j, i >= j, of repeated right multiplication."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(x, out)
        k >>= 1
        x = mul(x, x) if k else x
    return one if out is None else out


def _sqrt_mod_prime(a, p):
    """Square root of a modulo an odd prime p; None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# ---------------------------------------------------------------------------
# polynomials as coefficient tuples, low degree first


def _monic_polys(q, d):
    """The monic polynomials of degree d over F_q (coefficients in range(q)),
    in increasing order of the base-q number their lower coefficients spell."""
    for digits in itertools.product(range(q), repeat=d):
        yield digits[::-1] + (1,)


def _variable_pow(k):
    """The k-th power of the polynomial variable."""
    return (0,) * k + (1,)


# ---------------------------------------------------------------------------
# Hermite normal form of a rank-2 lattice


def _hnf2(rows):
    """The HNF (a, b, c), basis (a, b), (0, c) with a, c > 0 <= b < c, of the lattice the rows
    (x, y) span; (0, 0, 0) if it is zero, ValueError if its rank is 1. A row with x != 0 meets
    the pivot (a, b) in the unimodular step [[s, t], [-v, u]], g = gcd(a, x) = s*a + t*x,
    u = a/g, v = x/g, whose second row has x = 0; c is the gcd of the y of all rows with x = 0."""
    a = b = c = 0
    for x, y in rows:
        if x:
            g = math.gcd(a, x)
            u, v = a // g, x // g
            s = pow(u, -1, v)  # 0 when v = +-1, as for the first row, a = 0
            t = (g - s * a) // x
            c = math.gcd(c, v * b - u * y)
            a, b = g, s * b + t * y
        else:
            c = math.gcd(c, y)
    if not (a or c):
        return 0, 0, 0
    if not (a and c):
        raise ValueError("lattice is not of full rank")
    return a, b % c, c


# ---------------------------------------------------------------------------
# element texts


_TOKEN_RE = re.compile(r"[0-9]+|[a-zA-Z]+|\S")
_BAD_CHAR_RE = re.compile(r"[^\s0-9a-zA-Z()*^+-]")


def _bounded(d):
    if d > TEXT_DEGREE_CAP:
        raise CapExceeded(f"element text of degree above the cap {TEXT_DEGREE_CAP}")
    return d


def _exponent(k):
    """The exponent token k, within the degree cap."""
    if not k.isdecimal():
        raise ParseError("exponent must be an integer")
    return _bounded(int(k) if len(k.lstrip("0")) < 6 else TEXT_DEGREE_CAP + 1)


def _evaluate(text, domain, symbols):
    """The value in domain of an element text, computed as it is parsed.

        sum  := ["+" | "-"] term {("+" | "-") term}
        term := atom {"*" atom}
        atom := integer | name ["^" integer] | "(" sum ")" ["^" integer]

    symbols maps each name the domain defines to its power k -> name^k; any
    other name is refused, wherever it appears. The text's degree as a
    polynomial in its numerals and names (exponents multiply, products add)
    may not exceed TEXT_DEGREE_CAP, so no exponent may either: CapExceeded.
    Each "(" pushes the open sum and term; past TEXT_NESTING_CAP: ParseError.
    """
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ParseError(f"bad character in element text: {text[bad.start():]!r}")
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # end marker
    add, neg, mul, from_int = domain.add, domain.neg, domain.mul, domain.from_int
    stack = []  # (total, sum_d, sign, value, term_d) of each enclosing sum
    # the open sum: the total and degree of its terms so far and the sign of
    # the term being read; that term: the product and degree of its atoms so far
    total = value = None
    sum_d = term_d = 0
    sign = tokens[0]
    pos = 1 if sign in ("+", "-") else 0
    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if len(stack) == TEXT_NESTING_CAP:
                raise ParseError("element text nests too deeply")
            stack.append((total, sum_d, sign, value, term_d))
            total = value = None
            sign = tokens[pos]
            if sign in ("+", "-"):
                pos += 1
            continue
        if tok.isdecimal():
            atom, d = from_int(int(tok)), 1
        elif tok in symbols:
            d = 1
            if tokens[pos] == "^":
                d, pos = _exponent(tokens[pos + 1]), pos + 2
            atom = symbols[tok](d)
        elif tok.isalpha():
            raise ParseError(f"symbol {tok!r} is not defined in {domain}")
        else:
            raise ParseError("malformed element text")
        while True:  # fold the atom into its term, a finished term into its sum
            if value is None:
                value, term_d = atom, d
            else:
                value = mul(value, atom)
                term_d = _bounded(term_d + d)
            op = tokens[pos]
            pos += 1
            if op == "*":
                break
            if sign == "-":
                value = neg(value)
            if total is None:
                total, sum_d = value, term_d
            else:
                total, sum_d = add(total, value), max(sum_d, term_d)
            value = None
            if op == "+" or op == "-":
                sign = op
                break
            if not stack:
                if op:
                    raise ParseError("trailing tokens in element text")
                return total
            if op != ")":
                raise ParseError("unbalanced parenthesis in element text")
            # the closed sum is an atom of the enclosing term
            atom, d = total, sum_d
            total, sum_d, sign, value, term_d = stack.pop()
            if tokens[pos] == "^":
                k, pos = _exponent(tokens[pos + 1]), pos + 2
                d = _bounded(d * k)
                atom = _power(atom, k, mul, domain.one())


# ---------------------------------------------------------------------------
# domains


class Domain:
    """Base class of the three kinds.

    A kind supplies its element arithmetic (zero, one, add, neg, mul,
    from_int, element_str) and owns the data of its ideals: ideal_zero and
    ideal_one, the data of (0) and (1); ideal_from_gens; and the hooks that
    Ideal and the module-level ideal functions call on that data:
    ideal_generators, ideal_contains, ideal_str, ideal_sum, ideal_product,
    ideal_intersect, ideal_bezout, ideal_norm and ideal_factors.  It names
    the class of its quotient rings and their additive generators.
    """

    field_degree = None  # of the fraction field over Q; None for F_q[t]
    symbols = {}  # name -> (k -> name^k) for the names element texts may use

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def parse_element(self, text):
        return _evaluate(text, self, self.symbols)

    # -- ideals --

    def zero_ideal(self):
        return Ideal(self, self.ideal_zero)

    def unit_ideal(self):
        return Ideal(self, self.ideal_one)

    def principal_ideal(self, x):
        return self.ideal_from_gens([x])

    def parse_ideal(self, text):
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            return self.principal_ideal(self.parse_element(text[1:-1]))
        raise ParseError(f"bad ideal text {text!r}")

    def __repr__(self):
        return f"<Domain {self}>"


def _nonzero_images(ring, elements):
    return tuple(sorted({ring.reduce(x) for x in elements} - {ring.zero_idx}))


class _EuclideanDomain(Domain):
    """Z and F_q[t]: an ideal's data is its canonical generator, the gcd of
    any generating set scaled by a unit to be nonnegative or monic, so every
    ideal operation is Euclid's algorithm on the kind's own divmod. A kind
    adds divmod, normalise ((c, c*x) for the unit c that makes c*x
    nonnegative or monic, c = 1 for x = 0), ideal_norm and ideal_factors."""

    def gcd(self, x, y):
        """The canonical generator of the ideal (x, y)."""
        while y:
            x, y = y, self.divmod(x, y)[1]
        return self.normalise(x)[1]

    def ext_gcd(self, x, y):
        """(g, a, b) with g = a*x + b*y = gcd(x, y), nonnegative or monic."""
        old_r, r = x, y
        old_s, s = self.one(), self.zero()
        old_t, t = self.zero(), self.one()
        while r:
            q, rem = self.divmod(old_r, r)
            old_r, r = r, rem
            old_s, s = s, self.sub(old_s, self.mul(q, s))
            old_t, t = t, self.sub(old_t, self.mul(q, t))
        c, g = self.normalise(old_r)
        return g, self.mul(c, old_s), self.mul(c, old_t)

    def ideal_from_gens(self, elems):
        g = self.zero()
        for x in elems:
            g = self.gcd(g, x)
        return Ideal(self, g)

    def ideal_generators(self, g):
        return [g]

    def ideal_contains(self, g, x):
        if not g:
            return not x  # (0) holds only 0
        return not self.divmod(x, g)[1]

    def ideal_str(self, g):
        return f"({self.element_str(g)})"

    def ideal_sum(self, g, h):
        return self.ideal_from_gens([g, h])

    def ideal_product(self, g, h):
        return Ideal(self, self.mul(g, h))

    def ideal_intersect(self, g, h):
        lcm, rem = self.divmod(self.mul(g, h), self.gcd(g, h))
        if rem:
            raise InternalCheckError("gcd does not divide the product")
        return Ideal(self, lcm)

    def ideal_bezout(self, g, h):
        d, s, t = self.ext_gcd(g, h)
        if d != self.one():
            raise InternalCheckError("coprime ideals with gcd other than 1")
        return self.mul(s, g), self.mul(t, h)


class IntegerDomain(_EuclideanDomain):
    field_degree = 1
    ideal_zero, ideal_one = 0, 1
    gcd = math.gcd  # the C loop; a builtin, so it is not bound to the instance

    def __init__(self):
        self.units = (1, -1)
        self.unit_squares = (1,)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def divmod(self, x, y):
        return divmod(x, y)

    def normalise(self, x):
        return (-1, -x) if x < 0 else (1, x)

    def from_int(self, n):
        return n

    def element_str(self, x):
        return str(x)

    def ideal_norm(self, n):
        return n

    def ideal_factors(self, n, cap):
        return [(Ideal(self, p), e) for p, e in sorted(_factor_int(n, cap).items())]

    def quotient_class(self):
        from .quotients import _IntQuotient  # quotients imports this module
        return _IntQuotient

    def additive_generators(self, ring, modulus):
        return _nonzero_images(ring, [1])

    def __str__(self):
        return "Z"

    def __eq__(self, other):
        return isinstance(other, IntegerDomain)

    def __hash__(self):
        return hash("Z")


class PolynomialDomain(_EuclideanDomain):
    """F_q[t]; elements are tuples of F_q values (ints in range(q))."""

    ideal_zero, ideal_one = (), (1,)

    def __init__(self, p, e, field_modulus=None):
        if not _is_prime(p):
            raise ParseError(f"{p} is not prime")
        self.p = p
        self.e = e
        self.q = p ** e
        self.symbols = {"t": _variable_pow}
        if e == 1:
            self.field_modulus = self._field = None
        else:
            if field_modulus is None:
                raise ParseError(f"a field modulus is required for q={self.q}")
            Fp = PolynomialDomain(p, 1)
            fm = Fp._norm(c % p for c in field_modulus)
            if len(fm) - 1 != e:
                raise ParseError("field modulus degree does not match q")
            if fm[-1] != 1:
                raise ParseError("field modulus must be monic")
            if Fp.ideal_factors(fm, DEFAULT_FACTOR_CAP) != [(Ideal(Fp, fm), 1)]:
                raise ParseError("field modulus is reducible")
            if self.q > _FQ_TABLE_LIMIT:
                raise CapExceeded(f"field size {self.q} above table limit")
            from .quotients import build_quotient  # quotients imports this module
            self.field_modulus = fm
            # F_q = F_p[u]/(fm); its indices are the base-p digits, low degree first
            self._field = build_quotient(Fp, Ideal(Fp, fm))
            self._inv = [0, *map(self._field.inv, range(1, self.q))]  # by value; 0 has none
            self.symbols["u"] = self._u_pow
        if self.q - 1 > DEFAULT_RING_CAP:
            raise CapExceeded(f"F_{self.q} has more units than the ring cap {DEFAULT_RING_CAP}")
        self.units = tuple((c,) for c in range(1, self.q))
        self.unit_squares = tuple(
            sorted({(self.fq_mul(c, c),) for c in range(1, self.q)})
        )

    # F_q values are ints in range(q): residues mod p, or indices of F_p[u]/(fm)

    def fq_add(self, a, b):
        return (a + b) % self.p if self.e == 1 else self._field.add(a, b)

    def fq_neg(self, a):
        return (-a) % self.p if self.e == 1 else self._field.neg(a)

    def fq_mul(self, a, b):
        return a * b % self.p if self.e == 1 else self._field.mul(a, b)

    def fq_inv(self, a):
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return pow(a, self.p - 2, self.p) if self.e == 1 else self._inv[a]

    def fq_pow(self, a, k):
        return _power(a, k, self.fq_mul, 1)

    def _u_pow(self, k):
        return (self.fq_pow(self.p, k),)  # u is the F_q value p, digits (0, 1)

    def fq_embed_int(self, n):
        return n % self.p

    # polynomial arithmetic

    def _norm(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def zero(self):
        return ()

    def one(self):
        return (1,)

    def deg(self, x):
        return len(x) - 1

    def add(self, x, y):
        return self._norm(itertools.starmap(self.fq_add, itertools.zip_longest(x, y, fillvalue=0)))

    def neg(self, x):
        return tuple(self.fq_neg(c) for c in x)

    def mul(self, x, y):
        if not x or not y:
            return ()
        out = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    out[i + j] = self.fq_add(out[i + j], self.fq_mul(a, b))
        return self._norm(out)

    def divmod(self, x, y):
        if not y:
            raise ZeroDivisionError("polynomial division by zero")
        inv = self.fq_inv(y[-1])
        rem = list(x)
        quo = [0] * max(0, len(x) - len(y) + 1)
        for i in range(len(x) - len(y), -1, -1):
            c = self.fq_mul(rem[i + len(y) - 1], inv)
            if c:
                quo[i] = c
                for j, b in enumerate(y):
                    rem[i + j] = self.fq_add(rem[i + j], self.fq_neg(self.fq_mul(c, b)))
        return self._norm(quo), self._norm(rem)

    def normalise(self, x):
        if not x:
            return (1,), x
        inv = self.fq_inv(x[-1])
        return (inv,), tuple(self.fq_mul(c, inv) for c in x)

    def from_int(self, n):
        c = self.fq_embed_int(n)
        return (c,) if c else ()

    def element_str(self, x):
        if not x:
            return "0"
        parts = []
        for k in range(len(x) - 1, -1, -1):
            c = x[k]
            if c == 0:
                continue
            ctext, nterms = self._fq_str(c)
            if k == 0:
                parts.append(ctext if nterms == 1 else f"({ctext})")
            else:
                tpart = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(tpart)
                elif nterms == 1:
                    parts.append(f"{ctext}*{tpart}")
                else:
                    parts.append(f"({ctext})*{tpart}")
        return "+".join(parts)

    def _fq_str(self, c):
        """Render an F_q value as a u-polynomial; returns (text, #terms)."""
        text = str(c) if self.e == 1 else self._field.element_str(c).replace("t", "u")
        return text, text.count("+") + 1

    def ideal_norm(self, f):
        return self.q ** self.deg(f)

    def ideal_factors(self, f, cap):
        """Trial division by monic polynomials of increasing degree; once all
        factors of degree < d are removed, any degree-d divisor is irreducible."""
        pairs = []
        d = 1
        while self.deg(f) >= 1:
            if 2 * d > self.deg(f):
                pairs.append((Ideal(self, f), 1))
                break
            if self.q ** d > 10 ** 6:
                raise CapExceeded("polynomial factor search too large")
            for cand in _monic_polys(self.q, d):
                e = 0
                while True:
                    quo, r = self.divmod(f, cand)
                    if r != ():
                        break
                    f = quo
                    e += 1
                if e:
                    pairs.append((Ideal(self, cand), e))
            d += 1
        return pairs

    def quotient_class(self):
        from .quotients import _PolyQuotient  # quotients imports this module
        return _PolyQuotient

    def additive_generators(self, ring, modulus):
        # p^i is u^i in F_q: t^j u^i for j < deg f and i < e
        d = self.deg(modulus.data)
        basis = [(0,) * j + (self.p ** i,) for j in range(d) for i in range(self.e)]
        return _nonzero_images(ring, basis)

    def __str__(self):
        if self.e == 1:
            return f"Fq[t] q={self.q}"
        mod = self.element_str(tuple(self.field_modulus))
        # the modulus lives in u, not t
        mod = mod.replace("t", "u")
        return f"Fq[t] q={self.q} mod={mod}"

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialDomain)
            and other.p == self.p
            and other.e == self.e
            and other.field_modulus == self.field_modulus
        )

    def __hash__(self):
        return hash(("Fq[t]", self.p, self.e, self.field_modulus))


class QuadraticDomain(Domain):
    """Maximal order of Q(sqrt(m)), m < 0 squarefree; elements (a, b) = a + b*w."""

    field_degree = 2
    ideal_zero, ideal_one = (0, 0, 0), (1, 0, 1)

    def __init__(self, m):
        if m >= 0:
            raise ParseError("m must be negative")
        if not _is_squarefree(-m):
            raise ParseError("m must be squarefree")
        self.m = m
        if m % 4 == 1:
            # w = (1 + sqrt(m))/2, w^2 = (m-1)/4 + w
            self.c0 = (m - 1) // 4
            self.c1 = 1
            self.disc = m
        else:
            # w = sqrt(m), w^2 = m
            self.c0 = m
            self.c1 = 0
            self.disc = 4 * m
        self.symbols = {"w": self._w_pow}
        if m == -1:
            self.units = ((1, 0), (-1, 0), (0, 1), (0, -1))
        elif m == -3:
            self.units = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
        else:
            self.units = ((1, 0), (-1, 0))
        squares = sorted({self.mul(u, u) for u in self.units})
        for x in squares:
            for y in squares:
                if self.mul(x, y) not in squares:
                    raise InternalCheckError("unit squares not closed")
        self.unit_squares = tuple(squares)
        self._primes = {}  # rational prime -> for each prime P above it, [P, P^2, ...] so far

    def zero(self):
        return (0, 0)

    def one(self):
        return (1, 0)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        a, b = x
        c, d = y
        bd = b * d
        return (a * c + bd * self.c0, a * d + b * c + bd * self.c1)

    def from_int(self, n):
        return (n, 0)

    def element_str(self, x):
        a, b = x
        if b == 0:
            return str(a)
        wtxt = "w" if abs(b) == 1 else f"{abs(b)}*w"
        if a == 0:
            return wtxt if b > 0 else f"-{wtxt}"
        return f"{a}+{wtxt}" if b > 0 else f"{a}-{wtxt}"

    def _w_pow(self, k):
        return _power((0, 1), k, self.mul, self.one())

    def ideal_from_gens(self, elems):
        return self.ideal_from_lattice([r for x in elems for r in (x, self.mul(x, (0, 1)))])

    def ideal_from_lattice(self, rows):
        """The ideal the given coordinate rows span; validates closure under w."""
        data = _hnf2(rows)
        self._check_ideal_lattice(data)
        return Ideal(self, data)

    def ideal_from_hnf(self, a, b, c):
        if a <= 0 or c <= 0 or not 0 <= b < c:
            raise ParseError("HNF must have positive diagonal and reduced offset")
        return self.ideal_from_lattice([(a, b), (0, c)])

    def ideal_contains(self, data, x):
        a, b, c = data
        u, v = x
        if a == 0:
            return u == 0 and v == 0
        if u % a:
            return False
        return (v - (u // a) * b) % c == 0

    def _check_ideal_lattice(self, data):
        a, b, c = data
        for row in ((a, b), (0, c)):
            wrow = self.mul(row, (0, 1))
            if not self.ideal_contains(data, wrow):
                raise ValueError("lattice is not closed under multiplication by w")

    def ideal_generators(self, data):
        a, b, c = data
        return [(a, b), (0, c)]

    def ideal_str(self, data):
        return "(0)" if data == self.ideal_zero else "[[{},{}],[0,{}]]".format(*data)

    def ideal_sum(self, L, M):
        return self.ideal_from_lattice(self.ideal_generators(L) + self.ideal_generators(M))

    def ideal_product(self, L, M):
        gens = self.ideal_generators(M)
        return self.ideal_from_lattice(
            [self.mul(x, y) for x in self.ideal_generators(L) for y in gens]
        )

    def ideal_intersect(self, L, M):
        """L cap M = L*M*conj(S)/N(S) for S = L + M: L*M = (L cap M)*S in a Dedekind
        ring, and S*conj(S) = (N(S)), conj(x + y*w) = (x + c1*y) - y*w."""
        S = self.ideal_sum(L, M).data
        n = self.ideal_norm(S)
        conj_S = self.ideal_from_lattice(
            [(x + self.c1 * y, -y) for x, y in self.ideal_generators(S)]
        )
        a, b, c = self.ideal_product(self.ideal_product(L, M).data, conj_S.data).data
        if a % n or b % n or c % n:
            raise InternalCheckError("norm of L + M does not divide L*M*conj(L + M)")
        return self.ideal_from_lattice([(a // n, b // n), (0, c // n)])

    def ideal_bezout(self, L, M):
        """x = i*(a, b) + j*(0, c) in L = [(a, b), (0, c)] with 1 - x in M = [(a2, b2), (0, c2)].
        a2 | 1 - i*a fixes i = i0 mod a2, i0 = 1/a mod a2; with i = i0 + k*a2, 1 - x lies in M
        iff A*k - c*j = r mod c2, A = a*b2 - a2*b, r = i0*b + (1 - i0*a)/a2*b2, solved mod
        g = gcd(c, c2) for k, then mod c2 for j. L + M = D makes gcd(a, a2) = 1, and A prime
        to every p | g, since (a, b) and (a2, b2) span D/pD."""
        if M == self.ideal_zero:  # so L = D
            return self.one(), self.zero()
        a, b, c = L
        a2, b2, c2 = M
        A = a * b2 - a2 * b
        g = math.gcd(c, c2)
        if math.gcd(a, a2) != 1 or math.gcd(A, g) != 1:
            raise InternalCheckError("coprime ideals have no Bezout pair")
        i0 = pow(a, -1, a2)
        r = i0 * b + (1 - i0 * a) // a2 * b2
        k = r * pow(A, -1, g) % g
        j = (A * k - r) // g * pow(c // g, -1, c2 // g) % (c2 // g)
        i = i0 + k * a2
        x = (i * a, i * b + j * c)
        y = self.sub(self.one(), x)
        if not (self.ideal_contains(L, x) and self.ideal_contains(M, y)):
            raise InternalCheckError("Bezout pair lies outside the ideals")
        return (x, y)

    def ideal_norm(self, data):
        a, _, c = data
        return a * c

    def _primes_above(self, ell):
        """Prime ideals of the maximal order above the rational prime ell: one
        for each root of w's minimal polynomial mod ell, or (ell) if none."""
        c0, c1 = self.c0, self.c1
        if ell == 2:
            roots = [r for r in (0, 1) if (r * r - c1 * r - c0) % 2 == 0]
        else:
            s = _sqrt_mod_prime((c1 * c1 + 4 * c0) % ell, ell)
            inv2 = pow(2, ell - 2, ell)
            roots = [] if s is None else sorted({(c1 + s) * inv2 % ell, (c1 - s) * inv2 % ell})
        if not roots:
            return [self.principal_ideal(self.from_int(ell))]
        return [self.ideal_from_gens([self.from_int(ell), (-r, 1)]) for r in roots]

    def ideal_factors(self, data, cap):
        I = Ideal(self, data)
        pairs = []
        for ell in sorted(_factor_int(self.ideal_norm(data), cap)):
            if ell not in self._primes:
                self._primes[ell] = [[P] for P in self._primes_above(ell)]
            for powers in self._primes[ell]:
                e = 0
                while powers[e].contains_ideal(I):
                    e += 1
                    if e == len(powers):
                        powers.append(ideal_arith("product", powers[-1], powers[0]))
                if e:
                    pairs.append((powers[0], e))
        pairs.sort(key=lambda pe: (self.ideal_norm(pe[0].data), pe[0].data))
        return pairs

    def quotient_class(self):
        from .quotients import _QuadQuotient  # quotients imports this module
        return _QuadQuotient

    def additive_generators(self, ring, modulus):
        return _nonzero_images(ring, [(1, 0), (0, 1)])

    def __str__(self):
        return f"Q(sqrt({self.m})) maximal"

    def __eq__(self, other):
        return isinstance(other, QuadraticDomain) and other.m == self.m

    def __hash__(self):
        return hash(("Qsqrt", self.m))

    def parse_ideal(self, text):
        text = text.strip()
        if text.startswith("[["):
            m = re.match(
                r"\[\[\s*(-?[0-9]+)\s*,\s*(-?[0-9]+)\s*\]\s*,\s*\[\s*0\s*,\s*(-?[0-9]+)\s*\]\]$",
                text,
            )
            if not m:
                raise ParseError(f"bad HNF ideal text {text!r}")
            a, b, c = (int(g) for g in m.groups())
            if a == 0 and b == 0 and c == 0:
                return self.zero_ideal()
            return self.ideal_from_hnf(a, b, c)
        return super().parse_ideal(text)


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class Ideal:
    """Canonical ideal of a supported domain.

    data is a nonnegative integer, a monic polynomial tuple, or an HNF
    triple (a, b, c) for the lattice rows (a, b), (0, c); only the
    domain's class reads it.
    """

    domain: Domain
    data: object

    def is_zero(self):
        return self.data == self.domain.ideal_zero

    def is_unit_ideal(self):
        return self.data == self.domain.ideal_one

    def generators(self):
        """Elements generating the ideal (one for Z and F_q[t], two lattice rows)."""
        return self.domain.ideal_generators(self.data)

    def contains(self, x):
        return self.domain.ideal_contains(self.data, x)

    def contains_ideal(self, other):
        """True iff other is a subset of self."""
        return all(self.contains(g) for g in other.generators())

    def __str__(self):
        return self.domain.ideal_str(self.data)

    def __repr__(self):
        return f"<Ideal {self} of {self.domain}>"


@dataclass(frozen=True)
class PrimeFactorization:
    """Pairwise-distinct prime ideals with positive exponents."""

    pairs: tuple

    def __post_init__(self):
        seen = set()
        for p, e in self.pairs:
            key = (p.domain, p.data)
            if key in seen:
                raise ValueError("duplicate prime in factorization")
            seen.add(key)
            if e <= 0:
                raise ValueError("exponents must be positive")

    def product(self):
        out = None
        for p, e in self.pairs:
            pe = ideal_pow(p, e)
            out = pe if out is None else ideal_arith("product", out, pe)
        return out


def _check_same_domain(I, J):
    if I.domain != J.domain:
        raise ValueError("ideals belong to different domains")


def ideal_arith(mode, I, J):
    """Sum, product, or intersection of two ideals of the same domain."""
    _check_same_domain(I, J)
    D = I.domain
    if mode == "sum":
        if I.is_zero():
            return J
        if J.is_zero():
            return I
        return D.ideal_sum(I.data, J.data)
    if mode not in ("product", "intersect"):
        raise ValueError(f"unknown mode {mode!r}")
    if I.is_zero() or J.is_zero():
        return D.zero_ideal()
    if mode == "product":
        return D.ideal_product(I.data, J.data)
    return D.ideal_intersect(I.data, J.data)


def ideal_bezout(I, J):
    """For coprime I + J = D, return (x, y) with x in I, y in J, x + y = 1."""
    _check_same_domain(I, J)
    if not ideal_arith("sum", I, J).is_unit_ideal():
        raise ValueError("ideals are not coprime")
    return I.domain.ideal_bezout(I.data, J.data)


def ideal_pow(I, k):
    return _power(I, k, lambda a, b: ideal_arith("product", a, b), I.domain.unit_ideal())


def residue_norm(I):
    """|D/I| for a nonzero ideal."""
    if I.is_zero():
        raise ValueError("residue norm of the zero ideal")
    return I.domain.ideal_norm(I.data)


def factor_ideal(I, cap=DEFAULT_FACTOR_CAP):
    """Complete prime factorization of a nonzero ideal."""
    if I.is_zero():
        raise ValueError("cannot factor the zero ideal")
    n = residue_norm(I)
    if n > cap:
        raise CapExceeded(f"ideal norm {n} exceeds factoring cap {cap}")
    pf = PrimeFactorization(tuple(I.domain.ideal_factors(I.data, cap)))
    if not I.is_unit_ideal():
        product = pf.product()
        if product is None or product.data != I.data:
            raise InternalCheckError("factorization mismatch")
    return pf


def crt_select(factors):
    """An element d with d in p_i^a_i \\ p_i^(a_i+1) for every listed prime.

    factors is a list of (prime Ideal, exponent >= 0) pairs with pairwise
    distinct primes.  Memberships are verified before returning.
    """
    if not factors:
        raise ValueError("empty factor list")
    D = factors[0][0].domain
    seen = set()
    for p, e in factors:
        if p.domain != D:
            raise ValueError("primes from different domains")
        if p.data in seen:
            raise ValueError("duplicate primes")
        seen.add(p.data)
        if e < 0:
            raise ValueError("negative exponent")
    picks = []
    uppers = []
    for p, e in factors:
        pe = ideal_pow(p, e)
        pe1 = ideal_arith("product", pe, p)
        x = None
        for cand in pe.generators():
            if not pe1.contains(cand):
                x = cand
                break
        if x is None:
            raise InternalCheckError("prime power equals its successor")
        picks.append(x)
        uppers.append(pe1)
    if len(factors) == 1:
        d = picks[0]
    else:
        d = D.zero()
        for i, (x, Ai) in enumerate(zip(picks, uppers)):
            Bi = None
            for j, other in enumerate(uppers):
                if j == i:
                    continue
                Bi = other if Bi is None else ideal_arith("product", Bi, other)
            _, ui = ideal_bezout(Ai, Bi)  # ui = 1 mod Ai, ui in Bi
            d = D.add(d, D.mul(x, ui))
    for (p, e), Ai in zip(factors, uppers):
        if not ideal_pow(p, e).contains(d) or Ai.contains(d):
            raise InternalCheckError("CRT element has the wrong valuation")
    return d


@dataclass(frozen=True)
class ConditionLReport:
    holds: bool
    failed_clause: object  # "i" | "ii" | None
    witnesses: tuple

    def to_json(self):
        return {
            "holds": self.holds,
            "failed_clause": self.failed_clause,
            "witnesses": [str(w) for w in self.witnesses],
        }


def condition_L(q, cap=DEFAULT_FACTOR_CAP):
    """Coprimality-to-2 and no simple residue-3 prime divisor.

    Clause (i): q + (2) = D.  Clause (ii): no prime p | q with
    |D/p| = 3 appearing with exponent exactly 1.
    """
    if q.is_zero():
        raise ValueError("condition requires a nonzero ideal")
    D = q.domain
    two = D.principal_ideal(D.from_int(2))
    factors = factor_ideal(q, cap)
    if not ideal_arith("sum", q, two).is_unit_ideal():
        twoelem = D.from_int(2)
        witnesses = tuple(p for p, _ in factors.pairs if p.contains(twoelem))
        return ConditionLReport(False, "i", witnesses)
    bad = tuple(
        p for p, e in factors.pairs if e == 1 and residue_norm(p) == 3
    )
    if bad:
        return ConditionLReport(False, "ii", bad)
    return ConditionLReport(True, None, ())


# ---------------------------------------------------------------------------
# domain parsing


_POLY_SPEC_RE = re.compile(r"^Fq\[t\]\s+q=([0-9]+)(?:\s+mod=(\S+))?$")
_QUAD_SPEC_RE = re.compile(r"^Q\(sqrt\((-?[0-9]+)\)\)\s+maximal$")


@lru_cache(maxsize=64)
def parse_domain(spec):
    """Parse a domain description: "Z", "Fq[t] q=.. [mod=..]", "Q(sqrt(m)) maximal";
    domains are frozen values, so each spec is parsed once per process."""
    spec = spec.strip()
    if spec == "Z":
        return IntegerDomain()
    m = _POLY_SPEC_RE.match(spec)
    if m:
        q = int(m.group(1))
        p, e = _prime_power(q) or (None, None)
        if p is None:
            raise ParseError(f"q={q} is not a prime power")
        if e == 1:
            if m.group(2):
                raise ParseError("prime fields take no modulus")
            return PolynomialDomain(p, 1)
        if m.group(2):
            Fp = PolynomialDomain(p, 1)
            modulus = _evaluate(m.group(2), Fp, {"u": _variable_pow})
        elif q in FIXED_FIELD_MODULI:
            modulus = FIXED_FIELD_MODULI[q]
        else:
            raise ParseError(f"q={q} requires an explicit mod= polynomial")
        return PolynomialDomain(p, e, modulus)
    m = _QUAD_SPEC_RE.match(spec)
    if m:
        return QuadraticDomain(int(m.group(1)))
    raise ParseError(f"unrecognized domain spec {spec!r}")

