import collections
import gc
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conglab import domains
from conglab.cli import main
from conglab.domains import (
    CapExceeded,
    Ideal,
    IntegerDomain,
    ParseError,
    PolynomialDomain,
    QuadraticDomain,
    TEXT_DEGREE_CAP,
    TEXT_NESTING_CAP,
    _evaluate,
    _factor_int,
    _is_prime,
    _is_squarefree,
    _monic_polys,
    _power,
    _prime_power,
    _variable_pow,
    condition_L,
    crt_select,
    factor_ideal,
    ideal_arith,
    ideal_bezout,
    ideal_pow,
    parse_domain,
    residue_norm,
)
from conglab.suites import _RANDOM_DOMAINS, DEFAULT_SUITE_NAMES, run_suite


Z = parse_domain("Z")
F3T = parse_domain("Fq[t] q=3")
F9T = parse_domain("Fq[t] q=9 mod=u^2+1")
ZSQ13 = parse_domain("Q(sqrt(-13)) maximal")
ZSQ2 = parse_domain("Q(sqrt(-2)) maximal")
QSQ7 = parse_domain("Q(sqrt(-7)) maximal")


def ideal(D, text):
    return D.parse_ideal(text)


# ---------------------------------------------------------------------------
# parsing


def test_parse_domain_kinds():
    assert isinstance(Z, IntegerDomain)
    assert isinstance(F3T, PolynomialDomain) and F3T.q == 3
    assert isinstance(F9T, PolynomialDomain) and F9T.q == 9 and F9T.e == 2
    assert isinstance(ZSQ13, QuadraticDomain)


def test_f9_modulus_is_irreducible_by_root_scan():
    # oracle: u^2 + 1 has no root over F_3
    assert all((r * r + 1) % 3 != 0 for r in range(3))
    # and the reducible u^2 + 2 = (u-1)(u+1) is rejected
    assert any((r * r + 2) % 3 == 0 for r in range(3))
    with pytest.raises(ParseError):
        parse_domain("Fq[t] q=9 mod=u^2+2")


def test_field_modulus_is_irreducible_by_trial_division():
    # u^4 + u^2 + 1 = (u^2 + u + 1)^2 over F_2 has no root, so only a
    # degree-2 trial divisor shows that it is reducible
    assert all((r ** 4 + r ** 2 + 1) % 2 for r in range(2))
    with pytest.raises(ParseError, match="field modulus is reducible"):
        parse_domain("Fq[t] q=16 mod=u^4+u^2+1")
    with pytest.raises(ParseError, match="field modulus is reducible"):
        PolynomialDomain(2, 4, (1, 0, 1, 0, 1))
    F8 = parse_domain("Fq[t] q=8 mod=u^3+u+1")
    assert F8.field_modulus == (1, 1, 0, 1) and len(F8.units) == 7


def test_quadratic_multiplication_rule_vs_numeric_oracle():
    # oracle: embed w into the complex numbers and check w^2 = c0 + c1*w
    for D in (QSQ7, ZSQ13, ZSQ2, parse_domain("Q(sqrt(-1)) maximal"),
              parse_domain("Q(sqrt(-3)) maximal")):
        root = complex(0, math.sqrt(-D.m))
        w = (1 + root) / 2 if D.m % 4 == 1 else root
        assert abs(w * w - (D.c0 + D.c1 * w)) < 1e-9


def test_q_sqrt_minus7_rule():
    assert (QSQ7.c0, QSQ7.c1) == (-2, 1)  # w^2 = w - 2
    assert QSQ7.mul((0, 1), (0, 1)) == (-2, 1)


# numerals are ASCII: other Unicode decimal digits (here Arabic-Indic
# three and fullwidth one) are refused wherever a numeral may stand
@pytest.mark.parametrize("text", ["\u0663", "t^\u0663", "\uff11+t"])
def test_element_texts_refuse_non_ascii_digits(text):
    with pytest.raises(ParseError):
        F3T.parse_element(text)


@pytest.mark.parametrize("spec", ["Fq[t] q=\u0663", "Q(sqrt(-\u0663)) maximal"])
def test_domain_specs_refuse_non_ascii_digits(spec):
    with pytest.raises(ParseError):
        parse_domain(spec)


def test_hnf_ideal_texts_refuse_non_ascii_digits():
    assert ZSQ2.parse_ideal("[[3,0],[0,3]]") == ZSQ2.principal_ideal((3, 0))
    with pytest.raises(ParseError):
        ZSQ2.parse_ideal("[[\u0663,0],[0,3]]")


def test_parse_domain_errors():
    with pytest.raises(ParseError):
        parse_domain("Q(sqrt(-12)) maximal")  # not squarefree
    with pytest.raises(ParseError):
        parse_domain("Q(sqrt(5)) maximal")  # not negative
    with pytest.raises(ParseError):
        parse_domain("Fq[t] q=6")  # not a prime power
    with pytest.raises(ParseError):
        parse_domain("madeup")
    with pytest.raises(ParseError):
        parse_domain("Q(sqrt(-3))")  # only maximal orders are supported


def test_each_spec_is_parsed_once_and_a_bad_spec_raises_every_time():
    spec = "Fq[t] q=9 mod=u^2+1"
    assert parse_domain(spec) is parse_domain(spec) == F9T
    for _ in range(2):
        with pytest.raises(ParseError, match="not a prime power"):
            parse_domain("Fq[t] q=6")


def test_squarefree_check_matches_factoring():
    rng = random.Random(7)
    for n in [*range(1, 3000), *(rng.randrange(1, 10 ** 9) for _ in range(500))]:
        assert _is_squarefree(n) == all(e == 1 for e in _factor_int(n).values()), n


@pytest.mark.parametrize("m", [2 ** 63 - 25, 2147483647 * 2147483629])
def test_large_squarefree_m_parses_quickly(m):
    # a prime, and a product of two primes near 2^31: no trial division to sqrt(m)
    assert _is_prime(2 ** 63 - 25) and _is_prime(2147483647) and _is_prime(2147483629)
    start = time.perf_counter()
    assert parse_domain(f"Q(sqrt(-{m})) maximal").m == -m
    assert time.perf_counter() - start < 2


def test_square_of_a_prime_above_the_cube_root_is_refused():
    p = 1000003  # 3*p^2 has p > (3*p^2)^(1/3), past the trial division
    assert _is_prime(p)
    with pytest.raises(ParseError, match="squarefree"):
        parse_domain(f"Q(sqrt(-{3 * p * p})) maximal")


def test_fixed_moduli_table():
    f4 = parse_domain("Fq[t] q=4")
    f8 = parse_domain("Fq[t] q=8")
    f9 = parse_domain("Fq[t] q=9")
    assert f4.field_modulus == (1, 1, 1)
    assert f8.field_modulus == (1, 1, 0, 1)
    assert f9.field_modulus == (1, 0, 1)
    assert f9 == F9T


def test_unit_tables():
    assert set(Z.units) == {1, -1}
    assert len(parse_domain("Q(sqrt(-1)) maximal").units) == 4
    assert len(parse_domain("Q(sqrt(-3)) maximal").units) == 6
    assert len(ZSQ13.units) == 2
    assert len(F9T.units) == 8
    for D in (Z, F9T, ZSQ13, parse_domain("Q(sqrt(-3)) maximal")):
        sq = set(D.unit_squares)
        for x in sq:
            for y in sq:
                assert D.mul(x, y) in sq


# ---------------------------------------------------------------------------
# element round trips


@pytest.mark.parametrize(
    "D,text",
    [
        (Z, "-17"),
        (F3T, "t^3+2*t+1"),
        (F9T, "2*t^3+u*t"),
        (F9T, "(u+1)*t^2+u^2"),
        (ZSQ13, "3-2*w"),
        (ZSQ13, "w"),
        (QSQ7, "-1+w"),
    ],
)
def test_element_round_trip(D, text):
    x = D.parse_element(text)
    assert D.parse_element(D.element_str(x)) == x


def test_poly_element_values():
    x = F9T.parse_element("2*t^3+u*t")
    u = 3  # encoded generator of F_9
    assert x == (0, u, 0, 2)
    assert F9T.element_str(x) == "2*t^3+u*t"


def test_quad_element_values():
    assert ZSQ13.parse_element("3-2*w") == (3, -2)
    assert ZSQ13.parse_element("w^2") == (-13, 0)
    assert QSQ7.parse_element("w^2") == (-2, 1)


# ---------------------------------------------------------------------------
# element texts against the monomial parser


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z]+)|(\^)|(\*)|(\+)|(-)|(\()|(\)))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character in element text: {text[pos:]!r}")
        pos = m.end()
        for kind, val in zip(
            ("int", "name", "pow", "mul", "add", "sub", "lpar", "rpar"), m.groups()
        ):
            if val is not None:
                tokens.append((kind, val))
                break
    return tokens


class _ExprParser:
    """Parses +/-/*/^ expressions in the variables u, t, w into a monomial
    dict {(u_exp, t_exp, w_exp): integer coefficient}."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        out = self.sum_()
        if self.pos != len(self.tokens):
            raise ParseError("trailing tokens in element text")
        return out

    def sum_(self):
        sign = 1
        kind, _ = self.peek()
        if kind in ("add", "sub"):
            self.take()
            sign = -1 if kind == "sub" else 1
        total = _mono_scale(self.term(), sign)
        while True:
            kind, _ = self.peek()
            if kind not in ("add", "sub"):
                return total
            self.take()
            sign = -1 if kind == "sub" else 1
            total = _mono_add(total, _mono_scale(self.term(), sign))

    def term(self):
        result = self.atom()
        while True:
            kind, _ = self.peek()
            if kind != "mul":
                return result
            self.take()
            result = _mono_mul(result, self.atom())

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return {(0, 0, 0): int(val)}
        if kind == "lpar":
            inner = self.sum_()
            kind, _ = self.take()
            if kind != "rpar":
                raise ParseError("unbalanced parenthesis in element text")
            return self._maybe_pow_group(inner)
        if kind == "name":
            if val not in ("u", "t", "w"):
                raise ParseError(f"unknown symbol {val!r}")
            exp = 1
            if self.peek()[0] == "pow":
                self.take()
                k, v = self.take()
                if k != "int":
                    raise ParseError("exponent must be an integer")
                exp = int(v)
            key = tuple(exp if s == val else 0 for s in ("u", "t", "w"))
            return {key: 1}
        raise ParseError("malformed element text")

    def _maybe_pow_group(self, inner):
        if self.peek()[0] == "pow":
            self.take()
            k, v = self.take()
            if k != "int":
                raise ParseError("exponent must be an integer")
            out = {(0, 0, 0): 1}
            for _ in range(int(v)):
                out = _mono_mul(out, inner)
            return out
        return inner


def _mono_scale(m, s):
    return {k: v * s for k, v in m.items()}


def _mono_add(m1, m2):
    out = dict(m1)
    for k, v in m2.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _mono_mul(m1, m2):
    out = {}
    for k1, v1 in m1.items():
        for k2, v2 in m2.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _parse_monomials(text):
    return _ExprParser(_tokenize(text)).parse()


def oracle_element(D, text):
    """The element text's value in D: its monomials over Z[u, t, w], then
    each monomial converted by D's kind."""
    monos = _parse_monomials(text)
    if isinstance(D, IntegerDomain):
        if any(k != (0, 0, 0) for k in monos):
            raise ParseError("integer elements cannot use symbols")
        return monos.get((0, 0, 0), 0)
    if isinstance(D, PolynomialDomain):
        coeffs = {}
        u_elt = D.p if D.e > 1 else None  # the field generator u
        for (ue, te, we), c in monos.items():
            if we:
                raise ParseError("symbol w is not defined in a polynomial domain")
            if ue and D.e == 1:
                raise ParseError("symbol u is not defined over a prime field")
            v = D.fq_embed_int(c)
            if ue:
                v = D.fq_mul(v, D.fq_pow(u_elt, ue))
            coeffs[te] = D.fq_add(coeffs.get(te, 0), v)
        if not coeffs:
            return ()
        out = [0] * (max(coeffs) + 1)
        for k, v in coeffs.items():
            out[k] = v
        return D._norm(out)
    a, b = 0, 0
    for (ue, te, we), c in monos.items():
        if ue or te:
            raise ParseError("symbols u, t are not defined in a quadratic domain")
        val = (c, 0)
        for _ in range(we):
            val = D.mul(val, (0, 1))
        a += val[0]
        b += val[1]
    return (a, b)


def oracle_field_modulus(text, p):
    """A field modulus text as a polynomial in u over F_p."""
    monos = _parse_monomials(text)
    coeffs = {}
    for (ue, te, we), c in monos.items():
        if te or we:
            raise ParseError("field modulus must be a polynomial in u")
        coeffs[ue] = (coeffs.get(ue, 0) + c) % p
    if not coeffs:
        raise ParseError("empty field modulus")
    out = [0] * (max(coeffs) + 1)
    for k, v in coeffs.items():
        out[k] = v
    return PolynomialDomain(p, 1)._norm(out)


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


def names_undefined_symbol(text, symbols):
    return any(name not in symbols for name in re.findall(r"[a-zA-Z]+", text))


F3 = PolynomialDomain(3, 1)
_FRAGMENTS = ["0", "1", "2", "3", "12", "u", "t", "w", "x", "tw", "+", "-", "*", "^", "(", ")", " "]


def _small_powers(text):
    # repeated powers of a sum multiply out in the monomial parser; keep them small
    return math.prod(int(k) or 1 for k in re.findall(r"\^\s*(\d+)", text)) <= 64


def _grammar_texts():
    leaf = st.sampled_from(["0", "1", "2", "3", "12", "u", "t", "w", "x", "t^2", "u^3", "w^2", "t^0", "u^0"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", " * ", "- "]), inner).map("".join),
            inner.map(lambda s: f"({s})"),
            inner.map(lambda s: f"-{s}"),
            st.tuples(inner, st.sampled_from("0123")).map(lambda p: f"({p[0]})^{p[1]}"),
        )

    return st.recursive(leaf, extend, max_leaves=10)


ELEMENT_TEXTS = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=14).map("".join),
    _grammar_texts(),
).filter(_small_powers)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=ELEMENT_TEXTS)
def test_element_texts_evaluate_as_the_monomial_parser(text):
    # equal values, or both refuse, or only the evaluator refuses a text
    # that names a symbol the domain does not define (e.g. "t-t" over Z)
    for D in (Z, F3T, F9T, ZSQ13, QSQ7):
        new = outcome(D.parse_element, text)
        old = outcome(lambda s: oracle_element(D, s), text)
        assert new == old or (new is ParseError and names_undefined_symbol(text, D.symbols)), (str(D), text)
    symbols = {"u": _variable_pow}
    new = outcome(lambda s: _evaluate(s, F3, symbols), text)
    old = outcome(lambda s: oracle_field_modulus(s, 3), text)
    # the monomial parser refused moduli whose monomials cancel ("u-u");
    # the evaluator reads them as 0, which no field accepts as a modulus
    assert (
        new == old
        or (new is ParseError and names_undefined_symbol(text, symbols))
        or (old is ParseError and new == ())
    ), text


def test_zero_field_modulus_is_refused():
    for text in ("0", "u-u", "3"):
        with pytest.raises(ParseError):
            parse_domain(f"Fq[t] q=9 mod={text}")


@pytest.mark.parametrize(
    "text",
    ["1$", "(1", "1)", "t^-1", "t^u", "2^3", "(t)^", "--1", "1+-1", "x", "", "  ", "1 2", "*t"],
)
def test_malformed_element_texts_are_refused(text):
    with pytest.raises(ParseError):
        F9T.parse_element(text)


@pytest.mark.parametrize(
    "D,text",
    [(Z, "t-t"), (Z, "0*w"), (Z, "u^0"), (F3T, "u"), (F3T, "w^0"), (F9T, "0*w"), (ZSQ13, "t^0")],
)
def test_undefined_symbols_are_refused_wherever_they_appear(D, text):
    with pytest.raises(ParseError, match="not defined"):
        D.parse_element(text)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nests too deeply"):
        Z.parse_element("(" * 3000 + "1" + ")" * 3000)
    assert Z.parse_element("(" * 100 + "1" + ")" * 100) == 1


def evaluate_by_recursion(text, domain, symbols):
    """Oracle: the element-text grammar by recursive descent, one function per
    rule, with the same checks at the same tokens; a "(" opened inside
    TEXT_NESTING_CAP others is refused."""
    bad = domains._BAD_CHAR_RE.search(text)
    if bad:
        raise ParseError(f"bad character in element text: {text[bad.start():]!r}")
    tokens = domains._TOKEN_RE.findall(text)
    tokens.append("")  # end marker
    pos = 0
    depth = 0  # parentheses open
    degree = 0  # of the atom, term or sum read last
    add, neg, mul = domain.add, domain.neg, domain.mul

    def bounded(d):
        if d > TEXT_DEGREE_CAP:
            raise CapExceeded(f"element text of degree above the cap {TEXT_DEGREE_CAP}")
        return d

    def exponent():
        nonlocal pos
        k = tokens[pos + 1]
        if not k.isdecimal():
            raise ParseError("exponent must be an integer")
        pos += 2
        return bounded(int(k) if len(k.lstrip("0")) < 6 else TEXT_DEGREE_CAP + 1)

    def atom():
        nonlocal pos, degree, depth
        tok = tokens[pos]
        pos += 1
        if tok.isdecimal():
            degree = 1
            return domain.from_int(int(tok))
        if tok == "(":
            if depth == TEXT_NESTING_CAP:
                raise ParseError("element text nests too deeply")
            depth += 1
            inner = sum_()
            if tokens[pos] != ")":
                raise ParseError("unbalanced parenthesis in element text")
            depth -= 1
            pos += 1
            if tokens[pos] != "^":
                return inner
            k = exponent()
            degree = bounded(degree * k)
            return _power(inner, k, mul, domain.one())
        if tok in symbols:
            degree = exponent() if tokens[pos] == "^" else 1
            return symbols[tok](degree)
        if tok.isalpha():
            raise ParseError(f"symbol {tok!r} is not defined in {domain}")
        raise ParseError("malformed element text")

    def term():
        nonlocal pos, degree
        value = atom()
        d = degree
        while tokens[pos] == "*":
            pos += 1
            value = mul(value, atom())
            d = degree = bounded(d + degree)
        return value

    def sum_():
        nonlocal pos, degree
        sign = tokens[pos]
        if sign in ("+", "-"):
            pos += 1
        total = neg(term()) if sign == "-" else term()
        d = degree
        while tokens[pos] in ("+", "-"):
            sign = tokens[pos]
            pos += 1
            total = add(total, neg(term()) if sign == "-" else term())
            d = max(d, degree)
        degree = d
        return total

    value = sum_()
    if pos != len(tokens) - 1:
        raise ParseError("trailing tokens in element text")
    return value


def outcome_or_error(evaluate, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return evaluate(*args)
    except (ParseError, CapExceeded) as exc:
        return type(exc), str(exc)


ORACLE_DOMAINS = ((Z, Z.symbols), (F3T, F3T.symbols), (F9T, F9T.symbols), (ZSQ13, ZSQ13.symbols),
                  (QSQ7, QSQ7.symbols), (F3, {"u": _variable_pow}))


@pytest.fixture
def deep_recursion():
    """Room for the recursive oracle to reach TEXT_NESTING_CAP (three frames
    per parenthesis) from inside pytest."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * TEXT_NESTING_CAP)
    yield
    sys.setrecursionlimit(limit)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=ELEMENT_TEXTS)
def test_element_texts_evaluate_as_the_recursive_oracle(text):
    for D, symbols in ORACLE_DOMAINS:
        new = outcome_or_error(_evaluate, text, D, symbols)
        assert new == outcome_or_error(evaluate_by_recursion, text, D, symbols), (str(D), text)


@pytest.mark.parametrize("text", ["(9)^1025", "t^600*t^600", "((1+t)^100)^100", "(t^600+1)^2", "1+", "(1", "1)", "t^",
                                  "2^3", "1 2", "x*(", "(t)^u", "-(-1)", "((t-1))^2*t^3-(2)^0"])
def test_error_texts_match_the_recursive_oracle(text):
    for D, symbols in ORACLE_DOMAINS:
        assert outcome_or_error(_evaluate, text, D, symbols) == outcome_or_error(
            evaluate_by_recursion, text, D, symbols
        ), (str(D), text)


@pytest.mark.parametrize("depth", [TEXT_NESTING_CAP, TEXT_NESTING_CAP + 1])
def test_nesting_at_the_cap_matches_the_recursive_oracle(deep_recursion, depth):
    # the powers pass the degree cap at the 11th ")", after every "(" is read
    for text in ("(" * depth + "1" + ")" * depth, "(" * depth + "2" + ")^2" * depth,
                 "1+" + "(1-" * depth + "2" + ")" * depth):
        for D in (Z, F3T):
            new = outcome_or_error(_evaluate, text, D, D.symbols)
            assert new == outcome_or_error(evaluate_by_recursion, text, D, D.symbols)
            assert (new == (ParseError, "element text nests too deeply")) == (depth > TEXT_NESTING_CAP)


def test_nesting_cap_holds_at_any_caller_stack_depth():
    deep, too_deep = ("(" * k + "1" + ")" * k for k in (TEXT_NESTING_CAP, TEXT_NESTING_CAP + 1))

    def at_depth(k):
        if k:
            return at_depth(k - 1)
        return Z.parse_element(deep), outcome_or_error(Z.parse_element, too_deep)

    frame, stack = sys._getframe(), 0
    while frame is not None:
        frame, stack = frame.f_back, stack + 1
    # called from 50 frames below the recursion limit
    assert at_depth(sys.getrecursionlimit() - stack - 50) == (1, (ParseError, "element text nests too deeply"))


def test_parsing_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            F3T.parse_element("2*t^2+t+1")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_monic_polys_in_base_q_digit_order():
    assert list(_monic_polys(2, 2)) == [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    for q, d in ((3, 3), (4, 2)):
        spelled = [sum(c * q ** i for i, c in enumerate(f[:-1])) for f in _monic_polys(q, d)]
        assert spelled == list(range(q ** d))


FIELD_SPECS = {
    4: "Fq[t] q=4",
    8: "Fq[t] q=8",
    9: "Fq[t] q=9",
    25: "Fq[t] q=25 mod=u^2+u+2",
    27: "Fq[t] q=27 mod=u^3+2*u+1",
}


@pytest.mark.parametrize("q", sorted(FIELD_SPECS))
def test_field_tables_match_brute_force_products(q):
    # oracle: a*b is the v with a*b = v + g*m over F_p[u] for some g of
    # degree < e - 1, found by trying every v and g; a + b and -a act on
    # the base-p digits one by one
    D = parse_domain(FIELD_SPECS[q])
    p, e, m = D.p, D.e, D.field_modulus

    def poly(v, n):  # the base-p digits of v, n of them
        return [v // p ** i % p for i in range(n)]

    def times(x, y):
        out = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                out[i + j] += a * b
        return out

    values = [poly(v, 2 * e - 1) for v in range(q)]
    multiples = [times(poly(g, e - 1), list(m)) for g in range(p ** (e - 1))]
    for a in range(q):
        assert poly(D.fq_neg(a), e) == [-x % p for x in poly(a, e)]
        for b in range(q):
            assert poly(D.fq_add(a, b), e) == [(x + y) % p for x, y in zip(poly(a, e), poly(b, e))]
            ab = times(poly(a, e), poly(b, e))
            found = [
                v
                for v in range(q)
                for gm in multiples
                if all((x - y - z) % p == 0 for x, y, z in zip(ab, values[v], gm))
            ]
            assert found == [D.fq_mul(a, b)]
        if a:
            assert D.fq_mul(a, D.fq_inv(a)) == 1
    with pytest.raises(ZeroDivisionError, match="field inverse of zero"):
        D.fq_inv(0)


@pytest.mark.parametrize(
    "spec", [*FIELD_SPECS.values(), "Fq[t] q=256 mod=u^8+u^4+u^3+u+1", "Fq[t] q=512 mod=u^9+u^4+1"]
)
def test_field_inverses_are_read_from_a_list_built_with_the_field(spec, monkeypatch):
    D = parse_domain(spec)

    def no_row_search(ring, i):
        raise AssertionError("fq_inv searched a row of the field ring")

    monkeypatch.setattr(type(D._field), "inv", no_row_search)
    for a in range(1, D.q):
        assert D.fq_mul(a, D.fq_inv(a)) == 1
    with pytest.raises(ZeroDivisionError, match="field inverse of zero"):
        D.fq_inv(0)


def digit_loop_fq_str(D, c):
    """The u-polynomial text of an F_q value and its number of terms, read
    off the value's base-p digits (low degree first)."""
    digits = [c // D.p ** k % D.p for k in range(D.e)]
    parts = []
    for k in range(D.e - 1, -1, -1):
        a = digits[k]
        if a == 0:
            continue
        if k == 0:
            parts.append(str(a))
        else:
            upart = "u" if k == 1 else f"u^{k}"
            parts.append(upart if a == 1 else f"{a}*{upart}")
    if not parts:
        return "0", 1
    return "+".join(parts), len(parts)


@pytest.mark.parametrize("q", sorted(FIELD_SPECS))
def test_field_values_render_as_their_digits(q):
    D = parse_domain(FIELD_SPECS[q])
    assert D._fq_str(0) == digit_loop_fq_str(D, 0) == ("0", 1)
    for c in range(1, q):
        text, nterms = digit_loop_fq_str(D, c)
        assert D._fq_str(c) == (text, nterms)
        if nterms > 1:
            text = f"({text})"
        assert D.element_str((c,)) == text
        assert D.element_str((0, c)) == ("t" if c == 1 else f"{text}*t")
        assert D.element_str((c, 0, 1)) == f"t^2+{text}"


def test_extension_fields_build_in_an_interpreter_that_imported_only_domains():
    # F_q for e > 1 is a quotient ring, and quotients imports domains
    code = (
        "from conglab.domains import PolynomialDomain\n"
        "D = PolynomialDomain(3, 2, (1, 0, 1))\n"
        "print(D, D.fq_mul(3, 3), D.fq_inv(3), D.element_str((4, 3)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(domains.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
    assert done.stderr == b""
    assert done.stdout == b"Fq[t] q=9 mod=u^2+1 2 6 u*t+(u+1)\n"


# ---------------------------------------------------------------------------
# ideal arithmetic


def test_ideal_arith_examples():
    assert ideal_arith("sum", ideal(Z, "(4)"), ideal(Z, "(6)")) == ideal(Z, "(2)")
    assert ideal_arith(
        "product", ideal(F3T, "(t)"), ideal(F3T, "(t+1)")
    ) == ideal(F3T, "(t^2+t)")
    s = ideal_arith("sum", ideal(ZSQ13, "(3)"), ideal(ZSQ13, "(5)"))
    assert s.is_unit_ideal()


def test_quad_hnf_canonical():
    I = ideal(ZSQ13, "(3)")
    assert I.data == (3, 0, 3)
    assert str(I) == "[[3,0],[0,3]]"
    J = ZSQ13.parse_ideal("[[3,0],[0,3]]")
    assert I == J
    with pytest.raises(ValueError, match="not closed under multiplication by w"):
        ZSQ13.ideal_from_hnf(1, 0, 3)
    with pytest.raises(ValueError, match="not closed under multiplication by w"):
        ZSQ13.ideal_from_lattice([(1, 0), (0, 3)])


def row_hnf(rows, ncols):
    """Hermite normal form (row style) of an integer matrix given as rows:
    the pivot rows ordered by pivot column, with the entries above each pivot
    reduced into [0, pivot). The generic oracle of the rank-2 kernel _hnf2
    and of the four-column pair lattices below."""
    work = [tuple(r) for r in rows if any(r)]
    pivots = []
    for col in range(ncols):
        rest = []
        piv = None
        for r in work:
            if r[col] == 0:
                rest.append(r)
                continue
            if piv is None:
                piv = r
                continue
            a, b = piv, r
            while b[col] != 0:
                q = a[col] // b[col]
                a = tuple(x - q * y for x, y in zip(a, b))
                a, b = b, a
            piv = a
            if any(b):
                rest.append(b)
        if piv is not None:
            if piv[col] < 0:
                piv = tuple(-x for x in piv)
            pivots.append(piv)
        work = rest
    for i in range(1, len(pivots)):  # top-down: reducing by pivot i moves only later columns
        p = pivots[i]
        pcol = next(j for j in range(ncols) if p[j] != 0)
        for k in range(i):
            r = pivots[k]
            if r[pcol] != 0:
                q = r[pcol] // p[pcol]
                pivots[k] = tuple(x - q * y for x, y in zip(r, p))
    return pivots


def is_row_hnf(piv, ncols):
    """Positive pivots in strictly increasing columns, zeros left of each
    pivot, and every entry above a pivot in [0, pivot)."""
    cols = [next((j for j in range(ncols) if r[j]), None) for r in piv]
    if None in cols or cols != sorted(set(cols)):
        return False
    return all(
        r[col] > 0 and all(0 <= upper[col] < r[col] for upper in piv[:i])
        for i, (r, col) in enumerate(zip(piv, cols))
    )


def determinantal_divisor(rows, r):
    """The gcd of the r x r minors of the matrix with these rows."""
    def det(m):
        return sum(
            math.prod(m[i][j] for i, j in enumerate(perm)) * (-1) ** sum(
                perm[i] > perm[k] for i in range(r) for k in range(i + 1, r)
            )
            for perm in itertools.permutations(range(r))
        )

    return math.gcd(*(
        det([[row[j] for j in cols] for row in sub])
        for sub in itertools.combinations(rows, r)
        for cols in itertools.combinations(range(len(rows[0])), r)
    ))


def in_row_lattice(piv, ncols, row):
    """Whether row is an integer combination of the echelon rows piv."""
    for p in piv:
        col = next(j for j in range(ncols) if p[j])
        q, rem = divmod(row[col], p[col])
        if rem:
            return False
        row = tuple(x - q * y for x, y in zip(row, p))
    return not any(row)


HNF_ENTRY = st.one_of(
    st.just(0), st.integers(-3, 3), st.integers(-60, 60), st.integers(-10 ** 6, 10 ** 6)
)
HNF_CASES = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[HNF_ENTRY] * n), max_size=6))
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=HNF_CASES)
def test_row_hnf_is_a_reduced_basis_of_the_same_lattice(case):
    # the pair lattices of the intersection oracle are four columns wide;
    # with three or more pivots the back-reduction must run top-down
    ncols, rows = case
    piv = row_hnf(rows, ncols)
    assert is_row_hnf(piv, ncols)
    assert all(in_row_lattice(piv, ncols, row) for row in rows)
    # rows lie in the lattice of piv; equal determinantal divisors make them span it
    if piv:
        assert determinantal_divisor(rows, len(piv)) == determinantal_divisor(piv, len(piv))
    else:
        assert not any(map(any, rows))


def test_row_hnf_reduces_above_every_pivot():
    # reducing row 0 by the pivot in column 1 pushes its column-2 entry out
    # of range unless column 2 is reduced afterwards
    piv = row_hnf([(1, 1, 0), (0, 1, 3), (0, 0, 5)], 3)
    assert piv == [(1, 0, 2), (0, 1, 3), (0, 0, 5)]


def row_hnf_reading(rows):
    """The data (a, b, c) read off the generic two-column row_hnf."""
    piv = row_hnf(rows, 2)
    if not piv:
        return (0, 0, 0)
    if len(piv) != 2 or piv[0][0] == 0 or piv[1][1] == 0:
        raise ValueError("lattice is not of full rank")
    return (*piv[0], piv[1][1])


def hnf_oracle(D, rows):
    """ideal_from_lattice as it reads row_hnf, with the same w check."""
    data = row_hnf_reading(rows)
    D._check_ideal_lattice(data)
    return data


def data_or_error(f, *args):
    """The value, or the message of the ValueError raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_kernel_matches_oracle(D, rows):
    mine = data_or_error(lambda: D.ideal_from_lattice(rows).data)
    assert mine == data_or_error(hnf_oracle, D, rows), rows
    assert data_or_error(domains._hnf2, rows) == data_or_error(row_hnf_reading, rows), rows


QUAD_DOMAINS = [ZSQ13, ZSQ2, QSQ7, *(parse_domain(f"Q(sqrt({m})) maximal") for m in (-1, -3))]
PAIR = st.tuples(HNF_ENTRY, HNF_ENTRY)


@st.composite
def kernel_cases(draw):
    D = draw(st.sampled_from(QUAD_DOMAINS))
    base = draw(st.lists(PAIR, max_size=6))
    how = draw(st.sampled_from(["raw", "ideal", "rank1", "repeat"]))
    if how == "ideal":  # closed under w, so most reach the w check and pass it
        rows = [r for x in base[:3] for r in (x, D.mul(x, (0, 1)))]
    elif how == "rank1":
        k = draw(st.lists(st.integers(-50, 50), max_size=6))
        x = base[0] if base else (0, 0)
        rows = [(m * x[0], m * x[1]) for m in k]
    elif how == "repeat":
        rows = (base[:3] * 2)[:6]
    else:
        rows = base
    return D, draw(st.permutations(rows))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases())
def test_rank2_kernel_matches_row_hnf(case):
    # ideal_from_lattice runs its own rank-2 kernel; row_hnf is the oracle
    D, rows = case
    assert_kernel_matches_oracle(D, rows)


def test_rank2_kernel_matches_row_hnf_on_recorded_traffic(monkeypatch, capsys):
    # every row list that the default suites (seed 0) and analyze --example
    # ex3_5 hand to ideal_from_lattice
    seen = {}
    original = domains.QuadraticDomain.ideal_from_lattice

    def recording(self, rows):
        seen[self, tuple(map(tuple, rows))] = None
        return original(self, rows)

    monkeypatch.setattr(domains.QuadraticDomain, "ideal_from_lattice", recording)
    for name in DEFAULT_SUITE_NAMES:
        assert run_suite(name, seed=0).failures == []
    assert main(["analyze", "--example", "ex3_5"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert len(seen) > 1000  # distinct (domain, rows) pairs; about 1,400 at seed 0
    for D, rows in seen:
        assert_kernel_matches_oracle(D, list(rows))


def pair_rows(D, L, M):
    """Rows (g, g) for the generators g of L and (h, 0) for those of M: in
    their HNF the rows (0, 0, x) span the intersection of L and M."""
    return [g + g for g in D.ideal_generators(L)] + [h + (0, 0) for h in D.ideal_generators(M)]


def pair_lattice_intersect(D, L, M):
    """Oracle: L cap M read off the four-column row HNF of the pair lattice."""
    piv = row_hnf(pair_rows(D, L.data, M.data), 4)
    return D.ideal_from_lattice([r[2:] for r in piv if r[0] == 0 and r[1] == 0])


# class number 2 for -5, -13 and -15; units beyond +-1 for -1 and -3
IDEAL_FIELDS = tuple(parse_domain(f"Q(sqrt({m})) maximal") for m in (-1, -2, -3, -5, -7, -13, -15))
SPLIT_PRIMES = tuple(
    (D, ell) for D in IDEAL_FIELDS for ell in (2, 3, 5, 7, 11, 13) if len(D._primes_above(ell)) == 2
)
ELEMENT = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(any)


@st.composite
def quadratic_ideal_pairs(draw):
    """(D, L, M, split): nonzero ideals from one or two random generators
    each, or L = P^e and M = Pbar^f for the two primes above a split prime."""
    if draw(st.booleans()):
        D, ell = draw(st.sampled_from(SPLIT_PRIMES))
        P, Pbar = draw(st.permutations(D._primes_above(ell)))
        return D, ideal_pow(P, draw(st.integers(1, 4))), ideal_pow(Pbar, draw(st.integers(1, 4))), True
    D = draw(st.sampled_from(IDEAL_FIELDS))
    L, M = (D.ideal_from_gens(draw(st.lists(ELEMENT, min_size=1, max_size=2))) for _ in "LM")
    return D, L, M, False


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=quadratic_ideal_pairs())
def test_quadratic_intersections_match_the_pair_lattice_oracle(case):
    # L cap M = L*M*conj(L + M)/N(L + M) against the generic four-column HNF
    D, L, M, split = case
    meet = ideal_arith("intersect", L, M)
    assert meet == pair_lattice_intersect(D, L, M)
    if split:  # coprime, so the intersection is the product
        assert meet == ideal_arith("product", L, M)


def test_quadratic_bezout_pairs_lie_in_their_ideals_and_stay_small():
    seen = []

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(case=quadratic_ideal_pairs())
    def check(case):
        D, L, M, split = case
        if not ideal_arith("sum", L, M).is_unit_ideal():
            with pytest.raises(ValueError, match="not coprime"):
                ideal_bezout(L, M)
            return
        x, y = ideal_bezout(L, M)
        assert L.contains(x) and M.contains(y) and D.add(x, y) == D.one()
        assert max(map(abs, x)) <= residue_norm(L) * residue_norm(M)
        seen.append((D.m, split))

    check()
    # every field and both kinds of pair reach the solver
    assert {m for m, _ in seen} == {D.m for D in IDEAL_FIELDS}
    assert {split for _, split in seen} == {True, False} and len(seen) >= 300


def test_quadratic_bezout_with_the_zero_ideal():
    for D in IDEAL_FIELDS:
        assert ideal_bezout(D.zero_ideal(), D.unit_ideal()) == (D.zero(), D.one())
        assert ideal_bezout(D.unit_ideal(), D.zero_ideal()) == (D.one(), D.zero())


def test_primes_above_are_built_once_per_domain_and_prime(monkeypatch):
    quadratic = [D for D in map(parse_domain, _RANDOM_DOMAINS) if isinstance(D, QuadraticDomain)]
    for D in quadratic:
        monkeypatch.setattr(D, "_primes", {})  # cold, as in a fresh process
    built = []
    real = QuadraticDomain._primes_above

    def counting(self, ell):
        built.append((id(self), ell))
        return real(self, ell)

    monkeypatch.setattr(QuadraticDomain, "_primes_above", counting)
    for name in DEFAULT_SUITE_NAMES:
        assert run_suite(name, seed=0).failures == []
    counts = collections.Counter(built)
    assert len(counts) >= 6 and set(counts.values()) == {1}
    # a warm domain factors as a cold one does
    rng = random.Random(29)
    for D in quadratic:
        for _ in range(40):
            I = random_ideal(D, rng)
            if not I.is_zero():
                cold = QuadraticDomain(D.m)
                assert factor_ideal(I).pairs == factor_ideal(Ideal(cold, I.data)).pairs
    assert len(built) > len(counts)  # the cold domains built theirs again


def rebuilt_powers_ideal_factors(D, I):
    """Oracle: the prime factorization of I, with every power P^k that is
    tested for containment rebuilt by products on each call."""
    pairs = []
    for ell in sorted(domains._factor_int(D.ideal_norm(I.data))):
        for P in D._primes_above(ell):
            e = 0
            Pk = P
            while Pk.contains_ideal(I):
                e += 1
                Pk = ideal_arith("product", Pk, P)
            if e:
                pairs.append((P, e))
    return sorted(pairs, key=lambda pe: (D.ideal_norm(pe[0].data), pe[0].data))


def test_prime_powers_are_built_once_per_domain(monkeypatch):
    # every lattice built under ideal_factors in the default suites is new:
    # the powers P^k stay beside the primes, so no product is formed twice
    quadratic = [D for D in map(parse_domain, _RANDOM_DOMAINS) if isinstance(D, QuadraticDomain)]
    for D in quadratic:
        monkeypatch.setattr(D, "_primes", {})  # cold, as in a fresh process
    depth, built = [], []
    real_factors = QuadraticDomain.ideal_factors
    real_lattice = QuadraticDomain.ideal_from_lattice

    def factors(self, data, cap):
        depth.append(data)
        try:
            return real_factors(self, data, cap)
        finally:
            depth.pop()

    def lattice(self, rows):
        if depth:
            built.append((self.m, tuple(map(tuple, rows))))
        return real_lattice(self, rows)

    monkeypatch.setattr(QuadraticDomain, "ideal_factors", factors)
    monkeypatch.setattr(QuadraticDomain, "ideal_from_lattice", lattice)
    for name in DEFAULT_SUITE_NAMES:
        assert run_suite(name, seed=0).failures == []
    counts = collections.Counter(built)
    assert len(counts) > 50 and set(counts.values()) == {1}
    # warm domains factor as the oracle that rebuilds every power does
    rng = random.Random(30)
    for D in quadratic:
        for _ in range(40):
            I = random_ideal(D, rng)
            if not I.is_zero():
                pairs = D.ideal_factors(I.data, domains.DEFAULT_FACTOR_CAP)
                assert pairs == rebuilt_powers_ideal_factors(D, I)


def random_ideal(D, rng):
    if isinstance(D, IntegerDomain):
        return Ideal(D, rng.randrange(1, 500))
    if isinstance(D, PolynomialDomain):
        deg = rng.randrange(0, 4)
        coeffs = [rng.randrange(D.q) for _ in range(deg)] + [1]
        return Ideal(D, tuple(coeffs))
    x = (rng.randrange(-6, 7), rng.randrange(-6, 7))
    y = (rng.randrange(-6, 7), rng.randrange(-6, 7))
    if x == (0, 0):
        x = (1, 1)
    I = D.principal_ideal(x)
    if y != (0, 0) and rng.random() < 0.5:
        I = ideal_arith("sum", I, D.principal_ideal(y))
    return I


@pytest.mark.parametrize("D", [Z, F3T, F9T, ZSQ13, ZSQ2])
def test_ideal_laws(D):
    rng = random.Random(1234)
    for _ in range(40):
        I = random_ideal(D, rng)
        J = random_ideal(D, rng)
        K = random_ideal(D, rng)
        assert ideal_arith("sum", I, J) == ideal_arith("sum", J, I)
        assert ideal_arith("product", I, J) == ideal_arith("product", J, I)
        assert ideal_arith("sum", ideal_arith("sum", I, J), K) == ideal_arith(
            "sum", I, ideal_arith("sum", J, K)
        )
        assert ideal_arith("product", ideal_arith("product", I, J), K) == ideal_arith(
            "product", I, ideal_arith("product", J, K)
        )
        prod = ideal_arith("product", I, J)
        inter = ideal_arith("intersect", I, J)
        total = ideal_arith("sum", I, J)
        assert inter.contains_ideal(prod)
        assert I.contains_ideal(inter)
        assert total.contains_ideal(I)
        assert ideal_arith("sum", I, I) == I
        assert ideal_arith("intersect", I, I) == I
        if not isinstance(D, QuadraticDomain):
            assert ideal_arith("product", total, inter) == prod


def test_zero_ideal_behaviour():
    zero = Z.zero_ideal()
    I = ideal(Z, "(6)")
    assert ideal_arith("sum", zero, I) == I
    assert ideal_arith("product", zero, I) == zero
    assert ideal_arith("intersect", zero, I) == zero
    with pytest.raises(ValueError):
        residue_norm(zero)
    with pytest.raises(ValueError):
        factor_ideal(zero)


def _ext_gcd(a, b):
    """Oracle: (g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def euclidean_elements(D):
    if D is Z:
        return st.integers(-10 ** 6, 10 ** 6)
    return st.lists(st.integers(0, D.q - 1), max_size=6).map(D._norm)


EUCLIDEAN_PAIRS = st.sampled_from([Z, F3T, F9T]).flatmap(
    lambda D: st.tuples(st.just(D), euclidean_elements(D), euclidean_elements(D))
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=EUCLIDEAN_PAIRS)
def test_euclidean_ideals_follow_ext_gcd(case):
    # Z and F_q[t] share one extended gcd and one ideal path
    D, a, b = case
    g, x, y = D.ext_gcd(a, b)
    assert g == D.add(D.mul(a, x), D.mul(b, y))
    I, J = D.principal_ideal(a), D.principal_ideal(b)
    total = ideal_arith("sum", I, J)
    prod = ideal_arith("product", I, J)
    inter = ideal_arith("intersect", I, J)
    assert total == Ideal(D, g)
    if D is Z:
        assert g >= 0 and (g, x, y) == _ext_gcd(a, b)
        assert total.data == math.gcd(a, b)
        assert prod.data == abs(a * b)
        assert inter.data == math.lcm(a, b)
    else:
        assert g == () or g[-1] == 1
        assert ideal_arith("product", total, inter) == prod


# ---------------------------------------------------------------------------
# factorization


def test_factor_examples():
    pf = factor_ideal(ideal(Z, "(12)"))
    assert [(str(p), e) for p, e in pf.pairs] == [("(2)", 2), ("(3)", 1)]
    pf = factor_ideal(ideal(F3T, "(t^2+t)"))
    assert [(str(p), e) for p, e in pf.pairs] == [("(t)", 1), ("(t+1)", 1)]


def test_factor_two_in_z_sqrt_minus2():
    # oracle: p = (w) squares to (2), checked through the HNF product
    p = ZSQ2.principal_ideal((0, 1))
    two = ZSQ2.principal_ideal((2, 0))
    assert ideal_arith("product", p, p) == two
    pf = factor_ideal(two)
    assert len(pf.pairs) == 1
    prime, e = pf.pairs[0]
    assert e == 2 and prime == p


def test_factor_split_inert_ramified():
    # -13: x^2 + 13 mod 7 has roots 1, 6 -> 7 splits
    roots = [r for r in range(7) if (r * r + 13) % 7 == 0]
    assert len(roots) == 2
    pf = factor_ideal(ZSQ13.principal_ideal((7, 0)))
    assert len(pf.pairs) == 2
    assert all(e == 1 and residue_norm(p) == 7 for p, e in pf.pairs)
    # x^2 + 13 mod 3 has no roots -> 3 inert
    assert all((r * r + 13) % 3 != 0 for r in range(3))
    pf = factor_ideal(ZSQ13.principal_ideal((3, 0)))
    assert len(pf.pairs) == 1 and residue_norm(pf.pairs[0][0]) == 9
    # 13 ramifies
    pf = factor_ideal(ZSQ13.principal_ideal((13, 0)))
    assert len(pf.pairs) == 1 and pf.pairs[0][1] == 2


@pytest.mark.parametrize("D", [Z, F3T, F9T, ZSQ13, ZSQ2, QSQ7])
def test_factor_round_trip(D):
    rng = random.Random(99)
    for _ in range(25):
        I = random_ideal(D, rng)
        if I.is_unit_ideal():
            continue
        pf = factor_ideal(I)
        assert pf.product() == I
        assert len({p.data for p, _ in pf.pairs}) == len(pf.pairs)


def test_factor_cap():
    with pytest.raises(CapExceeded):
        factor_ideal(ideal(Z, "(12)"), cap=5)


# ---------------------------------------------------------------------------
# crt_select


def crt_postcondition(factors, d):
    for p, e in factors:
        pe = ideal_pow(p, e)
        pe1 = ideal_arith("product", pe, p)
        assert pe.contains(d) and not pe1.contains(d)


def test_crt_examples():
    p2 = ideal(Z, "(2)")
    p3 = ideal(Z, "(3)")
    d = crt_select([(p2, 1), (p3, 0)])
    crt_postcondition([(p2, 1), (p3, 0)], d)

    t = ideal(F3T, "(t)")
    t1 = ideal(F3T, "(t+1)")
    d = crt_select([(t, 2), (t1, 1)])
    crt_postcondition([(t, 2), (t1, 1)], d)

    p = factor_ideal(ZSQ2.principal_ideal((2, 0))).pairs[0][0]
    # oracle: w^3 = -2w lies in p^3 but not p^4
    w3 = ZSQ2.mul(ZSQ2.mul((0, 1), (0, 1)), (0, 1))
    assert w3 == (0, -2)
    assert ideal_pow(p, 3).contains(w3) and not ideal_pow(p, 4).contains(w3)
    d = crt_select([(p, 3)])
    crt_postcondition([(p, 3)], d)


@pytest.mark.parametrize("D", [Z, F3T, ZSQ13])
def test_crt_random(D):
    rng = random.Random(4321)
    for _ in range(30):
        I = random_ideal(D, rng)
        if I.is_unit_ideal():
            continue
        pf = factor_ideal(I)
        factors = [(p, rng.randrange(0, e + 1)) for p, e in pf.pairs]
        d = crt_select(factors)
        crt_postcondition(factors, d)


def test_crt_duplicate_primes_rejected():
    p = ideal(Z, "(5)")
    with pytest.raises(ValueError):
        crt_select([(p, 1), (p, 2)])


def test_bezout_quadratic():
    I = ideal(ZSQ13, "(3)")
    J = ideal(ZSQ13, "(5)")
    x, y = ideal_bezout(I, J)
    assert I.contains(x) and J.contains(y)
    assert ZSQ13.add(x, y) == (1, 0)


# ---------------------------------------------------------------------------
# residue_norm


def test_residue_norm_examples():
    assert residue_norm(ideal(Z, "(12)")) == 12
    assert residue_norm(ideal(F9T, "(t)")) == 9
    assert residue_norm(ideal(ZSQ13, "(3)")) == 9


def test_residue_norm_multiplicative_on_coprime():
    rng = random.Random(7)
    for D in (Z, F3T, ZSQ13):
        for _ in range(25):
            I = random_ideal(D, rng)
            J = random_ideal(D, rng)
            if not ideal_arith("sum", I, J).is_unit_ideal():
                continue
            IJ = ideal_arith("product", I, J)
            assert residue_norm(IJ) == residue_norm(I) * residue_norm(J)


# ---------------------------------------------------------------------------
# the level condition


def test_condition_L_examples():
    r = condition_L(ideal(Z, "(3)"))
    assert not r.holds and r.failed_clause == "ii"
    assert [str(w) for w in r.witnesses] == ["(3)"]

    assert condition_L(ideal(Z, "(9)")).holds

    F2T = parse_domain("Fq[t] q=2")
    r = condition_L(ideal(F2T, "(t)"))
    assert not r.holds and r.failed_clause == "i"


def test_condition_L_holds_when_coprime_to_six():
    rng = random.Random(12)
    for D in (Z, F3T, ZSQ13):
        six = D.principal_ideal(D.from_int(6))
        for _ in range(40):
            q = random_ideal(D, rng)
            if q.is_zero():
                continue
            if ideal_arith("sum", q, six).is_unit_ideal():
                assert condition_L(q).holds


def test_condition_L_unit_ideal():
    assert condition_L(Z.unit_ideal()).holds


def test_quad_intersection_membership_oracle():
    # oracle: x is in the intersection lattice iff it is in both lattices
    rng = random.Random(77)
    for D in (ZSQ13, ZSQ2, QSQ7):
        for _ in range(15):
            I = random_ideal(D, rng)
            J = random_ideal(D, rng)
            K = ideal_arith("intersect", I, J)
            for u in range(-8, 9):
                for v in range(-8, 9):
                    x = (u, v)
                    assert K.contains(x) == (I.contains(x) and J.contains(x))


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(5000) if _is_prime(n)] == [
        n for n in range(5000) if n >= 2 and _factor_int(n) == {n: 1}
    ]
    # strong pseudoprimes to the first few prime bases, and primes near the caps
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051):
        assert not _is_prime(n)
    for n in (1000000000000037, 2 ** 61 - 1, 2 ** 64 - 59):
        assert _is_prime(n)
    with pytest.raises(CapExceeded):  # beyond the exact range, factoring refuses it
        _is_prime(10 ** 24 + 7)


def test_prime_power_detection():
    for q in range(2000):
        fact = _factor_int(q) if q else {}
        assert _prime_power(q) == (next(iter(fact.items())) if len(fact) == 1 else None)
    assert _prime_power(3 ** 40) == (3, 40)
    assert _prime_power((2 ** 32 - 5) ** 2) == (2 ** 32 - 5, 2)
    assert _prime_power(2 ** 32 * 3) is None
    with pytest.raises(CapExceeded):
        _prime_power(2 ** 64 + 1)


def test_large_prime_field_is_refused_by_the_ring_cap():
    with pytest.raises(CapExceeded, match="ring cap 65536"):
        parse_domain("Fq[t] q=1000000000000037")
    with pytest.raises(CapExceeded, match="ring cap 65536"):
        parse_domain("Fq[t] q=65539")
    assert len(parse_domain("Fq[t] q=65537").units) == 65536


@pytest.mark.parametrize(
    "D, text, value",
    [
        (Z, "(9)^5", 9 ** 5),
        (Z, "(2)^1024", 2 ** 1024),
        (Z, "-(3)^7*(2)^0+1", -(3 ** 7) + 1),
        (F3T, "(1+t)^9", (1,) + (0,) * 8 + (1,)),
        (F3T, "t^1024", (0,) * 1024 + (1,)),
        (F3T, "t^512*t^512", (0,) * 1024 + (1,)),
        (F3T, "t^00000002", (0, 0, 1)),
    ],
)
def test_powers_square_and_multiply_within_the_degree_cap(D, text, value):
    assert D.parse_element(text) == value


@pytest.mark.parametrize(
    "text", ["(9)^9999999", "(9)^1025", "t^1025", "((1+t)^100)^100", "t^600*t^600", "2*t^1024",
             "t^" + "9" * 5000]
)
def test_element_text_above_the_degree_cap_is_refused(text):
    with pytest.raises(CapExceeded, match=f"cap {TEXT_DEGREE_CAP}"):
        F3T.parse_element(text)


def test_power_matches_repeated_products():
    for D, base in ((Z, "2-5"), (F9T, "u*t+2"), (QSQ7, "1-2*w")):
        x = D.parse_element(base)
        expected = D.one()
        for k in range(20):
            assert D.parse_element(f"({base})^{k}") == expected
            expected = D.mul(expected, x)
