"""Congruence screening for finite-index subgroups of the modular group.

Subgroups are given projectively (they contain -I) as a pair of
permutations: the action of the order-2 generator S and the translation T
on the cosets of the subgroup, with base point 0.  The composition
convention is the right action: a word acts letter by letter, left to
right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm

from .domains import CapExceeded, InternalCheckError, ParseError, _factor_int, _power
from .matgroups import DEFAULT_GROUP_CAP, FinMatGroup, _ops, full_sl2, sl2_order_from_factors
from .quotients import integer_quotient
from .subgroups import DenseGroup

DEFAULT_ENUM_CAP = 12


@dataclass(frozen=True)
class PermRep:
    """A finite-index subgroup of the projective modular group."""

    n: int
    S: tuple
    T: tuple

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ParseError(f"a permrep needs at least one point, got n = {n}")
        for name, p in (("S", self.S), ("T", self.T)):
            if len(p) != n or sorted(p) != list(range(n)):
                raise ParseError(f"{name} is not a permutation of {n} points")
        if not _acts_alike(n, [self.S] * 2, []):
            raise ParseError("S must square to the identity")
        if not _acts_alike(n, [self.S, self.T] * 3, []):
            raise ParseError("S*T must have order dividing 3")
        reached = {0}
        frontier = [0]
        while frontier:
            c = frontier.pop()
            for p in (self.S, self.T):
                if p[c] not in reached:
                    reached.add(p[c])
                    frontier.append(p[c])
        if len(reached) != n:
            raise ParseError("the action is not transitive")

    @classmethod
    def _built(cls, n, S, T):
        """A permrep whose builder guarantees what __post_init__ checks."""
        rep = object.__new__(cls)
        rep.__dict__.update(n=n, S=S, T=T)
        return rep

    def to_json(self):
        return {"n": self.n, "S": list(self.S), "T": list(self.T)}


def parse_permrep(data):
    """Validate a decoded {"n", "S", "T"} mapping into a PermRep."""
    if not isinstance(data, dict) or not {"n", "S", "T"} <= set(data):
        raise ParseError('permrep JSON needs keys "n", "S", "T"')
    n, S, T = data["n"], data["S"], data["T"]
    arrays = isinstance(S, (list, tuple)) and isinstance(T, (list, tuple))
    if not arrays or any(type(x) is not int for x in (n, *S, *T)):  # no bool, float or str
        raise ParseError('permrep "n" must be an integer and "S", "T" arrays of integers')
    return PermRep(n, tuple(S), tuple(T))


@dataclass(frozen=True)
class CuspSplit:
    """Sorted multiset of T-cycle lengths; the level is their lcm."""

    lengths: tuple
    level: int
    cycles: tuple = field(default=(), compare=False, repr=False)  # T's, for the exact test

    @property
    def index(self):
        return sum(self.lengths)


def cusp_split(rep):
    cycles = _cycles(rep.T)
    lengths = sorted(map(len, cycles))
    return CuspSplit(tuple(lengths), lcm(*lengths), tuple(cycles))


def _cycles(p):
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if not seen[start]:
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = p[x]
            out.append(cyc)
    return out


@dataclass(frozen=True)
class LarcherVerdict:
    passed: bool
    gcd_attained: bool
    lcm_attained: bool

    def failure(self):
        if self.passed:
            return None
        parts = []
        if not self.gcd_attained:
            parts.append("min")
        if not self.lcm_attained:
            parts.append("max")
        return "+".join(parts)


def larcher_check(split):
    """The gcd and the lcm of the cusp widths must both be widths."""
    g_in = gcd(*split.lengths) in split.lengths
    l_in = split.level in split.lengths
    return LarcherVerdict(g_in and l_in, g_in, l_in)


# ---------------------------------------------------------------------------
# PSL2(Z/n) on the packed-code layer


def projective_group_order(n, cap=DEFAULT_GROUP_CAP):
    """|PSL2(Z) : level-n kernel| = |SL2(Z/n)|, halved for n > 2; n >= 1.

    n is factored directly, with no ideal formed, once per n in a bounded
    cache; n and the cap are checked on every call, as every screen calls this.
    """
    if n < 1:
        raise ValueError("the level must be at least 1")
    order = _projective_order(n)
    if order > cap:
        raise CapExceeded(f"PSL2(Z/{n}) of order {order} exceeds cap {cap}")
    return order


@lru_cache(maxsize=64)
def _projective_order(n):
    return sl2_order_from_factors(_factor_int(n).items()) // (2 if n > 2 else 1)


def psl2_group(n, cap=DEFAULT_GROUP_CAP):
    """PSL2(Z/n) on generators S, T; each label is the smaller code of +-x."""
    projective_group_order(n, cap)
    ring = integer_quotient(n)
    ops = _ops(ring)

    def label(x):
        return min(x, ops.mneg(x))

    gens = [label(ops.encode(*map(ring.reduce, m))) for m in ((0, -1, 1, 0), (1, 1, 0, 1))]  # S, T
    # |SL2(Z/n)| <= 2 |PSL2(Z/n)|, which the order check bounded by cap
    labels = sorted({label(x) for x in full_sl2(ring, 2 * cap).elements})
    index = {x: i for i, x in enumerate(labels)}
    signed = {ops.mneg(x): i for x, i in index.items()} | index  # +-x -> the index of its label
    return DenseGroup(
        index, lambda i, j: signed[ops.mmul(labels[i], labels[j])], label(ops.identity), gens
    )


def sl2_preimage(ring, P, elems, gens):
    """The SL2(Z/n) preimage over ring = Z/n of the subgroup elems = <gens> of P = psl2_group(n):
    <labels of gens, last first, then -I>, which lies in it; raises InternalCheckError unless it
    has its order. A class rep's later generators extend larger groups, so taken first they
    leave the constructor more of the earlier ones to drop."""
    ops = _ops(ring)
    signs = {ops.identity, ops.mneg(ops.identity)}
    labels = [P.labels[g] for g in reversed(gens)]
    group = FinMatGroup(ring, labels + sorted(signs - {ops.identity}))
    if group.order != len(elems) * len(signs):
        raise InternalCheckError("the generators do not give the SL2 preimage of the subgroup")
    return group


@dataclass(frozen=True)
class IndexLevelVerdict:
    index_at_least_level: bool
    index_divides_order: bool
    projective_order: int

    @property
    def passed(self):
        return self.index_at_least_level and self.index_divides_order


def index_level_checks(rep, split=None, cap=DEFAULT_GROUP_CAP):
    """The index must be >= the level and divide the level-kernel index."""
    split = cusp_split(rep) if split is None else split
    order = projective_group_order(split.level, cap)
    return IndexLevelVerdict(rep.n >= split.level, order % rep.n == 0, order)


@dataclass(frozen=True)
class CongruenceVerdict:
    congruence: bool
    level: int


def exact_congruence_test(rep, split=None, cap=DEFAULT_GROUP_CAP):
    """Whether the subgroup contains the level-N kernel, N the lcm of the
    cusp widths; by Wohlfahrt's theorem that decides congruence.

    Hsu's test (Proc. AMS 124, 1996) on L = T and R = S*T^-1*S = [[1,0],[1,1]],
    with the relations of _hsu_relations(N), built once per level.  L^k sends
    cyc[i] to cyc[(i + k) % len(cyc)] on each T-cycle, and R^k = S L^-k S;
    each relation builds the tables it first uses and is checked point by point.
    """
    split = cusp_split(rep) if split is None else split
    N = split.level
    projective_group_order(N, cap)
    S = rep.S
    where = [None] * rep.n  # each point's T-cycle, offset in it, and its length
    for cyc in split.cycles or _cycles(rep.T):
        for i, x in enumerate(cyc):
            where[x] = cyc, i, len(cyc)
    tables = []
    for first, lhs, rhs in _hsu_relations(N):
        tables += [
            [cyc[(i + k) % m] for cyc, i, m in where]
            if g == "L"
            else [S[cyc[(i - k) % m]] for cyc, i, m in map(where.__getitem__, S)]
            for g, k in first
        ]
        if not _acts_alike(rep.n, [tables[j] for j in lhs], [tables[j] for j in rhs]):
            return CongruenceVerdict(False, N)
    return CongruenceVerdict(True, N)


@lru_cache(maxsize=64)
def _hsu_relations(N):
    """Hsu's relations at level N: per relation, the powers (generator, k mod N)
    it is the first to use, and its two words as places among all powers so far.

    N = e*m, e a power of 2 and m odd; c = 1 mod m, c = 0 mod e, d = 1 - c;
    h = 1/2 mod m, f = 1/5 mod e.  With a = L^c, b = R^c, l = L^d, r = R^d,
    s = l^20 r^f l^-4 r^-1 and u = l r^-1 l, the subgroup is congruence iff
    a^-1 r^-1 a r = 1, (a b^-1 a)^4 = 1, (a b^-1 a)^2 = (b^-1 a)^3 =
    (b^2 a^-h)^3, u^-1 s u s = 1, s^-1 r s = r^25 and u^2 = (s r^5 l r^-1 l)^3.
    """
    e = N & -N
    m = N // e
    c = e * pow(e, -1, m) % N
    d = (1 - c) % N
    h, f = pow(2, -1, m), pow(5, -1, e)
    a, l, r = ("L", c), ("L", d), ("R", d)
    a_, b_, l_, r_ = ("L", -c), ("R", -c), ("L", -d), ("R", -d)  # x_ = x^-1
    s = [("L", 20 * d), ("R", f * d), ("L", -4 * d), r_]
    s_ = [r, ("L", 4 * d), ("R", -f * d), ("L", -20 * d)]
    u, u_ = [l, r_, l], [l_, r, l_]
    # relations in a and b alone hold trivially when c = 0, in l and r alone when d = 0
    relations = [([a_, r_, a, r], [])] if c and d else []
    if c:
        relations += [
            ([a, b_, a] * 4, []),
            ([a, b_, a] * 2, [b_, a] * 3),
            ([a, b_, a] * 2, [("R", 2 * c), ("L", -c * h)] * 3),
        ]
    if d:
        relations += [
            (u_ + s + u + s, []),
            (s_ + [r] + s, [("R", 25 * d)]),
            (u * 2, (s + [("R", 5 * d)] + u) * 3),
        ]
    places = {}  # (generator, k mod N) -> its place, in order of first use; k = 0 is dropped
    out = []
    for lhs, rhs in relations:
        known = len(places)
        words = [
            tuple(places.setdefault((g, k % N), len(places)) for g, k in w if k % N)
            for w in (lhs, rhs)
        ]
        out.append((tuple(places)[known:], *words))
    return tuple(out)


def _acts_alike(n, lhs, rhs):
    """Whether two words of permutations send every point to the same point."""
    for x in range(n):
        y = z = x
        for p in lhs:
            y = p[y]
        for p in rhs:
            z = p[z]
        if y != z:
            return False
    return True


def coset_permrep(G, subgroup_indices):
    """The action of G's generators S, T on the right cosets of a subgroup.

    The subgroup's own coset is point 0, the base point, and the others
    follow by least element.  Cosets are pushed as blocks, Kx·g being the
    block [y·g for y in Kx].  Raises InternalCheckError unless S^2 = (ST)^3 = 1
    in G and the set holds the identity and its blocks tile G, moving as one.
    """
    s, t = G.gens
    if G.mul(s, s) != G.identity or _power(G.mul(s, t), 3, G.mul, G.identity) != G.identity:
        raise InternalCheckError("the generators of G are not S, T of the modular group")
    K = sorted(subgroup_indices)
    label = [-1] * G.size
    for y in K:
        label[y] = 0
    blocks = [K]
    for block in blocks:  # blocks grows as cosets are found
        for rmul in G.right_actions:
            if label[rmul[block[0]]] < 0:
                image = [rmul[y] for y in block]
                for y in image:
                    label[y] = len(blocks)
                blocks.append(image)
    perms = [[label[rmul[block[0]]] for block in blocks] for rmul in G.right_actions]
    if G.identity not in K or len(blocks) * len(K) != G.size or -1 in label or any(
        list(map(label.__getitem__, rmul)) != list(map(perm.__getitem__, label))
        for rmul, perm in zip(G.right_actions, perms)
    ):
        raise InternalCheckError("the blocks are not the cosets of a subgroup")
    order = [0, *filter(None, dict.fromkeys(label))]  # then by least element
    point = dict(zip(order, range(len(order))))
    S, T = (tuple(point[perm[c]] for c in order) for perm in perms)
    return PermRep._built(len(blocks), S, T)  # transitive: the blocks are one orbit


# ---------------------------------------------------------------------------
# low-index enumeration


def low_index_enumerate(max_index):
    """All subgroups of the projective modular group of index <= max_index,
    up to conjugacy, as standardized permutation representations.

    Backtracks over coset tables of the order-2 generator x and the
    order-3 generator z = S*T, introducing cosets in scan order so each
    subgroup appears exactly once; a complete table is kept only if it is
    canonical, the least over its rebasings, which leaves one per conjugacy
    class.
    """
    if max_index < 1:
        raise ValueError(f"max index must be at least 1, got {max_index}")
    if max_index > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"enumeration index {max_index} above cap {DEFAULT_ENUM_CAP}")
    out = []
    sx = [-1] * max_index
    sy = [-1] * max_index
    pre_y = [-1] * max_index

    def assign_y(i, j, trail):
        if sy[i] >= 0:
            return sy[i] == j
        if pre_y[j] >= 0:
            return pre_y[j] == i
        sy[i] = j
        pre_y[j] = i
        trail.append(i)
        if j == i:
            return True
        k = sy[j]
        if k >= 0:
            if k == i:
                return False  # a 2-cycle cannot close to order 3
            return assign_y(k, i, trail)
        h = pre_y[i]
        if h >= 0 and h != j:
            return assign_y(j, h, trail)
        return True

    def undo_y(trail):
        for i in trail:
            pre_y[sy[i]] = -1
            sy[i] = -1

    def first_slot(ncos):
        for i in range(ncos):
            if sx[i] < 0:
                return i, "x"
            if sy[i] < 0:
                return i, "y"
        return None

    def dfs(ncos):
        slot = first_slot(ncos)
        if slot is None:
            x, z = sx[:ncos], sy[:ncos]
            if _is_canonical(x, z):
                # T = x * z; x^2 = z^3 = 1 and the table is connected, so no check
                out.append(PermRep._built(ncos, tuple(x), tuple(z[j] for j in x)))
            return
        i, kind = slot
        limit = min(ncos + 1, max_index)
        if kind == "x":
            for j in range(limit):
                if j < ncos and sx[j] >= 0 and j != i:
                    continue
                sx[i] = j
                sx[j] = i
                dfs(max(ncos, j + 1))
                sx[i] = -1
                if j != i:
                    sx[j] = -1
        else:
            for j in range(limit):
                if j < ncos and pre_y[j] >= 0:
                    continue
                trail = []
                if assign_y(i, j, trail):
                    dfs(max(ncos, j + 1))
                undo_y(trail)

    dfs(1)
    out.sort(key=lambda r: (r.n, r.S, r.T))
    return out


def _is_canonical(sx, sy):
    """Whether the table (sx, sy), numbered breadth first from coset 0, is the
    least (nsx, nsy) that numbering breadth first from any base gives.  Each
    base stops at its first entry that differs: nsx[k] is known at coset k."""
    n = len(sx)
    for base in range(1, n):
        new = [-1] * n
        new[base] = 0
        order = [base]
        for k in range(n):  # order grows as cosets are reached
            c = order[k]
            for img in (sx[c], sy[c]):
                if new[img] < 0:
                    new[img] = len(order)
                    order.append(img)
            v = new[sx[c]]
            if v < sx[k]:
                return False
            if v > sx[k]:
                break
        else:  # nsx == sx: nsy decides
            for k, c in enumerate(order):
                v = new[sy[c]]
                if v < sy[k]:
                    return False
                if v > sy[k]:
                    break
    return True


# ---------------------------------------------------------------------------
# screen driver


def _screens(rep, split, cap, screens):
    """Run the screens in order, each adding its entries to screens, and yield
    each one's verdict if it fails (None if it passes); a generator, so a screen
    runs only when the one before it has been read."""
    larcher = larcher_check(split)
    screens["larcher"] = larcher.passed
    yield None if larcher.passed else f"non-congruence (larcher {larcher.failure()})"
    il = index_level_checks(rep, split, cap)
    screens["index_at_least_level"] = il.index_at_least_level
    yield None if il.index_at_least_level else "non-congruence (index below level)"
    screens["index_divides_kernel_index"] = il.index_divides_order
    screens["kernel_index"] = il.projective_order
    yield None if il.index_divides_order else "non-congruence (index does not divide kernel index)"
    exact = exact_congruence_test(rep, split, cap)
    screens["exact"] = exact.congruence
    yield None if exact.congruence else "non-congruence (exact test)"


def screen_permrep(rep, run_all=False, cap=DEFAULT_GROUP_CAP):
    """Run the screens in order; stops at the first failure unless run_all."""
    split = cusp_split(rep)
    out = {"index": rep.n, "cusp_split": list(split.lengths), "level": split.level, "screens": {}}
    verdict = None
    for failure in _screens(rep, split, cap, out["screens"]):
        if failure and verdict is None:
            verdict = failure
            if not run_all:
                break
    out["verdict"] = verdict or f"congruence, level {split.level}"
    return out
