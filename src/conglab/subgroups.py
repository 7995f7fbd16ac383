"""Dense finite-group utilities for exhaustive subgroup surveys.

A DenseGroup re-indexes any finite group's elements as 0..n-1 and has one
product path, a function on these indices; `mul` keeps the products it
computes, so subgroup-lattice enumeration runs on small integers in
memory that grows with the products used, not with n^2. A group of matrices
takes its kernel from matgroups (`FinMatGroup.index_kernel`), so this
module never reads a ring table or a packed code.
One walk of each maximal cyclic subgroup gives every inverse and every
cyclic subgroup's least generator.
Subgroup classes come from cyclic extension by zuppos, the cyclic
subgroups of prime-power order (Neubüser, Numer. Math. 2, 1960; Holt,
Eick and O'Brien, Handbook of Computational Group Theory, 4.4): H extends
by a zuppo <g> of order p^a when g normalises H, g is not in H and g^p
is; a class's normaliser order and the subgroups already found spare
most of the tests and joins. A non-solvable group falls back to joining
every class with every zuppo; both paths read one zuppo list, built once
per group. Each join is Dimino's coset extension by one generator
(`extend_closure`), the library's one group closure.
"""

from __future__ import annotations

from functools import cached_property, partial

from .domains import CapExceeded, _factor_int
from .matgroups import DEFAULT_GROUP_CAP, _ops


class DenseGroup:
    """A finite group on dense indices: index maps each label to its place
    0..n-1 and kernel(i, j) is the index of the product. mul keeps each
    product it computes in a dict keyed by i*n + j."""

    def __init__(self, index, kernel, identity_label, gen_labels):
        self.index = index
        self.labels = list(index)
        self.size = len(self.labels)
        self.kernel = kernel
        self.products = {}
        self.identity = index[identity_label]
        self.gens = [index[g] for g in gen_labels]

    @classmethod
    def from_matgroup(cls, group):
        """The group on its sorted codes, multiplied by its index kernel."""
        identity = _ops(group.ring).identity
        return cls(*group.index_kernel(), identity, group.gens or [identity])

    def mul(self, i, j):
        k = i * self.size + j
        v = self.products.get(k)
        if v is None:
            v = self.products[k] = self.kernel(i, j)
        return v

    @cached_property
    def right_actions(self):
        """For each generator g, the map x -> xg on indices, by the kernel uncached."""
        return [[self.kernel(x, g) for x in range(self.size)] for g in self.gens]

    @cached_property
    def conjugations(self):
        """For each generator g, x -> g^-1 x g = (x^-1 g)^-1 g, read off right_actions."""
        inv = self.inv
        return [[r[inv[r[inv[x]]]] for x in range(self.size)] for r in self.right_actions]

    @cached_property
    def _cyclic(self):
        """(inv, zuppos) from one walk P = [1, g, ..., g^(m-1)] of <g> for each
        g, in index order, outside the cyclic subgroups already walked, so
        each maximal cyclic subgroup is walked once, by the kernel uncached.
        On it (g^k)^-1 = g^(m-k), and the subgroup of order q | m is the
        P[s*j], s = m/q, generated by those with j prime to q. zuppos holds
        (x, x^p, p, q) for the least generator x of each cyclic subgroup of
        order q = p^a > 1, sorted by (order, sorted elements)."""
        e, kernel = self.identity, self.kernel
        inv = [-1] * self.size
        found = {}  # least generator -> (zuppo, sort key)
        for g in range(self.size):
            if inv[g] >= 0:
                continue
            P, x = [e], g
            while x != e:
                P.append(x)
                x = kernel(x, g)
            m = len(P)
            for k, x in enumerate(P):
                inv[x] = P[-k]
            for p, a in _factor_int(m).items():
                for q in (p ** i for i in range(1, a + 1)):
                    s = m // q
                    k = min((s * j for j in range(1, q) if j % p), key=P.__getitem__)
                    if P[k] not in found:
                        key = _subgroup_key([P[s * j] for j in range(q)])
                        found[P[k]] = (P[k], P[k * p % m], p, q), key
        return inv, [z for z, _ in sorted(found.values(), key=lambda item: item[1])]

    inv = property(lambda self: self._cyclic[0])
    zuppos = property(lambda self: self._cyclic[1])


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


def _subgroup_key(elems):
    return len(elems), sorted(elems)


def subgroup_classes(G):
    """All subgroups of G up to conjugacy.

    Returns (reps, seen): reps is a list of (elements frozenset, generator
    tuple) per class, seen maps every subgroup's element set to its class
    index (so seen's keys enumerate all subgroups of G). Each class is
    represented by its member of least sorted elements, and reps are sorted
    by (order, sorted elements), so neither depends on the search.
    """
    reps, seen = _classes(G, partial(_cyclic_extensions, G, G.zuppos))
    if frozenset(range(G.size)) not in seen:  # G is not solvable
        reps, seen = _classes(G, _prime_power_joins(G, G.zuppos))
    order = sorted(range(len(reps)), key=lambda c: _subgroup_key(reps[c][0]))
    renumber = {c: i for i, c in enumerate(order)}
    return [reps[c] for c in order], {s: renumber[c] for s, c in seen.items()}


def conjugates(G, elems, gens):
    """{member: generators} over the class of the subgroup elems = <gens>: a
    walk along G.conjugations that carries each member's generators with it."""
    walk, stack = {elems: tuple(gens)}, [elems]
    while stack:
        current = stack.pop()
        for perm in G.conjugations:
            conj = frozenset(map(perm.__getitem__, current))
            if conj not in walk:
                walk[conj] = tuple(map(perm.__getitem__, walk[current]))
                stack.append(conj)
    return walk


def _classes(G, extensions):
    """Classes closed under extensions(H, gens, |N_G(H)|, known) -> (<H, g>, g), each walked
    by `conjugates`; known maps (order, zuppo g) to the subgroups found of that order holding g."""
    seen, reps, normalisers, known = {}, [], [], {}
    zuppo_gens = frozenset(g for g, *_ in G.zuppos)

    def register(elems, gens):
        if elems in seen:
            return
        members = conjugates(G, elems, gens)
        for member in members:
            seen[member] = len(reps)
            for g in member & zuppo_gens:
                known.setdefault((len(member), g), []).append(member)
        least = min(map(min, members))  # the least sorted member starts with it
        rep = min((member for member in members if least in member), key=sorted)
        reps.append((rep, members[rep]))
        normalisers.append(G.size // len(members))  # the orbit-stabiliser theorem

    register(frozenset({G.identity}), ())
    for c, (elems, gens) in enumerate(reps):  # reps grows as classes are found
        for joined, g in extensions(elems, gens, normalisers[c], known):
            register(joined, gens + (g,))
    return reps, seen


def _cyclic_extensions(G, zuppos, H, gens, normaliser, known):
    """<H, g> for each zuppo g normalising H with gH of prime order p, that
    is g not in H and g^p in H. If |K/H| = p, K = <H, g> for g the p-part of
    any element of K outside H, so the zuppos reach every such K.

    normaliser and known only spare work (0 and {} spare none): <H, g>/H lies
    in N_G(H)/H, so p divides |N_G(H) : H| for normaliser = |N_G(H)|; and a
    known S of order p|H| holding H and g holds <H, g> when g normalises H,
    which has its order, so S = <H, g>. When p is also the least prime
    dividing |S|, H has index p in S, so it is normal there and g needs no test."""
    covered = set(H)
    index = normaliser // len(H)  # 0: every p divides it
    least = next(iter(_factor_int(len(H))), 0)  # least prime dividing |H|; 0: H is trivial, no gens
    products, size, kernel, inv = G.products, G.size, G.kernel, G.inv

    def normalises(g):  # g^-1 h g in H for each generator h, through the product cache
        for h in gens:
            k = inv[g] * size + h
            x = products.get(k)
            if x is None:
                x = products[k] = kernel(inv[g], h)
            k = x * size + g
            y = products.get(k)
            if y is None:
                y = products[k] = kernel(x, g)
            if y not in H:
                return False
        return True

    for g, gp, p, _ in zuppos:
        if g in covered or index % p or gp not in H:
            continue
        joined = None  # a loop, as a generator per candidate cost 5 % of the search
        for S in known.get((p * len(H), g), ()):
            if H <= S:
                joined = S
                break
        if (joined is None or p > least) and not normalises(g):
            continue
        if joined is None:  # its products seldom recur, unlike those of the fallback's joins
            joined = frozenset(extend_closure(H, gens, g, G.kernel))
        covered |= joined  # joined/H has prime order: every g' in joined \ H gives joined
        yield joined, g


def _prime_power_joins(G, zuppos):
    """<H, g> for every zuppo g outside H; every subgroup is such a join."""
    return lambda H, gens, *_: (
        (frozenset(extend_closure(H, gens, g, G.mul)), g) for g, *_ in zuppos if g not in H
    )


def all_subgroups(seen):
    """Every subgroup element set, deterministically ordered."""
    return sorted(seen, key=_subgroup_key)
