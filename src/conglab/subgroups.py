"""Dense finite-group utilities for exhaustive subgroup surveys.

A DenseGroup re-indexes any finite group's elements as 0..n-1 and caches
the products it computes, so subgroup-lattice enumeration runs on small
integers in memory that grows with the products used, not with n^2.
Subgroup classes come from cyclic extension by zuppos, the cyclic
subgroups of prime-power order (Neubüser, Numer. Math. 2, 1960; Holt,
Eick and O'Brien, Handbook of Computational Group Theory, 4.4): H extends
by a zuppo <g> of order p^a when g normalises H, g is not in H and g^p
is. A non-solvable group falls back to joining every class with every
zuppo; both paths read one zuppo list, built once per group.
"""

from __future__ import annotations

from functools import cached_property

from .domains import _factor_int
from .matgroups import extend_closure


class DenseGroup:
    """A finite group on dense indices whose products are computed from
    mul_label on first use and kept in a dict keyed by i*n + j."""

    def __init__(self, labels, mul_label, identity_label, gen_labels):
        self.labels = list(labels)
        self.index = {x: i for i, x in enumerate(self.labels)}
        n = len(self.labels)
        self.size = n
        self._mul_label = mul_label
        self.products = {}
        self.identity = self.index[identity_label]
        self.inv = [-1] * n
        for g in range(n):
            if self.inv[g] < 0:  # (g^k)^-1 = g^(m-k) in the cyclic group <g> of order m
                powers = self.powers(g)
                for k, x in enumerate(powers):
                    self.inv[x] = powers[-k]
        self.gens = [self.index[g] for g in gen_labels]

    @classmethod
    def from_matgroup(cls, group):
        from .matgroups import _ops

        ops = _ops(group.ring)
        return cls(
            group.sorted_elements(), ops.mmul, ops.identity, group.gens or
            [ops.identity]
        )

    def mul(self, i, j):
        k = i * self.size + j
        v = self.products.get(k)
        if v is None:
            v = self.products[k] = self.index[self._mul_label(self.labels[i], self.labels[j])]
        return v

    @cached_property
    def right_actions(self):
        """For each generator g, the map x -> xg on indices."""
        return [[self.mul(x, g) for x in range(self.size)] for g in self.gens]

    def conj(self, x, g):
        return self.mul(self.mul(self.inv[g], x), g)

    def powers(self, g):
        """[1, g, g^2, ...], one entry per element of the cyclic group <g>."""
        out = [self.identity]
        acc = g
        while acc != self.identity:
            out.append(acc)
            acc = self.mul(acc, g)
        return out


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
    zuppos = _zuppos(G)
    perms = [(g, [G.conj(x, g) for x in range(G.size)]) for g in G.gens]
    reps, seen = _classes(G, perms, lambda H, gens: _cyclic_extensions(G, zuppos, H, gens))
    if frozenset(range(G.size)) not in seen:  # G is not solvable
        reps, seen = _classes(G, perms, _prime_power_joins(G, zuppos))
    order = sorted(range(len(reps)), key=lambda c: _subgroup_key(reps[c][0]))
    renumber = {c: i for i, c in enumerate(order)}
    return [reps[c] for c in order], {s: renumber[c] for s, c in seen.items()}


def _zuppos(G):
    """(g, g^p) for one generator g of each cyclic subgroup of order p^a > 1,
    sorted by (order, sorted elements)."""
    cyclics = {}
    for g in range(G.size):
        if G.inv[g] >= g:  # <g^-1> = <g>
            powers = G.powers(g)
            primes = list(_factor_int(len(powers)))
            if len(primes) == 1:
                cyclics.setdefault(frozenset(powers), (g, powers[primes[0] % len(powers)]))
    return [cyclics[c] for c in sorted(cyclics, key=_subgroup_key)]


def _classes(G, perms, extensions):
    """Classes closed under extensions(H, gens), which yields (<H, g>, g);
    perms pairs each generator g of G with x -> g^-1 x g on indices."""
    seen, reps = {}, []

    def register(elems, gens):
        if elems in seen:
            return
        conjugator = {elems: G.identity}  # member -> x with member = x^-1 elems x
        stack = [elems]
        while stack:
            current = stack.pop()
            for g, perm in perms:
                conj = frozenset(map(perm.__getitem__, current))
                if conj not in conjugator:
                    conjugator[conj] = G.mul(conjugator[current], g)
                    stack.append(conj)
        for member in conjugator:
            seen[member] = len(reps)
        rep = min(conjugator, key=sorted)
        reps.append((rep, tuple(G.conj(h, conjugator[rep]) for h in gens)))

    register(frozenset({G.identity}), ())
    for elems, gens in reps:  # reps grows as classes are found
        for joined, g in extensions(elems, gens):
            register(joined, gens + (g,))
    return reps, seen


def _cyclic_extensions(G, zuppos, H, gens):
    """<H, g> for each zuppo g normalising H with gH of prime order p, that
    is g not in H and g^p in H. If |K/H| = p, K = <H, g> for g the p-part of
    any element of K outside H, so the zuppos reach every such K."""
    covered = set(H)
    for g, gp in zuppos:
        if g in covered or gp not in H or any(G.conj(h, g) not in H for h in gens):
            continue
        joined = frozenset(extend_closure(H, gens, g, G.mul))
        covered |= joined  # joined/H has prime order: every g' in joined \ H gives joined
        yield joined, g


def _prime_power_joins(G, zuppos):
    """<H, g> for every zuppo g outside H; every subgroup is such a join."""
    return lambda H, gens: (
        (frozenset(extend_closure(H, gens, g, G.mul)), g) for g, _ in zuppos if g not in H
    )


def all_subgroups(seen):
    """Every subgroup element set, deterministically ordered."""
    return sorted(seen, key=_subgroup_key)
