"""Dense finite-group utilities for exhaustive subgroup surveys.

A DenseGroup re-indexes any finite group's elements as 0..n-1 with a flat
Cayley table filled on demand, so subgroup-lattice enumeration runs on
small integers. Subgroup classes come from cyclic extension (Neubüser,
Numer. Math. 2, 1960; Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 4.4); a non-solvable group falls back to joining every class
with every cyclic subgroup of prime-power order.
"""

from __future__ import annotations

from .domains import _factor_int
from .matgroups import extend_closure


class DenseGroup:
    """A finite group on dense indices with a flat multiplication table whose
    entries start as -1 and are filled, idempotently, from mul_label on first use."""

    def __init__(self, labels, mul_label, identity_label, gen_labels):
        self.labels = list(labels)
        self.index = {x: i for i, x in enumerate(self.labels)}
        n = len(self.labels)
        self.size = n
        self._mul_label = mul_label
        self.table = [-1] * (n * n)
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
        v = self.table[k]
        if v < 0:
            v = self.table[k] = self.index[self._mul_label(self.labels[i], self.labels[j])]
        return v

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
    reps, seen = _classes(G, _cyclic_extensions)
    if frozenset(range(G.size)) not in seen:  # G is not solvable
        reps, seen = _classes(G, _prime_power_joins(G))
    order = sorted(range(len(reps)), key=lambda c: _subgroup_key(reps[c][0]))
    renumber = {c: i for i, c in enumerate(order)}
    return [reps[c] for c in order], {s: renumber[c] for s, c in seen.items()}


def _classes(G, extensions):
    """Classes closed under extensions(G, H, gens), which yields (<H, g>, g)."""
    seen = {}
    reps = []

    def register(elems, gens):
        if elems in seen:
            return
        conjugator = {elems: G.identity}  # member -> x with member = x^-1 elems x
        stack = [elems]
        while stack:
            current = stack.pop()
            for g in G.gens:
                conj = frozenset(G.conj(x, g) for x in current)
                if conj not in conjugator:
                    conjugator[conj] = G.mul(conjugator[current], g)
                    stack.append(conj)
        for member in conjugator:
            seen[member] = len(reps)
        rep = min(conjugator, key=sorted)
        reps.append((rep, tuple(G.conj(h, conjugator[rep]) for h in gens)))

    register(frozenset({G.identity}), ())
    for elems, gens in reps:  # reps grows as classes are found
        for joined, g in extensions(G, elems, gens):
            register(joined, gens + (g,))
    return reps, seen


def _cyclic_extensions(G, H, gens):
    """<H, g> for each g that normalises H with gH of prime order."""
    covered = set(H)
    for g in range(G.size):
        if g in covered or any(G.conj(h, g) not in H for h in gens):
            continue
        k, acc = 1, g
        while acc not in H:
            k, acc = k + 1, G.mul(acc, g)
        if _factor_int(k) == {k: 1}:
            joined = frozenset(extend_closure(H, gens, g, G.mul))
            covered |= joined  # joined/H has prime order: every g' in joined \ H gives joined
            yield joined, g


def _prime_power_joins(G):
    """<H, g> for one g per cyclic subgroup of prime-power order; every
    subgroup of a finite group is such a join, solvable or not."""
    cyclics = {}
    for g in range(G.size):
        cyclics.setdefault(frozenset(G.powers(g)), g)
    ordered = sorted(cyclics.items(), key=lambda kv: _subgroup_key(kv[0]))
    cyclic_gens = [g for c, g in ordered if len(_factor_int(len(c))) == 1]
    return lambda G, H, gens: (
        (frozenset(extend_closure(H, gens, g, G.mul)), g) for g in cyclic_gens if g not in H
    )


def all_subgroups(seen):
    """Every subgroup element set, deterministically ordered."""
    return sorted(seen, key=_subgroup_key)
