"""Dense finite-group utilities for exhaustive subgroup surveys.

A DenseGroup re-indexes any finite group's elements as 0..n-1 with a flat
Cayley table, so subgroup-lattice enumeration runs on small integers.
Subgroup classes are found by joining class representatives with cyclic
subgroups of prime-power order; every subgroup is such a join, and each
new class is expanded into its full conjugation orbit for deduplication.
"""

from __future__ import annotations

from .domains import _factor_int
from .matgroups import extend_closure


class DenseGroup:
    """A finite group on dense indices with a flat multiplication table."""

    def __init__(self, labels, mul_label, identity_label, gen_labels):
        self.labels = list(labels)
        self.index = {x: i for i, x in enumerate(self.labels)}
        n = len(self.labels)
        self.size = n
        table = [0] * (n * n)
        for i, x in enumerate(self.labels):
            row = i * n
            for j, y in enumerate(self.labels):
                table[row + j] = self.index[mul_label(x, y)]
        self.table = table
        self.identity = self.index[identity_label]
        inv = [0] * n
        for i in range(n):
            row = i * n
            for j in range(n):
                if table[row + j] == self.identity:
                    inv[i] = j
                    break
        self.inv = inv
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
        return self.table[i * self.size + j]

    def conj(self, x, g):
        return self.mul(self.mul(self.inv[g], x), g)

    def cyclic(self, g):
        out = {self.identity}
        acc = g
        while acc not in out:
            out.add(acc)
            acc = self.mul(acc, g)
        return frozenset(out)


def _is_prime_power(n):
    return n > 1 and len(_factor_int(n)) == 1


def subgroup_classes(G):
    """All subgroups of G up to conjugacy.

    Returns (reps, seen): reps is a list of (elements frozenset, generator
    tuple) per class, seen maps every subgroup's element set to its class
    index (so seen's keys enumerate all subgroups of G).
    """
    cyclics = {}
    for g in range(G.size):
        c = G.cyclic(g)
        if c not in cyclics and _is_prime_power(len(c)):
            cyclics[c] = g
    cyclic_items = sorted(cyclics.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    seen = {}
    reps = []
    queue = []

    def register(elems, gens):
        if elems in seen:
            return
        cid = len(reps)
        orbit = {elems}
        stack = [elems]
        while stack:
            current = stack.pop()
            for g in G.gens:
                conj = frozenset(G.conj(x, g) for x in current)
                if conj not in orbit:
                    orbit.add(conj)
                    stack.append(conj)
        for member in orbit:
            seen[member] = cid
        reps.append((elems, tuple(gens)))
        queue.append((elems, tuple(gens)))

    register(frozenset({G.identity}), ())
    qi = 0
    while qi < len(queue):
        elems, gens = queue[qi]
        qi += 1
        for cyc, cg in cyclic_items:
            if cg in elems:
                continue
            joined = frozenset(extend_closure(elems, gens, cg, G.mul))
            register(joined, gens + (cg,))
    return reps, seen


def all_subgroups(seen):
    """Every subgroup element set, deterministically ordered."""
    return sorted(seen, key=lambda s: (len(s), sorted(s)))
