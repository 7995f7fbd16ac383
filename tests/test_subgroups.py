import itertools

from conglab.domains import parse_domain
from conglab.matgroups import full_sl2
from conglab.modular import psl2_group
from conglab.quotients import build_quotient
from conglab.subgroups import DenseGroup, all_subgroups, subgroup_classes

Z = parse_domain("Z")
F3T = parse_domain("Fq[t] q=3")


def dense_closure_by_bfs(G, gens):
    """Oracle: BFS closure under the generators and their inverses."""
    step = list(gens) + [G.inv[g] for g in gens]
    seen = {G.identity}
    queue = [G.identity]
    for x in queue:
        for g in step:
            y = G.mul(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def dense_sl2(D, text):
    ring = build_quotient(D, D.parse_ideal(text))
    return DenseGroup.from_matgroup(full_sl2(ring))


def test_dense_group_table_consistency():
    G = dense_sl2(Z, "(4)")
    assert G.size == 48
    for i in range(G.size):
        assert G.mul(i, G.identity) == i
        assert G.mul(i, G.inv[i]) == G.identity
    assert dense_closure_by_bfs(G, G.gens) == frozenset(range(G.size))


def test_subgroups_of_sl2_f2_vs_full_subset_oracle():
    # the order-6 group is small enough to test every subset directly
    G = dense_sl2(Z, "(2)")
    assert G.size == 6
    oracle = set()
    elements = list(range(6))
    for size in range(1, 7):
        for subset in itertools.combinations(elements, size):
            s = set(subset)
            if G.identity not in s:
                continue
            if all(G.mul(a, b) in s for a in s for b in s):
                oracle.add(frozenset(s))
    reps, seen = subgroup_classes(G)
    assert set(seen) == oracle
    assert len(oracle) == 6  # {1}, three C2, C3, S3
    assert len(reps) == 4


def test_subgroups_of_sl2_f3_vs_triple_closure_oracle():
    # orders dividing 24 force every subgroup to be 3-generated, so
    # closing all (<=3)-element subsets is an exact oracle
    G = dense_sl2(F3T, "(t)")
    assert G.size == 24
    oracle = {frozenset({G.identity})}
    rng = range(G.size)
    for a in rng:
        oracle.add(dense_closure_by_bfs(G, [a]))
        for b in rng:
            if b < a:
                oracle.add(dense_closure_by_bfs(G, [a, b]))
                for c in rng:
                    if c < b:
                        oracle.add(dense_closure_by_bfs(G, [a, b, c]))
    reps, seen = subgroup_classes(G)
    assert set(seen) == oracle
    assert len(oracle) == 15
    assert len(reps) == 7
    orders = sorted(len(e) for e, _ in reps)
    assert orders == [1, 2, 3, 4, 6, 8, 24]


def test_subgroup_classes_of_projective_group():
    G = psl2_group(2)  # isomorphic to S3
    reps, seen = subgroup_classes(G)
    assert len(seen) == 6
    assert len(reps) == 4


def test_all_subgroups_deterministic_order():
    G = dense_sl2(Z, "(2)")
    _, seen = subgroup_classes(G)
    listed = all_subgroups(seen)
    assert listed == sorted(listed, key=lambda s: (len(s), sorted(s)))
    assert len(listed) == len(seen)
