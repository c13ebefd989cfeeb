"""Independent brute-force oracles used to cross-check the library.

Everything here is written in the most naive way possible: triple loops
over pairs, exhaustive set enumeration, no bit tricks.
"""

from itertools import chain, combinations

from unilim.core import Entourage


def brute_compose(u_pairs, v_pairs, size):
    """Pairs (x, z) with a witness y such that (x,y) in V and (y,z) in U;
    the second summand is applied last, matching the ball-sum identity."""
    out = set()
    for x, y in v_pairs:
        for y2, z in u_pairs:
            if y == y2:
                out.add((x, z))
    return out


def brute_ball(x, pairs):
    return {y for (y, w) in pairs if w == x}


def brute_sigma(entourages, size):
    """Fold entourage pair-sets left to right, then iterate the last one
    to a fixpoint."""
    acc = {(i, i) for i in range(size)}
    promoted = []
    for e in entourages:
        p = set(e.pairs) | {(i, i) for i in range(size)}
        promoted.append(p)
        acc = brute_compose(acc, p, size)
    last = promoted[-1]
    while True:
        nxt = brute_compose(acc, last, size) | acc
        if nxt == acc:
            return acc
        acc = nxt


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def brute_topology_opens(ground_size, subbase_sets):
    """All opens of the topology generated by the subbase: close under
    finite intersection, then arbitrary union.  Exponential; use only on
    tiny ground sets."""
    full = frozenset(range(ground_size))
    base = {full}
    for subset in powerset(subbase_sets):
        cur = full
        for s in subset:
            cur = cur & frozenset(s)
        base.add(frozenset(cur))
    opens = set()
    for subset in powerset(base):
        u = frozenset()
        for s in subset:
            u = u | s
        opens.add(u)
    return opens


def random_entourage(rng, level, size, density=0.4):
    pairs = {(i, i) for i in range(size)}
    for i in range(size):
        for j in range(size):
            if i != j and rng.random() < density:
                pairs.add((i, j))
    return Entourage(level, size, pairs)
