"""Independent brute-force oracles used to cross-check the library.

Everything here is written in the most naive way possible: triple loops
over pairs, exhaustive set enumeration, no bit tricks.
"""

from itertools import chain, combinations

from unilim.core import Entourage
from unilim.errors import TriangleViolation, ValidationError


def loop_validate(dist, level=0, labels=None):
    """Reference for ``Pseudometric.validate`` on a table of Fractions: the
    same checks in the same order, the triangle inequality by a triple loop
    over (i, j, k), so the first violation found names the witness."""
    n = len(dist)
    name = (lambda i: labels[i]) if labels else str
    for i in range(n):
        if len(dist[i]) != n:
            raise ValidationError(f"distance table row {i} is not square")
        if dist[i][i] != 0:
            raise ValidationError(f"nonzero diagonal at {name(i)}")
    for i in range(n):
        for j in range(i):
            if dist[i][j] != dist[j][i]:
                raise ValidationError(f"asymmetric pair ({name(i)},{name(j)})")
            if dist[i][j] < 0:
                raise ValidationError(f"negative distance ({name(i)},{name(j)})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k]:
                    raise TriangleViolation(level, name(i), name(j), name(k))


def fraction_closure(matrix):
    """Reference for ``shortest_path_closure``: Floyd-Warshall on Fractions,
    one entry at a time, updating in place."""
    n = len(matrix)
    d = [list(row) for row in matrix]
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            for j in range(n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return d


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
