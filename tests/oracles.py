"""Independent brute-force oracles used to cross-check the library.

Everything here is written in the most naive way possible: triple loops
over pairs, exhaustive set enumeration, no bit tricks.
"""

from fractions import Fraction
from itertools import chain, combinations

from unilim.core import Entourage, Pseudometric
from unilim.errors import TriangleViolation, ValidationError
from unilim.relations import ball_set_mask, compose


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


def fraction_link_weights(seq):
    """Each pair's distance at its pair height, as Fractions."""
    t = seq.tower
    n = t.ground_size
    heights = [t.height(x) for x in range(n)]
    return [[seq[max(heights[x], heights[y])].dist[x][y] for y in range(n)] for x in range(n)]


def fraction_limit(seq):
    """Reference for ``limit_pseudometric``: closure of the link weights."""
    return Pseudometric(fraction_closure(fraction_link_weights(seq)))


def fraction_extend_one(tower, rho, n):
    """Reference for one extension step: the Lipschitz factor
    max rho / min of d_n over the lower pairs where rho is positive, and the
    glue minimum over every (a, b), on Fractions."""
    m_low = rho.size
    d = tower.metric(n)
    m = d.size
    if all(v == 0 for row in rho.dist for v in row):
        return Pseudometric.zero(m)
    positive_base = [
        d.dist[i][j] for i in range(m_low) for j in range(m_low) if rho.dist[i][j] > 0
    ]
    lip = rho.max_value() / min(positive_base)
    big = [[lip * d.dist[i][j] for j in range(m)] for i in range(m)]
    out = [[Fraction(0)] * m for _ in range(m)]
    for x in range(m):
        for y in range(x + 1, m):
            best = big[x][y]
            for a in range(m_low):
                for b in range(m_low):
                    c = big[x][a] + rho.dist[a][b] + big[b][y]
                    if c < best:
                        best = c
            out[x][y] = out[y][x] = best
    return Pseudometric(out)


def fraction_sum(metrics):
    """Entrywise sum of equal-sized pseudometrics, on Fractions."""
    m = metrics[0].size
    return Pseudometric(
        [[sum((d.dist[i][j] for d in metrics), Fraction(0)) for j in range(m)] for i in range(m)]
    )


def fraction_valley_distance(seq, x, y):
    """Reference for ``valley_distance``: the descending and ascending
    chain DP and the valley join, on Fractions."""
    t = seq.tower
    n = t.ground_size
    w = fraction_link_weights(seq)
    heights = [t.height(p) for p in range(n)]
    order = sorted(range(n), key=lambda p: -heights[p])
    desc = [None] * n
    desc[x] = Fraction(0)
    for u in order:
        if desc[u] is not None:
            for v in range(n):
                if heights[v] < heights[u] and (desc[v] is None or desc[u] + w[u][v] < desc[v]):
                    desc[v] = desc[u] + w[u][v]
    asc = [None] * n
    asc[y] = Fraction(0)
    for v in order:
        if asc[v] is not None:
            for u in range(n):
                if heights[u] < heights[v] and (asc[u] is None or asc[v] + w[u][v] < asc[u]):
                    asc[u] = asc[v] + w[u][v]
    return min(
        desc[u] + (Fraction(0) if u == v else w[u][v]) + asc[v]
        for u in range(n)
        for v in range(n)
        if desc[u] is not None and asc[v] is not None and heights[u] <= heights[v]
    )


def fraction_chain_distance(seq, x, y):
    """Reference for ``exhaustive_limit_distance``: the minimum weight over
    every simple chain from x to y, enumerated depth first, on Fractions."""
    w = fraction_link_weights(seq)
    best = Fraction(0) if x == y else w[x][y]

    def extend(last, prefix, rest):
        nonlocal best
        for z in rest:
            head = prefix + w[last][z]
            best = min(best, head + w[z][y])
            extend(z, head, [r for r in rest if r != z])

    extend(x, Fraction(0), [z for z in range(seq.tower.ground_size) if z not in (x, y)])
    return best


def fraction_coordinate_max(tables, points):
    """Reference for the product and box levels: the max over coordinates
    c of ``tables[c]`` at the points' c-th coordinates, on Fractions."""
    return Pseudometric(
        [[max(d.dist[p[c]][q[c]] for c, d in enumerate(tables)) for q in points] for p in points]
    )


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


def fixpoint_closure(u):
    """Reference for ``Entourage.closure``: add U to the sum until the
    relation stops growing."""
    acc = u
    while True:
        nxt = compose(acc, u)
        if nxt == acc:
            return acc
        acc = nxt


def fixpoint_sigma_omega(seq):
    """Reference for ``sigma_sum(seq, OMEGA)``: the finite sum through the
    top level, then the tail added until the relation stops growing."""
    t = seq.tower
    acc = seq.entries[0]
    for n in range(seq.start + 1, t.top_level + 1):
        acc = compose(acc, seq.entry(n))
    tail = seq.tail()
    acc = acc.promote(t.top_level, t.ground_size)
    while True:
        nxt = compose(acc, tail)
        if nxt == acc:
            return acc
        acc = nxt


def fixpoint_grid_ball_masks(tower, x):
    """Reference for ``grid_ball_masks``: the reachable sets propagated
    level by level, each top-level ball repeated until it stops growing."""
    h = tower.height(x)
    top = tower.top_level
    grids = {n: tower.grid_entourages(n) for n in range(h, top + 1)}
    sets = {1 << x}
    for n in range(h, top + 1):
        nxt = set()
        for s in sets:
            for u in grids[n]:
                t = ball_set_mask(s, u)
                if n == top:
                    while True:
                        t2 = ball_set_mask(t, u)
                        if t2 == t:
                            break
                        t = t2
                nxt.add(t)
        sets = nxt
    return sets


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
