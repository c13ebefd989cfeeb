"""Independent brute-force oracles used to cross-check the library.

Everything here is written in the most naive way possible: triple loops
over pairs, exhaustive set enumeration, no bit tricks.
"""

import math
import operator
from fractions import Fraction
from itertools import accumulate, chain, combinations, product

from unilim.constructions import GroupTower, PointedSpace
from unilim.core import (
    Entourage, Pseudometric, Tower, bits, closure_in_place, members, shortest_path_closure,
)
from unilim.errors import ValidationError
from unilim.generate import DEFAULT_POOL
from unilim.relations import OMEGA, EntourageSequence, ball, ball_set_mask, compose, sigma_sum
from unilim.topology import TopologyFamily


def max_value(d):
    """The largest entry of the pseudometric ``d``, as a ``Fraction``."""
    return max(v for row in d.dist for v in row)


def transpose(e):
    """The relation {(j, i) : (i, j) in e}, built pair by pair."""
    return Entourage(e.level, e.size, [(j, i) for i, j in e.pairs])


def union(u, v):
    """The relation {(i, j) : (i, j) in u or in v}, built pair by pair."""
    return Entourage(u.level, u.size, u.pairs | v.pairs)


def diagonal_entourage(level, size):
    """The diagonal {(i, i)} of a level of ``size`` points."""
    return Entourage(level, size, [(i, i) for i in range(size)])


def full_entourage(level, size):
    """The full square of a level of ``size`` points."""
    return Entourage(level, size, [(i, j) for i in range(size) for j in range(size)])


def grid_sequence(tower, start, choices):
    """The entourage sequence from level ``start`` that takes, per level,
    the grid entourage with the given threshold index."""
    entries = [tower.grid_entourages(start + k)[c] for k, c in enumerate(choices)]
    return EntourageSequence(tower, start, tuple(entries))


def discrete(n):
    """The topology on n points in which every point is open."""
    return TopologyFamily(n, [1 << x for x in range(n)])


def indiscrete(n):
    """The topology on n points whose only opens are the empty and full sets."""
    return TopologyFamily(n, [(1 << n) - 1] * n)


def is_open(top, points):
    """Whether the point set holds the minimal neighborhood of each of its
    points, the definition of open in a finite topology."""
    s = set(points)
    return all(members(top.min_nbhd[x]) <= s for x in s)


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
                    a, b, c = name(i), name(j), name(k)
                    raise ValidationError(
                        f"triangle inequality fails at level {level}: "
                        f"d({a},{c}) > d({a},{b}) + d({b},{c})"
                    )


def loop_tower_validate(labels, sizes, metrics, strict=False):
    """Reference for ``Tower.validate`` on levels of the right sizes: each
    level through ``loop_validate``, then consecutive levels compared entry
    by entry over the full square of the lower one, so the first failing
    pair in row-major order is named."""
    for n, d in enumerate(metrics):
        loop_validate(d.dist, n, labels)
    for n in range(len(sizes) - 1):
        lo, hi = metrics[n].dist, metrics[n + 1].dist
        for i in range(sizes[n]):
            for j in range(sizes[n]):
                if (lo[i][j] == 0) != (hi[i][j] == 0) or (strict and lo[i][j] != hi[i][j]):
                    raise ValidationError(
                        f"zero-pair mismatch between levels {n} and {n + 1} "
                        f"on pair ({labels[i]},{labels[j]})"
                    )


def loop_sequence_validate(tower, metrics):
    """Reference for ``MonotonePseudometricSequence.validate`` on metrics of
    the level sizes: per level ``loop_validate`` and uniformity, then
    monotonicity, each entry by entry over the full square."""
    labels = tower.labels
    for n, d in enumerate(metrics):
        loop_validate(d.dist, n, labels)
        level = tower.metric(n).dist
        for i in range(d.size):
            for j in range(d.size):
                if level[i][j] == 0 and d.dist[i][j] != 0:
                    raise ValidationError(
                        f"d_{n} positive on zero-pair ({labels[i]},{labels[j]}) of level {n}"
                    )
    for n in range(len(metrics) - 1):
        lo, hi = metrics[n].dist, metrics[n + 1].dist
        for i in range(len(lo)):
            for j in range(len(lo)):
                if lo[i][j] > hi[i][j]:
                    raise ValidationError(
                        f"monotonicity fails at level {n} on pair ({labels[i]},{labels[j]})"
                    )


def fraction_metric_from_json(rows):
    """Reference for the JSON metric reader: each entry through
    ``Fraction``, and the symmetric table built from the ``Fraction``s."""
    n = len(rows)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            dist[i][j] = dist[j][i] = Fraction(v)
    return Pseudometric(dist)


def with_entourages(doc, names):
    """The tower document ``doc`` with its ``entourages`` key written: each
    named relation as its level and its sorted pairs."""
    table = {name: {"level": e.level, "pairs": [list(p) for p in e.sorted_pairs()]}
             for name, e in names.items()}
    return {**doc, "entourages": table}


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


def pair_height(tower, x, y):
    """The first level holding both x and y: the higher of their heights."""
    return max(tower.height(x), tower.height(y))


def fraction_link_weights(seq):
    """Each pair's distance at its pair height, as Fractions."""
    t = seq.tower
    n = t.ground_size
    return [[seq[pair_height(t, x, y)].dist[x][y] for y in range(n)] for x in range(n)]


def fraction_limit(seq):
    """Reference for ``limit_pseudometric``: closure of the link weights."""
    return Pseudometric(fraction_closure(fraction_link_weights(seq)))


def int_link_weights(seq):
    """Each pair's distance at its pair height, as ints over the lcm of
    the sequence's denominators: ``(den, table)``."""
    t = seq.tower
    n = t.ground_size
    den = math.lcm(*(d.den for d in seq.metrics))
    w = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            d = seq[pair_height(t, x, y)]
            w[x][y] = d.numer[x][y] * (den // d.den)
    return den, w


def full_closure_limit(seq):
    """Reference for ``limit_pseudometric``: the closure of the whole link
    table, every point a pivot and a row, with no zero class read off a
    representative."""
    den, w = int_link_weights(seq)
    return Pseudometric._from_numer(den, closure_in_place(w))


def loop_valley_row(seq, x):
    """Reference for ``limitmetric._valley_row``: the same DP over (point,
    phase) states with every point scanned for every link, each admitted
    or refused by its height test, so ties keep the first point in index
    order.  Returns ``den``, the costs past the turn and the predecessors."""
    t = seq.tower
    n = t.ground_size
    den, w = int_link_weights(seq)
    h = [t.height(p) for p in range(n)]
    cost = [sum(map(sum, w)) + 1] * (2 * n)
    back = [None] * (2 * n)
    cost[x] = 0
    for v in reversed(range(x)):
        for u in range(v + 1, n):
            if h[v] < h[u] and cost[u] + w[u][v] < cost[v]:
                cost[v], back[v] = cost[u] + w[u][v], u
    for v in range(n):
        cost[n + v], back[n + v] = cost[v], v
        for u in range(n):
            if u != v and h[u] == h[v]:
                s = u  # flat link, from the descent
            elif h[u] < h[v]:
                s = n + u  # rising link, past the turn
            else:
                continue
            if cost[s] + w[u][v] < cost[n + v]:
                cost[n + v], back[n + v] = cost[s] + w[u][v], s
    return den, tuple(cost[n:]), tuple(back)


def closure_target_indicator(tower, level, target):
    """Reference for ``limitmetric._target_indicator``: the mutual pairs of
    the target as a 0/1 matrix, closed by one shortest-path pass, kept
    when its zero-set lies inside the target and otherwise replaced by the
    0/1 indicator of the level's zero-relation."""
    d = tower.metric(level)
    m = d.size
    pairs = target.pairs
    mutual = [[(i, j) in pairs and (j, i) in pairs for j in range(m)] for i in range(m)]
    closed = closure_in_place([[0 if mutual[i][j] else 1 for j in range(m)] for i in range(m)])
    inside = all((i, j) in pairs for i in range(m) for j in range(m) if closed[i][j] == 0)
    if inside:
        return Pseudometric._from_numer(1, closed)
    return Pseudometric._from_numer(1, [[0 if v == 0 else 1 for v in row] for row in d.numer])


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
    lip = max_value(rho) / min(positive_base)
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


def glued_extension(tower, rho, n):
    """Reference for ``limitmetric._extend_one``: the same Lipschitz factor
    and denominator, and the two-sided glue minimum taken by explicit loops,
    min over b of (min over a of D(x, a) + rho(a, b)) + D(b, y), on ints."""
    m_low = rho.size
    d = tower.metric(n)
    top = max(v for row in rho.numer for v in row)
    if top == 0:
        return Pseudometric.zero(d.size)
    low = min(
        d.numer[i][j] for i in range(m_low) for j in range(m_low) if rho.numer[i][j] > 0
    )
    big = [[top * v for v in row] for row in d.numer]
    glue = [[low * v for v in row] for row in rho.numer]
    out = []
    for bx in big:
        head = bx[:m_low]
        # rho is symmetric, so its row b is its column b
        reach = [min(map(operator.add, head, g)) for g in glue]
        row = bx
        for rb, bb in zip(reach, big):
            row = list(map(min, row, map(rb.__add__, bb)))
        out.append(row)
    return Pseudometric._from_numer(rho.den * low, out)


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
    """Reference for the reflexive-transitive closure of a reflexive U, the
    (size-1)-fold sum that ``sigma_sum``'s omega tail and T1 take and
    ``Entourage.components`` gives for a symmetric U: add U to the sum
    until the relation stops growing."""
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


def check_entourages(seq):
    """Require each entry of ``seq`` to contain its level's zero-relation."""
    for e in seq.entries:
        if not seq.tower.zero_relation(e.level).issubset(e):
            raise ValidationError(f"relation at level {e.level} misses a zero-pair")


def base_ball(tower, x, seq):
    """The base set B(x; sum of the sequence from height(x)), the ball
    ``grid_ball_masks`` enumerates for every grid sequence at once."""
    if not 0 <= x < tower.ground_size:
        raise ValidationError(f"element {x}")
    if seq.start != tower.height(x):
        raise ValidationError(
            f"sequence starts at {seq.start}, point has height {tower.height(x)}"
        )
    check_entourages(seq)
    return ball(x, sigma_sum(seq, OMEGA))


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


def grid_thresholds(d):
    """The thresholds of a level's grid: the distinct positive values of its
    metric ``d`` and one value above the maximum; the sublevels {d < eps}
    at these thresholds are the level's grid entourages, smallest first."""
    values = d.positive_values()
    top = (values[-1] if values else Fraction(0)) + 1
    return tuple(values) + (top,)


def level_by_level_minimal_ball(tower, x):
    """Reference for ``minimal_grid_ball``, as a bitmask: {x} taken one
    ball step per level, under each level's zero-relation from the height
    of x to the top."""
    s = 1 << x
    for n in range(tower.height(x), tower.num_levels):
        s = ball_set_mask(s, tower.zero_relation(n))
    return s


def fixpoint_tlim_topology(tower):
    """Reference for ``topology.tlim_topology``: grow {x} by every level's
    zero-classes of its points on that level until nothing changes."""
    n = tower.ground_size
    zero_cols = [tower.zero_relation(lvl).columns() for lvl in range(tower.num_levels)]
    nbhd = []
    for x in range(n):
        s = 1 << x
        changed = True
        while changed:
            changed = False
            for cols, size in zip(zero_cols, tower.level_sizes):
                for y in bits(s & ((1 << size) - 1)):
                    if cols[y] & ~s:
                        s |= cols[y]
                        changed = True
        nbhd.append(s)
    return TopologyFamily(n, nbhd)


def level_by_level_topology(tower):
    """Reference for ``ulim_topology``: the topology whose minimal
    neighborhoods are the level-by-level minimal balls."""
    n = tower.ground_size
    return TopologyFamily(n, [level_by_level_minimal_ball(tower, x) for x in range(n)])


def open_set_walk_continuous(f):
    """Reference for ``is_continuous``: walk every open of the target's
    limit topology and check that its preimage is open in the source's."""
    src = level_by_level_topology(f.source)
    tgt = level_by_level_topology(f.target)
    for o in tgt.opens_masks():
        pre = 0
        for x in range(f.source.ground_size):
            if o >> f(x) & 1:
                pre |= 1 << x
        if not src.is_open_mask(pre):
            return False
    return True


def loop_restriction_continuous(f, n):
    """Reference for ``regularity._restriction_continuous``: no pair of
    level n's full square at distance 0 in the level's metric has images at
    positive distance in the target's top metric."""
    d = f.source.metric(n).dist
    dy = f.target.metric(f.target.top_level).dist
    return not any(
        d[i][j] == 0 and dy[f(i)][f(j)] != 0 for i in range(len(d)) for j in range(len(d))
    )


def twin_tower(rng, tower, prob=0.3):
    """``tower`` with each point above level 0, with probability ``prob``,
    made the twin of a random lower-index point: it takes that point's row
    and column, at distance 0 from it, at every level that holds it.
    Duplicating a point keeps a pseudometric, and levels that agreed on
    zero-pairs still do, so the result is a tower, with the zero-pairs
    across heights that seeded towers never have."""
    tables = [[list(row) for row in d.numer] for d in tower.level_metrics]
    for x in range(tower.level_sizes[0], tower.ground_size):
        if rng.random() < prob:
            y = rng.randrange(x)
            for t in tables[tower.height(x):]:
                for row in t:
                    row[x] = row[y]
                t[x] = list(t[y])
    metrics = [Pseudometric._from_numer(d.den, t) for d, t in zip(tower.level_metrics, tables)]
    return Tower(tower.labels, tower.level_sizes, metrics)


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


def fraction_random_metric(rng, size, pool, zero_prob):
    """Reference for ``generate._grow`` from the empty table: the same
    draws on Fractions, repaired by the Fraction shortest-path closure."""
    dist = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i):
            v = Fraction(0) if rng.random() < zero_prob else Fraction(rng.choice(pool))
            dist[i][j] = dist[j][i] = v
    return Pseudometric(shortest_path_closure(dist))


def fraction_random_factors(rng):
    """Reference for ``generate.random_factors``: the same draws on
    Fractions."""
    return tuple(
        PointedSpace(fraction_random_metric(rng, rng.randrange(2, 4), DEFAULT_POOL, 0.25))
        for _ in range(3)
    )


def fraction_random_tower(rng, profile, pool=DEFAULT_POOL):
    """Reference for ``generate.random_tower``: the same draws in the same
    order on Fractions, each level holding the level below as its corner.
    Another ``pool`` of positive values gives towers over other
    denominators."""
    sizes = sorted(rng.sample(range(1, profile.max_size + 1), profile.levels))
    metrics = [fraction_random_metric(rng, sizes[0], pool, 0.2)]
    for n in range(1, profile.levels):
        prev = metrics[-1]
        m = sizes[n]
        dist = [[Fraction(0)] * m for _ in range(m)]
        for i in range(prev.size):
            for j in range(prev.size):
                dist[i][j] = prev.dist[i][j]
        for i in range(prev.size, m):
            for j in range(i):
                if j < prev.size:
                    v = Fraction(rng.choice(pool))
                else:
                    v = Fraction(0) if rng.random() < 0.2 else Fraction(rng.choice(pool))
                dist[i][j] = dist[j][i] = v
        metrics.append(Pseudometric(shortest_path_closure(dist)))
    labels = [f"x{i}" for i in range(sizes[-1])]
    return Tower(labels, sizes, metrics)


def fraction_cyclic_group_tower(orders, weights):
    """Reference for ``generate.cyclic_group_tower``: every level's weighted
    Hamming table summed on Fractions."""
    depth = len(orders)
    tuples, labels, sizes = keyed_coordinate_tuples(orders, [0] * depth)
    index = {t: k for k, t in enumerate(tuples)}
    weights = [Fraction(w) for w in weights]
    metrics = []
    for n in range(depth):
        pts = tuples[: sizes[n]]
        dist = [
            [sum((w for w, a, b in zip(weights, t1, t2) if a != b), Fraction(0)) for t2 in pts]
            for t1 in pts
        ]
        metrics.append(Pseudometric(dist))
    tower = Tower(labels, sizes, metrics)
    op = tuple(
        tuple(index[tuple((a + b) % k for a, b, k in zip(t1, t2, orders))] for t2 in tuples)
        for t1 in tuples
    )
    neg = tuple(index[tuple((-a) % k for a, k in zip(t, orders))] for t in tuples)
    return GroupTower(tower, op, neg)


def rectangle_topology(ta, tb, index):
    """Reference for ``product_topology``: the minimal neighborhood of each
    indexed pair (i, j) summed point by point over U_i x U_j."""
    n = len(index)
    nbhd = [0] * n
    for (i, j), k in index.items():
        nbhd[k] = sum(
            1 << index[i2, j2] for i2 in bits(ta.min_nbhd[i]) for j2 in bits(tb.min_nbhd[j])
        )
    return TopologyFamily(n, nbhd)


def keyed_coordinate_tuples(sizes, basepoints):
    """Reference for ``constructions.coordinate_tuples``: every tuple with
    coordinate i in range(sizes[i]), sorted by the key (the last coordinate
    off its basepoint, tuple); with the labels "(c0,c1,...)" and the level
    sizes, the cumulative products of ``sizes``."""

    def height(tup):
        return max((i for i, (c, b) in enumerate(zip(tup, basepoints)) if c != b), default=0)

    tuples = sorted(product(*map(range, sizes)), key=lambda t: (height(t), t))
    labels = ["(" + ",".join(map(str, t)) + ")" for t in tuples]
    return tuples, labels, list(accumulate(sizes, operator.mul))


def enumerated_box_topology(factors, depth):
    """Reference for the box topology ``constructions.check_box_limit``
    compares against: the minimal neighborhood of each tuple is the set of
    every tuple in the box of its coordinates' zero-classes, enumerated."""
    order = keyed_coordinate_tuples(
        [f.metric.size for f in factors[:depth]], [f.basepoint for f in factors[:depth]]
    )[0]
    index = {t: k for k, t in enumerate(order)}
    zero_classes = [
        [[j for j, v in enumerate(row) if v == 0] for row in f.metric.dist] for f in factors[:depth]
    ]
    nbhd = [
        sum(1 << index[b] for b in product(*(zc[c] for zc, c in zip(zero_classes, t))))
        for t in order
    ]
    return TopologyFamily(len(order), nbhd)
