"""The direct-limit pseudometric of a monotone sequence and its supporting
constructions: valley-chain normal form, pseudometric extension along the
tower, adequate sequences, and the quantitative generation check.

The defining infimum over chains is attained by a simple chain (edge
weights are nonnegative, so deleting a revisited point never increases the
weight), which turns the limit pseudometric into an all-pairs shortest
path problem over exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Sequence

from .core import (
    Entourage,
    MonotonePseudometricSequence,
    Pseudometric,
    Tower,
    closure_in_place,
)
from .errors import IndexOutOfRange, NotAnEntourage, NotUniform, PreconditionFailed
from .relations import multiple


@dataclass(frozen=True)
class Chain:
    """A nonempty list of element indices; weight is defined for any chain."""

    points: tuple[int, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("chain must be nonempty")


def chain_weight(seq: MonotonePseudometricSequence, chain: Chain) -> Fraction:
    """Sum of link distances, each measured at the link's pair height."""
    t = seq.tower
    total = Fraction(0)
    pts = chain.points
    for x in pts:
        if not 0 <= x < t.ground_size:
            raise IndexOutOfRange(f"chain point {x}")
    for a, b in zip(pts, pts[1:]):
        total += seq[t.pair_height(a, b)].dist[a][b]
    return total


def _link_weights(seq: MonotonePseudometricSequence) -> tuple[int, list[list[int]]]:
    """Each pair's distance at its pair height, as ints over ``den``, the
    lcm of the sequence's denominators.

    Heights grow with the index, so row x takes level h(x) up to that
    level's size and then, level by level, the points born higher.
    """
    t = seq.tower
    metrics = seq.metrics
    den = math.lcm(*(d.den for d in metrics))
    scales = [den // d.den for d in metrics]
    sizes = t.level_sizes
    w = []
    for x in range(t.ground_size):
        h = t.height(x)
        row = [v * scales[h] for v in metrics[h].numer[x]]
        for n in range(h + 1, len(sizes)):
            f = scales[n]
            row += [v * f for v in metrics[n].numer[x][sizes[n - 1]:]]
        w.append(row)
    return den, w


@dataclass(frozen=True)
class LimitPseudometric:
    """The limit pseudometric on the full ground set, with its source.

    ``links`` holds the link weights and ``closed`` their closure, both as
    ints over the lcm of the sequence's denominators; witness chains test
    their steps on these.  Neither is modified after construction.
    """

    dist: Pseudometric
    source: MonotonePseudometricSequence
    links: Sequence[Sequence[int]] = field(compare=False, repr=False)
    closed: Sequence[Sequence[int]] = field(compare=False, repr=False)

    def __call__(self, x: int, y: int) -> Fraction:
        return self.dist.dist[x][y]


def limit_pseudometric(seq: MonotonePseudometricSequence) -> LimitPseudometric:
    """Minimum chain weight for each pair: all-pairs shortest path of the
    complete graph weighted by pair-height distances."""
    den, w = _link_weights(seq)
    closed = closure_in_place([row[:] for row in w])
    return LimitPseudometric(Pseudometric._from_numer(den, closed), seq, w, closed)


def witness_chain(
    seq: MonotonePseudometricSequence, x: int, y: int, lim: LimitPseudometric | None = None
) -> Chain:
    """A minimum-weight simple chain from x to y: the lexicographically
    smallest one made of optimal steps, a to z with w(a, z) + d(z, y) =
    d(a, y).  Zero-weight links can close cycles of optimal steps, so each
    step takes the smallest unvisited z from which y is still reachable by
    optimal steps through unvisited points; every step adds a point, so the
    walk ends.  ``lim``, the limit of ``seq``, is built when not given."""
    if lim is None:
        lim = limit_pseudometric(seq)
    n = seq.tower.ground_size
    w, dist = lim.links, lim.closed
    steps = [
        [z for z in range(n) if z != a and w[a][z] + dist[z][y] == dist[a][y]] for a in range(n)
    ]

    def reaches_y(z: int, seen: set[int]) -> bool:
        frontier = [z]
        while frontier:
            a = frontier.pop()
            if a == y:
                return True
            fresh = [b for b in steps[a] if b not in seen]
            seen.update(fresh)
            frontier += fresh
        return False

    points = [x]
    while points[-1] != y:
        on_chain = set(points)
        for z in steps[points[-1]]:
            if z not in on_chain and reaches_y(z, on_chain | {z}):
                points.append(z)
                break
        else:
            raise AssertionError("no optimal step; shortest paths inconsistent")
    return Chain(tuple(points))


def valley_witness_chain(
    seq: MonotonePseudometricSequence, x: int, y: int, lim: LimitPseudometric | None = None
) -> Chain:
    """An optimal chain in valley normal form.

    Starts from an optimal simple chain and repeatedly deletes an interior
    point at least as high as both neighbors; monotonicity and the triangle
    inequality make the deletion weight-nonincreasing.  ``lim``, the limit
    of ``seq``, is built when not given.
    """
    t = seq.tower
    pts = list(witness_chain(seq, x, y, lim).points)
    changed = True
    while changed:
        changed = False
        for i in range(1, len(pts) - 1):
            h = t.height(pts[i])
            if h >= t.height(pts[i - 1]) and h >= t.height(pts[i + 1]):
                del pts[i]
                changed = True
                break
    return Chain(tuple(pts))


def valley_distance(seq: MonotonePseudometricSequence, x: int, y: int) -> Fraction:
    """Minimum weight over valley chains: every interior point lower than
    the higher of its neighbors, i.e. heights strictly decrease to a valley
    and then strictly increase.

    Dynamic programming: D[u] is the cheapest strictly-descending chain
    from x to u, A[v] the cheapest strictly-ascending chain from v to y;
    the valley step joins them (u = v joins at a shared bottom point).
    """
    t = seq.tower
    n = t.ground_size
    for p in (x, y):
        if not 0 <= p < n:
            raise IndexOutOfRange(f"element {p}")
    den, w = _link_weights(seq)
    heights = [t.height(p) for p in range(n)]
    order = sorted(range(n), key=lambda p: -heights[p])

    desc: list[int | None] = [None] * n
    desc[x] = 0
    for u in order:
        if desc[u] is None:
            continue
        for v in range(n):
            if heights[v] < heights[u]:
                c = desc[u] + w[u][v]
                if desc[v] is None or c < desc[v]:
                    desc[v] = c

    asc: list[int | None] = [None] * n
    asc[y] = 0
    for v in order:
        if asc[v] is None:
            continue
        for u in range(n):
            if heights[u] < heights[v]:
                c = asc[v] + w[u][v]
                if asc[u] is None or c < asc[u]:
                    asc[u] = c

    best: int | None = None
    for u in range(n):
        if desc[u] is None:
            continue
        for v in range(n):
            if asc[v] is None or heights[u] > heights[v]:
                continue
            c = desc[u] + (0 if u == v else w[u][v]) + asc[v]
            if best is None or c < best:
                best = c
    assert best is not None  # u = v = bottom of x and y always connects
    return Fraction(best, den)


def extend_pseudometric(tower: Tower, rho: Pseudometric, to_level: int) -> Pseudometric:
    """Extend a uniform pseudometric on a lower level to a higher one,
    level by level, with exact restriction.

    One step uses Lipschitz domination plus two-sided gluing: with
    D = L * d_next for L large enough that D dominates rho on the lower
    square, the extension is min(D(x,y), min over a,b below of
    D(x,a) + rho(a,b) + D(b,y)).
    """
    k = None
    for n, m in enumerate(tower.level_sizes):
        if m == rho.size:
            k = n
            break
    if k is None:
        raise IndexOutOfRange(f"no level has size {rho.size}")
    if not k <= to_level <= tower.top_level:
        raise IndexOutOfRange(f"target level {to_level}")

    level_zero = tower.metric(k).zero_pairs()
    for i, j in level_zero:
        if rho.numer[i][j] != 0:
            raise NotUniform(
                f"pseudometric positive on zero-pair "
                f"({tower.labels[i]},{tower.labels[j]}) of level {k}"
            )

    cur = rho
    for n in range(k + 1, to_level + 1):
        cur = _extend_one(tower, cur, n)
    return cur


def sum_of_extensions(tower: Tower, pieces: Sequence[Pseudometric]) -> MonotonePseudometricSequence:
    """The monotone sequence whose n-th metric is the sum over k <= n of
    the k-th piece (a uniform pseudometric on level k) extended level by
    level up to level n."""
    metrics = []
    carried: list[Pseudometric] = []
    for n in range(tower.num_levels):
        carried = [extend_pseudometric(tower, r, n) for r in carried]
        carried.append(pieces[n])
        den = math.lcm(*(r.den for r in carried))
        total = [[0] * tower.level_sizes[n] for _ in range(tower.level_sizes[n])]
        for r in carried:
            f = den // r.den
            for row, part in zip(total, r.numer):
                row[:] = [a + f * b for a, b in zip(row, part)]
        metrics.append(Pseudometric._from_numer(den, total))
    return MonotonePseudometricSequence(tower, metrics)


def _extend_one(tower: Tower, rho: Pseudometric, n: int) -> Pseudometric:
    """One extension step on ints.  Let top be the largest numerator of rho
    and low the smallest numerator of d over the lower pairs where rho is
    positive.  The Lipschitz factor is L = (top / rho.den) / (low / d.den),
    so over the denominator rho.den * low, D = L * d has numerators
    top * d.numer and rho has numerators low * rho.numer.  The glue minimum
    over (a, b) is taken as the minimum over b of
    (min over a of D(x, a) + rho(a, b)) + D(b, y)."""
    m_low = rho.size
    d = tower.metric(n)
    top = max(v for row in rho.numer for v in row)
    if top == 0:
        return Pseudometric.zero(d.size)
    low = min(
        dv
        for drow, rrow in zip(d.numer, rho.numer)
        for dv, rv in zip(drow, rrow)
        if rv > 0
    )
    big = [[top * v for v in row] for row in d.numer]
    glue = [[low * v for v in row] for row in rho.numer]

    out = []
    for bx in big:
        head = bx[:m_low]
        # rho is symmetric, so its row b is its column b
        reach = [min(map(add, head, g)) for g in glue]
        row = bx
        for rb, bb in zip(reach, big):
            row = list(map(min, row, map(rb.__add__, bb)))
        out.append(row)
    return Pseudometric._from_numer(rho.den * low, out)


def _target_indicator(tower: Tower, level: int, target: Entourage) -> Pseudometric:
    """Bounded uniform pseudometric with {rho < 1} inside the target.

    The mutual-membership pairs of the target, repaired to a pseudometric
    by one shortest-path pass, vanish on their transitive closure; that
    closure can escape a non-transitive target, in which case the zero-set
    falls back to the level's zero-relation (always inside any entourage
    of the level's uniformity).
    """
    d = tower.metric(level)
    m = d.size
    mutual = [
        [target.contains(i, j) and target.contains(j, i) for j in range(m)]
        for i in range(m)
    ]
    closed = closure_in_place([[0 if mutual[i][j] else 1 for j in range(m)] for i in range(m)])
    inside = all(
        target.contains(i, j)
        for i in range(m)
        for j in range(m)
        if closed[i][j] == 0
    )
    if inside:
        return Pseudometric._from_numer(1, closed)
    return Pseudometric._from_numer(1, [[0 if v == 0 else 1 for v in row] for row in d.numer])


def adequate_sequence(tower: Tower, targets) -> MonotonePseudometricSequence:
    """A monotone sequence (d_n) with {d_n < 1} inside the n-th target.

    ``targets`` is an EntourageSequence starting at level 0 (or any list of
    per-level entourages); each target must contain its level's
    zero-relation.  The n-th metric is the sum over k <= n of the
    level-by-level extensions of a bounded 0/1 pseudometric whose unit
    sublevel lies inside the k-th target; the n-th summand alone forces
    {d_n < 1} inside the n-th target.
    """
    entries = targets.entries if hasattr(targets, "entries") else tuple(targets)
    if len(entries) != tower.num_levels:
        raise NotAnEntourage(len(entries), "need one target per level")
    for n, e in enumerate(entries):
        if e.size != tower.level_sizes[n]:
            raise NotAnEntourage(n, f"target at level {n} has wrong size")
        if not tower.zero_relation(n).issubset(e):
            raise NotAnEntourage(n)

    return sum_of_extensions(
        tower, [_target_indicator(tower, k, entries[k]) for k in range(tower.num_levels)]
    )


@dataclass(frozen=True)
class GenerationVerdict:
    confirmed: bool
    counterexample: tuple[int, int] | None = None


def verify_generation(
    tower: Tower,
    u: Entourage,
    seq: MonotonePseudometricSequence,
    ladder: Sequence[Entourage],
) -> GenerationVerdict:
    """Check {lim d_n < 1} inside U, given a ladder U_0, U_1, ... of
    top-level entourages with 5*U_0 inside U and 2*U_{n+1} inside U_n, and
    {d_n < 1} inside U_n for every level n.

    A counterexample pair always indicates an implementation bug, never a
    property of the instance.
    """
    top = tower.top_level
    size = tower.ground_size
    u = u.promote(top, size)
    entries = ladder.entries if hasattr(ladder, "entries") else ladder
    steps = [e.promote(top, size) for e in entries]
    if len(steps) < tower.num_levels:
        raise PreconditionFailed("ladder must cover every level of the tower")
    if not multiple(steps[0], 5).issubset(u):
        raise PreconditionFailed("5*U_0 is not contained in U")
    for n in range(len(steps) - 1):
        if not multiple(steps[n + 1], 2).issubset(steps[n]):
            raise PreconditionFailed(f"2*U_{n + 1} is not contained in U_{n}")
    for n in range(tower.num_levels):
        unit = seq[n].sublevel_pairs(Fraction(1))
        for i, j in unit:
            if not steps[n].contains(i, j):
                raise PreconditionFailed(f"{{d_{n} < 1}} is not contained in U_{n}")

    dlim = limit_pseudometric(seq)
    for x in range(size):
        for y in range(size):
            if dlim(x, y) < 1 and not u.contains(x, y):
                return GenerationVerdict(False, (x, y))
    return GenerationVerdict(True)
