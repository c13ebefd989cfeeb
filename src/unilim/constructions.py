"""Derived towers and their coincidence checks: binary products,
invariant-metric abelian group towers, and truncated small box products.

All comparison verdicts run through the shared topology-comparison
oracle; nothing here argues by hand.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Entourage, Pseudometric, Tower
from .errors import InvarianceViolation, LevelCountMismatch, ValidationError
from .relations import EntourageSequence, ball, sigma_sum
from .topology import TopologyComparison, TopologyFamily, compare_topologies, ulim_topology


# -- binary products ---------------------------------------------------------


def _product_order(a: Tower, b: Tower) -> list[tuple[int, int]]:
    """Pairs sorted so that each product level is a prefix: by the level at
    which the pair first appears, then lexicographically."""
    pairs = [
        (i, j) for i in range(a.ground_size) for j in range(b.ground_size)
    ]
    pairs.sort(key=lambda p: (max(a.height(p[0]), b.height(p[1])), p[0], p[1]))
    return pairs


def product_tower(a: Tower, b: Tower) -> Tower:
    """Level-wise product with the coordinate-max pseudometric, which
    presents the product uniformity."""
    if a.num_levels != b.num_levels:
        raise LevelCountMismatch(f"{a.num_levels} levels vs {b.num_levels}")
    order = _product_order(a, b)
    labels = [f"({a.labels[i]},{b.labels[j]})" for i, j in order]
    sizes = [a.level_sizes[n] * b.level_sizes[n] for n in range(a.num_levels)]
    metrics = []
    for n in range(a.num_levels):
        da, db = a.metric(n), b.metric(n)
        den = math.lcm(da.den, db.den)
        na, nb = _scaled(da, den), _scaled(db, den)
        pts = order[: sizes[n]]
        first = [i for i, _ in pts]
        second = [j for _, j in pts]
        dist = [
            list(map(max, map(na[i].__getitem__, first), map(nb[j].__getitem__, second)))
            for i, j in pts
        ]
        metrics.append(Pseudometric._from_numer(den, dist))
    return Tower(labels, sizes, metrics)


def _scaled(d: Pseudometric, den: int) -> list[list[int]]:
    """The numerators of ``d`` over ``den``, a multiple of ``d.den``."""
    f = den // d.den
    return [[v * f for v in row] for row in d.numer]


def product_index(a: Tower, b: Tower) -> dict[tuple[int, int], int]:
    return {p: k for k, p in enumerate(_product_order(a, b))}


def product_topology(
    ta: TopologyFamily, tb: TopologyFamily, index: dict[tuple[int, int], int]
) -> TopologyFamily:
    """Product of two finite topologies on the indexed pair set: the
    minimal neighborhood of a pair is the rectangle of the factors'
    minimal neighborhoods."""
    n = len(index)
    nbhd = [0] * n
    for (i, j), k in index.items():
        m = 0
        for i2 in range(ta.ground_size):
            if not ta.min_nbhd[i] >> i2 & 1:
                continue
            for j2 in range(tb.ground_size):
                if tb.min_nbhd[j] >> j2 & 1:
                    m |= 1 << index[(i2, j2)]
        nbhd[k] = m
    return TopologyFamily(n, nbhd)


def check_multiplicativity(a: Tower, b: Tower, prod: Tower) -> TopologyComparison:
    """Limit topology of the product tower ``prod = product_tower(a, b)``
    versus the product of the limit topologies; the expected verdict is
    "equal"."""
    lhs = ulim_topology(prod)
    rhs = product_topology(ulim_topology(a), ulim_topology(b), product_index(a, b))
    return compare_topologies(lhs, rhs)


# -- abelian group towers ----------------------------------------------------


@dataclass(frozen=True)
class GroupTower:
    """A tower whose levels are subgroups of a finite abelian group with
    translation-invariant level metrics (the finite SIN model: all four
    group uniformities coincide)."""

    tower: Tower
    op: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    identity: int = 0

    def __post_init__(self):
        t = self.tower
        n = t.ground_size
        if len(self.op) != n or any(len(r) != n for r in self.op):
            raise ValidationError("operation table must be square on the top level")
        if len(self.neg) != n:
            raise ValidationError("inverse table must cover the top level")
        if self.identity != 0 or t.height(0) != 0:
            raise ValidationError("identity must be element 0 at level 0")
        op, neg = self.op, self.neg
        for x in range(n):
            if op[x][0] != x or op[0][x] != x:
                raise ValidationError(f"identity axiom fails at {t.labels[x]}")
            if op[x][neg[x]] != 0:
                raise ValidationError(f"inverse axiom fails at {t.labels[x]}")
            for y in range(n):
                if op[x][y] != op[y][x]:
                    raise ValidationError("group is not abelian")
                for z in range(n):
                    if op[op[x][y]][z] != op[x][op[y][z]]:
                        raise ValidationError("operation is not associative")
        for lvl, m in enumerate(t.level_sizes):
            for x in range(m):
                if self.neg[x] >= m:
                    raise ValidationError(f"level {lvl} not closed under inverse")
                for y in range(m):
                    if op[x][y] >= m:
                        raise ValidationError(f"level {lvl} not closed under the operation")
        self.check_invariance()

    def check_invariance(self) -> None:
        t, op = self.tower, self.op
        for lvl, m in enumerate(t.level_sizes):
            d = t.metric(lvl)
            for g in range(m):
                for x in range(m):
                    for y in range(m):
                        if d.dist[op[x][g]][op[y][g]] != d.dist[x][y]:
                            raise InvarianceViolation(
                                f"metric at level {lvl} not invariant under "
                                f"translation by {t.labels[g]}"
                            )

    def metric_ball(self, level: int, radius: Fraction) -> frozenset[int]:
        """Elements of the level subgroup at distance < radius from e."""
        d = self.tower.metric(level)
        return frozenset(g for g in range(d.size) if d.dist[g][self.identity] < radius)

    def set_product(self, a: Sequence[int], b: Sequence[int]) -> frozenset[int]:
        return frozenset(self.op[x][y] for x in a for y in b)

    def two_sided_entourage(self, level: int, radius: Fraction) -> Entourage:
        """For an invariant metric the two-sided entourage is the metric
        sublevel {d < radius} on the level subgroup."""
        d = self.tower.metric(level)
        return Entourage(level, d.size, d.sublevel_pairs(Fraction(radius)))


def ordered_product_ball(g: GroupTower, radii: Sequence[Fraction]) -> frozenset[int]:
    """The ordered product U_0 U_1 ... U_m of the per-level identity balls."""
    t = g.tower
    if len(radii) != t.num_levels:
        raise LevelCountMismatch("one radius per level required")
    for r in radii:
        if Fraction(r) <= 0:
            raise ValidationError("radii must be positive")
    acc: frozenset[int] = frozenset([g.identity])
    for n, r in enumerate(radii):
        acc = g.set_product(acc, g.metric_ball(n, Fraction(r)))
    return acc


@dataclass(frozen=True)
class GroupLimitVerdict:
    ball_equals_product: bool
    commutation: bool
    square_inclusion: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.ball_equals_product and self.commutation and self.square_inclusion

    def to_json(self) -> dict:
        return {
            "ball_equals_product": self.ball_equals_product,
            "commutation": self.commutation,
            "square_inclusion": self.square_inclusion,
        }


def check_group_limit(g: GroupTower, radii: Sequence[Fraction]) -> GroupLimitVerdict:
    """Three checks on a SIN-group tower: the ball of the summed two-sided
    entourages equals the ordered product of identity balls; identity
    balls at different levels commute as sets; and halved radii square
    into the original ordered product."""
    t = g.tower
    radii = [Fraction(r) for r in radii]
    entries = tuple(g.two_sided_entourage(n, r) for n, r in enumerate(radii))
    seq = EntourageSequence(t, 0, entries)
    # the finite sum through the top level: one factor per level, exactly
    # matching the ordered product (a repeat-last tail would append extra
    # copies of the top ball that the ordered product does not contain)
    limit_ball = ball(g.identity, sigma_sum(seq, t.top_level))
    ordered = ordered_product_ball(g, radii)
    ball_eq = limit_ball == ordered
    detail = ""
    if not ball_eq:
        detail = f"ball {sorted(limit_ball)} != ordered product {sorted(ordered)}"

    balls = [g.metric_ball(n, r) for n, r in enumerate(radii)]
    commutes = all(
        g.set_product(balls[n], balls[m]) == g.set_product(balls[m], balls[n])
        for n in range(len(balls))
        for m in range(n, len(balls))
    )

    halved = [r / 2 for r in radii]
    small = [g.metric_ball(n, r) for n, r in enumerate(halved)]
    squares_ok = all(
        g.set_product(small[n], small[n]) <= balls[n] for n in range(len(balls))
    )
    if squares_ok:
        lhs = ordered_product_ball(g, halved)
        square_incl = g.set_product(lhs, lhs) <= ordered
    else:
        square_incl = False
        detail = detail or "halved balls do not square into the originals"
    return GroupLimitVerdict(ball_eq, commutes, square_incl, detail)


# -- small box products ------------------------------------------------------


def coordinate_tuples(
    sizes: Sequence[int], basepoints: Sequence[int]
) -> tuple[list[tuple[int, ...]], list[str], list[int]]:
    """Every tuple with coordinate i in range(sizes[i]), sorted by (the last
    coordinate off its basepoint, tuple), so that the tuples equal to the
    basepoints beyond coordinate n form a prefix, level n; with the labels
    "(c0,c1,...)" and the level sizes, the cumulative products of ``sizes``."""

    def height(tup: tuple[int, ...]) -> int:
        return max((i for i, (c, b) in enumerate(zip(tup, basepoints)) if c != b), default=0)

    tuples = sorted(itertools.product(*map(range, sizes)), key=lambda t: (height(t), t))
    labels = ["(" + ",".join(map(str, t)) + ")" for t in tuples]
    return tuples, labels, list(itertools.accumulate(sizes, operator.mul))


@dataclass(frozen=True)
class PointedSpace:
    metric: Pseudometric
    basepoint: int = 0

    def __post_init__(self):
        self.metric.validate()
        if not 0 <= self.basepoint < self.metric.size:
            raise ValidationError("basepoint out of range")


def _box_coordinates(factors: Sequence[PointedSpace], depth: int):
    """``coordinate_tuples`` over the first ``depth`` factors."""
    return coordinate_tuples(
        [f.metric.size for f in factors[:depth]], [f.basepoint for f in factors[:depth]]
    )


def box_tower(factors: Sequence[PointedSpace], depth: int) -> Tower:
    """Truncated small box product: level n holds the tuples supported on
    the first n+1 coordinates, with the coordinate-max metric."""
    if not 1 <= depth <= len(factors):
        raise LevelCountMismatch(f"depth {depth} with {len(factors)} factors")
    order, labels, sizes = _box_coordinates(factors, depth)
    # each level is a prefix of the order and takes the max over all
    # ``depth`` coordinates, so its table is a corner of the top one
    den = math.lcm(*(f.metric.den for f in factors[:depth]))
    top = [[0] * len(order) for _ in order]
    for c, f in enumerate(factors[:depth]):
        nc = _scaled(f.metric, den)
        coords = [t[c] for t in order]
        for row, tc in zip(top, coords):
            row[:] = map(max, row, map(nc[tc].__getitem__, coords))
    metrics = [
        Pseudometric._from_numer(den, [row[:m] for row in top[:m]]) for m in sizes
    ]
    return Tower(labels, sizes, metrics)


def box_topology(factors: Sequence[PointedSpace], depth: int) -> TopologyFamily:
    """The (truncated) box topology on the same indexed ground set:
    minimal neighborhoods are boxes of factor zero-classes."""
    order = _box_coordinates(factors, depth)[0]
    index = {t: k for k, t in enumerate(order)}
    zero_classes = [
        [[j for j, v in enumerate(row) if v == 0] for row in f.metric.dist] for f in factors[:depth]
    ]
    nbhd = [
        sum(1 << index[b] for b in itertools.product(*(zc[c] for zc, c in zip(zero_classes, t))))
        for t in order
    ]
    return TopologyFamily(len(order), nbhd)


def check_box_limit(factors: Sequence[PointedSpace], depth: int, box: Tower) -> TopologyComparison:
    """Limit topology of the box tower ``box = box_tower(factors, depth)``
    versus the box topology; the expected verdict is "equal"."""
    lhs = ulim_topology(box)
    rhs = box_topology(factors, depth)
    return compare_topologies(lhs, rhs)
