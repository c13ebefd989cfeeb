"""Derived towers and their coincidence checks: binary products,
invariant-metric abelian group towers, and truncated small box products.

Products and boxes share one core: points are tuples of factor points,
ordered so that each level is a prefix (``_coordinates``); tables are the
coordinate max of factor rows spread once over them (``_coordinate_max``);
and the topology they are compared with has boxes of factor neighborhoods
as minimal neighborhoods (``product_topology``).

A derived tower is checked by its construction, not re-validated: the
coordinate max of validated pseudometrics is a pseudometric whose
zero-pairs are the pairs where every coordinate is a zero-pair, so once
``_certify_coordinate_max`` has confirmed in O(k n^2), for k coordinates
and n points, that each table is that max, the triangle pass (one packed
pass per zero class) and the zero-pair agreement pass (implied by the
factors') have nothing left to find (program checking, Blum & Kannan,
JACM 42(1), 1995).  A table that fails its certificate is an
implementation bug and raises ``CertificateFailure``.

All comparison verdicts run through the shared topology-comparison
oracle; nothing here argues by hand.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import Pseudometric, Tower, bits, members
from .errors import CertificateFailure, ValidationError
from .relations import EntourageSequence, ball, sigma_sum
from .topology import TopologyFamily, compare_topologies, ulim_topology


# -- the coordinate-max certificate ------------------------------------------


def _certify_coordinate_max(
    tables: Sequence[Pseudometric],
    points: Sequence[tuple[int, ...]],
    d: Pseudometric,
    level: int,
    labels: Sequence[str],
) -> None:
    """Raise ``CertificateFailure`` unless d(p, q) is the max over the
    coordinates c of tables[c](p[c], q[c]) for every two points p, q.

    The factor entries are read here, through ``points``, not through the
    rows a construction spread, so an indexing slip in the construction
    cannot pass.  Per coordinate, the entries of all pairs (p, q) in
    row-major order form one flat list, and the lists are folded by one
    entrywise max each: O(k n^2) for n points and k coordinates."""
    n = len(points)
    if d.size != n or any(len(row) != n for row in d.numer):
        raise CertificateFailure(f"level {level}: the table is not {n} by {n}")
    den = math.lcm(d.den, *(t.den for t in tables))
    want: list[int] = []
    for c, (t, col) in enumerate(zip(tables, zip(*points))):
        f = den // t.den
        # row x of the factor read at every point's c-th coordinate
        picked = [[row[y] * f for y in col] for row in t.numer]
        flat = itertools.chain.from_iterable(map(picked.__getitem__, col))
        want = list(flat) if c == 0 else [x if x > y else y for x, y in zip(want, flat)]
    got = list(itertools.chain.from_iterable(d.numer))
    scale = den // d.den
    if scale > 1:
        got = [v * scale for v in got]
    if got != want:
        p, q = divmod(next(k for k, (g, w) in enumerate(zip(got, want)) if g != w), n)
        raise CertificateFailure(
            f"level {level}: d({labels[p]},{labels[q]}) is {Fraction(got[p * n + q], den)}, "
            f"the coordinate max of the factors is {Fraction(want[p * n + q], den)}"
        )


# -- the coordinate-product core ---------------------------------------------


@functools.lru_cache(maxsize=1)
def _coordinates(
    heights: tuple[tuple[int, ...], ...], names: tuple[tuple[str, ...], ...], levels: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...], tuple[int, ...]]:
    """Every tuple of coordinate values, where value v of coordinate c
    appears at level ``heights[c][v]`` and a tuple at the max of its
    values' levels: the tuples, sorted stably by level from lexicographic
    order; their labels "(n0,n1,...)" from ``names``; and the sizes of the
    ``levels`` levels.  Kept for the last shape, which a construction and
    its check both ask for."""
    # the level of each tuple, in lexicographic order
    tops = heights[0]
    for h in heights[1:]:
        tops = [t if t > x else x for t in tops for x in h]
    values = itertools.product(*(range(len(h)) for h in heights))
    keyed = sorted(zip(tops, values, itertools.product(*names)), key=operator.itemgetter(0))
    height, tuples, named = zip(*keyed)
    sizes = tuple(bisect.bisect_right(height, n) for n in range(levels))
    return tuples, tuple([f"({','.join(n)})" for n in named]), sizes


def _coordinate_max(
    tables: Sequence[Pseudometric], points: Sequence[tuple[int, ...]],
    level: int, labels: Sequence[str],
) -> Pseudometric:
    """The table of d(p, q) = max over c of tables[c](p[c], q[c]) on
    ``points``, certified against ``tables``.  Per coordinate c, each
    factor row is spread once over the points' c-th coordinates, as ints
    over the common denominator, and the row of p takes in the spread row
    of p[c]."""
    den = math.lcm(*[t.den for t in tables])
    dist: list = []
    for c, (t, col) in enumerate(zip(tables, zip(*points))):
        f = den // t.den
        spread = [[row[y] * f for y in col] for row in t.numer]
        rows = map(spread.__getitem__, col)
        dist = list(rows) if c == 0 else [
            [x if x > y else y for x, y in zip(r, s)] for r, s in zip(dist, rows)
        ]
    d = Pseudometric._from_numer(den, dist)
    _certify_coordinate_max(tables, points, d, level, labels)
    return d


def product_topology(
    points: Sequence[tuple[int, ...]], nbhds: Sequence[Sequence[int]]
) -> TopologyFamily:
    """The product topology on ``points``, tuples of factor points, given
    the minimal neighborhood ``nbhds[c][v]`` of each v in each factor c:
    the minimal neighborhood of p is the AND over the coordinates c of the
    points whose c-th coordinate lies in ``nbhds[c][p[c]]``."""
    nbhd: list[int] = []
    for c, (masks, col) in enumerate(zip(nbhds, zip(*points))):
        at = [0] * len(masks)
        for k, v in enumerate(col):
            at[v] |= 1 << k
        # the masks of distinct values are disjoint: their sum is their union
        strips = [sum(at[v] for v in bits(m)) for m in masks]
        strip = list(map(strips.__getitem__, col))
        nbhd = strip if c == 0 else list(map(operator.and_, nbhd, strip))
    return TopologyFamily(len(points), nbhd)


# -- binary products ---------------------------------------------------------


def product_tower(a: Tower, b: Tower) -> Tower:
    """Level-wise product with the coordinate-max pseudometric, which
    presents the product uniformity.  A pair appears at the higher of its
    coordinates' heights, so each level is a prefix of the pairs."""
    if a.num_levels != b.num_levels:
        raise ValidationError(f"{a.num_levels} levels vs {b.num_levels}")
    points, labels, sizes = _coordinates(
        (a._heights, b._heights), (a.labels, b.labels), a.num_levels
    )
    metrics = [
        _coordinate_max([a.metric(n), b.metric(n)], points[:m], n, labels)
        for n, m in enumerate(sizes)
    ]
    return Tower._derived(labels, sizes, metrics)


def check_multiplicativity(a: Tower, b: Tower, prod: Tower) -> str:
    """Limit topology of the product tower ``prod = product_tower(a, b)``
    versus the product of the limit topologies; the expected verdict is
    "equal"."""
    points = _coordinates((a._heights, b._heights), (a.labels, b.labels), a.num_levels)[0]
    rhs = product_topology(points, [ulim_topology(a).min_nbhd, ulim_topology(b).min_nbhd])
    return compare_topologies(ulim_topology(prod), rhs)


# -- abelian group towers ----------------------------------------------------


class GroupTower:
    """A tower whose levels are subgroups of a finite abelian group with
    translation-invariant level metrics (the finite SIN model: all four
    group uniformities coincide).  The identity is element 0, which every
    level holds."""

    __slots__ = ("tower", "op", "neg")

    def __init__(self, tower: Tower, op: tuple[tuple[int, ...], ...], neg: tuple[int, ...]):
        self.tower, self.op, self.neg = tower, op, neg
        t = tower
        n = t.ground_size
        if len(op) != n or any(len(r) != n for r in op):
            raise ValidationError(f"op: not a {n} by {n} table")
        if len(neg) != n:
            raise ValidationError(f"neg: {len(neg)} entries for {n} elements")
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
                if neg[x] >= m:
                    raise ValidationError(f"level {lvl} not closed under inverse")
                for y in range(m):
                    if op[x][y] >= m:
                        raise ValidationError(f"level {lvl} not closed under the operation")
        self.check_invariance()

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupTower) and (
            (self.tower, self.op, self.neg) == (other.tower, other.op, other.neg)
        )

    def __hash__(self) -> int:
        return hash((self.tower, self.op, self.neg))

    def check_invariance(self) -> None:
        t, op = self.tower, self.op
        for lvl, m in enumerate(t.level_sizes):
            d = t.metric(lvl).numer
            for g in range(m):
                for x in range(m):
                    for y in range(m):
                        if d[op[x][g]][op[y][g]] != d[x][y]:
                            raise ValidationError(
                                f"metric at level {lvl} not invariant under "
                                f"translation by {t.labels[g]}"
                            )

    def metric_ball(self, level: int, radius: Fraction) -> frozenset[int]:
        """Elements of the level subgroup at distance < radius from e: row e
        of the sublevel {d < radius}."""
        return members(self.tower.metric(level).sublevel(level, radius).rows[0])

    def set_product(self, a: Sequence[int], b: Sequence[int]) -> frozenset[int]:
        return frozenset(self.op[x][y] for x in a for y in b)


def ordered_product_ball(g: GroupTower, radii: Sequence[Fraction]) -> frozenset[int]:
    """The ordered product U_0 U_1 ... U_m of the per-level identity balls."""
    return _ordered_product(g, [g.metric_ball(n, r) for n, r in enumerate(_radii(g, radii))])


def _ordered_product(g: GroupTower, balls: Sequence[frozenset[int]]) -> frozenset[int]:
    """The product of ``balls`` in level order, from {e}."""
    return functools.reduce(g.set_product, balls, frozenset([0]))


def _radii(g: GroupTower, radii: Sequence[Fraction]) -> list[Fraction]:
    """The radii as ``Fraction``s: one per level, all positive."""
    if len(radii) != g.tower.num_levels:
        raise ValidationError("one radius per level required")
    radii = [Fraction(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValidationError("radii must be positive")
    return radii


class GroupLimitVerdict(NamedTuple):
    ball_equals_product: bool
    commutation: bool
    square_inclusion: bool

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
    radii = _radii(g, radii)
    entries = tuple(t.metric(n).sublevel(n, r) for n, r in enumerate(radii))
    seq = EntourageSequence(t, 0, entries)
    # the finite sum through the top level: one factor per level, exactly
    # matching the ordered product (a repeat-last tail would append extra
    # copies of the top ball that the ordered product does not contain)
    limit_ball = ball(0, sigma_sum(seq, t.top_level))
    balls = [g.metric_ball(n, r) for n, r in enumerate(radii)]
    ordered = _ordered_product(g, balls)
    ball_eq = limit_ball == ordered

    commutes = all(
        g.set_product(a, b) == g.set_product(b, a) for a, b in itertools.combinations(balls, 2)
    )

    small = [g.metric_ball(n, r / 2) for n, r in enumerate(radii)]
    square_incl = all(g.set_product(s, s) <= b for s, b in zip(small, balls))
    if square_incl:
        lhs = _ordered_product(g, small)
        square_incl = g.set_product(lhs, lhs) <= ordered
    return GroupLimitVerdict(ball_eq, commutes, square_incl)


# -- small box products ------------------------------------------------------


def coordinate_tuples(
    sizes: Sequence[int], basepoints: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...], tuple[int, ...]]:
    """Every tuple with coordinate c in range(sizes[c]), ordered so that
    the tuples equal to the basepoints beyond coordinate n form a prefix,
    level n; with the labels "(v0,v1,...)" and the level sizes, the
    cumulative products of ``sizes``."""
    bases = enumerate(zip(sizes, basepoints))
    heights = tuple(tuple(0 if v == b else c for v in range(s)) for c, (s, b) in bases)
    return _coordinates(heights, tuple(tuple(map(str, range(s))) for s in sizes), len(sizes))


class PointedSpace:
    __slots__ = ("metric", "basepoint")

    def __init__(self, metric: Pseudometric, basepoint: int = 0):
        self.metric, self.basepoint = metric, basepoint
        metric.validate()
        if not 0 <= basepoint < metric.size:
            raise ValidationError("basepoint out of range")

    def __eq__(self, other) -> bool:
        return isinstance(other, PointedSpace) and (
            (self.metric, self.basepoint) == (other.metric, other.basepoint)
        )

    def __hash__(self) -> int:
        return hash((self.metric, self.basepoint))


def box_tower(factors: Sequence[PointedSpace], depth: int) -> Tower:
    """Truncated small box product: level n holds the tuples supported on
    the first n+1 coordinates, with the coordinate-max metric.  Every
    level takes the max over all ``depth`` coordinates, so it is a corner
    of the top table, the one table built and certified."""
    if not 1 <= depth <= len(factors):
        raise ValidationError(f"depth {depth} with {len(factors)} factors")
    spaces = factors[:depth]
    points, labels, sizes = coordinate_tuples(
        [f.metric.size for f in spaces], [f.basepoint for f in spaces]
    )
    d = _coordinate_max([f.metric for f in spaces], points, depth - 1, labels)
    return Tower._derived(labels, sizes, [*(d.restrict(m) for m in sizes[:-1]), d])


def check_box_limit(factors: Sequence[PointedSpace], depth: int, box: Tower) -> str:
    """Limit topology of the box tower ``box = box_tower(factors, depth)``
    versus the (truncated) box topology, whose minimal neighborhoods are
    boxes of factor zero-classes; the expected verdict is "equal"."""
    spaces = factors[:depth]
    points = coordinate_tuples([f.metric.size for f in spaces], [f.basepoint for f in spaces])[0]
    zero_classes = [f.metric.zero_classes for f in spaces]
    return compare_topologies(ulim_topology(box), product_topology(points, zero_classes))
