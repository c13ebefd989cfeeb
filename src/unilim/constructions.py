"""Derived towers and their coincidence checks: binary products,
invariant-metric abelian group towers, and truncated small box products.

Product and box levels are built from spread factor rows: per level (per
coordinate for a box), each factor row is spread once over the level's
points, as ints over the common denominator, and each row of the derived
table is the entrywise max of the spread rows its coordinates pick.

A derived tower is checked by its construction, not re-validated: the
coordinate max of validated pseudometrics is a pseudometric whose
zero-pairs are the pairs where every coordinate is a zero-pair, so once
``_certify_coordinate_max`` has confirmed in O(n^2) that each table is
that max, the O(n^3) triangle pass and the zero-pair agreement pass
(implied by the factors') have nothing left to find (program checking,
Blum & Kannan, JACM 42(1), 1995).  A table that fails its certificate is
an implementation bug and raises ``CertificateFailure``.

All comparison verdicts run through the shared topology-comparison
oracle; nothing here argues by hand.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import Entourage, Pseudometric, Tower, bits
from .errors import (
    CertificateFailure, InvarianceViolation, LevelCountMismatch, ValidationError,
)
from .relations import EntourageSequence, ball, sigma_sum
from .topology import TopologyComparison, TopologyFamily, compare_topologies, ulim_topology


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


# -- binary products ---------------------------------------------------------


def _product_order(a: Tower, b: Tower) -> list[tuple[int, int]]:
    """Pairs sorted so that each product level is a prefix: by the level at
    which the pair first appears, then lexicographically."""
    return list(_pair_order(a._heights, b._heights))


@functools.lru_cache(maxsize=1)
def _pair_order(ha: tuple[int, ...], hb: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """``_product_order`` from the factors' heights, kept for the last
    factors asked for: ``product_tower`` and ``product_index`` both ask."""
    # the pairs start in lexicographic order and the sort is stable
    return tuple(sorted(
        itertools.product(range(len(ha)), range(len(hb))),
        key=lambda p: max(ha[p[0]], hb[p[1]]),
    ))


def product_tower(a: Tower, b: Tower) -> Tower:
    """Level-wise product with the coordinate-max pseudometric, which
    presents the product uniformity.

    Per level, each factor row is spread once over the level's pairs, over
    the common denominator: ``ra[i][k]`` is d_a(i, i_k) for the k-th pair
    (i_k, j_k), and ``rb[j][k]`` is d_b(j, j_k).  The row of the pair (i, j)
    is then the entrywise max of ``ra[i]`` and ``rb[j]``.  Every level is
    certified against the factor tables."""
    if a.num_levels != b.num_levels:
        raise LevelCountMismatch(f"{a.num_levels} levels vs {b.num_levels}")
    order = _product_order(a, b)
    labels = [f"({a.labels[i]},{b.labels[j]})" for i, j in order]
    sizes = [a.level_sizes[n] * b.level_sizes[n] for n in range(a.num_levels)]
    metrics = []
    for n in range(a.num_levels):
        da, db = a.metric(n), b.metric(n)
        den = math.lcm(da.den, db.den)
        fa, fb = den // da.den, den // db.den
        pts = order[: sizes[n]]
        first = [i for i, _ in pts]
        second = [j for _, j in pts]
        ra = [[row[i2] * fa for i2 in first] for row in da.numer]
        rb = [[row[j2] * fb for j2 in second] for row in db.numer]
        dist = [[x if x > y else y for x, y in zip(ra[i], rb[j])] for i, j in pts]
        d = Pseudometric._from_numer(den, dist)
        _certify_coordinate_max([da, db], pts, d, n, labels)
        metrics.append(d)
    return Tower._derived(labels, sizes, metrics)


def product_index(a: Tower, b: Tower) -> dict[tuple[int, int], int]:
    return {p: k for k, p in enumerate(_product_order(a, b))}


def product_topology(
    ta: TopologyFamily, tb: TopologyFamily, index: dict[tuple[int, int], int]
) -> TopologyFamily:
    """Product of two finite topologies on the indexed pair set: the
    minimal neighborhood of a pair (i, j) is the rectangle of the factors'
    minimal neighborhoods, ``rows[i] & cols[j]``, where ``rows[i]`` holds
    the pairs whose first coordinate lies in U_i and ``cols[j]`` those
    whose second coordinate lies in U_j."""
    first = [0] * ta.ground_size
    second = [0] * tb.ground_size
    for (i, j), k in index.items():
        first[i] |= 1 << k
        second[j] |= 1 << k
    # the masks of distinct coordinates are disjoint: their sum is their union
    rows = [sum(first[i2] for i2 in bits(m)) for m in ta.min_nbhd]
    cols = [sum(second[j2] for j2 in bits(m)) for m in tb.min_nbhd]
    nbhd = [0] * len(index)
    for (i, j), k in index.items():
        nbhd[k] = rows[i] & cols[j]
    return TopologyFamily(len(index), nbhd)


def check_multiplicativity(a: Tower, b: Tower, prod: Tower) -> TopologyComparison:
    """Limit topology of the product tower ``prod = product_tower(a, b)``
    versus the product of the limit topologies; the expected verdict is
    "equal"."""
    lhs = ulim_topology(prod)
    rhs = product_topology(ulim_topology(a), ulim_topology(b), product_index(a, b))
    return compare_topologies(lhs, rhs)


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
            raise ValidationError("operation table must be square on the top level")
        if len(neg) != n:
            raise ValidationError("inverse table must cover the top level")
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
                            raise InvarianceViolation(
                                f"metric at level {lvl} not invariant under "
                                f"translation by {t.labels[g]}"
                            )

    def metric_ball(self, level: int, radius: Fraction) -> frozenset[int]:
        """Elements of the level subgroup at distance < radius from e."""
        d = self.tower.metric(level)
        q, bound = radius.denominator, radius.numerator * d.den
        return frozenset(g for g in range(d.size) if d.numer[g][0] * q < bound)

    def set_product(self, a: Sequence[int], b: Sequence[int]) -> frozenset[int]:
        return frozenset(self.op[x][y] for x in a for y in b)

    def two_sided_entourage(self, level: int, radius: Fraction) -> Entourage:
        """For an invariant metric the two-sided entourage is the metric
        sublevel {d < radius} on the level subgroup."""
        d = self.tower.metric(level)
        return Entourage(level, d.size, d.sublevel_pairs(Fraction(radius)))


def ordered_product_ball(g: GroupTower, radii: Sequence[Fraction]) -> frozenset[int]:
    """The ordered product U_0 U_1 ... U_m of the per-level identity balls."""
    acc: frozenset[int] = frozenset([0])
    for n, r in enumerate(_radii(g, radii)):
        acc = g.set_product(acc, g.metric_ball(n, r))
    return acc


def _radii(g: GroupTower, radii: Sequence[Fraction]) -> list[Fraction]:
    """The radii as ``Fraction``s: one per level, all positive."""
    if len(radii) != g.tower.num_levels:
        raise LevelCountMismatch("one radius per level required")
    radii = [Fraction(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValidationError("radii must be positive")
    return radii


class GroupLimitVerdict(NamedTuple):
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
    radii = _radii(g, radii)
    entries = tuple(g.two_sided_entourage(n, r) for n, r in enumerate(radii))
    seq = EntourageSequence(t, 0, entries)
    # the finite sum through the top level: one factor per level, exactly
    # matching the ordered product (a repeat-last tail would append extra
    # copies of the top ball that the ordered product does not contain)
    limit_ball = ball(0, sigma_sum(seq, t.top_level))
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


def _box_coordinates(factors: Sequence[PointedSpace], depth: int):
    """``coordinate_tuples`` over the first ``depth`` factors."""
    return _box_order(
        tuple(f.metric.size for f in factors[:depth]), tuple(f.basepoint for f in factors[:depth])
    )


@functools.lru_cache(maxsize=1)
def _box_order(sizes: tuple[int, ...], basepoints: tuple[int, ...]):
    """``coordinate_tuples``, kept for the last factor shapes asked for:
    ``box_tower`` and ``box_topology`` both ask.  Held as tuples, since the
    callers share them."""
    return tuple(map(tuple, coordinate_tuples(sizes, basepoints)))


def box_tower(factors: Sequence[PointedSpace], depth: int) -> Tower:
    """Truncated small box product: level n holds the tuples supported on
    the first n+1 coordinates, with the coordinate-max metric.  The top
    table is certified against the factor tables, and every level is a
    corner of it."""
    if not 1 <= depth <= len(factors):
        raise LevelCountMismatch(f"depth {depth} with {len(factors)} factors")
    order, labels, sizes = _box_coordinates(factors, depth)
    # each level is a prefix of the order and takes the max over all
    # ``depth`` coordinates, so its table is a corner of the top one.  Per
    # coordinate c, each factor row is spread once over the tuples' c-th
    # coordinates; the row of tuple t takes in the spread row of t[c].
    den = math.lcm(*(f.metric.den for f in factors[:depth]))
    top = [[0] * len(order)] * len(order)
    for c, f in enumerate(factors[:depth]):
        fc = den // f.metric.den
        coords = [t[c] for t in order]
        spread = [[row[tc] * fc for tc in coords] for row in f.metric.numer]
        top = [
            [x if x > y else y for x, y in zip(row, spread[tc])] for row, tc in zip(top, coords)
        ]
    d = Pseudometric._from_numer(den, top)
    _certify_coordinate_max([f.metric for f in factors[:depth]], order, d, depth - 1, labels)
    return Tower._derived(labels, sizes, [*(d.restrict(m) for m in sizes[:-1]), d])


def box_topology(factors: Sequence[PointedSpace], depth: int) -> TopologyFamily:
    """The (truncated) box topology on the same indexed ground set:
    minimal neighborhoods are boxes of factor zero-classes."""
    order = _box_coordinates(factors, depth)[0]
    index = {t: k for k, t in enumerate(order)}
    zero_classes = [
        [[j for j, v in enumerate(row) if v == 0] for row in f.metric.numer]
        for f in factors[:depth]
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
