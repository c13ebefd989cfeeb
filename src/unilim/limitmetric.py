"""The direct-limit pseudometric of a monotone sequence and its supporting
constructions: valley-chain normal form, pseudometric extension along the
tower, adequate sequences, and the quantitative generation check.

The defining infimum over chains is attained by a simple chain (edge
weights are nonnegative, so deleting a revisited point never increases the
weight), which turns the limit pseudometric into an all-pairs shortest
path problem over exact rationals.  Points at distance 0 in the top metric
have the same limit row, so the closure runs on the lowest point of each
such class only.  The infimum is also attained by a valley chain, whose
heights strictly fall, take at most one flat link and strictly rise; one
forward DP from x over (point, phase) states gives both the valley
distance to every point and, from its predecessors, the witness chain.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import (
    Entourage,
    MonotonePseudometricSequence,
    Pseudometric,
    Tower,
    bits,
    closure_in_place,
)
from .errors import ValidationError
from .relations import multiple


def chain_weight(seq: MonotonePseudometricSequence, points: Sequence[int]) -> Fraction:
    """Sum of link distances along a nonempty chain of element indices,
    each measured at the link's pair height: the chain's entries of
    ``_link_weights``, the table the closure and the valley DP read, over
    that table's denominator."""
    if not points:
        raise ValidationError("chain must be nonempty")
    n = seq.tower.ground_size
    for x in points:
        if not 0 <= x < n:
            raise ValidationError(f"chain point {x}")
    den, w = _link_weights(seq)
    return Fraction(sum(w[a][b] for a, b in zip(points, points[1:])), den)


def _link_weights(seq: MonotonePseudometricSequence) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Each pair's distance at its pair height, as ints over ``den``, the
    lcm of the sequence's denominators.  Built on the first call and kept
    in ``seq._links``: the closure reads it, and the valley DP and
    ``chain_weight`` read it once per start point or chain.

    Heights grow with the index, so row x takes level h(x) up to that
    level's size and then, level by level, the points born higher; a part
    whose level is already over ``den`` is taken as it is.
    """
    if seq._links is not None:
        return seq._links
    t = seq.tower
    metrics = seq.metrics
    den = math.lcm(*(d.den for d in metrics))
    scales = [den // d.den for d in metrics]
    sizes = t.level_sizes
    w = []
    for x, h in enumerate(t._heights):
        f = scales[h]
        row = list(metrics[h].numer[x]) if f == 1 else [v * f for v in metrics[h].numer[x]]
        for n in range(h + 1, len(sizes)):
            f = scales[n]
            part = metrics[n].numer[x][sizes[n - 1]:]
            row += part if f == 1 else [v * f for v in part]
        w.append(tuple(row))
    seq._links = den, tuple(w)
    return seq._links


def limit_pseudometric(seq: MonotonePseudometricSequence) -> Pseudometric:
    """Minimum chain weight for each pair: all-pairs shortest path of the
    complete graph weighted by pair-height distances, closed on one
    representative of each zero class of the tower's top metric, its lowest
    point, and read there for every other point.

    Let x be the lowest point of its class and y a classmate, so h(x) <=
    h(y).  Levels agree on zero-pairs and each d_n is uniform, so d_m(x, y)
    = 0 for every m >= h(y); with m = max(h(y), h(z)), the triangle
    inequality and monotonicity give w(y, z) = d_m(x, z) >= w(x, z), and
    w(x, y) = 0.  So moving each point of a chain to its class's
    representative makes no link heavier, and y's limit row is x's.

    Built on the first call and kept in ``seq._limit``, so the checks that
    read one sequence's limit share one table."""
    if seq._limit is not None:
        return seq._limit
    den, w = _link_weights(seq)
    t = seq.tower
    lowest = [(c & -c).bit_length() - 1 for c in t.metric(t.top_level).zero_classes]
    reps = list(dict.fromkeys(lowest))
    index = {r: k for k, r in enumerate(reps)}
    # each point's index among the representatives: its row and column of
    # their closed table
    at = [index[r] for r in lowest]
    closed = closure_in_place([[w[a][b] for b in reps] for a in reps])
    rows = [[row[k] for k in at] for row in closed]
    seq._limit = Pseudometric._from_numer(den, [rows[k] for k in at])
    return seq._limit


@functools.lru_cache(maxsize=1)
def _valley_row(
    seq: MonotonePseudometricSequence, x: int
) -> tuple[int, tuple[int, ...], tuple[int | None, ...]]:
    """The cheapest valley chain from x to every point, by one forward DP
    over (point, phase) states: v is "descending at v", n + v "past the
    turn at v".  State v costs the cheapest strictly descending chain from
    x to v; state n + v starts at that cost, and only a strictly cheaper
    flat link from a descending state or rising link from a state past the
    turn replaces it, so no recorded chain revisits a point.  ``down`` and
    ``up`` hold the two phases' costs.  Returns ``den``, the costs past the
    turn as ints over ``den``, and each state's predecessor.  Kept for the
    last (seq, x): L-mod asks once per pair.

    Heights grow with the index, so the points higher than v are those
    from the end of v's level on, and the points lower than v those before
    its height band starts.  Each loop visits only the points its test can
    admit, in index order, so a tie keeps the predecessor that a scan over
    every point keeps; the link table is symmetric, so v's row holds
    w(u, v)."""
    t = seq.tower
    n = t.ground_size
    den, w = _link_weights(seq)
    h = t._heights
    sizes = t.level_sizes
    starts = (0, *sizes)
    # more than any chain weighs: no chain reaches the state yet
    down = [sum(map(sum, w)) + 1] * n
    up = [0] * n
    back: list[int | None] = [None] * (2 * n)
    down[x] = 0
    # a descent from x reaches no point after x
    for v in reversed(range(x)):
        wv = w[v]
        for u in range(sizes[h[v]], x + 1):
            if down[u] + wv[u] < down[v]:
                down[v], back[v] = down[u] + wv[u], u
    # a rising link reads up[u] of a lower band, whose points come first
    for v in range(n):
        wv = w[v]
        best, via = down[v], v
        for u in range(starts[h[v]]):
            if up[u] + wv[u] < best:  # rising link, past the turn
                best, via = up[u] + wv[u], n + u
        for u in range(starts[h[v]], sizes[h[v]]):
            if u != v and down[u] + wv[u] < best:  # flat link, from the descent
                best, via = down[u] + wv[u], u
        up[v], back[n + v] = best, via
    return den, tuple(up), tuple(back)


def _valley_row_to(seq: MonotonePseudometricSequence, x: int, y: int):
    """The valley DP row from x, once x and y are known to be points."""
    n = seq.tower.ground_size
    for p in (x, y):
        if not 0 <= p < n:
            raise ValidationError(f"element {p}")
    return _valley_row(seq, x)


def valley_distance(seq: MonotonePseudometricSequence, x: int, y: int) -> Fraction:
    """Minimum weight over valley chains from x to y: every interior point
    lower than the higher of its neighbors, i.e. heights strictly decrease
    to a valley, take at most one flat link, and then strictly increase."""
    den, up, _ = _valley_row_to(seq, x, y)
    return Fraction(up[y], den)


def witness_chain(seq: MonotonePseudometricSequence, x: int, y: int) -> tuple[int, ...]:
    """A valley chain from x to y of weight d(x, y), simple and optimal: the
    valley DP's predecessors walked back from y past the turn to x."""
    _, _, back = _valley_row_to(seq, x, y)
    n = seq.tower.ground_size
    points, s = [y], n + y
    while s != x:
        s = back[s]
        if s % n != points[-1]:
            points.append(s % n)
    return tuple(reversed(points))


def extend_pseudometric(tower: Tower, rho: Pseudometric, to_level: int) -> Pseudometric:
    """Extend a uniform pseudometric on a lower level to a higher one,
    level by level, with exact restriction.

    One step uses Lipschitz domination plus two-sided gluing: with
    D = L * d_next for L large enough that D dominates rho on the lower
    square, the extension is min(D(x,y), min over a,b below of
    D(x,a) + rho(a,b) + D(b,y)).
    """
    try:
        k = tower.level_sizes.index(rho.size)
    except ValueError:
        raise ValidationError(f"no level has size {rho.size}") from None
    if not k <= to_level <= tower.top_level:
        raise ValidationError(f"target level {to_level}")
    rho.validate(k, tower.labels)
    tower._check_uniform(k, rho, "pseudometric")

    cur = rho
    for n in range(k + 1, to_level + 1):
        cur = _extend_one(tower, cur, n)
    return cur


def sum_of_extensions(tower: Tower, pieces: Sequence[Pseudometric]) -> MonotonePseudometricSequence:
    """The monotone sequence whose n-th metric is the sum over k <= n of
    the k-th piece (a uniform pseudometric on level k) extended level by
    level up to level n.  Each piece is checked once, as it joins: its
    size and its uniformity on its level; an extension of a uniform
    pseudometric is uniform, so the carried pieces are not checked again."""
    sizes = tower.level_sizes
    metrics = []
    carried: list[Pseudometric] = []
    for n, piece in enumerate(pieces):
        # tower.metric refuses a piece past the top level, naming the level
        if piece.size != tower.metric(n).size:
            raise ValidationError(f"piece at level {n} has size {piece.size}, expected {sizes[n]}")
        tower._check_uniform(n, piece, "pseudometric")
        carried = [_extend_one(tower, r, n) for r in carried]
        carried.append(piece)
        den = math.lcm(*(r.den for r in carried))
        total = [[0] * sizes[n] for _ in range(sizes[n])]
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
    top * d.numer and rho has numerators low * rho.numer.

    The extension is the shortest-path closure of D with its lower square
    overwritten by rho.  D dominates rho there and both are pseudometrics,
    so any chain collapses to x - D - a - rho - b - D - y: the closure is
    min(D(x, y), min over a, b below of D(x, a) + rho(a, b) + D(b, y)), the
    two-sided gluing."""
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
    table = [[top * v for v in row] for row in d.numer]
    for row, rrow in zip(table, rho.numer):
        row[:m_low] = [low * v for v in rrow]
    return Pseudometric._from_numer(rho.den * low, closure_in_place(table))


def _target_indicator(tower: Tower, level: int, target: Entourage) -> Pseudometric:
    """Bounded uniform pseudometric with {rho < 1} inside the target.

    The mutual-membership pairs of the target, ``rows & columns``, form a
    symmetric reflexive relation; the 0/1 pseudometric vanishing on its
    connected components (``Entourage.components``), and 1 elsewhere, is
    the shortest-path repair of its 0/1 indicator.  A component can escape
    a non-transitive target, in which case the zero-set falls back to the
    level's zero-relation (always inside any entourage of the level's
    uniformity).
    """
    mutual = Entourage._symmetric(level, [r & c for r, c in zip(target.rows, target.columns())])
    comps = mutual.components().rows
    if any(c & ~r for c, r in zip(comps, target.rows)):
        comps = tower.zero_relation(level).rows
    m = len(comps)
    return Pseudometric._from_numer(1, [[1 - (c >> j & 1) for j in range(m)] for c in comps])


def adequate_sequence(tower: Tower, targets: Sequence[Entourage]) -> MonotonePseudometricSequence:
    """A monotone sequence (d_n) with {d_n < 1} inside the n-th target.

    ``targets`` holds one entourage per level, from level 0; each must
    contain its level's zero-relation.  The n-th metric is the sum over
    k <= n of the level-by-level extensions of a bounded 0/1 pseudometric
    whose unit sublevel lies inside the k-th target; the n-th summand alone
    forces {d_n < 1} inside the n-th target.
    """
    if len(targets) != tower.num_levels:
        raise ValidationError("need one target per level")
    for n, e in enumerate(targets):
        if e.size != tower.level_sizes[n]:
            raise ValidationError(f"target at level {n} has wrong size")
        if not tower.zero_relation(n).issubset(e):
            raise ValidationError(f"relation at level {n} misses a zero-pair")
    return sum_of_extensions(
        tower, [_target_indicator(tower, k, e) for k, e in enumerate(targets)]
    )


class GenerationVerdict(NamedTuple):
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
    steps = [e.promote(top, size) for e in ladder]
    if len(steps) < tower.num_levels:
        raise ValidationError("ladder must cover every level of the tower")
    if not multiple(steps[0], 5).issubset(u):
        raise ValidationError("5*U_0 is not contained in U")
    for n in range(len(steps) - 1):
        if not multiple(steps[n + 1], 2).issubset(steps[n]):
            raise ValidationError(f"2*U_{n + 1} is not contained in U_{n}")
    for n in range(tower.num_levels):
        if any(r & ~s for r, s in zip(seq[n].sublevel(n, Fraction(1)).rows, steps[n].rows)):
            raise ValidationError(f"{{d_{n} < 1}} is not contained in U_{n}")
    # a counterexample is the first pair of {lim < 1} outside U in row-major order
    unit = limit_pseudometric(seq).sublevel(top, Fraction(1)).rows
    for x, (r, s) in enumerate(zip(unit, u.rows)):
        if r & ~s:
            return GenerationVerdict(False, (x, next(bits(r & ~s))))
    return GenerationVerdict(True)
