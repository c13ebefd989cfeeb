"""Topologies on the finite ground set: the direct-limit base, the
uniform direct-limit topology, the final (topological direct limit)
topology, and comparison of explicit open-set families.

Every topology on a finite set is determined by the minimal open
neighborhood of each point; families are stored that way (as bitmasks),
and no command lists their open sets.

At finite scale the uniform direct-limit topology is the partition into
top-level zero-classes: ``Tower.validate`` makes consecutive levels agree
on zero-pairs, so each level's zero-relation is the top one restricted to
that level, and the ball of {x} under the zero-relations of levels
height(x), ..., top is the top zero-class of x.

``grid_ball_masks``, the oracle verify checks that against, enumerates
every grid base ball.  Per level, each point's balls under all the level's
grid entourages are built once as one tuple, kept in the caller's memo for
the tower, so a reached set's balls under all of them are one sweep over
its points; at the top level, where the tail closes each ball, the tuples
hold the balls under the grid entourages' connected components.
"""

from __future__ import annotations

from operator import or_
from typing import Iterable, Sequence

from .core import Entourage, Tower, bits, members
from .errors import ValidationError


class TopologyFamily:
    """A topology on {0,...,ground_size-1}, canonically represented by the
    minimal open neighborhood of each point.

    Contains the empty and full sets and is closed under union and finite
    intersection by construction.  The constructor raises
    ``ValidationError`` unless each given set holds its point and the
    set of each of its points, as minimal neighborhoods do.
    """

    __slots__ = ("ground_size", "min_nbhd")

    def __init__(self, ground_size: int, min_nbhd: Sequence[int]):
        if len(min_nbhd) != ground_size:
            raise ValidationError("one minimal neighborhood per point required")
        for x, m in enumerate(min_nbhd):
            if not m >> x & 1:
                raise ValidationError(f"minimal neighborhood of {x} does not contain {x}")
            # minimal neighborhoods must themselves be open
            for y in bits(m):
                if min_nbhd[y] & ~m:
                    raise ValidationError(
                        f"minimal neighborhood of {x} holds {y} but not all of its neighborhood"
                    )
        self.ground_size = ground_size
        self.min_nbhd = tuple(min_nbhd)

    @classmethod
    def from_subbase(cls, ground_size: int, sets: Iterable[int]) -> "TopologyFamily":
        """Topology generated by the given sets (as bitmasks): the minimal
        neighborhood of x is the intersection of all generators containing x."""
        full = (1 << ground_size) - 1
        nbhd = [full] * ground_size
        for s in sets:
            for x in bits(s & full):
                nbhd[x] &= s
        return cls(ground_size, nbhd)

    def is_open_mask(self, s: int) -> bool:
        return not any(self.min_nbhd[x] & ~s for x in bits(s))

    def opens_masks(self) -> list[int]:
        """All open sets, as bitmasks, sorted: the unions of minimal
        neighborhoods.  The tests' reference enumeration, exponential in
        the number of distinct neighborhoods; no production path calls it."""
        found = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for m in self.min_nbhd:
                t = s | m
                if t not in found:
                    found.add(t)
                    frontier.append(t)
        return sorted(found)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TopologyFamily)
            and self.ground_size == other.ground_size
            and self.min_nbhd == other.min_nbhd
        )

    def __hash__(self) -> int:
        return hash((self.ground_size, self.min_nbhd))

    def __repr__(self) -> str:
        sizes = [m.bit_count() for m in self.min_nbhd]
        return f"TopologyFamily(ground_size={self.ground_size}, nbhd_sizes={sizes})"


def compare_topologies(a: TopologyFamily, b: TopologyFamily) -> str:
    """The relation of a to b as sets of opens: "equal", "A_finer",
    "B_finer" or "incomparable"."""
    if a.ground_size != b.ground_size:
        raise ValidationError(f"ground sizes {a.ground_size} != {b.ground_size}")

    # a is finer than b iff every open of b is open in a iff every minimal
    # a-neighborhood lies inside the corresponding b-neighborhood
    a_finer = all(m & ~n == 0 for m, n in zip(a.min_nbhd, b.min_nbhd))
    b_finer = all(n & ~m == 0 for m, n in zip(a.min_nbhd, b.min_nbhd))
    if a_finer:
        return "equal" if b_finer else "A_finer"
    return "B_finer" if b_finer else "incomparable"


def grid_ball_masks(tower: Tower, x: int, memo: dict) -> frozenset[int]:
    """All base balls around x over grid entourage sequences, as bitmasks.

    Enumerated by propagating the reachable sets level by level (the ball
    of a sum grows by one level per summand); at the top level the entry
    and its repeat-last tail together are one step by the entry's
    reflexive-transitive closure, which for a grid entourage, a sublevel
    of a symmetric table, is its connected components.  ``memo`` serves one
    tower: pass the same dict for each of its points.
    """
    return _grid_balls(tower, tower.height(x), 1 << x, memo)


def _grid_balls(tower: Tower, level: int, s: int, memo: dict) -> frozenset[int]:
    """The balls the set ``s`` reaches from ``level`` to the top: its ball
    under each grid entourage of ``level``, carried on through the levels
    above, or at the top level its ball under each one's components.

    Each point's balls under all of a level's grid entourages are built
    once per level, as one tuple, so the balls of ``s`` are the entry-wise
    OR of its points' tuples, one sweep over ``s``.  The points of a tower
    reach many of the same sets, so the caller's ``memo`` for the tower
    keeps the tuples under ``level`` and the results under (level, set)."""
    out = memo.get((level, s))
    if out is None:
        rows = memo.get(level)
        if rows is None:
            grid = tower.grid_entourages(level)
            if level == tower.top_level:
                grid = tuple(u.components() for u in grid)
            rows = memo[level] = tuple(zip(*(u.columns() for u in grid)))
        balls = [0] * len(rows[0])
        for x in bits(s):
            balls = list(map(or_, balls, rows[x]))
        if level == tower.top_level:
            out = frozenset(balls)
        else:
            out = frozenset()
            # the balls of the nested grid entourages repeat one another
            for b in set(balls):
                out |= _grid_balls(tower, level + 1, b, memo)
        memo[level, s] = out
    return out


def minimal_grid_ball(tower: Tower, x: int) -> frozenset[int]:
    """The smallest grid base ball around x, the one of the level
    zero-relations: the top zero-class of x.  Contained in every grid base
    ball around x."""
    tower.height(x)  # refused outside the ground set
    return members(tower.zero_relation(tower.top_level).columns()[x])


def ulim_topology(tower: Tower) -> TopologyFamily:
    """Topology of the uniform direct limit, generated by all base balls.

    Grid entourages form a base of each level's uniformity and the ball of
    a sum is monotone in every entry, so the ball of the level
    zero-relations, the top zero-class, lies inside every base ball around
    x; base balls being open, it is the minimal neighborhood of x.
    ``grid_ball_masks`` enumerates every grid base ball; the verification
    suite checks the two against each other.  Built on the first call and
    kept on the tower, which is not modified after construction.
    """
    top = tower._ulim
    if top is None:
        z = tower.zero_relation(tower.top_level)
        top = tower._ulim = TopologyFamily(tower.ground_size, z.columns())
    return top


def tlim_topology(tower: Tower) -> TopologyFamily:
    """Final topology: a set is open iff its trace on every level is a union
    of zero-classes, i.e. it is closed under every level's zero-relation, so
    x's minimal neighborhood is its component in their union: the top
    zero-relation's rows ORed with each lower level's rows on its points."""
    top = tower.top_level
    rows = list(tower.zero_relation(top).rows)
    for lvl in range(top):
        for x, r in enumerate(tower.zero_relation(lvl).rows):
            rows[x] |= r
    return TopologyFamily(tower.ground_size, Entourage._symmetric(top, rows).components().rows)
