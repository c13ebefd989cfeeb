"""Topologies on the finite ground set: the direct-limit base, the
uniform direct-limit topology, the final (topological direct limit)
topology, and comparison of explicit open-set families.

Every topology on a finite set is determined by the minimal open
neighborhood of each point; families are stored that way (as bitmasks)
and materialized into explicit open-set lists on demand.  This keeps the
product-tower comparisons affordable where listing every open set would
not be.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Entourage, Tower
from .errors import GroundMismatch, IndexOutOfRange, StartMismatch, TooManyOpens
from .relations import (
    OMEGA,
    EntourageSequence,
    ball,
    ball_set_mask,
    sigma_sum,
)


class TopologyFamily:
    """A topology on {0,...,ground_size-1}, canonically represented by the
    minimal open neighborhood of each point.

    Contains the empty and full sets and is closed under union and finite
    intersection by construction.
    """

    __slots__ = ("ground_size", "min_nbhd")

    def __init__(self, ground_size: int, min_nbhd: Sequence[int]):
        if len(min_nbhd) != ground_size:
            raise GroundMismatch("one minimal neighborhood per point required")
        for x, m in enumerate(min_nbhd):
            if not m >> x & 1:
                raise ValueError(f"minimal neighborhood of {x} does not contain {x}")
        # saturate: minimal neighborhoods must themselves be open
        nbhd = list(min_nbhd)
        changed = True
        while changed:
            changed = False
            for x in range(ground_size):
                m = nbhd[x]
                acc = m
                mm = m
                while mm:
                    y = (mm & -mm).bit_length() - 1
                    acc |= nbhd[y]
                    mm &= mm - 1
                if acc != m:
                    nbhd[x] = acc
                    changed = True
        self.ground_size = ground_size
        self.min_nbhd = tuple(nbhd)

    @classmethod
    def from_subbase(cls, ground_size: int, sets: Iterable[int]) -> "TopologyFamily":
        """Topology generated by the given sets (as bitmasks): the minimal
        neighborhood of x is the intersection of all generators containing x."""
        full = (1 << ground_size) - 1
        nbhd = [full] * ground_size
        for s in sets:
            for x in range(ground_size):
                if s >> x & 1:
                    nbhd[x] &= s
        return cls(ground_size, nbhd)

    @classmethod
    def discrete(cls, ground_size: int) -> "TopologyFamily":
        return cls(ground_size, [1 << x for x in range(ground_size)])

    @classmethod
    def indiscrete(cls, ground_size: int) -> "TopologyFamily":
        full = (1 << ground_size) - 1
        return cls(ground_size, [full] * ground_size)

    def is_open_mask(self, s: int) -> bool:
        m = s
        while m:
            x = (m & -m).bit_length() - 1
            if self.min_nbhd[x] & ~s:
                return False
            m &= m - 1
        return True

    def is_open(self, s: Iterable[int]) -> bool:
        mask = 0
        for x in s:
            mask |= 1 << x
        return self.is_open_mask(mask)

    def opens_masks(self, limit: int = 1 << 16) -> list[int]:
        """All open sets, as bitmasks, canonically sorted.  Opens are
        exactly the unions of minimal neighborhoods."""
        found = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for m in self.min_nbhd:
                t = s | m
                if t not in found:
                    if len(found) >= limit:
                        raise TooManyOpens(f"more than {limit} open sets")
                    found.add(t)
                    frontier.append(t)
        return sorted(found)

    def opens(self) -> list[frozenset[int]]:
        return [
            frozenset(i for i in range(self.ground_size) if s >> i & 1)
            for s in self.opens_masks()
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TopologyFamily)
            and self.ground_size == other.ground_size
            and self.min_nbhd == other.min_nbhd
        )

    def __hash__(self) -> int:
        return hash((self.ground_size, self.min_nbhd))

    def __repr__(self) -> str:
        return f"TopologyFamily(ground_size={self.ground_size}, opens={len(self.opens_masks())})"


@dataclass(frozen=True)
class TopologyComparison:
    relation: str  # equal | A_finer | B_finer | incomparable
    witness: frozenset[int] | None = None
    witness_side: str | None = None  # which family owns the witness open


def compare_topologies(a: TopologyFamily, b: TopologyFamily) -> TopologyComparison:
    """Set-family comparison; the witness is an open set of one family that
    is not open in the other."""
    if a.ground_size != b.ground_size:
        raise GroundMismatch(f"ground sizes {a.ground_size} != {b.ground_size}")

    def as_set(mask: int) -> frozenset[int]:
        return frozenset(i for i in range(a.ground_size) if mask >> i & 1)

    # a is finer than b iff every open of b is open in a iff every minimal
    # a-neighborhood lies inside the corresponding b-neighborhood
    a_finer = all(a.min_nbhd[x] & ~b.min_nbhd[x] == 0 for x in range(a.ground_size))
    b_finer = all(b.min_nbhd[x] & ~a.min_nbhd[x] == 0 for x in range(a.ground_size))
    if a_finer and b_finer:
        return TopologyComparison("equal")
    diff = next(x for x in range(a.ground_size) if a.min_nbhd[x] != b.min_nbhd[x])
    if a_finer:
        # the minimal a-neighborhood at a differing point cannot be b-open
        return TopologyComparison("A_finer", as_set(a.min_nbhd[diff]), "A")
    if b_finer:
        return TopologyComparison("B_finer", as_set(b.min_nbhd[diff]), "B")
    bad = next(x for x in range(a.ground_size) if a.min_nbhd[x] & ~b.min_nbhd[x])
    return TopologyComparison("incomparable", as_set(b.min_nbhd[bad]), "B")


def base_ball(tower: Tower, x: int, seq: EntourageSequence) -> frozenset[int]:
    """The base set B(x; sum of the sequence from height(x))."""
    if not 0 <= x < tower.ground_size:
        raise IndexOutOfRange(f"element {x}")
    if seq.start != tower.height(x):
        raise StartMismatch(
            f"sequence starts at {seq.start}, point has height {tower.height(x)}"
        )
    seq.check_entourages()
    return ball(x, sigma_sum(seq, OMEGA))


def grid_ball_masks(tower: Tower, x: int) -> set[int]:
    """All base balls around x over grid entourage sequences, as bitmasks.

    Enumerated by propagating the reachable sets level by level (the ball
    of a sum grows by one level per summand); at the top level the entry
    and its repeat-last tail together are one step by the entry's
    reflexive-transitive closure.
    """
    h = tower.height(x)
    top = tower.top_level
    sets = {1 << x}
    for n in range(h, top):
        grid = tower.grid_entourages(n)
        sets = {ball_set_mask(s, u) for s in sets for u in grid}
    closed = [u.closure() for u in tower.grid_entourages(top)]
    return {ball_set_mask(s, c) for s in sets for c in closed}


def _minimal_ball_mask(zero_rels: Sequence[Entourage], h: int, x: int) -> int:
    """The smallest grid base ball around a point x of height h, as a
    bitmask: each level's zero-relation is an equivalence relation, so one
    ball step per level from h to the top reaches it."""
    s = 1 << x
    for z in zero_rels[h:]:
        s = ball_set_mask(s, z)
    return s


def minimal_grid_ball(tower: Tower, x: int) -> frozenset[int]:
    """The smallest grid base ball around x: all entries at the level
    zero-relations.  Contained in every grid base ball around x."""
    zero_rels = [tower.zero_relation(n) for n in range(tower.num_levels)]
    s = _minimal_ball_mask(zero_rels, tower.height(x), x)
    return frozenset(i for i in range(tower.ground_size) if s >> i & 1)


def ulim_topology(tower: Tower) -> TopologyFamily:
    """Topology of the uniform direct limit, generated by all base balls.

    Grid entourages form a base of each level's uniformity and the ball of
    a sum is monotone in every entry, so the ball of the level
    zero-relations lies inside every base ball around x; base balls being
    open, it is the minimal neighborhood of x.
    ``grid_ball_masks`` enumerates every grid base ball; the verification
    suite checks the two against each other.
    """
    zero_rels = [tower.zero_relation(n) for n in range(tower.num_levels)]
    n = tower.ground_size
    return TopologyFamily(n, [_minimal_ball_mask(zero_rels, tower.height(x), x) for x in range(n)])


def tlim_topology(tower: Tower) -> TopologyFamily:
    """Final topology: a set is open iff its trace on every level is a
    union of that level's zero-classes."""
    n = tower.ground_size
    zero_cols = []
    for lvl in range(tower.num_levels):
        zero_cols.append(tower.zero_relation(lvl).columns())
    nbhd = []
    for x in range(n):
        s = 1 << x
        changed = True
        while changed:
            changed = False
            for lvl in range(tower.num_levels):
                cols = zero_cols[lvl]
                m = s & ((1 << tower.level_sizes[lvl]) - 1)
                while m:
                    y = (m & -m).bit_length() - 1
                    if cols[y] & ~s:
                        s |= cols[y]
                        changed = True
                    m &= m - 1
        nbhd.append(s)
    return TopologyFamily(n, nbhd)

