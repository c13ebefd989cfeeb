"""Arithmetic of entourages: composition-as-addition, integer multiples,
stabilizing sums over a tower, and balls.

Orientation convention.  Balls collect first coordinates,
``B(x; U) = {y : (y, x) in U}``, and composition is fixed so that

    B(B(x; U); V) == B(x; compose(U, V))

holds for all relations: the second summand is the step applied last when
a ball of a sum is unfolded.  Sums of entourage sequences fold the entries
in ascending level order, so ``B(x; sigma)`` grows the ball level by
level, exactly as the openness argument for the direct-limit base uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .core import Entourage, Tower
from .errors import IndexOutOfRange, LevelMismatch, NotAnEntourage, StartMismatch

OMEGA = "omega"

REPEAT_LAST = "repeat_last"


def _promoted(u: Entourage, v: Entourage) -> tuple[Entourage, Entourage]:
    if u.level == v.level:
        if u.size != v.size:
            raise LevelMismatch(f"same level {u.level} but sizes {u.size} != {v.size}")
        return u, v
    if u.level < v.level:
        if u.size > v.size:
            raise LevelMismatch("lower level is larger than higher level")
        return u.promote(v.level, v.size), v
    if v.size > u.size:
        raise LevelMismatch("lower level is larger than higher level")
    return u, v.promote(u.level, u.size)


def compose(u: Entourage, v: Entourage) -> Entourage:
    """The sum U+V: pairs (x, z) admitting y with (x, y) in V and (y, z) in U.

    Both operands are promoted to the larger of the two levels first.
    Associative, not commutative.
    """
    u, v = _promoted(u, v)
    urows = u.rows
    rows = []
    for x in range(u.size):
        r = v.rows[x]
        acc = 0
        while r:
            y = (r & -r).bit_length() - 1
            acc |= urows[y]
            r &= r - 1
        rows.append(acc)
    return Entourage._from_rows(u.level, rows)


def multiple(u: Entourage, k: int) -> Entourage:
    """k-fold sum: 1*U = U, (k+1)*U = k*U + U."""
    if k < 1:
        raise ValueError("multiple requires k >= 1")
    acc = u
    for _ in range(k - 1):
        acc = compose(acc, u)
    return acc


@dataclass(frozen=True)
class EntourageSequence:
    """One entourage per level from ``start`` up to the tower's top, plus a
    tail policy describing the entries beyond the top level."""

    tower: Tower
    start: int
    entries: tuple[Entourage, ...]
    tail_policy: Union[str, Entourage] = REPEAT_LAST

    def __post_init__(self):
        t = self.tower
        if not 0 <= self.start <= t.top_level:
            raise IndexOutOfRange(f"start level {self.start}")
        if len(self.entries) != t.top_level - self.start + 1:
            raise LevelMismatch(
                f"expected entries for levels {self.start}..{t.top_level}, "
                f"got {len(self.entries)}"
            )
        for offset, e in enumerate(self.entries):
            n = self.start + offset
            if e.level != n or e.size != t.level_sizes[n]:
                raise LevelMismatch(f"entry for level {n} has level {e.level}")
        tail = self.tail_policy
        if isinstance(tail, Entourage):
            if tail.size != t.ground_size:
                raise LevelMismatch("tail entourage must live on the top level")
        elif tail != REPEAT_LAST:
            raise ValueError(f"unknown tail policy {tail!r}")

    def entry(self, n: int) -> Entourage:
        return self.entries[n - self.start]

    def tail(self) -> Entourage:
        if isinstance(self.tail_policy, Entourage):
            return self.tail_policy
        return self.entries[-1].promote(self.tower.top_level, self.tower.ground_size)

    def check_entourages(self) -> None:
        """Require each entry to contain its level's zero-relation."""
        for e in self.entries:
            if not self.tower.zero_relation(e.level).issubset(e):
                raise NotAnEntourage(e.level)


def sigma_sum(seq: EntourageSequence, upto) -> Entourage:
    """Sum of the sequence through level ``upto``, or the stabilized omega
    sum: the finite sum through the top level followed by every finite
    repeat of the tail entourage, which is the sum with the tail's
    reflexive-transitive closure."""
    t = seq.tower
    if upto == OMEGA:
        finite_top = t.top_level
    else:
        if upto < seq.start:
            raise StartMismatch(f"upto={upto} below start={seq.start}")
        if upto > t.top_level:
            raise IndexOutOfRange(f"upto={upto} beyond top level {t.top_level}")
        finite_top = upto
    acc = seq.entries[0]
    for n in range(seq.start + 1, finite_top + 1):
        acc = compose(acc, seq.entry(n))
    if upto != OMEGA:
        return acc
    return compose(acc.promote(t.top_level, t.ground_size), seq.tail().closure())


def ball(x: int, u: Entourage) -> frozenset[int]:
    """B(x; U) = {y : (y, x) in U}."""
    if not 0 <= x < u.size:
        raise IndexOutOfRange(f"element {x} outside level of size {u.size}")
    mask = u.columns()[x]
    return frozenset(i for i in range(u.size) if mask >> i & 1)


def ball_set(a: Iterable[int], u: Entourage) -> frozenset[int]:
    """B(A; U): union of the balls around the points of A."""
    mask = 0
    cols = u.columns()
    for x in a:
        if not 0 <= x < u.size:
            raise IndexOutOfRange(f"element {x} outside level of size {u.size}")
        mask |= cols[x]
    return frozenset(i for i in range(u.size) if mask >> i & 1)


def ball_set_mask(mask: int, u: Entourage) -> int:
    """ball_set on bitmasks; used by the topology enumeration loops."""
    cols = u.columns()
    out = 0
    m = mask
    while m:
        x = (m & -m).bit_length() - 1
        out |= cols[x]
        m &= m - 1
    return out


def grid_sequence(tower: Tower, start: int, choices: Sequence[int]) -> EntourageSequence:
    """Entourage sequence picking, per level, the grid entourage with the
    given threshold index."""
    entries = []
    for offset, c in enumerate(choices):
        n = start + offset
        entries.append(tower.grid_entourages(n)[c])
    return EntourageSequence(tower, start, tuple(entries))
