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

from typing import Union

from .core import Entourage, Tower, bits, members
from .errors import ValidationError, _shown

OMEGA = "omega"

REPEAT_LAST = "repeat_last"


def _promoted(u: Entourage, v: Entourage) -> tuple[Entourage, Entourage]:
    if u.level == v.level:
        if u.size != v.size:
            raise ValidationError(f"same level {u.level} but sizes {u.size} != {v.size}")
        return u, v
    if u.level < v.level:
        if u.size > v.size:
            raise ValidationError("lower level is larger than higher level")
        return u.promote(v.level, v.size), v
    if v.size > u.size:
        raise ValidationError("lower level is larger than higher level")
    return u, v.promote(u.level, u.size)


def compose(u: Entourage, v: Entourage) -> Entourage:
    """The sum U+V: pairs (x, z) admitting y with (x, y) in V and (y, z) in U.

    Both operands are promoted to the larger of the two levels first.
    Associative, not commutative.
    """
    u, v = _promoted(u, v)
    urows = u.rows
    rows = []
    for r in v.rows:
        acc = 0
        for y in bits(r):
            acc |= urows[y]
        rows.append(acc)
    return Entourage._from_rows(u.level, rows)


def multiple(u: Entourage, k: int) -> Entourage:
    """k-fold sum: 1*U = U, (k+1)*U = k*U + U.  Once j*U + U == j*U, every
    later multiple is j*U too, so the sums stop there."""
    if k < 1:
        raise ValidationError(f"multiple requires k >= 1, got {k}")
    acc = u
    for _ in range(k - 1):
        nxt = compose(acc, u)
        if nxt == acc:
            break
        acc = nxt
    return acc


class EntourageSequence:
    """One entourage per level from ``start`` up to the tower's top, plus a
    tail policy describing the entries beyond the top level."""

    __slots__ = ("tower", "start", "entries", "tail_policy")

    def __init__(
        self,
        tower: Tower,
        start: int,
        entries: tuple[Entourage, ...],
        tail_policy: Union[str, Entourage] = REPEAT_LAST,
    ):
        self.tower, self.start, self.entries, self.tail_policy = tower, start, entries, tail_policy
        t = tower
        if not 0 <= start <= t.top_level:
            raise ValidationError(f"start level {start}")
        if len(entries) != t.top_level - start + 1:
            raise ValidationError(
                f"expected entries for levels {start}..{t.top_level}, "
                f"got {len(entries)}"
            )
        for offset, e in enumerate(entries):
            n = start + offset
            if e.level != n or e.size != t.level_sizes[n]:
                raise ValidationError(f"entry for level {n} has level {e.level}")
        if isinstance(tail_policy, Entourage):
            if tail_policy.size != t.ground_size:
                raise ValidationError("tail entourage must live on the top level")
        elif tail_policy != REPEAT_LAST:
            raise ValidationError(f"unknown tail policy {_shown(tail_policy)}")

    def entry(self, n: int) -> Entourage:
        return self.entries[n - self.start]

    def tail(self) -> Entourage:
        if isinstance(self.tail_policy, Entourage):
            return self.tail_policy
        return self.entries[-1].promote(self.tower.top_level, self.tower.ground_size)


def sigma_sum(seq: EntourageSequence, upto) -> Entourage:
    """Sum of the sequence through level ``upto``, or the stabilized omega
    sum: the finite sum through the top level followed by every finite
    repeat of the tail entourage, which is the sum with the tail's
    reflexive-transitive closure, its (size-1)-fold sum."""
    t = seq.tower
    if upto == OMEGA:
        finite_top = t.top_level
    else:
        if upto < seq.start:
            raise ValidationError(f"upto={upto} below start={seq.start}")
        if upto > t.top_level:
            raise ValidationError(f"upto={upto} beyond top level {t.top_level}")
        finite_top = upto
    acc = seq.entries[0]
    for n in range(seq.start + 1, finite_top + 1):
        acc = compose(acc, seq.entry(n))
    if upto != OMEGA:
        return acc
    tail = seq.tail()
    return compose(acc.promote(t.top_level, t.ground_size), multiple(tail, max(1, tail.size - 1)))


def ball(x: int, u: Entourage) -> frozenset[int]:
    """B(x; U) = {y : (y, x) in U}."""
    if not 0 <= x < u.size:
        raise ValidationError(f"element {x} outside level of size {u.size}")
    return members(u.columns()[x])


def ball_set_mask(mask: int, u: Entourage) -> int:
    """B(A; U), the union of the balls around the points of A, a bitmask."""
    cols = u.columns()
    out = 0
    for x in bits(mask):
        out |= cols[x]
    return out

