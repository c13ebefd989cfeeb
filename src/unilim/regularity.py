"""Regularity at a subset, the continuity criterion for maps off a
direct limit, the homeomorphism criterion, and direct continuity checking
against the limit topology.

A verdict holds only what a command prints, a check compares or an exit
code branches on: regularity and direct continuity are booleans, and a
theorem violation is derived from the verdict's own fields.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Tower, bits
from .errors import ValidationError, _shown
from .relations import ball_set_mask
from .topology import TopologyFamily, compare_topologies, ulim_topology


class SpaceMap:
    """A function between tower ground sets, given by a value table over
    the source's top level.  A plain uniform space target is a one-level
    tower."""

    __slots__ = ("source", "target", "values")

    def __init__(self, source: Tower, target: Tower, values: tuple[int, ...]):
        self.source, self.target, self.values = source, target, values
        if len(values) != source.ground_size:
            raise ValidationError("value table must cover the top source level")
        n = target.ground_size
        for k, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                raise ValidationError(f"values[{k}]: {_shown(v)} is not an element index below {n}")

    def __call__(self, x: int) -> int:
        return self.values[x]

    def __eq__(self, other) -> bool:
        return isinstance(other, SpaceMap) and (
            (self.source, self.target, self.values) == (other.source, other.target, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.values))


def is_regular_at(f: SpaceMap, level: int) -> bool:
    """Regularity of f restricted to the given level, at the subset one
    level below, quantified over grid entourages.

    The condition is antitone in W and monotone in U and V, and each
    quantifier's smallest grid entourage is a zero-relation: the source
    level's, z, for V and W, the target's top level's, u, for U (at finite
    scale the target's limit uniformity is that of its top metric).  One
    check at those three is therefore complete: every x in B(X_{n-1}; z)
    has a point a of X_{n-1} in its z-row with f(a) in u's row at f(x).
    """
    t = f.source
    if not 1 <= level <= t.top_level:
        raise ValidationError(f"regularity needs a level in 1..{t.top_level}")
    u0 = f.target.zero_relation(f.target.top_level)
    z = t.zero_relation(level)
    below = (1 << t.level_sizes[level - 1]) - 1
    return all(
        any(u0.rows[f(x)] >> f(a) & 1 for a in bits(z.rows[x] & below))
        for x in bits(ball_set_mask(below, z))
    )


def is_continuous(f: SpaceMap) -> bool:
    """Direct check against the limit topologies.  A finite space is
    Alexandrov, so f is continuous iff f maps each minimal source
    neighborhood U_x into U_{f(x)}."""
    src = ulim_topology(f.source).min_nbhd
    tgt = ulim_topology(f.target).min_nbhd
    for x, m in enumerate(src):
        u = tgt[f(x)]
        for y in bits(m):
            if not u >> f(y) & 1:
                return False
    return True


class CriterionVerdict(NamedTuple):
    hypothesis: bool
    conclusion: bool

    @property
    def theorem_violation(self) -> bool:
        """A true hypothesis with a discontinuous map: an implementation bug."""
        return self.hypothesis and not self.conclusion

    def to_json(self) -> dict:
        return {"hypothesis": self.hypothesis, "continuous": self.conclusion}


def _restriction_continuous(f: SpaceMap, n: int) -> bool:
    """Finite form of continuity of f on level n: zero-pairs map to
    zero-pairs of the target's top metric."""
    u = f.target.metric(f.target.top_level).zero_classes
    return all(
        u[f(i)] >> f(j) & 1
        for i, z in enumerate(f.source.metric(n).zero_classes)
        for j in bits(z)
    )


def continuity_criterion(f: SpaceMap) -> CriterionVerdict:
    """Continuity criterion: the hypothesis (restrictions continuous and
    regular one level down) together with the direct continuity
    conclusion."""
    levels = range(f.source.num_levels)
    hypothesis = all(_restriction_continuous(f, n) for n in levels) and all(
        is_regular_at(f, n) for n in levels[1:]
    )
    return CriterionVerdict(hypothesis, is_continuous(f))


class HomeoVerdict(NamedTuple):
    homeomorphism: bool
    forward: CriterionVerdict
    backward: CriterionVerdict
    transport: str  # compare_topologies of the transported source and the target

    @property
    def theorem_violation(self) -> bool:
        """Either direction's criterion is violated, or the direct verdict
        disagrees with the transported topologies: an implementation bug."""
        return (
            self.forward.theorem_violation
            or self.backward.theorem_violation
            or self.homeomorphism != (self.transport == "equal")
        )

    def to_json(self) -> dict:
        return {"homeomorphism": self.homeomorphism, "transport": self.transport}


def homeo_criterion(h: SpaceMap, h_inv: SpaceMap) -> HomeoVerdict:
    """Homeomorphism check: both directions continuous per the criterion,
    cross-checked against a comparison of the limit topologies transported
    along the bijection."""
    ns, nt = h.source.ground_size, h.target.ground_size
    if ns != nt or sorted(h.values) != list(range(nt)):
        raise ValidationError("map is not a bijection of the top levels")
    # h is a bijection, so h_inv o h = id makes h o h_inv = id as well
    for x, label in enumerate(h.source.labels):
        if h_inv(h(x)) != x:
            raise ValidationError(f"h_inv(h({label})) != {label}")

    fwd = continuity_criterion(h)
    bwd = continuity_criterion(h_inv)
    transported = transport_topology(ulim_topology(h.source), h.values)
    return HomeoVerdict(
        fwd.conclusion and bwd.conclusion, fwd, bwd,
        compare_topologies(transported, ulim_topology(h.target)),
    )


def transport_topology(top, bijection):
    """Push a topology forward along a bijection of the ground set."""
    n = top.ground_size
    nbhd = [0] * n
    for x, m in enumerate(top.min_nbhd):
        nbhd[bijection[x]] = sum(1 << bijection[y] for y in bits(m))
    return TopologyFamily(n, nbhd)
