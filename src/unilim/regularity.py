"""Regularity at a subset, the continuity criterion for maps off a
direct limit, the homeomorphism criterion, and direct continuity checking
against the limit topology.

False verdicts carry a concrete counterexample as their certificate.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import Entourage, Tower, bits, members
from .errors import ValidationError
from .relations import ball_set_mask
from .topology import TopologyComparison, TopologyFamily, compare_topologies, ulim_topology


class SpaceMap:
    """A function between tower ground sets, given by a value table over
    the source's top level.  A plain uniform space target is a one-level
    tower."""

    __slots__ = ("source", "target", "values")

    def __init__(self, source: Tower, target: Tower, values: tuple[int, ...]):
        self.source, self.target, self.values = source, target, values
        if len(values) != source.ground_size:
            raise ValidationError("value table must cover the top source level")
        for v in values:
            if not 0 <= v < target.ground_size:
                raise ValidationError(f"target index {v} out of range")

    def __call__(self, x: int) -> int:
        return self.values[x]

    def __eq__(self, other) -> bool:
        return isinstance(other, SpaceMap) and (
            (self.source, self.target, self.values) == (other.source, other.target, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.values))


class RegularityVerdict(NamedTuple):
    regular: bool
    level: int
    failing_u: Optional[Entourage] = None
    failing_v: Optional[Entourage] = None
    failing_point: Optional[int] = None
    # metadata: whether the lower level is closed in this level (no outside
    # point carries a zero-pair into it); non-closed instances are flagged,
    # not rejected
    subset_closed: bool = True


def is_regular_at(f: SpaceMap, level: int) -> RegularityVerdict:
    """Regularity of f restricted to the given level, at the subset one
    level below, quantified over grid entourages.

    The condition is antitone in W and monotone in U and V, and each
    quantifier's smallest grid entourage is a zero-relation: the source
    level's, z, for V and W, the target's top level's, u, for U (at finite
    scale the target's limit uniformity is that of its top metric).  One
    check at those three is therefore complete, and its defeating point is
    the first one any (U, V) grid pair would give: the lowest x in
    B(X_{n-1}; z) whose z-row meets X_{n-1} in no point a with f(a) in
    u's row at f(x).
    """
    t = f.source
    if not 1 <= level <= t.top_level:
        raise ValidationError(f"regularity needs a level in 1..{t.top_level}")
    u0 = f.target.zero_relation(f.target.top_level)
    z = t.zero_relation(level)
    below = (1 << t.level_sizes[level - 1]) - 1
    ball = ball_set_mask(below, z)
    closed = not ball & ~below
    for x in bits(ball):
        if not any(u0.rows[f(x)] >> f(a) & 1 for a in bits(z.rows[x] & below)):
            return RegularityVerdict(
                False, level, failing_u=u0, failing_v=z, failing_point=x, subset_closed=closed
            )
    return RegularityVerdict(True, level, subset_closed=closed)


class ContinuityVerdict(NamedTuple):
    continuous: bool
    witness_open: Optional[frozenset[int]] = None  # target open with non-open preimage


def is_continuous(f: SpaceMap) -> ContinuityVerdict:
    """Direct check against the limit topologies.  A finite space is
    Alexandrov, so f is continuous iff f maps each minimal source
    neighborhood U_x into U_{f(x)}.  At the first x where it does not,
    U_{f(x)} is a target open whose preimage holds x but not all of U_x,
    so that preimage is not open."""
    src = ulim_topology(f.source).min_nbhd
    tgt = ulim_topology(f.target).min_nbhd
    for x, m in enumerate(src):
        u = tgt[f(x)]
        for y in bits(m):
            if not u >> f(y) & 1:
                return ContinuityVerdict(False, members(u))
    return ContinuityVerdict(True)


class CriterionVerdict(NamedTuple):
    hypothesis: bool
    conclusion: bool
    # certificates
    discontinuous_level: Optional[int] = None
    zero_pair: Optional[tuple[int, int]] = None
    regularity: tuple[RegularityVerdict, ...] = ()
    continuity: Optional[ContinuityVerdict] = None
    theorem_violation: bool = False  # hypothesis true but map discontinuous

    def to_json(self) -> dict:
        return {"hypothesis": self.hypothesis, "continuous": self.conclusion}


def _restriction_continuous(f: SpaceMap, n: int) -> Optional[tuple[int, int]]:
    """Finite form of continuity of f on level n: zero-pairs map to
    zero-pairs of the target's top metric.  Returns the first violating
    pair in row-major order."""
    u = f.target.metric(f.target.top_level).zero_classes
    for i, z in enumerate(f.source.metric(n).zero_classes):
        for j in bits(z):
            if not u[f(i)] >> f(j) & 1:
                return (i, j)
    return None


def continuity_criterion(f: SpaceMap) -> CriterionVerdict:
    """Continuity criterion: the hypothesis (restrictions continuous and
    regular one level down) together with the direct continuity
    conclusion.  A true hypothesis with a false conclusion is an
    implementation bug and is flagged as a theorem violation."""
    t = f.source
    cont = is_continuous(f)
    for n in range(t.num_levels):
        bad = _restriction_continuous(f, n)
        if bad is not None:
            return CriterionVerdict(
                False,
                cont.continuous,
                discontinuous_level=n,
                zero_pair=bad,
                continuity=cont,
            )
    regs = []
    for n in range(1, t.num_levels):
        r = is_regular_at(f, n)
        regs.append(r)
        if not r.regular:
            return CriterionVerdict(
                False, cont.continuous, regularity=tuple(regs), continuity=cont
            )
    return CriterionVerdict(
        True,
        cont.continuous,
        regularity=tuple(regs),
        continuity=cont,
        theorem_violation=not cont.continuous,
    )


class HomeoVerdict(NamedTuple):
    homeomorphism: bool
    forward: CriterionVerdict
    backward: CriterionVerdict
    transport_comparison: TopologyComparison

    def to_json(self) -> dict:
        return {
            "homeomorphism": self.homeomorphism,
            "transport": self.transport_comparison.relation,
        }


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

    src = ulim_topology(h.source)
    tgt = ulim_topology(h.target)
    transported = transport_topology(src, h.values)
    comparison = compare_topologies(transported, tgt)
    return HomeoVerdict(
        fwd.conclusion and bwd.conclusion, fwd, bwd, comparison
    )


def transport_topology(top, bijection):
    """Push a topology forward along a bijection of the ground set."""
    n = top.ground_size
    nbhd = [0] * n
    for x, m in enumerate(top.min_nbhd):
        nbhd[bijection[x]] = sum(1 << bijection[y] for y in bits(m))
    return TopologyFamily(n, nbhd)
