"""Theorem-suite runners: each check re-verifies one statement on concrete
instances, against brute force where a brute-force oracle exists.

Verdicts are "pass" when the instance confirms the statement.  A failing
verdict on a valid instance always indicates an implementation bug, never
a property of the instance; so does a library error raised inside a check,
which is reported as a failure.  ``THEOREMS`` maps each theorem id to its
check on a generated instance and its hand-built fixtures.

Two checks are vacuous at finite scale; they stay because they re-check
the paper's statements.  P-lc: consecutive levels share zero-pairs, so
the final topology's fixpoint reaches the top zero-class of each point,
which is the limit topology's closed form.  The regularity half of T5:
continuity of f on the top level already is continuity of f on the limit,
so regularity can never turn a true hypothesis into a false conclusion.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from . import fixtures
from .constructions import (
    GroupTower, box_tower, check_box_limit, check_group_limit, check_multiplicativity, product_tower,
)
from .core import MonotonePseudometricSequence, Tower, bits
from .errors import UnilimError, ValidationError, _shown
from .generate import Instance, generate_instance
from .io import rational_to_json
from .limitmetric import (
    _target_indicator, adequate_sequence, chain_weight, limit_pseudometric, valley_distance,
    verify_generation, witness_chain,
)
from .relations import OMEGA, EntourageSequence, multiple, sigma_sum
from .regularity import SpaceMap, continuity_criterion, homeo_criterion
from .topology import (
    TopologyFamily, compare_topologies, grid_ball_masks, tlim_topology, ulim_topology,
)


@functools.lru_cache(maxsize=1)
def _oracle_links(seq: MonotonePseudometricSequence) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The link weights of ``seq`` as ints over ``den``, the lcm of its
    denominators, from heights built here rather than taken from the
    library's limit path.  Kept for the last sequence asked for, since the
    oracle is asked once per pair."""
    t = seq.tower
    n = t.ground_size
    heights: list[int] = []
    for level, m in enumerate(t.level_sizes):
        heights.extend([level] * (m - len(heights)))
    den = math.lcm(*(d.den for d in seq.metrics))

    def link(a: int, b: int) -> int:
        d = seq[max(heights[a], heights[b])]
        return d.numer[a][b] * (den // d.den)

    return den, tuple(tuple(link(a, b) for b in range(n)) for a in range(n))


def exhaustive_limit_distance(
    seq: MonotonePseudometricSequence, x: int, y: int
) -> Fraction:
    """Brute-force oracle: minimum chain weight over all simple chains,
    enumerated depth first over the oracle's own link table.

    The search is bounded (branch and bound, Land & Doig 1960): a step
    whose prefix already weighs at least the best chain found is not taken.
    The links are distances of validated pseudometrics, so nonnegative, and
    no completion of such a prefix is lighter; the result is still the
    exact minimum over all simple chains.  For x == y the trivial chain
    weighs 0, so the search ends at once."""
    n = seq.tower.ground_size
    den, w = _oracle_links(seq)
    to_y = [row[y] for row in w]
    best = 0 if x == y else w[x][y]

    def extend(last: int, prefix: int, rest: int) -> None:
        # rest is the bitmask of points not yet on the chain, walked in
        # increasing order
        nonlocal best
        wl = w[last]
        m = rest
        while m:
            bit = m & -m
            m ^= bit
            z = bit.bit_length() - 1
            head = prefix + wl[z]
            if head >= best:
                continue
            if head + to_y[z] < best:
                best = head + to_y[z]
            extend(z, head, rest ^ bit)

    extend(x, 0, ((1 << n) - 1) & ~(1 << x) & ~(1 << y))
    return Fraction(best, den)


class VerifyReport:
    """One check's outcome.  Equality leaves out ``wall_time``."""

    __slots__ = ("instance_id", "theorem_id", "verdict", "certificate", "wall_time")

    def __init__(
        self,
        instance_id: str,
        theorem_id: str,
        verdict: bool,
        certificate: Any,
        wall_time: float = 0.0,
    ):
        self.instance_id, self.theorem_id = instance_id, theorem_id
        self.verdict, self.certificate, self.wall_time = verdict, certificate, wall_time

    def __eq__(self, other) -> bool:
        return isinstance(other, VerifyReport) and (
            (self.instance_id, self.theorem_id, self.verdict, self.certificate)
            == (other.instance_id, other.theorem_id, other.verdict, other.certificate)
        )

    def to_json(self) -> dict:
        # wall time is intentionally omitted so reports for a fixed seed
        # are byte-identical across runs
        return {
            "certificate": self.certificate,
            "instance": self.instance_id,
            "theorem": self.theorem_id,
            "verdict": "pass" if self.verdict else "fail",
        }


# -- per-theorem checks ------------------------------------------------------

Verdict = tuple[bool, Any]


def _check_limit_oracle(seq: MonotonePseudometricSequence) -> Verdict:
    """The limit distance of every ordered pair equals the chain oracle's;
    a mismatch is certified with both values, at the first pair in
    row-major order.  The oracle runs once per unordered pair: the link
    table is symmetric, so a chain reversed weighs the same, and the
    lightest simple chain from y to x is the lightest from x to y reversed.
    Both ``lim(x, y)`` and ``lim(y, x)`` are compared with it, so a limit
    table that is not symmetric fails at its first wrong entry."""
    lim = limit_pseudometric(seq).dist
    n = seq.tower.ground_size
    oracle: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if y < x:
                want = oracle[y][x]
            else:
                want = oracle[x][y] = exhaustive_limit_distance(seq, x, y)
            if lim[x][y] != want:
                return False, {
                    "got": rational_to_json(lim[x][y]),
                    "oracle": rational_to_json(want),
                    "pair": [x, y],
                }
    return True, {"pairs_checked": n * n}


def _check_valley(seq: MonotonePseudometricSequence) -> Verdict:
    """For every pair, the valley distance is the limit distance, and the
    chain ``unilim limit --witness`` prints runs from x to y, is simple and
    valley-shaped, and weighs the limit distance by ``chain_weight``, which
    reads the DP's own link table: it confirms the DP's predecessors
    against the DP's table and the closure."""
    lim = limit_pseudometric(seq).dist
    t = seq.tower
    n = t.ground_size
    heights = [t.height(p) for p in range(n)]
    for x in range(n):
        for y in range(n):
            d, valley = lim[x][y], valley_distance(seq, x, y)
            pts = witness_chain(seq, x, y)
            weight = chain_weight(seq, pts)
            hs = [heights[p] for p in pts]
            shaped = all(b < max(a, c) for a, b, c in zip(hs, hs[1:], hs[2:]))
            ends = (pts[0], pts[-1]) == (x, y)
            if valley != d or weight != d or not (ends and shaped and len(set(pts)) == len(pts)):
                return False, {
                    "chain": list(pts),
                    "limit": rational_to_json(d),
                    "pair": [x, y],
                    "valley": rational_to_json(valley),
                    "weight": rational_to_json(weight),
                }
    return True, {"pairs_checked": n * n}


def _check_three_point_limit() -> Verdict:
    """The oracle check plus the closed-form limit distances 1, 1, 2."""
    seq = fixtures.three_point_sequence()
    lim = limit_pseudometric(seq)
    exact = (lim(0, 1), lim(1, 2), lim(0, 2)) == (1, 1, 2)
    ok, cert = _check_limit_oracle(seq)
    return exact and ok, cert


def _check_adequate(tower: Tower, targets) -> Verdict:
    """{d_n < 1} lies inside the n-th target, and d_n on level n-1 is d_{n-1}
    plus the level-n piece, as it is when every carried extension restricts
    to its piece; a failure names its first pair in row-major order."""
    seq = adequate_sequence(tower, targets)  # validates monotone and uniform
    for n, (d, target) in enumerate(zip(seq.metrics, targets)):
        for i, (r, s) in enumerate(zip(d.sublevel(n, Fraction(1)).rows, target.rows)):
            if r & ~s:
                return False, {"level": n, "pair": [i, next(bits(r & ~s))]}
        if not n:
            continue
        lower, piece = seq[n - 1], _target_indicator(tower, n, target)
        den = math.lcm(d.den, lower.den)  # the piece is a 0/1 table over 1
        fd, fl = den // d.den, den // lower.den
        for i, (dr, lr, pr) in enumerate(zip(d.numer, lower.numer, piece.numer)):
            for j, (a, b, c) in enumerate(zip(dr, lr, pr)):
                if a * fd != b * fl + c * den:
                    reason = "an extension does not restrict to its piece"
                    return False, {"level": n, "pair": [i, j], "reason": reason}
    return True, {"levels_checked": tower.num_levels}


def _check_generation(inst: Instance) -> Verdict:
    g = inst.generation
    verdict = verify_generation(inst.tower, g.u, g.seq, g.ladder)
    if not verdict.confirmed:
        return False, {"counterexample": list(verdict.counterexample)}
    return True, {"ladder_levels": len(g.ladder)}


def _grid_base(tower: Tower) -> tuple[list[frozenset[int]], TopologyFamily]:
    """Every point's grid base balls (the oracle) and the topology they
    generate.  The points share one memo, which goes with this call."""
    n = tower.ground_size
    memo: dict = {}
    balls = [grid_ball_masks(tower, x, memo) for x in range(n)]
    return balls, TopologyFamily.from_subbase(n, set().union(*balls))


def _check_base(tower: Tower) -> Verdict:
    """The grid base balls generate the closed-form topology; each is open
    and contains the minimal neighborhood of its center.  The top grid
    entourages' components, which close every ball's tail, must equal
    their (size-1)-fold sums.  Each point's ball under the omega sum of
    the middle grid entourage of every level, built by ``sigma_sum``, must
    be one of its grid base balls."""
    for u in tower.grid_entourages(tower.top_level):
        if u.components() != multiple(u, max(1, u.size - 1)):
            reason = "closure of a top grid entourage is not its reflexive-transitive closure"
            return False, {"reason": reason}
    balls, enumerated = _grid_base(tower)
    middle = tuple(g[len(g) // 2] for g in map(tower.grid_entourages, range(tower.num_levels)))
    summed = sigma_sum(EntourageSequence(tower, 0, middle), OMEGA).columns()
    top = ulim_topology(tower)
    for x, minimal in enumerate(top.min_nbhd):
        if enumerated.min_nbhd[x] != minimal:
            return False, {"point": x, "reason": "smallest ball is not the minimal neighborhood"}
        if summed[x] not in balls[x]:
            return False, {"point": x, "reason": "omega-sum ball is not a grid base ball"}
        for b in balls[x]:
            if not top.is_open_mask(b):
                return False, {"point": x, "reason": "non-open base ball"}
            if minimal & ~b:
                return False, {"point": x, "reason": "ball misses the minimal neighborhood"}
    return True, {"points_checked": tower.ground_size}


def _derived_equal(tower: Tower, relation: str) -> Verdict:
    """A derived tower's coincidence comparison is "equal", and the topology
    generated by every grid base ball of it equals its closed-form limit
    topology.  The tower is first validated in full, the oracle side of the
    construction certificate that let it skip the triangle and zero-pair
    passes: a violation is a library error, so a failing report."""
    tower.validate()
    cert = {"relation": relation}
    if _grid_base(tower)[1] != ulim_topology(tower):
        return False, {**cert, "oracle": "grid base balls disagree with the closed form"}
    return relation == "equal", cert


def _check_product(a: Tower, b: Tower) -> Verdict:
    prod = product_tower(a, b)
    return _derived_equal(prod, check_multiplicativity(a, b, prod))


def _check_criterion(f: SpaceMap) -> Verdict:
    v = continuity_criterion(f)
    return not v.theorem_violation, v.to_json()


def _criterion_gives(f: SpaceMap, hypothesis: bool, conclusion: bool) -> Verdict:
    v = continuity_criterion(f)
    return (v.hypothesis, v.conclusion) == (hypothesis, conclusion), v.to_json()


def _check_homeo(tower: Tower) -> Verdict:
    v = homeo_criterion(*fixtures.rescaled_homeo(tower))
    return v.homeomorphism and not v.theorem_violation, v.to_json()


def _check_group(g: GroupTower) -> Verdict:
    radii = [Fraction(1, 2**n) for n in range(g.tower.num_levels)]
    v = check_group_limit(g, radii)
    return v.ok, v.to_json()


def _check_box(factors, depth: int) -> Verdict:
    box = box_tower(factors, depth)
    return _derived_equal(box, check_box_limit(factors, depth, box))


def _check_seeded_box(factors) -> Verdict:
    depth = min(3, len(factors))
    ok, cert = _check_box(factors, depth)
    return ok, {**cert, "depth": depth}


def _check_coincidence(tower: Tower) -> Verdict:
    relation = compare_topologies(ulim_topology(tower), tlim_topology(tower))
    return relation == "equal", {"relation": relation}


# {theorem id: (check on a generated instance, {fixture name: check})}, in
# report order; the fixtures are hand-built instances with known outcomes
THEOREMS: dict[str, tuple[Callable[[Instance], Verdict], dict[str, Callable[[], Verdict]]]] = {
    "T1": (lambda i: _check_base(i.tower),
           {"three-point": lambda: _check_base(fixtures.three_point_tower())}),
    "T2": (lambda i: _check_product(i.tower, i.second_tower),
           {"three-point-square": lambda: _check_product(*[fixtures.three_point_tower()] * 2)}),
    "T3": (lambda i: _check_limit_oracle(i.seq), {"three-point": _check_three_point_limit}),
    "L-mod": (lambda i: _check_valley(i.seq),
              {"three-point": lambda: _check_valley(fixtures.three_point_sequence())}),
    "L-adeq": (lambda i: _check_adequate(i.tower, i.targets), {}),
    "L-pseudo": (_check_generation, {}),
    "T5": (lambda i: _check_criterion(i.space_map),
           {"glued-pair": lambda: _criterion_gives(fixtures.glued_map(), False, False),
            "identity": lambda: _criterion_gives(fixtures.identity_map(), True, True)}),
    "C6": (lambda i: _check_homeo(i.tower),
           {"rescaled-identity": lambda: _check_homeo(fixtures.three_point_tower())}),
    "P-group": (lambda i: _check_group(i.group),
                {"binary-cube": lambda: _check_group(fixtures.binary_group_tower())}),
    "P-box": (lambda i: _check_seeded_box(i.factors),
              {"halving": lambda: _check_box(fixtures.halving_factors(), 3)}),
    "P-lc": (lambda i: _check_coincidence(i.tower),
             {"three-point": lambda: _check_coincidence(fixtures.three_point_tower())}),
}
THEOREM_IDS = tuple(THEOREMS)


def _entry(theorem_id: str) -> tuple[Callable, dict]:
    try:
        return THEOREMS[theorem_id]
    except KeyError:
        raise ValidationError(f"unknown theorem id {_shown(theorem_id)}") from None


def _report(instance_id: str, theorem_id: str, check: Callable[[], Verdict]) -> VerifyReport:
    """Run one check; a library error inside it is a failing report, since
    the instances it runs on are valid."""
    start = time.perf_counter()
    try:
        verdict, cert = check()
    except UnilimError as e:
        verdict, cert = False, {"error": f"{type(e).__name__}: {e}"}
    return VerifyReport(instance_id, theorem_id, verdict, cert, time.perf_counter() - start)


def run_theorem(theorem_id: str, inst: Instance) -> VerifyReport:
    check = _entry(theorem_id)[0]
    return _report(inst.instance_id, theorem_id, lambda: check(inst))


def fixture_reports(theorem_id: str) -> list[VerifyReport]:
    """Hand-built instances with known outcomes, run ahead of the seeds."""
    return [
        _report(f"fixture:{name}", theorem_id, check)
        for name, check in _entry(theorem_id)[1].items()
    ]


def _generated(seed: int) -> Instance:
    """The seeded instance; a library error while building it is an
    implementation bug, not bad input, so it leaves as a ``RuntimeError``
    (exit 3 from the CLI)."""
    try:
        return generate_instance(seed)
    except UnilimError as e:
        raise RuntimeError(f"generating seed {seed}: {type(e).__name__}: {e}") from e


def verify_suite(targets: Sequence[str], seeds: Iterable[int]) -> list[VerifyReport]:
    """Run the selected checks over fixtures and generated instances, each
    id and each seed once; reports are ordered by (theorem id, instance).
    Every id runs on one seed's instance before the next seed is read, so a
    run keeps the reports and no list of instances."""
    ids = sorted(set(targets))
    reports = {tid: fixture_reports(tid) for tid in ids}
    seen: set[int] = set()
    for seed in seeds:
        if seed not in seen:
            seen.add(seed)
            inst = _generated(seed)
            for tid in ids:
                reports[tid].append(run_theorem(tid, inst))
    return [r for tid in ids for r in reports[tid]]
