"""Theorem-suite runners: each check re-verifies one statement on concrete
instances, against brute force where a brute-force oracle exists.

Verdicts are "pass" when the instance confirms the statement.  A failing
verdict on a valid instance always indicates an implementation bug, never
a property of the instance; so does a library error raised inside a check,
which is reported as a failure.  ``THEOREMS`` maps each theorem id to its
check on a generated instance and its hand-built fixtures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from . import fixtures
from .constructions import (
    GroupTower, box_tower, check_box_limit, check_group_limit, check_multiplicativity, product_tower,
)
from .core import MonotonePseudometricSequence, Tower
from .errors import UnilimError, UnknownTheoremId
from .generate import Instance, Profile, generate_instance
from .io import rational_to_json
from .limitmetric import adequate_sequence, limit_pseudometric, valley_distance, verify_generation
from .relations import multiple
from .regularity import SpaceMap, continuity_criterion, homeo_criterion
from .topology import (
    TopologyComparison, TopologyFamily, compare_topologies, grid_ball_masks, tlim_topology, ulim_topology,
)


def exhaustive_limit_distance(
    seq: MonotonePseudometricSequence, x: int, y: int
) -> Fraction:
    """Brute-force oracle: minimum chain weight over all simple chains,
    enumerated depth first, with heights and link weights, ints over the
    lcm of the sequence's denominators, built here rather than taken from
    the library's limit path."""
    t = seq.tower
    n = t.ground_size
    heights: list[int] = []
    for level, m in enumerate(t.level_sizes):
        heights.extend([level] * (m - len(heights)))
    den = math.lcm(*(d.den for d in seq.metrics))

    def link(a: int, b: int) -> int:
        d = seq[max(heights[a], heights[b])]
        return d.numer[a][b] * (den // d.den)

    w = [[link(a, b) for b in range(n)] for a in range(n)]
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
            if head + to_y[z] < best:
                best = head + to_y[z]
            extend(z, head, rest ^ bit)

    extend(x, 0, ((1 << n) - 1) & ~(1 << x) & ~(1 << y))
    return Fraction(best, den)


@dataclass
class VerifyReport:
    instance_id: str
    theorem_id: str
    verdict: bool
    certificate: Any
    wall_time: float = field(default=0.0, compare=False)

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


def _limit_matches(
    seq: MonotonePseudometricSequence, other: Callable, limit_key: str, other_key: str
) -> Verdict:
    """The limit distance of every pair equals ``other(seq, x, y)``; a
    mismatch is certified with both values under the given keys."""
    lim = limit_pseudometric(seq)
    n = seq.tower.ground_size
    for x in range(n):
        for y in range(n):
            want = other(seq, x, y)
            if lim(x, y) != want:
                return False, {
                    "pair": [x, y],
                    limit_key: rational_to_json(lim(x, y)),
                    other_key: rational_to_json(want),
                }
    return True, {"pairs_checked": n * n}


def _check_limit_oracle(seq: MonotonePseudometricSequence) -> Verdict:
    return _limit_matches(seq, exhaustive_limit_distance, "got", "oracle")


def _check_valley(seq: MonotonePseudometricSequence) -> Verdict:
    return _limit_matches(seq, valley_distance, "limit", "valley")


def _check_three_point_limit() -> Verdict:
    """The oracle check plus the closed-form limit distances 1, 1, 2."""
    seq = fixtures.three_point_sequence()
    lim = limit_pseudometric(seq)
    exact = (lim(0, 1), lim(1, 2), lim(0, 2)) == (1, 1, 2)
    ok, cert = _check_limit_oracle(seq)
    return exact and ok, cert


def _check_adequate(tower: Tower, targets) -> Verdict:
    seq = adequate_sequence(tower, targets)
    # monotone and uniform are validated on construction; re-verify the
    # refinement property explicitly
    for n, target in enumerate(targets):
        for i, j in seq[n].sublevel_pairs(Fraction(1)):
            if not target.contains(i, j):
                return False, {"level": n, "pair": [i, j]}
    return True, {"levels_checked": tower.num_levels}


def _check_generation(inst: Instance) -> Verdict:
    g = inst.generation
    verdict = verify_generation(inst.tower, g.u, g.seq, g.ladder)
    if not verdict.confirmed:
        return False, {"counterexample": list(verdict.counterexample)}
    return True, {"ladder_levels": len(g.ladder)}


def _grid_base(tower: Tower) -> tuple[list[set[int]], TopologyFamily]:
    """Every point's grid base balls (the oracle) and the topology they
    generate."""
    n = tower.ground_size
    balls = [grid_ball_masks(tower, x) for x in range(n)]
    return balls, TopologyFamily.from_subbase(n, set().union(*balls))


def _check_base(tower: Tower) -> Verdict:
    """The grid base balls generate the closed-form topology; each is open
    and contains the minimal neighborhood of its center.  The top grid
    entourages' closures, which close every ball's tail, must equal their
    (size-1)-fold sums."""
    for u in tower.grid_entourages(tower.top_level):
        if u.closure() != multiple(u, max(1, u.size - 1)):
            reason = "closure of a top grid entourage is not its reflexive-transitive closure"
            return False, {"reason": reason}
    balls, enumerated = _grid_base(tower)
    top = ulim_topology(tower)
    for x, minimal in enumerate(top.min_nbhd):
        if enumerated.min_nbhd[x] != minimal:
            return False, {"point": x, "reason": "smallest ball is not the minimal neighborhood"}
        for b in balls[x]:
            if not top.is_open_mask(b):
                return False, {"point": x, "reason": "non-open base ball"}
            if minimal & ~b:
                return False, {"point": x, "reason": "ball misses the minimal neighborhood"}
    return True, {"points_checked": tower.ground_size}


def _derived_equal(tower: Tower, cmp: TopologyComparison) -> Verdict:
    """A derived tower's coincidence comparison is "equal", and the topology
    generated by every grid base ball of it equals its closed-form limit
    topology."""
    cert = {"relation": cmp.relation}
    if _grid_base(tower)[1] != ulim_topology(tower):
        return False, {**cert, "oracle": "grid base balls disagree with the closed form"}
    return cmp.relation == "equal", cert


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
    scaled = Tower(tower.labels, tower.level_sizes, [d.scale(2) for d in tower.level_metrics])
    idx = tuple(range(tower.ground_size))
    v = homeo_criterion(SpaceMap(tower, scaled, idx), SpaceMap(scaled, tower, idx))
    ok = v.homeomorphism and v.transport_comparison.relation == "equal"
    return ok, v.to_json()


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
    cmp = compare_topologies(ulim_topology(tower), tlim_topology(tower))
    return cmp.relation == "equal", {"relation": cmp.relation}


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
        raise UnknownTheoremId(theorem_id) from None


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


def verify_suite(
    targets: Sequence[str],
    seeds: Iterable[int],
    profile: Profile | None = None,
) -> list[VerifyReport]:
    """Run the selected checks over fixtures and generated instances;
    reports are ordered by (theorem id, instance)."""
    for tid in targets:
        _entry(tid)
    seeds = list(seeds)
    instances = [generate_instance(s, profile) for s in seeds]
    reports: list[VerifyReport] = []
    for tid in sorted(targets):
        reports.extend(fixture_reports(tid))
        for inst in instances:
            reports.append(run_theorem(tid, inst))
    return reports
