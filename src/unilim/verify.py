"""Theorem-suite runners: each check re-verifies one statement on concrete
instances, against brute force where a brute-force oracle exists.

Verdicts are "pass" when the instance confirms the statement.  A failing
verdict on a valid instance always indicates an implementation bug, never
a property of the instance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Sequence

from . import fixtures
from .constructions import (
    box_tower, check_box_limit, check_group_limit, check_multiplicativity, product_tower,
)
from .core import MonotonePseudometricSequence, Tower
from .errors import UnknownTheoremId
from .generate import Instance, Profile, generate_instance
from .io import rational_to_json
from .limitmetric import adequate_sequence, limit_pseudometric, valley_distance, verify_generation
from .regularity import SpaceMap, continuity_criterion, homeo_criterion
from .topology import TopologyFamily, compare_topologies, grid_ball_masks, tlim_topology, ulim_topology

THEOREM_IDS = (
    "T1",
    "T2",
    "T3",
    "L-mod",
    "L-adeq",
    "L-pseudo",
    "T5",
    "C6",
    "P-group",
    "P-box",
    "P-lc",
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
    best = 0 if x == y else w[x][y]

    def extend(last: int, prefix: int, rest: list[int]) -> None:
        nonlocal best
        for z in rest:
            head = prefix + w[last][z]
            if head + w[z][y] < best:
                best = head + w[z][y]
            extend(z, head, [r for r in rest if r != z])

    extend(x, 0, [z for z in range(n) if z != x and z != y])
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


def _check_limit_oracle(seq: MonotonePseudometricSequence) -> tuple[bool, Any]:
    lim = limit_pseudometric(seq)
    n = seq.tower.ground_size
    for x in range(n):
        for y in range(n):
            expected = exhaustive_limit_distance(seq, x, y)
            if lim(x, y) != expected:
                return False, {
                    "pair": [x, y],
                    "got": rational_to_json(lim(x, y)),
                    "oracle": rational_to_json(expected),
                }
    return True, {"pairs_checked": n * n}


def _check_valley(seq: MonotonePseudometricSequence) -> tuple[bool, Any]:
    lim = limit_pseudometric(seq)
    n = seq.tower.ground_size
    for x in range(n):
        for y in range(n):
            v = valley_distance(seq, x, y)
            if v != lim(x, y):
                return False, {
                    "pair": [x, y],
                    "valley": rational_to_json(v),
                    "limit": rational_to_json(lim(x, y)),
                }
    return True, {"pairs_checked": n * n}


def _check_adequate(tower: Tower, targets) -> tuple[bool, Any]:
    seq = adequate_sequence(tower, targets)
    # monotone and uniform are validated on construction; re-verify the
    # refinement property explicitly
    for n, target in enumerate(targets):
        for i, j in seq[n].sublevel_pairs(Fraction(1)):
            if not target.contains(i, j):
                return False, {"level": n, "pair": [i, j]}
    return True, {"levels_checked": tower.num_levels}


def _check_generation(inst: Instance) -> tuple[bool, Any]:
    g = inst.generation
    verdict = verify_generation(inst.tower, g.u, g.seq, g.ladder)
    if not verdict.confirmed:
        return False, {"counterexample": list(verdict.counterexample)}
    return True, {"ladder_levels": len(g.ladder)}


def _check_base(tower: Tower) -> tuple[bool, Any]:
    """The grid base balls (the oracle) generate the closed-form topology;
    each is open and contains the minimal neighborhood of its center."""
    n = tower.ground_size
    balls = [grid_ball_masks(tower, x) for x in range(n)]
    enumerated = TopologyFamily.from_subbase(n, set().union(*balls))
    top = ulim_topology(tower)
    for x in range(n):
        minimal = top.min_nbhd[x]
        if enumerated.min_nbhd[x] != minimal:
            return False, {"point": x, "reason": "smallest ball is not the minimal neighborhood"}
        for b in balls[x]:
            if not top.is_open_mask(b):
                return False, {"point": x, "reason": "non-open base ball"}
            if minimal & ~b:
                return False, {"point": x, "reason": "ball misses the minimal neighborhood"}
    return True, {"points_checked": n}


def _with_oracle(tower: Tower, ok: bool, cert: dict) -> tuple[bool, Any]:
    """Require the topology generated by every grid base ball of a derived
    tower to equal its closed-form limit topology."""
    n = tower.ground_size
    balls = set().union(*(grid_ball_masks(tower, x) for x in range(n)))
    if TopologyFamily.from_subbase(n, balls) != ulim_topology(tower):
        return False, {**cert, "oracle": "grid base balls disagree with the closed form"}
    return ok, cert


def _check_product(a: Tower, b: Tower) -> tuple[bool, Any]:
    prod = product_tower(a, b)
    cmp = check_multiplicativity(a, b, prod)
    return _with_oracle(prod, cmp.relation == "equal", {"relation": cmp.relation})


def _check_criterion(f: SpaceMap) -> tuple[bool, Any]:
    v = continuity_criterion(f)
    return not v.theorem_violation, v.to_json()


def _check_homeo(tower: Tower) -> tuple[bool, Any]:
    scaled = Tower(
        tower.labels, tower.level_sizes, [d.scale(2) for d in tower.level_metrics]
    )
    idx = tuple(range(tower.ground_size))
    v = homeo_criterion(SpaceMap(tower, scaled, idx), SpaceMap(scaled, tower, idx))
    ok = v.homeomorphism and v.transport_comparison.relation == "equal"
    return ok, v.to_json()


def _check_group(inst: Instance) -> tuple[bool, Any]:
    g = inst.group
    radii = [Fraction(1, 2**n) for n in range(g.tower.num_levels)]
    v = check_group_limit(g, radii)
    return v.ok, v.to_json()


def _check_box(factors, depth: int) -> tuple[bool, Any]:
    box = box_tower(factors, depth)
    cmp = check_box_limit(factors, depth, box)
    return _with_oracle(box, cmp.relation == "equal", {"relation": cmp.relation})


def _check_coincidence(tower: Tower) -> tuple[bool, Any]:
    cmp = compare_topologies(ulim_topology(tower), tlim_topology(tower))
    return cmp.relation == "equal", {"relation": cmp.relation}


def run_theorem(theorem_id: str, inst: Instance) -> VerifyReport:
    start = time.perf_counter()
    if theorem_id == "T3":
        verdict, cert = _check_limit_oracle(inst.seq)
    elif theorem_id == "L-mod":
        verdict, cert = _check_valley(inst.seq)
    elif theorem_id == "L-adeq":
        verdict, cert = _check_adequate(inst.tower, inst.targets)
    elif theorem_id == "L-pseudo":
        verdict, cert = _check_generation(inst)
    elif theorem_id == "T1":
        verdict, cert = _check_base(inst.tower)
    elif theorem_id == "T2":
        verdict, cert = _check_product(inst.tower, inst.second_tower)
    elif theorem_id == "T5":
        verdict, cert = _check_criterion(inst.space_map)
    elif theorem_id == "C6":
        verdict, cert = _check_homeo(inst.tower)
    elif theorem_id == "P-group":
        verdict, cert = _check_group(inst)
    elif theorem_id == "P-box":
        depth = min(3, len(inst.factors))
        verdict, cert = _check_box(inst.factors, depth)
        cert = {**cert, "depth": depth}
    elif theorem_id == "P-lc":
        verdict, cert = _check_coincidence(inst.tower)
    else:
        raise UnknownTheoremId(theorem_id)
    return VerifyReport(
        inst.instance_id, theorem_id, verdict, cert, time.perf_counter() - start
    )


def fixture_reports(theorem_id: str) -> list[VerifyReport]:
    """Hand-built instances with known outcomes, run ahead of the seeds."""
    out = []

    def add(name: str, verdict: bool, cert: Any) -> None:
        out.append(VerifyReport(f"fixture:{name}", theorem_id, verdict, cert))

    if theorem_id == "T3":
        seq = fixtures.three_point_sequence()
        lim = limit_pseudometric(seq)
        expected = {(0, 1): Fraction(1), (1, 2): Fraction(1), (0, 2): Fraction(2)}
        exact = all(lim(x, y) == v for (x, y), v in expected.items())
        ok, cert = _check_limit_oracle(seq)
        add("three-point", exact and ok, cert)
    elif theorem_id == "L-mod":
        ok, cert = _check_valley(fixtures.three_point_sequence())
        add("three-point", ok, cert)
    elif theorem_id == "T1":
        ok, cert = _check_base(fixtures.three_point_tower())
        add("three-point", ok, cert)
    elif theorem_id == "T2":
        t = fixtures.three_point_tower()
        ok, cert = _check_product(t, t)
        add("three-point-square", ok, cert)
    elif theorem_id == "T5":
        v = continuity_criterion(fixtures.glued_map())
        add("glued-pair", not v.hypothesis and not v.conclusion, v.to_json())
        w = continuity_criterion(fixtures.identity_map())
        add("identity", w.hypothesis and w.conclusion, w.to_json())
    elif theorem_id == "C6":
        h, h_inv = fixtures.rescaled_homeo()
        v = homeo_criterion(h, h_inv)
        add(
            "rescaled-identity",
            v.homeomorphism and v.transport_comparison.relation == "equal",
            v.to_json(),
        )
    elif theorem_id == "P-group":
        g = fixtures.binary_group_tower()
        v = check_group_limit(g, [Fraction(1, 2**n) for n in range(3)])
        add("binary-cube", v.ok, v.to_json())
    elif theorem_id == "P-box":
        ok, cert = _check_box(fixtures.halving_factors(), 3)
        add("halving", ok, cert)
    elif theorem_id == "P-lc":
        ok, cert = _check_coincidence(fixtures.three_point_tower())
        add("three-point", ok, cert)
    return out


def verify_suite(
    targets: Sequence[str],
    seeds: Iterable[int],
    profile: Profile | None = None,
) -> list[VerifyReport]:
    """Run the selected checks over fixtures and generated instances;
    reports are ordered by (theorem id, instance)."""
    for tid in targets:
        if tid not in THEOREM_IDS:
            raise UnknownTheoremId(tid)
    seeds = list(seeds)
    instances = [generate_instance(s, profile) for s in seeds]
    reports: list[VerifyReport] = []
    for tid in sorted(targets):
        reports.extend(fixture_reports(tid))
        for inst in instances:
            reports.append(run_theorem(tid, inst))
    return reports
