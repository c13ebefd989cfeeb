"""Acceptance gate: one check per advertised guarantee, exact rational
equality throughout.  Each test prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them live)."""

import hashlib
import random
import time
from fractions import Fraction
from functools import lru_cache

from unilim import cli
from unilim.constructions import (
    box_tower,
    check_box_limit,
    check_group_limit,
    check_multiplicativity,
    product_tower,
)
from unilim.fixtures import binary_group_tower, glued_map, halving_factors, three_point_sequence
from unilim.generate import (
    Profile,
    generate_instance,
    random_factors,
    random_generation_instance,
    random_group_tower,
    random_monotone_sequence,
    random_space_map,
    random_target_entourages,
    random_tower,
)
from unilim.limitmetric import adequate_sequence, limit_pseudometric, valley_distance, verify_generation
from unilim.regularity import continuity_criterion, is_continuous
from unilim.relations import multiple
from unilim.topology import compare_topologies, tlim_topology, ulim_topology
from unilim.verify import _check_base, exhaustive_limit_distance


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}", flush=True)
    assert ok, name


@lru_cache(maxsize=1)
def _sweep_500():
    """500 seeded towers (top size <= 6) with monotone sequences and their
    exact limits; shared between the oracle and valley criteria."""
    out = []
    for seed in range(500):
        rng = random.Random(seed)
        t = random_tower(rng, Profile(levels=3, max_size=6))
        seq = random_monotone_sequence(rng, t)
        out.append((t, seq, limit_pseudometric(seq)))
    return out


def test_limit_matches_exhaustive_oracle():
    start = time.perf_counter()
    seq = three_point_sequence()
    lim = limit_pseudometric(seq)
    ok = (
        lim(0, 2) == Fraction(2)
        and lim(0, 1) == Fraction(1)
        and lim(1, 2) == Fraction(1)
    )
    for t, s, lim in _sweep_500():
        n = t.ground_size
        # the oracle is symmetric and zero on the diagonal, so checking each
        # unordered pair once is still exhaustive
        ok = ok and all(lim(x, x) == 0 for x in range(n))
        ok = ok and all(
            lim(x, y) == exhaustive_limit_distance(s, x, y) == lim(y, x)
            for x in range(n)
            for y in range(x + 1, n)
        )
        if not ok:
            break
    ok = ok and time.perf_counter() - start < 10
    _report("limit pseudometric == exhaustive chain oracle (fixture + 500 towers, <10s)", ok)


def test_valley_distance_equals_limit():
    ok = True
    for t, s, lim in _sweep_500():
        n = t.ground_size
        ok = ok and all(
            valley_distance(s, x, y) == lim(x, y)
            for x in range(n)
            for y in range(n)
        )
        if not ok:
            break
    _report("valley-shaped chains suffice on the 500-tower sweep", ok)


def test_adequate_sequences_refine_targets():
    ok = True
    for seed in range(200):
        rng = random.Random(seed)
        t = random_tower(rng, Profile())
        targets = random_target_entourages(rng, t)
        seq = adequate_sequence(t, targets)  # validates monotone + uniform
        for n, u in enumerate(targets):
            ok = ok and seq[n].sublevel(n, Fraction(1)).issubset(u)
        if not ok:
            break
    _report("adequate sequences: monotone, uniform, {d_n<1} inside each target (200 seeds)", ok)


def test_generation_with_geometric_ladders():
    ok = True
    for seed in range(200):
        rng = random.Random(seed)
        t = random_tower(rng, Profile())
        g = random_generation_instance(rng, t)
        ok = ok and multiple(g.ladder[0], 5).issubset(g.u)
        for n in range(len(g.ladder) - 1):
            ok = ok and multiple(g.ladder[n + 1], 2).issubset(g.ladder[n])
        ok = ok and verify_generation(t, g.u, g.seq, g.ladder).confirmed
        if not ok:
            break
    _report("{d<1} inside U for every 5/2-geometric ladder (200 seeds, 0 counterexamples)", ok)


def test_grid_base_balls_generate_open_base():
    start = time.perf_counter()
    ok = True
    for seed in range(200):
        rng = random.Random(seed)
        t = random_tower(rng, Profile(levels=4, max_size=8))
        verdict, _ = _check_base(t)
        ok = ok and verdict
        if not ok:
            break
    ok = ok and time.perf_counter() - start < 60
    _report("grid base balls open + base property at every point (200 towers, <60s)", ok)


def test_criterion_soundness_sweep():
    ok = True
    for seed in range(300):
        rng = random.Random(seed)
        t = random_tower(rng, Profile(levels=3, max_size=6))
        tgt = random_tower(rng, Profile(levels=2, max_size=5))
        f = random_space_map(rng, t, tgt)
        v = continuity_criterion(f)
        ok = ok and not v.theorem_violation and (not v.hypothesis or v.conclusion)
        if not ok:
            break
    g = continuity_criterion(glued_map())
    ok = ok and not g.hypothesis and not g.conclusion
    ok = ok and not is_continuous(glued_map())
    _report("regularity hypothesis implies continuity (300 maps + glued counterexample)", ok)


def test_product_multiplicativity_sweep():
    ok = True
    for seed in range(50):
        rng = random.Random(seed)
        a = random_tower(rng, Profile(levels=3, max_size=9))
        b = random_tower(rng, Profile(levels=3, max_size=9))
        ok = ok and check_multiplicativity(a, b, product_tower(a, b)) == "equal"
        if not ok:
            break
    _report("product topology == topology of the product tower (50 pairs, top <= 81)", ok)


def test_limit_topologies_coincide():
    ok = True
    for t, _, _ in _sweep_500():
        ok = ok and compare_topologies(ulim_topology(t), tlim_topology(t)) == "equal"
        if not ok:
            break
    _report("uniform limit topology == final topology on every generated tower", ok)


def test_group_limit_checks():
    g1 = binary_group_tower()
    v = check_group_limit(g1, [Fraction(1, 2**n) for n in range(3)])
    ok = v.ball_equals_product and v.commutation and v.square_inclusion
    for seed in range(20):
        rng = random.Random(seed)
        g = random_group_tower(rng)
        radii = [Fraction(1, 2**n) for n in range(g.tower.num_levels)]
        w = check_group_limit(g, radii)
        ok = ok and w.ball_equals_product and w.commutation and w.square_inclusion
        if not ok:
            break
    _report("group towers: ball == ordered product, commutation, square inclusion (fixture + 20)", ok)


def test_box_product_limits():
    hf = halving_factors()
    ok = check_box_limit(hf, 3, box_tower(hf, 3)) == "equal"
    for seed in range(20):
        rng = random.Random(seed)
        fs = random_factors(rng)
        ok = ok and check_box_limit(fs, 3, box_tower(fs, 3)) == "equal"
        if not ok:
            break
    _report("truncated box product topology matches the box topology (fixture + 20)", ok)


def test_verify_suite_is_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    ra = cli.main(["verify", "--all", "--seeds", "0..200", "--output", str(a)])
    rb = cli.main(["verify", "--all", "--seeds", "0..200", "--output", str(b)])
    ok = ra == 0 and rb == 0 and a.read_bytes() == b.read_bytes()
    # the report file holds the lines `unilim verify --all --seeds 0..200`
    # prints, so it has the sha256 of that stdout
    digest = hashlib.sha256(a.read_bytes()).hexdigest()
    ok = ok and digest == "e87b34c16e8bd73df6bcf0965acbc0bd11fad665928b5ae229e598b986ba9eea"
    _report("verify --all --seeds 0..200 twice: byte-identical reports, all pass, "
            "sha256 equals the recorded digest", ok)


def test_verify_all_report_digest(capsys):
    """The stdout bytes of ``unilim verify --all --seeds 0..20`` are pinned
    by their sha256, the digest the benchmark's verify-all workload checks
    its reports against."""
    code = cli.main(["verify", "--all", "--seeds", "0..20"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    ok = code == 0 and digest == "50f0c497e50c601b26c56ceb6c1b7e22d7396e78098444489d80b23072e4de22"
    _report("verify --all --seeds 0..20: stdout sha256 equals the recorded digest", ok)


def test_full_instance_coincidence():
    ok = True
    for seed in range(50):
        inst = generate_instance(seed)
        for t in (inst.tower, inst.second_tower):
            ok = ok and compare_topologies(ulim_topology(t), tlim_topology(t)) == "equal"
        if not ok:
            break
    _report("topology coincidence holds on full generated instances (50 seeds)", ok)
