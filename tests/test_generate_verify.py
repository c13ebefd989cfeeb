import copy
import gc
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilim import generate, io, verify
from unilim.constructions import GroupTower, PointedSpace, product_tower
from unilim.core import Entourage, MonotonePseudometricSequence, Pseudometric, Tower
from unilim.errors import ValidationError
from unilim.generate import (
    MAX_TOP_SIZE,
    Profile,
    generate_instance,
    random_generation_instance,
    random_tower,
)
from unilim.limitmetric import limit_pseudometric, witness_chain
from unilim.regularity import SpaceMap
from unilim.verify import (
    THEOREM_IDS,
    THEOREMS,
    VerifyReport,
    exhaustive_limit_distance,
    fixture_reports,
    run_theorem,
    verify_suite,
)

from .oracles import (
    fraction_cyclic_group_tower,
    fraction_random_factors,
    fraction_random_tower,
)


def test_profile_gates():
    Profile(levels=3, max_size=6)
    with pytest.raises(ValidationError, match="^levels=0, max_size=6$"):
        Profile(levels=0)
    with pytest.raises(ValidationError, match="^levels=4, max_size=3$"):
        Profile(levels=4, max_size=3)
    with pytest.raises(ValidationError, match=f"^top size {MAX_TOP_SIZE + 1} exceeds {MAX_TOP_SIZE}$"):
        Profile(max_size=MAX_TOP_SIZE + 1)


def test_generate_instance_is_deterministic():
    a = generate_instance(42)
    b = generate_instance(42)
    assert io.dumps(io.tower_to_json(a.tower)) == io.dumps(io.tower_to_json(b.tower))
    assert a.seq.metrics == b.seq.metrics
    assert a.space_map.values == b.space_map.values
    assert a.targets == b.targets
    assert a.group.op == b.group.op
    assert [f.metric.dist for f in a.factors] == [f.metric.dist for f in b.factors]
    assert a.instance_id == "seed42"


def test_generation_on_ints_matches_the_fraction_reference(monkeypatch):
    """The int generators give the towers, sequences, groups, factors, maps
    and targets the Fraction ones gave, from the same draws."""
    ints = [generate_instance(s) for s in range(201)]
    monkeypatch.setattr(generate, "random_factors", fraction_random_factors)
    monkeypatch.setattr(generate, "random_tower", fraction_random_tower)
    monkeypatch.setattr(generate, "cyclic_group_tower", fraction_cyclic_group_tower)
    for got in ints:
        ref = generate_instance(got.seed)
        assert (got.tower, got.second_tower) == (ref.tower, ref.second_tower)
        assert got.seq.metrics == ref.seq.metrics
        assert (got.space_map, got.targets) == (ref.space_map, ref.targets)
        g, r = got.generation, ref.generation
        assert (g.u, g.ladder, g.seq.metrics) == (r.u, r.ladder, r.seq.metrics)
        assert (got.group, got.factors) == (ref.group, ref.factors)


def test_generate_instance_varies_with_seed():
    docs = {io.dumps(io.tower_to_json(generate_instance(s).tower)) for s in range(8)}
    assert len(docs) > 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_generated_objects_are_valid(seed):
    inst = generate_instance(seed)
    inst.tower.validate()
    inst.second_tower.validate()
    inst.seq.validate()
    for n, e in enumerate(inst.targets):
        assert inst.tower.zero_relation(n).issubset(e)
    g = inst.generation
    assert g.u.level == inst.tower.top_level
    assert len(g.ladder) == inst.tower.num_levels


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_generation_ladder_shrinks_geometrically(seed):
    rng = random.Random(seed)
    t = random_tower(rng, Profile())
    g = random_generation_instance(rng, t)
    for n in range(len(g.ladder) - 1):
        assert g.ladder[n + 1].issubset(g.ladder[n])
    assert g.ladder[0].issubset(g.u)


def test_run_theorem_all_ids_pass_on_one_seed():
    inst = generate_instance(0)
    for tid in THEOREM_IDS:
        r = run_theorem(tid, inst)
        assert r.verdict, (tid, r.certificate)
        assert r.theorem_id == tid
        assert r.instance_id == "seed0"


def test_run_theorem_unknown_id():
    inst = generate_instance(0)
    for call in (lambda: run_theorem("T99", inst), lambda: fixture_reports("T99"),
                 lambda: verify_suite(["T99"], [0])):
        with pytest.raises(ValidationError, match="^unknown theorem id 'T99'$"):
            call()


def test_theorem_table_order_and_fixtures():
    assert THEOREM_IDS == tuple(THEOREMS) == (
        "T1", "T2", "T3", "L-mod", "L-adeq", "L-pseudo", "T5", "C6", "P-group", "P-box", "P-lc",
    )
    names = {tid: [r.instance_id for r in fixture_reports(tid)] for tid in THEOREM_IDS}
    assert names["L-adeq"] == names["L-pseudo"] == []
    assert names["T5"] == ["fixture:glued-pair", "fixture:identity"]
    # only the seeded box reports carry the truncation depth
    assert "depth" not in fixture_reports("P-box")[0].certificate
    assert run_theorem("P-box", generate_instance(0)).certificate["depth"] == 3


def test_library_errors_fail_the_report_and_other_errors_propagate(monkeypatch):
    inst = generate_instance(0)

    def precondition(*args):
        raise ValidationError("no")

    monkeypatch.setattr("unilim.verify.limit_pseudometric", precondition)
    for tid in ("T3", "L-mod"):
        r = run_theorem(tid, inst)
        assert not r.verdict and r.certificate == {"error": "ValidationError: no"}
        f = fixture_reports(tid)[0]
        assert not f.verdict and f.certificate == {"error": "ValidationError: no"}

    def interrupted(*args):
        raise RuntimeError("deadline")

    monkeypatch.setattr("unilim.verify.limit_pseudometric", interrupted)
    with pytest.raises(RuntimeError):
        run_theorem("T3", inst)


@pytest.mark.parametrize("pair", [(1, 0), (4, 2)])
def test_t3_fails_at_a_corrupted_entry_below_the_diagonal(monkeypatch, pair):
    """The oracle runs once per unordered pair, but both orientations of
    the limit are compared with it: an entry corrupted below the diagonal
    alone fails at that pair, certified with the oracle's true value."""
    inst = generate_instance(0)
    true = limit_pseudometric(inst.seq)
    x, y = pair
    numer = [list(row) for row in true.numer]
    numer[x][y] += true.den
    monkeypatch.setattr(
        "unilim.verify.limit_pseudometric", lambda seq: Pseudometric._from_numer(true.den, numer)
    )
    r = run_theorem("T3", inst)
    assert not r.verdict
    assert r.certificate == {
        "got": io.rational_to_json(true(x, y) + 1),
        "oracle": io.rational_to_json(exhaustive_limit_distance(inst.seq, x, y)),
        "pair": [x, y],
    }
    assert exhaustive_limit_distance(inst.seq, x, y) == true(x, y)


# on the three-point fixture d(a, b) = d(b, c) = 1 and d(a, c) = 2 via b
@pytest.mark.parametrize("pair, points, weight", [
    ((0, 2), (0, 2), 3),  # the direct link, heavier than the limit
    ((0, 2), (0, 1, 0, 1, 2), 4),  # revisits a and b
    ((0, 2), (0, 1), 1),  # stops short of c
    ((1, 0), (1, 2, 0), 4),  # c higher than both its neighbors
])
def test_l_mod_fails_on_a_bad_witness_chain(monkeypatch, pair, points, weight):
    chain = witness_chain
    monkeypatch.setattr(
        "unilim.verify.witness_chain",
        lambda seq, x, y: points if (x, y) == pair else chain(seq, x, y),
    )
    limit = 2 if pair == (0, 2) else 1
    report = fixture_reports("L-mod")[0]
    assert not report.verdict
    assert report.certificate == {
        "chain": list(points), "limit": limit, "pair": list(pair), "valley": limit, "weight": weight,
    }


def test_t1_requires_closures_to_equal_repeated_sums(monkeypatch):
    # a sum that stops short of transitivity: T1 compares each top grid
    # entourage's components with its (size-1)-fold sum
    monkeypatch.setattr("unilim.verify.multiple", lambda u, k: u)
    r = run_theorem("T1", generate_instance(0))
    assert not r.verdict
    assert r.certificate == {
        "reason": "closure of a top grid entourage is not its reflexive-transitive closure"
    }


def test_t1_requires_components_to_equal_closures(monkeypatch):
    # components that stop short of transitivity feed every top-level grid
    # ball; T1 compares them with the (size-1)-fold sum
    monkeypatch.setattr(Entourage, "components", lambda self: self)
    r = run_theorem("T1", generate_instance(0))
    assert not r.verdict
    assert r.certificate == {
        "reason": "closure of a top grid entourage is not its reflexive-transitive closure"
    }


def test_t1_requires_the_omega_sum_ball_among_the_grid_balls(monkeypatch):
    # an enumerator that keeps only each point's smallest ball still keeps
    # the minimal neighborhood, and every ball it keeps is open; only the
    # ball of the omega sum of the middle grid entourages goes missing
    enumerate_balls = verify.grid_ball_masks

    def smallest_only(tower, x, memo):
        return frozenset([min(enumerate_balls(tower, x, memo), key=int.bit_count)])

    monkeypatch.setattr("unilim.verify.grid_ball_masks", smallest_only)
    reports = [run_theorem("T1", generate_instance(s)) for s in range(21)]
    reasons = {r.certificate["reason"] for r in reports if not r.verdict}
    assert reasons == {"omega-sum ball is not a grid base ball"}


@pytest.mark.parametrize("kind", ["seeded", "product"])
def test_grid_base_oracle_leaves_the_tower_as_it_found_it(kind):
    # the oracle's memo lives for one _grid_base call; only the grid
    # entourages, which generate reads too, are kept on the tower
    a, b = generate_instance(0)[1:3]
    tower = a if kind == "seeded" else product_tower(a, b)

    def state():
        return {k: copy.copy(v) for k, v in vars(tower).items() if k != "_grids"}

    before = state()
    verify._grid_base(tower)
    assert state() == before


def test_fixture_reports_expected_verdicts():
    for tid in THEOREM_IDS:
        for r in fixture_reports(tid):
            assert r.verdict, (tid, r.instance_id, r.certificate)
            assert r.instance_id.startswith("fixture:")
    # the criterion fixtures cover both a failing and a passing hypothesis
    t5 = fixture_reports("T5")
    assert [r.instance_id for r in t5] == ["fixture:glued-pair", "fixture:identity"]
    assert t5[0].certificate == {"hypothesis": False, "continuous": False}
    assert t5[1].certificate == {"hypothesis": True, "continuous": True}


def test_report_json_shape_and_stability():
    r = VerifyReport("seed0", "T3", True, {"pairs_checked": 9}, wall_time=1.23)
    doc = r.to_json()
    assert doc == {
        "certificate": {"pairs_checked": 9},
        "instance": "seed0",
        "theorem": "T3",
        "verdict": "pass",
    }
    s = VerifyReport("seed0", "T3", True, {"pairs_checked": 9}, wall_time=9.87)
    assert io.dumps(s.to_json()) == io.dumps(doc)
    assert VerifyReport("seed0", "T3", False, None).to_json()["verdict"] == "fail"


def test_verify_suite_ordering_and_coverage():
    reports = verify_suite(["P-lc", "L-mod"], [3, 1])
    ids = [(r.theorem_id, r.instance_id) for r in reports]
    assert ids == [
        ("L-mod", "fixture:three-point"),
        ("L-mod", "seed3"),
        ("L-mod", "seed1"),
        ("P-lc", "fixture:three-point"),
        ("P-lc", "seed3"),
        ("P-lc", "seed1"),
    ]
    assert all(r.verdict for r in reports)


def test_verify_suite_runs_every_id_on_an_instance_before_drawing_the_next(monkeypatch):
    """Seeds are read lazily and each is drawn once, run by every id and
    dropped; the reports still come out in (theorem id, instance) order."""
    events = []
    draw, check = verify._generated, verify.run_theorem

    def drawn(seed):
        events.append(("draw", seed))
        return draw(seed)

    def checked(tid, inst):
        events.append((tid, inst.instance_id))
        return check(tid, inst)

    monkeypatch.setattr(verify, "_generated", drawn)
    monkeypatch.setattr(verify, "run_theorem", checked)
    reports = verify_suite(["P-lc", "L-mod", "P-lc"], iter([3, 1, 3]))
    assert events == [
        ("draw", 3), ("L-mod", "seed3"), ("P-lc", "seed3"),
        ("draw", 1), ("L-mod", "seed1"), ("P-lc", "seed1"),
    ]
    assert reports == verify_suite(["L-mod", "P-lc"], [3, 1])


# the kinds of objects that keep what is derived from them, or hold one
KEEPERS = (Tower, Pseudometric, MonotonePseudometricSequence, Entourage, GroupTower,
           PointedSpace, SpaceMap)


def _keepers(root) -> dict[int, object]:
    """Every keeper reachable from ``root`` by ``gc.get_referents``, by id;
    classes, modules and functions are not walked into."""
    found, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, KEEPERS):
            found[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return found


def test_instances_of_one_seed_share_no_object_that_keeps_derived_data():
    """verify-all regenerates its instances every pass so that nothing kept
    on them carries over: two instances of one seed share no tower, table,
    sequence, relation, group, factor or map, so what one pass keeps, the
    next builds again."""
    for seed in range(30):
        a, b = generate_instance(seed), generate_instance(seed)
        held_a, held_b = _keepers(a), _keepers(b)
        assert {type(o) for o in held_a.values()} == set(KEEPERS)
        assert held_a.keys().isdisjoint(held_b.keys())
