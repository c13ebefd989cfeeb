import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilim import io
from unilim.core import Entourage
from unilim.errors import PreconditionFailed, ProfileTooLarge, UnknownTheoremId
from unilim.generate import (
    MAX_TOP_SIZE,
    Profile,
    generate_instance,
    random_generation_instance,
    random_tower,
)
from unilim.verify import (
    THEOREM_IDS,
    THEOREMS,
    VerifyReport,
    fixture_reports,
    run_theorem,
    verify_suite,
)


def test_profile_gates():
    Profile(levels=3, max_size=6)
    with pytest.raises(ProfileTooLarge):
        Profile(levels=0)
    with pytest.raises(ProfileTooLarge):
        Profile(levels=4, max_size=3)
    with pytest.raises(ProfileTooLarge):
        Profile(max_size=MAX_TOP_SIZE + 1)
    with pytest.raises(ProfileTooLarge):
        Profile(value_pool=(Fraction(0),))


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
    with pytest.raises(UnknownTheoremId):
        run_theorem("T99", inst)
    with pytest.raises(UnknownTheoremId):
        fixture_reports("T99")
    with pytest.raises(UnknownTheoremId):
        verify_suite(["T99"], [0])


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
        raise PreconditionFailed("no")

    monkeypatch.setattr("unilim.verify.limit_pseudometric", precondition)
    for tid in ("T3", "L-mod"):
        r = run_theorem(tid, inst)
        assert not r.verdict and r.certificate == {"error": "PreconditionFailed: no"}
        f = fixture_reports(tid)[0]
        assert not f.verdict and f.certificate == {"error": "PreconditionFailed: no"}

    def interrupted(*args):
        raise RuntimeError("deadline")

    monkeypatch.setattr("unilim.verify.limit_pseudometric", interrupted)
    with pytest.raises(RuntimeError):
        run_theorem("T3", inst)


def test_t1_requires_closures_to_equal_repeated_sums(monkeypatch):
    # a closure that stops short of transitivity: T1 compares each top grid
    # entourage's closure with its (size-1)-fold sum
    monkeypatch.setattr(Entourage, "closure", lambda self: self)
    r = run_theorem("T1", generate_instance(0))
    assert not r.verdict
    assert r.certificate == {
        "reason": "closure of a top grid entourage is not its reflexive-transitive closure"
    }


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


def test_verify_suite_accepts_custom_profile():
    reports = verify_suite(["P-lc"], [0], profile=Profile(levels=2, max_size=4))
    assert all(r.verdict for r in reports)
