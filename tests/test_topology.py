import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilim.constructions import box_tower, product_tower
from unilim.core import Entourage
from unilim.errors import GroundMismatch, NotAnEntourage, StartMismatch
from unilim.generate import Profile, random_factors, random_monotone_sequence, random_tower
from unilim.limitmetric import limit_pseudometric
from unilim.relations import EntourageSequence
from unilim.topology import (
    TopologyFamily,
    base_ball,
    compare_topologies,
    grid_ball_masks,
    minimal_grid_ball,
    tlim_topology,
    ulim_topology,
)

from .conftest import flat_tower, mixed_towers
from .oracles import brute_topology_opens, fixpoint_grid_ball_masks


def _grid_entourage(tower, level, eps):
    d = tower.metric(level)
    return Entourage(level, d.size, d.sublevel_pairs(Fraction(eps)))


def test_base_ball_frozen(tower):
    seq = EntourageSequence(
        tower,
        0,
        (
            Entourage.diagonal(0, 1),
            _grid_entourage(tower, 1, Fraction(3, 2)),
            _grid_entourage(tower, 2, Fraction(3, 2)),
        ),
    )
    assert base_ball(tower, 0, seq) == {0, 1, 2}


def test_base_ball_zero_relations_give_singleton(tower):
    seq = EntourageSequence(
        tower, 0, tuple(tower.zero_relation(n) for n in range(3))
    )
    assert base_ball(tower, 0, seq) == {0}


def test_base_ball_start_must_match_height(tower):
    seq = EntourageSequence(tower, 2, (_grid_entourage(tower, 2, 1),))
    with pytest.raises(StartMismatch):
        base_ball(tower, 0, seq)
    assert base_ball(tower, 2, seq) == {2}


def test_base_ball_requires_entourages(glued):
    t = glued.source
    seq = EntourageSequence(
        t, 0, (Entourage.diagonal(0, 1), Entourage.diagonal(1, 2))
    )
    with pytest.raises(NotAnEntourage):
        base_ball(t, 0, seq)


def test_minimal_grid_ball_is_top_zero_class(tower, glued):
    assert minimal_grid_ball(tower, 0) == {0}
    t = glued.source
    assert minimal_grid_ball(t, 0) == {0, 1}


def test_ulim_topology_discrete_for_genuine_metrics(tower):
    top = ulim_topology(tower)
    assert top == TopologyFamily.discrete(3)


def test_ulim_topology_indiscrete_for_zero_metrics():
    t = flat_tower([1, 2, 3], value=0)
    assert ulim_topology(t) == TopologyFamily.indiscrete(3)


def test_ulim_topology_respects_glued_pair(glued):
    top = ulim_topology(glued.source)
    for o in top.opens():
        assert (0 in o) == (1 in o)


def test_tlim_topology_discrete(tower):
    assert tlim_topology(tower) == TopologyFamily.discrete(3)


def test_tlim_topology_indiscrete():
    t = flat_tower([1, 2], value=0)
    assert tlim_topology(t) == TopologyFamily.indiscrete(2)


def test_compare_topologies_verdicts():
    d = TopologyFamily.discrete(2)
    i = TopologyFamily.indiscrete(2)
    assert compare_topologies(d, d).relation == "equal"
    cmp = compare_topologies(d, i)
    assert cmp.relation == "A_finer"
    assert cmp.witness is not None and len(cmp.witness) == 1
    assert compare_topologies(i, d).relation == "B_finer"
    with pytest.raises(GroundMismatch):
        compare_topologies(d, TopologyFamily.discrete(3))


def test_compare_topologies_incomparable():
    a = TopologyFamily(2, [0b01, 0b11])
    b = TopologyFamily(2, [0b11, 0b10])
    assert compare_topologies(a, b).relation == "incomparable"


def test_ulim_equals_tlim_on_fixture(tower):
    cmp = compare_topologies(ulim_topology(tower), tlim_topology(tower))
    assert cmp.relation == "equal"


def test_opens_match_bruteforce_subbase(glued):
    t = glued.source
    balls = set()
    for x in range(t.ground_size):
        balls |= grid_ball_masks(t, x)
    subbase = [
        {i for i in range(t.ground_size) if m >> i & 1} for m in balls
    ]
    expected = brute_topology_opens(t.ground_size, subbase)
    got = {frozenset(o) for o in ulim_topology(t).opens()}
    assert got == expected


def test_every_grid_ball_is_open_and_contains_minimal(tower):
    top = ulim_topology(tower)
    for x in range(tower.ground_size):
        mg = minimal_grid_ball(tower, x)
        for mask in grid_ball_masks(tower, x):
            members = {i for i in range(tower.ground_size) if mask >> i & 1}
            assert top.is_open(members)
            assert mg <= members


# -- randomized properties ----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_ulim_equals_tlim_randomized(seed):
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=3, max_size=6))
    assert compare_topologies(ulim_topology(t), tlim_topology(t)).relation == "equal"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_opens_match_bruteforce_randomized(seed):
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=2, max_size=4))
    balls = set()
    for x in range(t.ground_size):
        balls |= grid_ball_masks(t, x)
    subbase = [{i for i in range(t.ground_size) if m >> i & 1} for m in balls]
    expected = brute_topology_opens(t.ground_size, subbase)
    got = {frozenset(o) for o in ulim_topology(t).opens()}
    assert got == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_limit_metric_unit_balls_are_open(seed):
    """Sublevels of the limit pseudometric are open in the limit topology."""
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=3, max_size=6))
    seq = random_monotone_sequence(rng, t)
    lim = limit_pseudometric(seq)
    top = ulim_topology(t)
    scales = sorted(
        {v for row in lim.dist.dist for v in row if v > 0} | {Fraction(1)}
    )
    for x in range(t.ground_size):
        for eps in scales:
            sub = {y for y in range(t.ground_size) if lim(x, y) < eps}
            assert top.is_open(sub)


# -- grid balls with the omega tail as one closure, against the old loop ------


def _same_grid_balls(t):
    for x in range(t.ground_size):
        assert grid_ball_masks(t, x) == fixpoint_grid_ball_masks(t, x)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_grid_balls_match_fixpoint_on_products(seed):
    rng = random.Random(seed)
    a = random_tower(rng, Profile(levels=rng.randint(1, 3), max_size=4))
    b = random_tower(rng, Profile(levels=a.num_levels, max_size=4))
    _same_grid_balls(product_tower(a, b))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_grid_balls_match_fixpoint_on_boxes(seed, depth):
    _same_grid_balls(box_tower(random_factors(random.Random(seed), 3), depth))


@settings(max_examples=60, deadline=None)
@given(mixed_towers(max_size=8))
def test_grid_balls_match_fixpoint_on_mixed_towers(drawn):
    _same_grid_balls(drawn[0])
