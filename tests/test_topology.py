import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilim import io, topology
from unilim.constructions import box_tower, product_tower
from unilim.core import members
from unilim.errors import ValidationError
from unilim.fixtures import rescaled_homeo
from unilim.generate import Profile, random_factors, random_monotone_sequence, random_tower
from unilim.limitmetric import limit_pseudometric
from unilim.regularity import homeo_criterion
from unilim.relations import EntourageSequence
from unilim.topology import (
    TopologyFamily,
    compare_topologies,
    grid_ball_masks,
    minimal_grid_ball,
    tlim_topology,
    ulim_topology,
)

from .conftest import flat_tower, mixed_towers
from .oracles import (
    base_ball,
    brute_topology_opens,
    diagonal_entourage,
    discrete,
    fixpoint_grid_ball_masks,
    fixpoint_tlim_topology,
    indiscrete,
    is_open,
    level_by_level_minimal_ball,
    level_by_level_topology,
)


def _grid_entourage(tower, level, eps):
    return tower.metric(level).sublevel(level, Fraction(eps))


def test_base_ball_frozen(tower):
    seq = EntourageSequence(
        tower,
        0,
        (
            diagonal_entourage(0, 1),
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
    with pytest.raises(ValidationError, match="^sequence starts at 2, point has height 0$"):
        base_ball(tower, 0, seq)
    assert base_ball(tower, 2, seq) == {2}


def test_base_ball_requires_entourages(glued):
    t = glued.source
    seq = EntourageSequence(
        t, 0, (diagonal_entourage(0, 1), diagonal_entourage(1, 2))
    )
    with pytest.raises(ValidationError, match="^relation at level 1 misses a zero-pair$"):
        base_ball(t, 0, seq)


def test_minimal_grid_ball_is_top_zero_class(tower, glued):
    assert minimal_grid_ball(tower, 0) == {0}
    t = glued.source
    assert minimal_grid_ball(t, 0) == {0, 1}


@pytest.mark.parametrize("x", [-1, 3])
def test_minimal_grid_ball_rejects_points_outside_the_ground_set(tower, x):
    with pytest.raises(ValidationError, match=f"^element index {x}$"):
        minimal_grid_ball(tower, x)


def test_ulim_topology_discrete_for_genuine_metrics(tower):
    top = ulim_topology(tower)
    assert top == discrete(3)


def test_ulim_topology_indiscrete_for_zero_metrics():
    t = flat_tower([1, 2, 3], value=0)
    assert ulim_topology(t) == indiscrete(3)


def test_ulim_topology_respects_glued_pair(glued):
    top = ulim_topology(glued.source)
    for o in map(members, top.opens_masks()):
        assert (0 in o) == (1 in o)


def test_ulim_topology_is_kept_on_the_tower():
    for seed in range(20):
        doc = io.tower_to_json(random_tower(random.Random(seed), Profile()))
        t = io.tower_from_json(doc)
        top = ulim_topology(t)
        assert top is ulim_topology(t)
        assert top == ulim_topology(io.tower_from_json(doc))


def test_homeo_criterion_builds_each_limit_topology_once(monkeypatch):
    # forward, backward and transport read the limit topologies of the
    # same two towers: each is built once and then read from the tower
    built = []

    class Counted(TopologyFamily):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(topology, "TopologyFamily", Counted)
    v = homeo_criterion(*rescaled_homeo(random_tower(random.Random(3), Profile())))
    assert v.homeomorphism and not v.theorem_violation
    assert len(built) == 2


def test_tlim_topology_discrete(tower):
    assert tlim_topology(tower) == discrete(3)


def test_tlim_topology_indiscrete():
    t = flat_tower([1, 2], value=0)
    assert tlim_topology(t) == indiscrete(2)


def test_repr_gives_sizes_without_listing_opens():
    # 2**17 open sets, none of them listed
    top = discrete(17)
    assert repr(top) == f"TopologyFamily(ground_size=17, nbhd_sizes={[1] * 17})"
    assert repr(TopologyFamily(2, [0b11, 0b10])) == "TopologyFamily(ground_size=2, nbhd_sizes=[2, 1])"


def test_minimal_neighborhoods_of_no_topology_are_named():
    # 0 outside its own neighborhood
    with pytest.raises(ValidationError, match="of 0 does not contain 0"):
        TopologyFamily(2, [0b10, 0b10])
    # 1 lies in U_0 but U_1 = {1, 2} is not inside U_0 = {0, 1}
    with pytest.raises(ValidationError, match="of 0 holds 1 but not all"):
        TopologyFamily(3, [0b011, 0b110, 0b100])
    # saturated families pass, and are kept as given
    assert TopologyFamily(3, [0b111, 0b110, 0b100]).min_nbhd == (0b111, 0b110, 0b100)


def test_compare_topologies_verdicts():
    d = discrete(2)
    i = indiscrete(2)
    assert compare_topologies(d, d) == "equal"
    assert compare_topologies(d, i) == "A_finer"
    assert compare_topologies(i, d) == "B_finer"
    with pytest.raises(ValidationError, match="^ground sizes 2 != 3$"):
        compare_topologies(d, discrete(3))


def test_compare_topologies_incomparable():
    a = TopologyFamily(2, [0b01, 0b11])
    b = TopologyFamily(2, [0b11, 0b10])
    assert compare_topologies(a, b) == "incomparable"


def test_ulim_equals_tlim_on_fixture(tower):
    assert compare_topologies(ulim_topology(tower), tlim_topology(tower)) == "equal"


def test_opens_match_bruteforce_subbase(glued):
    t = glued.source
    balls, memo = set(), {}
    for x in range(t.ground_size):
        balls |= grid_ball_masks(t, x, memo)
    subbase = [
        {i for i in range(t.ground_size) if m >> i & 1} for m in balls
    ]
    expected = brute_topology_opens(t.ground_size, subbase)
    got = {members(o) for o in ulim_topology(t).opens_masks()}
    assert got == expected


def test_every_grid_ball_is_open_and_contains_minimal(tower):
    top = ulim_topology(tower)
    memo = {}
    for x in range(tower.ground_size):
        mg = minimal_grid_ball(tower, x)
        for mask in grid_ball_masks(tower, x, memo):
            pts = members(mask)
            assert is_open(top, pts)
            assert mg <= pts


# -- randomized properties ----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_ulim_equals_tlim_randomized(seed):
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=3, max_size=6))
    assert compare_topologies(ulim_topology(t), tlim_topology(t)) == "equal"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_opens_match_bruteforce_randomized(seed):
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=2, max_size=4))
    balls, memo = set(), {}
    for x in range(t.ground_size):
        balls |= grid_ball_masks(t, x, memo)
    subbase = [{i for i in range(t.ground_size) if m >> i & 1} for m in balls]
    expected = brute_topology_opens(t.ground_size, subbase)
    got = {members(o) for o in ulim_topology(t).opens_masks()}
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
        {v for row in lim.dist for v in row if v > 0} | {Fraction(1)}
    )
    for x in range(t.ground_size):
        for eps in scales:
            sub = {y for y in range(t.ground_size) if lim(x, y) < eps}
            assert is_open(top, sub)


# -- grid balls with the omega tail as one closure, against the old loop ------


def _same_grid_balls(t):
    memo = {}
    for x in range(t.ground_size):
        assert grid_ball_masks(t, x, memo) == fixpoint_grid_ball_masks(t, x)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_grid_balls_match_fixpoint_on_products(seed):
    rng = random.Random(seed)
    a = random_tower(rng, Profile(levels=rng.randint(1, 3), max_size=4))
    b = random_tower(rng, Profile(levels=a.num_levels, max_size=4))
    _same_grid_balls(product_tower(a, b))


def _six_point_tower(rng):
    """A seeded 3-level tower whose top level has 6 points."""
    while True:
        t = random_tower(rng, Profile(levels=3, max_size=6))
        if t.ground_size == 6:
            return t


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_grid_balls_match_fixpoint_on_36_point_products(seed):
    # the size of verify's largest T2 products
    rng = random.Random(seed)
    _same_grid_balls(product_tower(_six_point_tower(rng), _six_point_tower(rng)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_grid_balls_match_fixpoint_on_boxes(seed, depth):
    _same_grid_balls(box_tower(random_factors(random.Random(seed)), depth))


@settings(max_examples=60, deadline=None)
@given(mixed_towers(max_size=8))
def test_grid_balls_match_fixpoint_on_mixed_towers(drawn):
    _same_grid_balls(drawn[0])


# -- the limit topology is the top zero-class partition ------------------------


def _random_product(seed):
    rng = random.Random(seed)
    a = random_tower(rng, Profile(levels=rng.randint(1, 3), max_size=4))
    b = random_tower(rng, Profile(levels=a.num_levels, max_size=4))
    return product_tower(a, b)


def _random_box(seed_depth):
    seed, depth = seed_depth
    return box_tower(random_factors(random.Random(seed)), depth)


@settings(max_examples=90, deadline=None)
@given(
    st.one_of(
        mixed_towers(max_size=8).map(lambda drawn: drawn[0]),
        st.integers(0, 10**6).map(_random_product),
        st.tuples(st.integers(0, 10**6), st.integers(1, 3)).map(_random_box),
    )
)
def test_ulim_topology_is_the_top_zero_class_partition(t):
    top = ulim_topology(t)
    assert top == level_by_level_topology(t) == tlim_topology(t)
    for x in range(t.ground_size):
        mask = level_by_level_minimal_ball(t, x)
        assert minimal_grid_ball(t, x) == {i for i in range(t.ground_size) if mask >> i & 1}


def test_tlim_topology_matches_the_fixpoint_on_seeded_towers_and_products():
    """Components of the union of the level zero-relations against the
    fixpoint that grows each point by its zero-classes level by level."""
    for seed in range(200):
        t = random_tower(random.Random(seed), Profile(levels=3, max_size=6))
        assert tlim_topology(t) == fixpoint_tlim_topology(t)
    for seed in range(50):
        t = _random_product(seed)
        assert tlim_topology(t) == fixpoint_tlim_topology(t)
