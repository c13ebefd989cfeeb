import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilim.constructions import (
    GroupTower,
    _box_coordinates,
    _product_order,
    PointedSpace,
    box_tower,
    check_box_limit,
    check_group_limit,
    check_multiplicativity,
    ordered_product_ball,
    product_tower,
)
from unilim.core import Pseudometric, Tower
from unilim.errors import InvarianceViolation, LevelCountMismatch, ValidationError
from unilim.generate import (
    Profile,
    _random_metric,
    cyclic_group_tower,
    random_factors,
    random_group_tower,
    random_tower,
)

from .conftest import MIXED_POOL, flat_tower, frac_matrix, mixed_towers, same_table
from .oracles import fraction_coordinate_max


def test_product_sizes(tower):
    p = product_tower(tower, tower)
    assert p.level_sizes == (1, 4, 9)
    p.validate()


def test_product_heights_multiply(tower):
    from unilim.constructions import product_index

    p = product_tower(tower, tower)
    for (i, j), k in product_index(tower, tower).items():
        assert p.height(k) == max(tower.height(i), tower.height(j))


def test_product_distance_is_coordinate_max(tower):
    from unilim.constructions import product_index

    p = product_tower(tower, tower)
    idx = product_index(tower, tower)
    # d((a,b),(b,a)) at level 1 = max(d(a,b), d(b,a)) = 1
    assert p.metric(1).dist[idx[(0, 1)]][idx[(1, 0)]] == 1


def test_product_with_point_tower_is_isomorphic(tower):
    point = flat_tower([1, 2, 3], value=0)
    # a true one-point factor needs matching level counts; use sizes 1,1,1?
    # sizes must strictly increase, so compare against a zero-metric factor:
    p = product_tower(tower, point)
    # distances are inherited from the non-degenerate factor on matching pairs
    from unilim.constructions import product_index

    idx = product_index(tower, point)
    for i in range(3):
        for j in range(3):
            assert p.metric(2).dist[idx[(i, 0)]][idx[(j, 0)]] == tower.metric(2).dist[i][j]


def test_product_level_count_mismatch(tower):
    other = Tower(["a"], [1], [Pseudometric.zero(1)])
    with pytest.raises(LevelCountMismatch):
        product_tower(tower, other)


def test_multiplicativity_fixture(tower):
    assert check_multiplicativity(tower, tower, product_tower(tower, tower)).relation == "equal"


def test_multiplicativity_indiscrete():
    a = flat_tower([1, 2], value=0)
    b = flat_tower([1, 3], value=0)
    assert check_multiplicativity(a, b, product_tower(a, b)).relation == "equal"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_multiplicativity_randomized(seed):
    rng = random.Random(seed)
    a = random_tower(rng, Profile(levels=3, max_size=4))
    b = random_tower(rng, Profile(levels=3, max_size=4))
    assert check_multiplicativity(a, b, product_tower(a, b)).relation == "equal"


# -- group towers -------------------------------------------------------------


def test_group_fixture_valid(group):
    assert group.tower.level_sizes == (2, 4, 8)
    assert group.op[0] == tuple(range(8))


def test_group_rejects_non_invariant_metric(group):
    t = group.tower
    bad = [list(row) for row in t.metric(2).dist]
    bad[1][2] = bad[2][1] = Fraction(7, 2)  # break invariance, keep axioms
    metrics = list(t.level_metrics[:2]) + [Pseudometric(bad)]
    with pytest.raises((InvarianceViolation, ValidationError)):
        GroupTower(
            Tower(t.labels, t.level_sizes, metrics), group.op, group.neg
        )


def test_group_rejects_bad_tables(group):
    t = group.tower
    op = [list(r) for r in group.op]
    op[1][2] = 0  # break associativity/commutativity structure
    with pytest.raises(ValidationError):
        GroupTower(t, tuple(tuple(r) for r in op), group.neg)


def test_ordered_product_ball_extremes(group):
    full = ordered_product_ball(group, [Fraction(10)] * 3)
    assert full == frozenset(range(8))
    tiny = ordered_product_ball(group, [Fraction(1, 100)] * 3)
    assert tiny == frozenset([0])


def test_ordered_product_ball_matches_limit_ball(group):
    radii = [Fraction(1, 2), Fraction(3, 4), Fraction(3, 8)]
    v = check_group_limit(group, radii)
    assert v.ball_equals_product


def test_group_checks_pass_on_fixture(group):
    for radii in (
        [Fraction(1), Fraction(1, 2), Fraction(1, 4)],
        [Fraction(1, 2), Fraction(3, 4), Fraction(3, 8)],
        [Fraction(2), Fraction(2), Fraction(2)],
    ):
        v = check_group_limit(group, radii)
        assert v.ok, v.detail


def test_group_radii_validation(group):
    with pytest.raises(LevelCountMismatch):
        ordered_product_ball(group, [Fraction(1)])
    with pytest.raises(ValidationError):
        ordered_product_ball(group, [Fraction(0)] * 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_group_checks_randomized(seed):
    rng = random.Random(seed)
    g = random_group_tower(rng)
    levels = g.tower.num_levels
    radii = [Fraction(rng.choice([1, 2, 4]), rng.choice([1, 2, 4])) for _ in range(levels)]
    v = check_group_limit(g, radii)
    assert v.ok, v.detail


def test_cyclic_group_tower_is_weighted_hamming():
    g = cyclic_group_tower((2, 3), (Fraction(1), Fraction(1, 2)))
    t = g.tower
    assert t.level_sizes == (2, 6)
    i = t.index_of("(1,1)")
    j = t.index_of("(0,2)")
    assert t.metric(1).dist[i][j] == Fraction(3, 2)


# -- box products -------------------------------------------------------------


def test_box_sizes(factors):
    t = box_tower(factors, 3)
    assert t.level_sizes == (2, 4, 8)
    t.validate()


def test_box_single_factor(factors):
    t = box_tower(factors[:1], 1)
    assert t.level_sizes == (2,)
    assert t.metric(0).dist[0][1] == 1


def test_box_distance_frozen(factors):
    t = box_tower(factors, 3)
    i = t.index_of("(1,0,0)")
    j = t.index_of("(1,1,0)")
    assert t.metric(1).dist[i][j] == Fraction(1, 2)


def test_box_depth_validation(factors):
    with pytest.raises(LevelCountMismatch):
        box_tower(factors, 4)
    with pytest.raises(LevelCountMismatch):
        box_tower(factors, 0)


def test_box_limit_fixture(factors):
    assert check_box_limit(factors, 3, box_tower(factors, 3)).relation == "equal"


def test_box_limit_indiscrete():
    fs = [PointedSpace(Pseudometric.zero(2)) for _ in range(2)]
    assert check_box_limit(fs, 2, box_tower(fs, 2)).relation == "equal"


def test_pointed_space_validation():
    with pytest.raises(ValidationError):
        PointedSpace(frac_matrix([[0, 1], [1, 0]]), basepoint=5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_box_limit_randomized(seed):
    rng = random.Random(seed)
    fs = random_factors(rng, 3)
    assert check_box_limit(fs, 3, box_tower(fs, 3)).relation == "equal"


# -- the integer coordinate max against its Fraction reference ----------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(*[mixed_towers(k, 4)] * 2)))
def test_product_levels_match_fraction_reference(drawn):
    (a, _), (b, _) = drawn
    prod = product_tower(a, b)
    order = _product_order(a, b)
    for n, m in enumerate(prod.level_sizes):
        ref = fraction_coordinate_max([a.metric(n), b.metric(n)], order[:m])
        assert same_table(prod.metric(n), ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_box_levels_match_fraction_reference(seed, depth):
    rng = random.Random(seed)
    factors = [
        PointedSpace(_random_metric(rng, rng.randrange(2, 4), MIXED_POOL, 0.25), 0)
        for _ in range(3)
    ]
    box = box_tower(factors, depth)
    order = _box_coordinates(factors, depth)[0]
    tables = [f.metric for f in factors[:depth]]
    for n, m in enumerate(box.level_sizes):
        assert same_table(box.metric(n), fraction_coordinate_max(tables, order[:m]))
