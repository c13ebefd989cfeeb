import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilim import constructions, io
from unilim.constructions import (
    GroupTower,
    _certify_coordinate_max,
    _coordinates,
    PointedSpace,
    box_tower,
    check_box_limit,
    check_group_limit,
    check_multiplicativity,
    coordinate_tuples,
    ordered_product_ball,
    product_topology,
    product_tower,
)
from unilim.core import Pseudometric, Tower
from unilim.errors import (
    CertificateFailure, UnilimError, ValidationError,
)
from unilim.generate import (
    Profile,
    cyclic_group_tower,
    generate_instance,
    random_factors,
    random_group_tower,
    random_tower,
)
from unilim.topology import TopologyFamily, ulim_topology
from unilim.verify import run_theorem

from .conftest import flat_tower, frac_matrix, mixed_towers, same_table
from .oracles import (
    enumerated_box_topology, fraction_coordinate_max, keyed_coordinate_tuples, rectangle_topology,
)


def test_product_sizes(tower):
    p = product_tower(tower, tower)
    assert p.level_sizes == (1, 4, 9)
    p.validate()


def test_product_heights_multiply(tower):
    p = product_tower(tower, tower)
    for (i, x), (j, y) in itertools.product(enumerate(tower.labels), repeat=2):
        assert p.height(p.index_of(f"({x},{y})")) == max(tower.height(i), tower.height(j))


def test_product_distance_is_coordinate_max(tower):
    p = product_tower(tower, tower)
    # d((a,b),(b,a)) at level 1 = max(d(a,b), d(b,a)) = 1
    assert p.metric(1).dist[p.index_of("(a,b)")][p.index_of("(b,a)")] == 1


def test_product_with_point_tower_is_isomorphic(tower):
    point = flat_tower([1, 2, 3], value=0)
    # a true one-point factor needs matching level counts; use sizes 1,1,1?
    # sizes must strictly increase, so compare against a zero-metric factor:
    p = product_tower(tower, point)
    # distances are inherited from the non-degenerate factor on matching pairs
    for i, x in enumerate(tower.labels):
        for j, y in enumerate(tower.labels):
            pair = p.index_of(f"({x},p0)"), p.index_of(f"({y},p0)")
            assert p.metric(2).dist[pair[0]][pair[1]] == tower.metric(2).dist[i][j]


def test_product_level_count_mismatch(tower):
    other = Tower(["a"], [1], [Pseudometric.zero(1)])
    with pytest.raises(ValidationError, match="^3 levels vs 1$"):
        product_tower(tower, other)


def test_multiplicativity_fixture(tower):
    assert check_multiplicativity(tower, tower, product_tower(tower, tower)) == "equal"


def test_multiplicativity_indiscrete():
    a = flat_tower([1, 2], value=0)
    b = flat_tower([1, 3], value=0)
    assert check_multiplicativity(a, b, product_tower(a, b)) == "equal"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_multiplicativity_randomized(seed):
    rng = random.Random(seed)
    a = random_tower(rng, Profile(levels=3, max_size=4))
    b = random_tower(rng, Profile(levels=3, max_size=4))
    assert check_multiplicativity(a, b, product_tower(a, b)) == "equal"


@st.composite
def topologies(draw, max_size=5):
    """A topology generated by random subsets of 1..``max_size`` points:
    discrete, indiscrete and everything between."""
    n = draw(st.integers(1, max_size))
    sets = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=2 * n))
    return TopologyFamily.from_subbase(n, sets)


@settings(max_examples=80, deadline=None)
@given(topologies(), topologies(), st.booleans())
def test_product_topology_matches_rectangle_reference(ta, tb, row_major):
    na, nb = ta.ground_size, tb.ground_size
    pairs = itertools.product(range(na), range(nb))
    if row_major:
        index = {(i, j): i * nb + j for i, j in pairs}
    else:
        index = {(i, j): j * na + i for i, j in pairs}
    points = sorted(index, key=index.__getitem__)
    got = product_topology(points, [ta.min_nbhd, tb.min_nbhd])
    assert got == rectangle_topology(ta, tb, index)


# -- group towers -------------------------------------------------------------


def test_group_fixture_valid(group):
    assert group.tower.level_sizes == (2, 4, 8)
    assert group.op[0] == tuple(range(8))


def test_group_rejects_non_invariant_metric(group):
    t = group.tower
    bad = [list(row) for row in t.metric(2).dist]
    # d(e, (0,0,1)) from 1/4 to 1/2 keeps the triangle inequality; translating by (1,0,0)
    # moves the pair to d((1,0,0), (1,0,1)) = 1/4
    bad[0][4] = bad[4][0] = Fraction(1, 2)
    metrics = list(t.level_metrics[:2]) + [Pseudometric(bad)]
    message = r"^metric at level 2 not invariant under translation by \(1,0,0\)$"
    with pytest.raises(ValidationError, match=message):
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
        assert v.ok, v


def test_metric_ball_is_the_strict_ball_at_the_identity(group):
    """{g : d(g, e) < r} on each level, at, between and beyond the level's
    distances, by a scan of the Fraction table."""
    for n in range(group.tower.num_levels):
        d = group.tower.metric(n)
        values = d.positive_values()
        for r in {*values, *(v / 2 for v in values), Fraction(3, 2) * values[-1]}:
            want = frozenset(g for g in range(d.size) if d.dist[g][0] < r)
            assert group.metric_ball(n, r) == want


def test_group_limit_builds_each_ball_once(group, monkeypatch):
    """One sublevel per level and radius, for the three checks together:
    the identity balls are read from the sublevels the sum is built from,
    so ``metric_ball`` builds only the halved ones; and one check of the
    radii."""
    balls, sublevels, checked = [], [], []
    metric_ball, sublevel, radii_of = (
        GroupTower.metric_ball, Pseudometric.sublevel, constructions._radii
    )

    def record_ball(g, n, r):
        balls.append((n, r))
        return metric_ball(g, n, r)

    def record_sublevel(d, n, r):
        sublevels.append((n, r))
        return sublevel(d, n, r)

    def record_radii(g, radii):
        checked.append(radii)
        return radii_of(g, radii)

    monkeypatch.setattr(GroupTower, "metric_ball", record_ball)
    monkeypatch.setattr(Pseudometric, "sublevel", record_sublevel)
    monkeypatch.setattr(constructions, "_radii", record_radii)
    assert check_group_limit(group, [1, Fraction(1, 2), Fraction(1, 4)]).ok
    halved = [(0, Fraction(1, 2)), (1, Fraction(1, 4)), (2, Fraction(1, 8))]
    assert balls == halved
    assert sublevels == [(0, 1), (1, Fraction(1, 2)), (2, Fraction(1, 4)), *halved]
    assert len(checked) == 1


def test_group_radii_validation(group):
    with pytest.raises(ValidationError, match="^one radius per level required$"):
        ordered_product_ball(group, [Fraction(1)])
    for check in (ordered_product_ball, check_group_limit):
        with pytest.raises(ValidationError, match="radii must be positive"):
            check(group, [Fraction(1), Fraction(0), Fraction(1)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_group_checks_randomized(seed):
    rng = random.Random(seed)
    g = random_group_tower(rng)
    levels = g.tower.num_levels
    radii = [Fraction(rng.choice([1, 2, 4]), rng.choice([1, 2, 4])) for _ in range(levels)]
    v = check_group_limit(g, radii)
    assert v.ok, v


@pytest.mark.parametrize(
    "table, entry, path", [
        (table, entry, path)
        for table, path in (("op", "op[1][2]"), ("neg", "neg[3]"))
        for entry in (8, -1, 2.0, 2.5, True)
    ],
)
def test_group_refuses_an_entry_outside_the_elements(group, table, entry, path):
    """An entry of 8 or more would index past the tables, and a negative
    one would wrap around and read as a broken axiom; a float would reach
    a tuple index as a TypeError, and True would be read as 1.  Each is
    refused by the entry."""
    op, neg = [list(r) for r in group.op], list(group.neg)
    if table == "op":
        op[1][2] = entry
    else:
        neg[3] = entry
    with pytest.raises(ValidationError) as info:
        GroupTower(group.tower, tuple(map(tuple, op)), tuple(neg))
    assert type(info.value) is ValidationError
    assert str(info.value) == f"{path}: {entry!r} is not an element index below 8"


@pytest.mark.parametrize("orders", [(2, 0), (-1,), ()])
def test_cyclic_group_tower_refuses_orders_below_1(orders):
    with pytest.raises(ValidationError) as info:
        cyclic_group_tower(orders, [Fraction(1)] * len(orders))
    assert type(info.value) is ValidationError
    assert str(info.value) == f"need cyclic factors of order at least 1, got orders {list(orders)}"


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
    with pytest.raises(ValidationError, match="^depth 4 with 3 factors$"):
        box_tower(factors, 4)
    with pytest.raises(ValidationError, match="^depth 0 with 3 factors$"):
        box_tower(factors, 0)


def test_box_limit_fixture(factors):
    assert check_box_limit(factors, 3, box_tower(factors, 3)) == "equal"


def test_box_limit_indiscrete():
    fs = [PointedSpace(Pseudometric.zero(2)) for _ in range(2)]
    assert check_box_limit(fs, 2, box_tower(fs, 2)) == "equal"


def test_pointed_space_validation():
    with pytest.raises(ValidationError):
        PointedSpace(frac_matrix([[0, 1], [1, 0]]), basepoint=5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_box_limit_randomized(seed):
    rng = random.Random(seed)
    fs = random_factors(rng)
    assert check_box_limit(fs, 3, box_tower(fs, 3)) == "equal"


# -- the integer coordinate max against its Fraction reference ----------------


def _zero_tower(t):
    """The tower on the levels of ``t`` where every pair is a zero pair."""
    return Tower(t.labels, t.level_sizes, [Pseudometric.zero(m) for m in t.level_sizes])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(*[mixed_towers(k, 4)] * 2)))
def test_product_levels_match_fraction_reference(drawn):
    (a, _), (b, _) = drawn
    for a, b in ((a, b), (a, _zero_tower(b)), (_zero_tower(a), b)):
        prod = product_tower(a, b)
        order = _coordinates((a._heights, b._heights), (a.labels, b.labels), a.num_levels)[0]
        pairs = [(i, j) for i in range(a.ground_size) for j in range(b.ground_size)]
        keyed = sorted((max(a.height(i), b.height(j)), i, j) for i, j in pairs)
        assert list(order) == [(i, j) for _, i, j in keyed]
        assert prod.labels == tuple(f"({a.labels[i]},{b.labels[j]})" for i, j in order)
        assert prod.level_sizes == tuple(
            a.level_sizes[n] * b.level_sizes[n] for n in range(a.num_levels)
        )
        for n, m in enumerate(prod.level_sizes):
            ref = fraction_coordinate_max([a.metric(n), b.metric(n)], order[:m])
            assert same_table(prod.metric(n), ref)


def _drawn_factors(drawn, data):
    """Each factor is a level of two or more points of a mixed tower, or a
    zero metric of its size, at a drawn basepoint."""
    factors = []
    for t, _ in drawn:
        d = data.draw(st.sampled_from([d for d in t.level_metrics if d.size > 1]))
        d = data.draw(st.sampled_from([d, Pseudometric.zero(d.size)]))
        factors.append(PointedSpace(d, data.draw(st.integers(0, d.size - 1))))
    return factors


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_towers(3, 4), min_size=3, max_size=3), st.integers(1, 3), st.data())
def test_box_levels_match_fraction_reference(drawn, depth, data):
    factors = _drawn_factors(drawn, data)[:depth]
    box = box_tower(factors, depth)
    order = coordinate_tuples([f.metric.size for f in factors], [f.basepoint for f in factors])[0]
    tables = [f.metric for f in factors]
    for n, m in enumerate(box.level_sizes):
        assert same_table(box.metric(n), fraction_coordinate_max(tables, order[:m]))


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_towers(3, 4), min_size=3, max_size=3), st.integers(1, 3), st.data())
def test_box_topology_matches_enumerated_reference(drawn, depth, data):
    factors = _drawn_factors(drawn, data)
    box = box_tower(factors, depth)
    ref = enumerated_box_topology(factors, depth)
    assert ulim_topology(box) == ref
    assert check_box_limit(factors, depth, box) == "equal"
    spaces = factors[:depth]
    points = coordinate_tuples([f.metric.size for f in spaces], [f.basepoint for f in spaces])[0]
    zero_classes = [
        [sum(1 << j for j, v in enumerate(row) if v == 0) for row in f.metric.dist] for f in spaces
    ]
    assert product_topology(points, zero_classes) == ref


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).flatmap(
        lambda sizes: st.tuples(st.just(sizes), st.tuples(*[st.integers(0, s - 1) for s in sizes]))
    )
)
def test_coordinate_tuples_match_keyed_reference(drawn):
    sizes, basepoints = drawn
    tuples, labels, level_sizes = coordinate_tuples(sizes, basepoints)
    assert [list(tuples), list(labels), list(level_sizes)] == list(
        keyed_coordinate_tuples(sizes, basepoints)
    )


# -- derived towers: the certified construction against full validation -------


def test_certificate_compares_over_a_common_denominator():
    # the two points meet only the factor value 1/2, so the table is held
    # over 2 and the factor over 6
    factor = frac_matrix([[0, "1/2", "1/3"], ["1/2", 0, "1/3"], ["1/3", "1/3", 0]])
    points = [(0,), (1,)]
    _certify_coordinate_max([factor], points, frac_matrix([[0, "1/2"], ["1/2", 0]]), 4, "pq")
    with pytest.raises(CertificateFailure, match="level 4: d.p,q. is 1/3, the coordinate max") as e:
        _certify_coordinate_max([factor], points, frac_matrix([[0, "1/3"], ["1/3", 0]]), 4, "pq")
    assert not isinstance(e.value, UnilimError)


def _fully_validated(t):
    """The tables of ``t`` through the public constructor, which validates
    them in full."""
    return Tower(t.labels, t.level_sizes, t.level_metrics)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(*[mixed_towers(k, 5)] * 2)))
def test_product_tower_equals_its_fully_validated_tower(drawn):
    (a, _), (b, _) = drawn
    for a, b in ((a, b), (a, _zero_tower(b))):
        prod = product_tower(a, b)
        assert prod == _fully_validated(prod)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_box_tower_equals_its_fully_validated_tower(seed, depth):
    box = box_tower(random_factors(random.Random(seed)), depth)
    assert box == _fully_validated(box)


@pytest.fixture
def validate_calls(monkeypatch):
    """The size of each table ``Pseudometric.validate`` is called on."""
    calls = []
    validate = Pseudometric.validate

    def counted(self, *args):
        calls.append(self.size)
        return validate(self, *args)

    monkeypatch.setattr(Pseudometric, "validate", counted)
    return calls


def test_product_tower_validates_no_product_level(tower, validate_calls):
    a = io.tower_from_json(io.tower_to_json(tower))
    assert validate_calls == [1, 2, 3]
    validate_calls.clear()
    product_tower(a, a)
    assert validate_calls == []


@pytest.mark.parametrize("seed", [0, 7])
def test_t2_and_p_box_validate_each_derived_level_once(seed, validate_calls):
    inst = generate_instance(seed)
    prod = product_tower(inst.tower, inst.second_tower)
    box = box_tower(inst.factors, min(3, len(inst.factors)))
    for tid, derived in (("T2", prod), ("P-box", box)):
        validate_calls.clear()
        assert run_theorem(tid, inst).verdict
        assert validate_calls == list(derived.level_sizes)
