import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unilim import io
from unilim.core import (
    Entourage,
    MonotonePseudometricSequence,
    Pseudometric,
    Tower,
    bits,
    closure_in_place,
    members,
    shortest_path_closure,
)
from unilim.errors import ValidationError
from unilim.generate import Profile, random_tower
from unilim.topology import tlim_topology

from .conftest import flat_tower, frac_matrix, grid_points, l1_table
from .oracles import (
    fraction_closure,
    grid_thresholds,
    loop_sequence_validate,
    loop_tower_validate,
    loop_validate,
    max_value,
    transpose,
    twin_tower,
    union,
)


def test_three_point_tower_is_valid(tower):
    assert tower.level_sizes == (1, 2, 3)
    assert tower.labels == ("a", "b", "c")


def test_triangle_violation_detected():
    with pytest.raises(
        ValidationError,
        match=r"^triangle inequality fails at level 2: d\(a,c\) > d\(a,b\) \+ d\(b,c\)$",
    ):
        Tower(
            ["a", "b", "c"],
            [1, 2, 3],
            [
                Pseudometric.from_lower_triangular([[]]),
                Pseudometric.from_lower_triangular([[], [1]]),
                Pseudometric.from_lower_triangular([[], [1], [3, 1]]),
            ],
        )


def test_subspace_violation_on_zero_pair_mismatch():
    with pytest.raises(
        ValidationError, match=r"^zero-pair mismatch between levels 1 and 2 on pair \(a,b\)$"
    ):
        Tower(
            ["a", "b", "c"],
            [1, 2, 3],
            [
                Pseudometric.from_lower_triangular([[]]),
                Pseudometric.from_lower_triangular([[], [1]]),
                Pseudometric.from_lower_triangular([[], [0], [1, 1]]),
            ],
        )


def test_sizes_must_strictly_increase():
    with pytest.raises(ValidationError, match=r"^level sizes not strictly increasing: "):
        Tower(["a", "b"], [2, 2], [Pseudometric.zero(2), Pseudometric.zero(2)])


def test_asymmetric_metric_rejected():
    with pytest.raises(ValidationError):
        Pseudometric([[0, 1], [2, 0]]).validate()


def test_nonzero_diagonal_rejected():
    with pytest.raises(ValidationError):
        Pseudometric([[1]]).validate()


def test_heights(tower):
    assert [tower.height(i) for i in range(3)] == [0, 1, 2]
    with pytest.raises(ValidationError, match="^element index 3$"):
        tower.height(3)


@pytest.mark.parametrize("level", [-1, 3])
def test_metric_refuses_a_level_outside_the_tower(tower, level):
    """-1 is out of range, as 3 is, and is not read as the top level."""
    with pytest.raises(ValidationError, match=f"^level {level} out of range$"):
        tower.metric(level)


def test_strict_mode_requires_exact_restriction():
    metrics = [
        Pseudometric.from_lower_triangular([[]]),
        Pseudometric.from_lower_triangular([[], [1]]),
        Pseudometric.from_lower_triangular([[], [2], [1, 1]]),
    ]
    Tower(["a", "b", "c"], [1, 2, 3], metrics)  # zero-pairs agree: fine
    with pytest.raises(
        ValidationError, match=r"^zero-pair mismatch between levels 1 and 2 on pair \(a,b\)$"
    ):
        Tower(["a", "b", "c"], [1, 2, 3], metrics, strict=True)


def test_grid_scale(tower):
    assert grid_thresholds(tower.metric(2)) == (1, 2, 3)
    assert len(tower.grid_entourages(2)) == 3
    assert grid_thresholds(Pseudometric.zero(2)) == (1,)


def test_grid_entourages_smallest_first(tower):
    grids = tower.grid_entourages(2)
    assert grids[0] == tower.zero_relation(2)
    for small, big in zip(grids, grids[1:]):
        assert small.issubset(big)


def test_zero_relation_is_diagonal_for_genuine_metric(tower):
    z = tower.zero_relation(2)
    assert set(z.sorted_pairs()) == {(0, 0), (1, 1), (2, 2)}


def test_entourage_requires_diagonal():
    with pytest.raises(ValidationError):
        Entourage(0, 2, [(0, 0)])  # (1,1) missing


@pytest.mark.parametrize("i, j", [(0, -1), (-1, 0), (0, 2)])
def test_entourage_refuses_a_pair_outside_the_level(i, j):
    """-1 is out of range, as 2 is: Python would read it as the last
    point, and a shift by it raises."""
    with pytest.raises(ValidationError, match=rf"^pair \({i},{j}\) outside level of size 2$"):
        Entourage(0, 2, [(0, 0), (1, 1), (i, j)])


def test_entourage_promote_keeps_pairs():
    e = Entourage(1, 2, [(0, 0), (1, 1), (0, 1)])
    p = e.promote(2, 3)
    assert set(p.sorted_pairs()) == {(0, 0), (1, 1), (2, 2), (0, 1)}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 200).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
    )
)
@example((0, 0))
@example((1, 1))
@example((64, 1 << 63))
@example((65, 1 << 64))
@example((65, 1 << 64 | 1))
@example((80, (1 << 80) - 1))
@example((129, 1 << 128))
@example((800, 1 << 799 | 1 << 3))
def test_bits_and_members_read_the_set_bits(case):
    n, m = case
    ref = [i for i in range(n) if m >> i & 1]
    assert bits(m) == tuple(ref)
    assert members(m) == frozenset(ref)


def test_bits_reads_the_byte_tables_as_the_lowest_bit_loop_does():
    """Every mask below 2^16: two bytes, so the first two tables whole."""

    def lowest_bit_loop(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    for m in range(1 << 16):
        assert bits(m) == lowest_bit_loop(m)


@pytest.mark.parametrize("mask", [-1, -2, -(1 << 64), -(1 << 70) - 1])
def test_bits_and_members_refuse_a_negative_mask(mask):
    # a negative int has infinitely many set bits
    with pytest.raises(ValueError, match="negative mask"):
        bits(mask)
    with pytest.raises(ValueError, match="negative mask"):
        members(mask)


def test_entourage_transpose():
    e = Entourage(0, 2, [(0, 0), (1, 1), (0, 1)])
    assert set(transpose(e).sorted_pairs()) == {(0, 0), (1, 1), (1, 0)}


def test_shortest_path_closure_repairs_triangle():
    m = [
        [Fraction(0), Fraction(5), Fraction(1)],
        [Fraction(5), Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(0)],
    ]
    closed = shortest_path_closure(m)
    assert closed[0][1] == 2
    Pseudometric(closed).validate()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_closure_output_is_always_a_pseudometric(raw):
    m = [
        [Fraction(0) if i == j else Fraction(raw[min(i, j)][max(i, j)]) for j in range(4)]
        for i in range(4)
    ]
    Pseudometric(shortest_path_closure(m)).validate()


def test_monotone_sequence_validation(tower, mono_seq):
    assert mono_seq[1].dist[0][1] == 1
    # non-monotone: level-2 metric drops below level-1 on the shared square
    with pytest.raises(ValidationError):
        MonotonePseudometricSequence(
            tower,
            [
                Pseudometric.zero(1),
                frac_matrix([[0, 2], [2, 0]]),
                frac_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
            ],
        )


def test_monotone_sequence_must_be_uniform():
    t = flat_tower([1, 2], value=0)  # level metrics identically zero
    with pytest.raises(ValidationError):
        MonotonePseudometricSequence(
            t, [Pseudometric.zero(1), frac_matrix([[0, 1], [1, 0]])]
        )


def test_level_metrics_form_monotone_sequence_in_strict_tower():
    metrics = [
        Pseudometric.from_lower_triangular([[]]),
        Pseudometric.from_lower_triangular([[], [1]]),
        Pseudometric.from_lower_triangular([[], [1], [2, 1]]),
    ]
    t = Tower(["a", "b", "c"], [1, 2, 3], metrics, strict=True)
    MonotonePseudometricSequence(t, metrics)


# -- the integer kernels against their Fraction references ---------------------

MIXED = [Fraction(v) for v in ("0", "1/3", "1/4", "5/6", "1", "3/2", "7/12")]
KINDS = ("raw", "zero diagonal", "symmetric", "nonnegative", "pseudometric", "duplicated")


@st.composite
def mixed_matrices(draw, kinds=KINDS, min_size=0):
    """Square tables over values with denominators 1, 2, 3, 4, 6 and 12:
    raw (asymmetric, negative, nonzero diagonal), with a zero diagonal,
    symmetric, symmetric and nonnegative (often triangle-violating),
    repaired into a pseudometric, or a symmetric nonnegative table, closed
    or not, with some points repeated, so that validation meets zero
    classes of several points and triangle violations among them."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(max(min_size, 1) if kind == "duplicated" else min_size, 6))
    values = st.sampled_from(MIXED + [-MIXED[1], -MIXED[2]])
    m = [[draw(values) for _ in range(n)] for _ in range(n)]
    if kind != "raw":
        for i in range(n):
            m[i][i] = Fraction(0)
    if kind in ("symmetric", "nonnegative", "pseudometric", "duplicated"):
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if kind in ("nonnegative", "pseudometric", "duplicated"):
        m = [[abs(v) for v in row] for row in m]
    if kind == "pseudometric" or (kind == "duplicated" and draw(st.booleans())):
        m = fraction_closure(m)
    if kind == "duplicated":
        # each point of the table becomes a copy of a drawn point
        source = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=8))
        m = [[m[a][b] for b in source] for a in source]
    return m


def _outcome(check):
    try:
        check()
    except ValidationError as e:
        return type(e), str(e)
    return None


# (0, 1) is the first failing pair, with two witnesses: k = 2 and k = 3
TRIANGLE_FAILS = [
    [Fraction(v) for v in row]
    for row in (
        ("0", "1/4", "1", "5/6"),
        ("1/4", "0", "1/4", "1/3"),
        ("1", "1/4", "0", "1/3"),
        ("5/6", "1/3", "1/3", "0"),
    )
]


# points 0 and 3 are one zero class; rows 1 and 2 differ but share their
# first entry, and d(1,2) = 3 > d(1,0) + d(0,2) = 2 (and the same through 3)
# is the only violation
SHARED_FIRST_ENTRY = [
    [Fraction(v) for v in row]
    for row in ((0, 1, 1, 0), (1, 0, 3, 1), (1, 3, 0, 1), (0, 1, 1, 0))
]


@settings(max_examples=400, deadline=None)
@given(mixed_matrices(), st.booleans())
@example(TRIANGLE_FAILS, True)
@example(SHARED_FIRST_ENTRY, False)
def test_validate_matches_fraction_reference(m, labelled):
    labels = [f"p{i}" for i in range(len(m))] if labelled else None
    got = _outcome(lambda: Pseudometric(m).validate(3, labels))
    assert got == _outcome(lambda: loop_validate(m, 3, labels))


def _pseudometric(draw, n):
    """The closure of a symmetric table of ``MIXED`` values, zeros among
    them, on n points."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            m[i][j] = m[j][i] = draw(st.sampled_from(MIXED))
    return Pseudometric(fraction_closure(m))


@st.composite
def level_tables(draw):
    """Two or three level sizes and a pseudometric per level: a corner of
    one top table, scaled or not, or a fresh table, which often disagrees
    with its neighbours on zero-pairs or order."""
    sizes = sorted(draw(st.sets(st.integers(1, 6), min_size=2, max_size=3)))
    top = _pseudometric(draw, sizes[-1])
    metrics = []
    for m in sizes:
        kind = draw(st.sampled_from(("corner", "scaled corner", "fresh")))
        d = _pseudometric(draw, m) if kind == "fresh" else top.restrict(m)
        if kind == "scaled corner":
            d = d.scale(draw(st.sampled_from(MIXED[1:])))
        metrics.append(d)
    return sizes, metrics


@settings(max_examples=300, deadline=None)
@given(level_tables(), st.booleans())
def test_tower_validation_names_the_reference_first_pair(case, strict):
    sizes, metrics = case
    labels = [f"p{i}" for i in range(sizes[-1])]
    got = _outcome(lambda: Tower(labels, sizes, metrics, strict=strict))
    assert got == _outcome(lambda: loop_tower_validate(labels, sizes, metrics, strict))


@settings(max_examples=300, deadline=None)
@given(level_tables())
def test_sequence_validation_names_the_reference_first_pair(case):
    sizes, metrics = case
    # the corners of the top table agree on zero-pairs, so this tower is valid
    tower = Tower([f"p{i}" for i in range(sizes[-1])], sizes,
                  [metrics[-1].restrict(m) for m in sizes])
    got = _outcome(lambda: MonotonePseudometricSequence(tower, metrics))
    assert got == _outcome(lambda: loop_sequence_validate(tower, metrics))


# d(0,1) > d(0,2) + d(2,1): the middle point 2 has the largest index, so
# no pair (i, j) with j < i fails in its own orientation,
# d(i,k) - d(j,k) <= d(i,j); only (j, i) does, d(0,1) - d(2,1) > d(2,0)
ONLY_TRANSPOSE_FAILS = [
    [Fraction(v) for v in row] for row in (("0", "5", "1"), ("5", "0", "1"), ("1", "1", "0"))
]


@pytest.mark.parametrize("labels", [None, ["a", "b", "c"]])
def test_triangle_violation_found_in_the_transposed_orientation(labels):
    m = ONLY_TRANSPOSE_FAILS
    for i in range(3):
        for j in range(i):
            assert max(m[i][k] - m[j][k] for k in range(3)) <= m[i][j]
    with pytest.raises(ValidationError, match="^triangle inequality fails at level 2: ") as got:
        Pseudometric(m).validate(2, labels)
    with pytest.raises(ValidationError) as ref:
        loop_validate(m, 2, labels)
    assert str(got.value) == str(ref.value)


@settings(max_examples=300, deadline=None)
@given(mixed_matrices().map(lambda m: [[abs(v) for v in row] for row in m]))
def test_closure_matches_fraction_reference(m):
    closed = shortest_path_closure(m)
    assert closed == fraction_closure(m)
    assert all(type(v) is Fraction for row in closed for v in row)


@settings(max_examples=300, deadline=None)
@given(mixed_matrices(), st.sampled_from(MIXED[1:] + [Fraction(2)]))
def test_integer_helpers_match_fraction_values(m, eps):
    d = Pseudometric(m)
    n = len(m)
    assert d.dist == tuple(map(tuple, m))
    assert [[Fraction(v, d.den) for v in row] for row in d.numer] == m
    zeros = {(i, j) for i, row in enumerate(d.numer) for j, v in enumerate(row) if v == 0}
    assert zeros == {(i, j) for i in range(n) for j in range(n) if m[i][j] == 0}
    # on any table, valid or not, the classes group equal rows
    assert d.zero_classes == tuple(sum(1 << j for j in range(n) if m[j] == m[i]) for i in range(n))
    sub = d.sublevel(2, eps)
    assert sub.level == 2
    assert sub.pairs == {(i, j) for i in range(n) for j in range(n) if m[i][j] < eps}
    for bad in (Fraction(0), -eps):
        with pytest.raises(ValidationError, match="not reflexive"):
            d.sublevel(0, bad)
    assert d.positive_values() == sorted({v for row in m for v in row if v > 0})
    if n:
        assert max_value(d) == max(v for row in m for v in row)


@settings(max_examples=200, deadline=None)
@given(mixed_matrices(kinds=("pseudometric",), min_size=1))
def test_cached_tower_data_match_definitions(m):
    # levels that are prefixes of one pseudometric agree on zero-pairs
    top = Pseudometric(m)
    sizes = sorted({max(1, top.size // 2), top.size})
    t = Tower([f"p{i}" for i in range(top.size)], sizes, [top.restrict(s) for s in sizes])
    assert [t.height(x) for x in range(top.size)] == [int(x >= sizes[0]) for x in range(top.size)]
    for level in range(t.num_levels):
        d = t.metric(level)
        grids = t.grid_entourages(level)
        thresholds = grid_thresholds(d)
        n = d.size
        assert grids == tuple(
            Entourage(level, n, {(i, j) for i in range(n) for j in range(n) if d(i, j) < eps})
            for eps in thresholds
        )
        z = t.zero_relation(level)
        zeros = [(i, j) for i, row in enumerate(d.numer) for j, v in enumerate(row) if v == 0]
        assert z == Entourage(level, d.size, zeros) == grids[0]
        # every relation built as symmetric takes its rows as its columns:
        # recounted bit by bit from a fresh copy, they must be its rows
        for e in grids + (z,) + tuple(g.components() for g in grids):
            assert Entourage._from_rows(level, e.rows).columns() == e.rows
        assert t.grid_entourages(level) is grids
    # so does the union of the level zero-relations whose components are
    # the final topology's minimal neighborhoods
    joined = t.zero_relation(t.top_level)
    for level in range(t.top_level):
        joined = union(joined, t.zero_relation(level).promote(t.top_level, top.size))
    assert Entourage._from_rows(t.top_level, joined.rows).columns() == joined.rows
    assert tlim_topology(t).min_nbhd == joined.components().rows


def _twin_towers(count):
    """Seeded towers, each with its copy with twins: points glued at
    distance 0 to a lower one, often across heights."""
    for seed in range(count):
        rng = random.Random(seed)
        plain = random_tower(rng, Profile(3, 8))
        yield rng, plain, twin_tower(rng, plain)


def test_zero_classes_of_validated_tables_are_the_zero_entries():
    crossing = 0
    for _, _, t in _twin_towers(200):
        for d in t.level_metrics:
            zeros = [{j for j, v in enumerate(row) if v == 0} for row in d.dist]
            assert d.zero_classes == tuple(sum(1 << j for j in z) for z in zeros)
            for c, z in zip(d.zero_classes, zeros):
                assert c & -c == 1 << min(z)
                assert d.zero_classes[min(z)] == c
        z = t.zero_relation(t.top_level).rows
        low = (1 << t.level_sizes[0]) - 1
        crossing += any(z[x] & low for x in range(t.level_sizes[0], t.ground_size))
    assert crossing > 100


def test_zero_relations_and_components_are_built_once():
    for _, plain, t in _twin_towers(50):
        for tower in (plain, t):
            for n in range(tower.num_levels):
                z = tower.zero_relation(n)
                assert z is tower.zero_relation(n)
                assert z == Entourage._symmetric(n, tower.metric(n).zero_classes)
            # every level is kept by now: a level out of range is still refused
            for n in (-1, tower.num_levels):
                with pytest.raises(ValidationError, match="out of range"):
                    tower.zero_relation(n)
            for u in tower.grid_entourages(tower.top_level):
                assert u.components() is u.components()


@pytest.mark.parametrize("strict", [False, True])
def test_tower_validation_of_twin_levels_names_the_reference_first_pair(strict):
    """Each level of a seeded tower with twins, or the same level without
    them: a level with a twin that the next level lacks, or the reverse, is
    refused, and the zero-pairs of twins across heights are no mismatch."""
    outcomes = []
    for rng, plain, t in _twin_towers(200):
        metrics = [rng.choice(pair) for pair in zip(plain.level_metrics, t.level_metrics)]
        got = _outcome(lambda: Tower(t.labels, t.level_sizes, metrics, strict=strict))
        assert got == _outcome(
            lambda: loop_tower_validate(t.labels, t.level_sizes, metrics, strict)
        )
        outcomes.append(got and got[1])
    mismatches = [m for m in outcomes if m and m.startswith("zero-pair mismatch between levels")]
    assert outcomes.count(None) > 20 and len(mismatches) > 20


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 40), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
)
@example(12, [[0] * 3] * 3)
@example(5, [])
def test_from_numer_holds_what_fractions_would(den, numer):
    got = Pseudometric._from_numer(den, numer)
    ref = Pseudometric([[Fraction(v, den) for v in row] for row in numer])
    assert got == ref
    assert (got.size, got.dist, got.den, got.numer) == (ref.size, ref.dist, ref.den, ref.numer)


# -- one table, every constructor ------------------------------------------------

# each value spelled as each constructor reads it: ints, Fractions, strings
# Fraction reads (unreduced, padded, decimal, exponent) and exact floats
SPELLED = (0, 1, 3, Fraction(1, 3), Fraction(5, 4), Fraction(2), "1/2", "2/6", "3", " 5/4",
           "0.5", "1e-1", 0.25, 1.5, 2.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(*(st.lists(st.sampled_from(SPELLED), min_size=i, max_size=i)
                          for i in range(n)))
))
@example(([], ["1/2"], [1, 0.25]))
def test_every_constructor_holds_the_same_table(rows):
    n = len(rows)
    full = [[0 if i == j else rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    values = [[Fraction(v) for v in row] for row in full]
    ref = Pseudometric(full)
    assert ref.den == math.lcm(*(v.denominator for row in values for v in row))
    assert ref.dist == tuple(map(tuple, values))
    got = [Pseudometric.from_lower_triangular(rows)]
    if not any(isinstance(v, float) for row in rows for v in row):
        # the JSON reader takes ints and strings only
        got.append(io._metric_from_json(
            [[str(v) if isinstance(v, Fraction) else v for v in row] for row in rows], "m"
        ))
    for d in got:
        assert (d.size, d.den, d.numer, d.dist) == (ref.size, ref.den, ref.numer, ref.dist)
    assert Pseudometric.zero(n) == Pseudometric([[0] * n] * n)
    assert Pseudometric.zero(n).dist == tuple(map(tuple, [[Fraction(0)] * n] * n))
    closed = shortest_path_closure(ref.dist)
    assert closed == fraction_closure(values)
    assert all(type(v) is Fraction for row in closed for v in row)


def test_lower_triangular_entries_are_keyed_as_given():
    """"1/2" is not equal to its Fraction, 1 and 0.25 are: each is read as
    given."""
    d = Pseudometric.from_lower_triangular([[], ["1/2"], [1, 0.25]])
    assert (d.den, d.numer) == (4, ((0, 2, 4), (2, 0, 1), (4, 1, 0)))


# -- the packed triangle check against the triple loop --------------------------

# common denominators: 1, primes near 10^6 and 10^12, and a product of two
# primes near 10^6, so the values' lcm reaches about 10^12
DENOMINATORS = (1, 999983, 999999999989, 999983 * 1000003)


@st.composite
def packed_tables(draw):
    """Symmetric nonnegative tables whose largest numerator over their
    common denominator is M, with 2*M at, two below or two above a power of
    two: line metrics (valid), a line metric with a hub at distance c from
    every point, appended last (only the mirror comparison of a pair can
    fail, when 2*c < M) or put first (only the direct comparison can fail),
    a line metric with repeated points and one pair redrawn (repeated rows),
    a line metric whose last pair is raised to M (every failing triple has
    a >= n-2, late in (a, b, c) order), and raw tables, with or without
    many zero entries."""
    k = draw(st.integers(1, 41))
    top = max(1, 2 ** (k - 1) + draw(st.sampled_from((-1, 0, 1))))
    den = draw(st.sampled_from(DENOMINATORS))
    assume(den == 1 or math.gcd(top, den) == 1)
    kinds = ("line", "hub last", "hub first", "repeats", "late", "raw", "zeros")
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2 if kind in ("line", "raw", "zeros") else 3, 7))
    values = st.integers(0, top)
    if kind in ("raw", "zeros"):
        entries = st.just(0) | values if kind == "zeros" else values
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i] = draw(entries)
        m[1][0] = m[0][1] = top
    else:
        line = n - 1 if kind.startswith("hub") else n
        xs = [0, top][:line]
        for _ in range(line - 2):
            repeat = kind == "repeats" and draw(st.booleans())
            xs.append(draw(st.sampled_from(xs) if repeat else values))
        m = [[abs(a - b) for b in xs] for a in xs]
        if kind == "repeats":
            i = draw(st.integers(2, n - 1))
            j = draw(st.integers(0, i - 1))
            m[i][j] = m[j][i] = draw(values)
        if kind == "late":
            m[n - 1][n - 2] = m[n - 2][n - 1] = top
        if kind.startswith("hub"):
            c = draw(values)
            m = [row + [c] for row in m] + [[c] * (n - 1) + [0]]
            if kind == "hub first":
                order = [n - 1, *range(n - 1)]
                m = [[m[a][b] for b in order] for a in order]
    return top, [[Fraction(v, den) for v in row] for row in m]


# d(0,2) = 2 > d(0,1) + d(1,2) = 0
ZERO_ENTRIES = [[Fraction(v) for v in row] for row in ((0, 0, 2), (0, 0, 0), (2, 0, 0))]

# the line 0, 4, 1, 2 with d(2,3) raised to 4: the first failing triple is
# d(2,3) > d(2,0) + d(0,3) = 3, none with a < 2
LATE_VIOLATION = [
    [Fraction(v) for v in row] for row in ((0, 4, 1, 2), (4, 0, 3, 2), (1, 3, 0, 4), (2, 2, 4, 0))
]


@settings(max_examples=500, deadline=None)
@given(packed_tables(), st.booleans())
@example((5, [[Fraction(v) for v in row] for row in ((0, 5, 2), (5, 0, 2), (2, 2, 0))]), False)
@example((5, [[Fraction(v) for v in row] for row in ((0, 2, 2), (2, 0, 5), (2, 5, 0))]), True)
@example((3, SHARED_FIRST_ENTRY), True)
@example((2, ZERO_ENTRIES), False)
@example((4, LATE_VIOLATION), True)
def test_packed_triangle_check_matches_loop_reference(case, labelled):
    top, m = case
    d = Pseudometric(m)
    assert max(map(max, d.numer)) == top
    labels = [f"p{i}" for i in range(len(m))] if labelled else None
    got = _outcome(lambda: d.validate(1, labels))
    assert got == _outcome(lambda: loop_validate(m, 1, labels))


@settings(max_examples=300, deadline=None)
@given(packed_tables())
def test_scale_hands_on_the_zero_classes_only_for_a_positive_factor(case):
    d = Pseudometric(case[1])
    assert d.zero_classes  # built, so that scale can hand them on
    for c in (3, Fraction(2, 7)):
        scaled = d.scale(c)
        assert scaled.zero_classes == Pseudometric._from_numer(scaled.den, scaled.numer).zero_classes
    assert d.scale(0).zero_classes == ((1 << d.size) - 1,) * d.size


def test_triangle_witness_of_300_points_is_named_without_a_triple_walk():
    # no L1 distance on the 8x8 grid exceeds 14, so the raised entry can only
    # be the long side of a failing triangle, and b = 0 is the first short
    # way round from 298 to 299: the witness follows from the construction.
    # A walk over every triple took 1.6 to 7.0 s on a 2-core VM, the packed
    # representatives under 0.01 s.
    m = l1_table(grid_points(300, seed=0))
    m[298][299] = m[299][298] = 100
    d = Pseudometric._from_numer(1, m)
    start = time.perf_counter()
    with pytest.raises(ValidationError) as refused:
        d.validate()
    assert time.perf_counter() - start < 1
    assert str(refused.value) == (
        "triangle inequality fails at level 0: d(298,299) > d(298,0) + d(0,299)"
    )


@pytest.mark.parametrize("m", [[], [[0]], [[0, 0], [0, 0]], [[0, 7], [7, 0]]])
def test_packed_triangle_check_on_tables_of_at_most_two_points(m):
    Pseudometric(m).validate()
    loop_validate(m)


@settings(max_examples=300, deadline=None)
@given(mixed_matrices(kinds=("symmetric", "pseudometric")), mixed_matrices(), st.integers(1, 6))
def test_equality_and_hash_agree_with_the_fraction_tables(m1, m2, k):
    a, b = Pseudometric(m1), Pseudometric(m2)
    assert (a == b) == (a.dist == b.dist)
    assert a != b or hash(a) == hash(b)
    # the same values over a k times larger denominator
    c = Pseudometric._from_numer(a.den * k, [[v * k for v in row] for row in a.numer])
    assert c == a and hash(c) == hash(a) and c.dist == a.dist


# -- the packed closure against the entry-by-entry reference --------------------


@st.composite
def closure_tables(draw):
    """Square nonnegative int tables whose largest entry M is at, one below
    or one above a power of two up to 2^40, or within one of 10^12:
    symmetric with a zero diagonal (often triangle-violating), or raw
    (asymmetric, positive diagonal)."""
    if draw(st.booleans()):
        top = max(1, 2 ** draw(st.integers(0, 40)) + draw(st.sampled_from((-1, 0, 1))))
    else:
        top = 10**12 + draw(st.sampled_from((-1, 0, 1)))
    n = draw(st.integers(0, 7))
    m = [[draw(st.integers(0, top)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        m = [[0 if i == j else m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if n > 1:
        m[0][n - 1] = m[n - 1][0] = top
    elif n:
        m[0][0] = top
    return m


@settings(max_examples=500, deadline=None)
@given(closure_tables())
@example([])
@example([[0]])
@example([[5]])
@example([[0, 6], [6, 0]])
def test_packed_closure_matches_entry_by_entry_reference(m):
    d = [list(row) for row in m]
    assert closure_in_place(d) is d
    assert d == fraction_closure([[Fraction(v) for v in row] for row in m])


@pytest.mark.parametrize("m", [[[-3]], [[0, -2], [1, 0]], [[-1, 4], [4, -1]]])
def test_closure_refuses_a_negative_entry(m):
    with pytest.raises(ValidationError, match="negative entry"):
        closure_in_place([list(row) for row in m])
    with pytest.raises(ValidationError, match="negative entry"):
        shortest_path_closure([[Fraction(v, 3) for v in row] for row in m])
