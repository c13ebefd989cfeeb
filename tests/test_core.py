from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unilim.core import (
    Entourage,
    GridScale,
    MonotonePseudometricSequence,
    Pseudometric,
    Tower,
    shortest_path_closure,
)
from unilim.errors import (
    IndexOutOfRange,
    NestingViolation,
    SubspaceViolation,
    TriangleViolation,
    ValidationError,
)

from .conftest import flat_tower, frac_matrix
from .oracles import fraction_closure, loop_validate


def test_three_point_tower_is_valid(tower):
    assert tower.level_sizes == (1, 2, 3)
    assert tower.labels == ("a", "b", "c")


def test_triangle_violation_detected():
    with pytest.raises(TriangleViolation) as e:
        Tower(
            ["a", "b", "c"],
            [1, 2, 3],
            [
                Pseudometric.from_lower_triangular([[]]),
                Pseudometric.from_lower_triangular([[], [1]]),
                Pseudometric.from_lower_triangular([[], [1], [3, 1]]),
            ],
        )
    assert e.value.level == 2


def test_subspace_violation_on_zero_pair_mismatch():
    with pytest.raises(SubspaceViolation):
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
    with pytest.raises(NestingViolation):
        Tower(["a", "b"], [2, 2], [Pseudometric.zero(2), Pseudometric.zero(2)])


def test_asymmetric_metric_rejected():
    with pytest.raises(ValidationError):
        Pseudometric([[0, 1], [2, 0]]).validate()


def test_nonzero_diagonal_rejected():
    with pytest.raises(ValidationError):
        Pseudometric([[1]]).validate()


def test_heights(tower):
    assert [tower.height(i) for i in range(3)] == [0, 1, 2]
    assert tower.pair_height(0, 1) == 1
    assert tower.pair_height(0, 2) == 2
    assert tower.pair_height(0, 0) == 0
    with pytest.raises(IndexOutOfRange):
        tower.height(3)


def test_strict_mode_requires_exact_restriction():
    metrics = [
        Pseudometric.from_lower_triangular([[]]),
        Pseudometric.from_lower_triangular([[], [1]]),
        Pseudometric.from_lower_triangular([[], [2], [1, 1]]),
    ]
    Tower(["a", "b", "c"], [1, 2, 3], metrics)  # zero-pairs agree: fine
    with pytest.raises(SubspaceViolation):
        Tower(["a", "b", "c"], [1, 2, 3], metrics, strict=True)


def test_grid_scale(tower):
    gs = tower.grid_scale(2)
    assert list(gs.thresholds) == [1, 2, 3]
    assert GridScale.for_metric(0, Pseudometric.zero(2)).thresholds == (1,)


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


def test_entourage_promote_keeps_pairs():
    e = Entourage(1, 2, [(0, 0), (1, 1), (0, 1)])
    p = e.promote(2, 3)
    assert set(p.sorted_pairs()) == {(0, 0), (1, 1), (2, 2), (0, 1)}


def test_entourage_symmetrize_and_transpose():
    e = Entourage(0, 2, [(0, 0), (1, 1), (0, 1)])
    assert not e.is_symmetric()
    assert e.symmetrize().is_symmetric()
    assert set(e.transpose().sorted_pairs()) == {(0, 0), (1, 1), (1, 0)}


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
KINDS = ("raw", "zero diagonal", "symmetric", "nonnegative", "pseudometric")


@st.composite
def mixed_matrices(draw, kinds=KINDS, min_size=0):
    """Square tables over values with denominators 1, 2, 3, 4, 6 and 12:
    raw (asymmetric, negative, nonzero diagonal), with a zero diagonal,
    symmetric, symmetric and nonnegative (often triangle-violating), or
    repaired into a pseudometric."""
    n = draw(st.integers(min_size, 6))
    values = st.sampled_from(MIXED + [-MIXED[1], -MIXED[2]])
    m = [[draw(values) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(kinds))
    if kind != "raw":
        for i in range(n):
            m[i][i] = Fraction(0)
    if kind in ("symmetric", "nonnegative", "pseudometric"):
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if kind in ("nonnegative", "pseudometric"):
        m = [[abs(v) for v in row] for row in m]
    if kind == "pseudometric":
        m = fraction_closure(m)
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


@settings(max_examples=400, deadline=None)
@given(mixed_matrices(), st.booleans())
@example(TRIANGLE_FAILS, True)
def test_validate_matches_fraction_reference(m, labelled):
    labels = [f"p{i}" for i in range(len(m))] if labelled else None
    got = _outcome(lambda: Pseudometric(m).validate(3, labels))
    assert got == _outcome(lambda: loop_validate(m, 3, labels))


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
    with pytest.raises(TriangleViolation) as got:
        Pseudometric(m).validate(2, labels)
    with pytest.raises(TriangleViolation) as ref:
        loop_validate(m, 2, labels)
    assert str(got.value) == str(ref.value)


@settings(max_examples=300, deadline=None)
@given(mixed_matrices())
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
    assert d.zero_pairs() == {(i, j) for i in range(n) for j in range(n) if m[i][j] == 0}
    assert d.sublevel_pairs(eps) == {(i, j) for i in range(n) for j in range(n) if m[i][j] < eps}
    assert d.positive_values() == sorted({v for row in m for v in row if v > 0})
    if n:
        assert d.max_value() == max(v for row in m for v in row)


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
        thresholds = t.grid_scale(level).thresholds
        assert grids == tuple(Entourage(level, d.size, d.sublevel_pairs(eps)) for eps in thresholds)
        assert all(g.columns() == g.transpose().rows for g in grids)
        assert grids[0] == t.zero_relation(level)
        assert t.grid_entourages(level) is grids


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
