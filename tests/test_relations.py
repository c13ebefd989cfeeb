import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilim.core import Entourage, members
from unilim.errors import ValidationError
from unilim.generate import Profile, random_tower
from unilim.relations import (
    OMEGA,
    REPEAT_LAST,
    EntourageSequence,
    ball,
    ball_set_mask,
    compose,
    multiple,
    sigma_sum,
)

from .conftest import diag, flat_tower, pairs
from .oracles import (
    brute_ball,
    brute_compose,
    brute_sigma,
    check_entourages,
    diagonal_entourage,
    fixpoint_closure,
    fixpoint_sigma_omega,
    grid_sequence,
    random_entourage,
    transpose,
    union,
)


def test_compose_frozen_value(e_u, e_v):
    # the sum whose balls unfold as B(B(x;U);V): second summand last
    assert pairs(compose(e_u, e_v)) == diag(3) | {(0, 1), (1, 0), (1, 2), (2, 1), (2, 0)}
    assert pairs(compose(e_v, e_u)) == diag(3) | {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)}


def test_compose_noncommutative(e_u, e_v):
    assert compose(e_u, e_v) != compose(e_v, e_u)


def test_diagonal_is_identity(e_u):
    d = diagonal_entourage(2, 3)
    assert compose(e_u, d) == e_u
    assert compose(d, e_u) == e_u


def test_multiple_frozen(e_u):
    assert multiple(e_u, 2) == e_u
    assert multiple(e_u, 1) == e_u
    d = diagonal_entourage(2, 3)
    assert multiple(d, 5) == d
    with pytest.raises(ValidationError):
        multiple(e_u, 0)


def test_compose_promotes_levels(tower):
    low = Entourage(1, 2, [(0, 0), (1, 1), (0, 1), (1, 0)])
    top = Entourage(2, 3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)])
    out = compose(low, top)
    assert out.level == 2 and out.size == 3
    assert (2, 0) in pairs(out)  # c joins b at the top, b joins a below


def test_compose_promotes_a_lower_second_operand(tower):
    """U above V: V is promoted to U's level, its new points joined only to
    themselves; a lower V larger than U is refused."""
    top = Entourage(2, 3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)])
    low = Entourage(1, 2, [(0, 0), (1, 1), (1, 0)])
    out = compose(top, low)
    assert out.level == 2 and out.size == 3
    assert pairs(out) == brute_compose(pairs(top), pairs(low) | diag(3), 3)
    assert (1, 2) in pairs(out) and (0, 2) not in pairs(out)
    small_top = Entourage(2, 2, [(0, 0), (1, 1)])
    big_low = Entourage(1, 3, [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValidationError, match="^lower level is larger than higher level$"):
        compose(small_top, big_low)


def test_compose_level_mismatch():
    a = Entourage(1, 2, [(0, 0), (1, 1)])
    b = Entourage(1, 3, [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValidationError, match="^same level 1 but sizes 2 != 3$"):
        compose(a, b)


def test_sigma_frozen_value(tower):
    seq = EntourageSequence(
        tower,
        0,
        (
            diagonal_entourage(0, 1),
            Entourage(1, 2, [(0, 0), (1, 1), (0, 1), (1, 0)]),
            Entourage(2, 3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)]),
        ),
    )
    expected = diag(3) | {(0, 1), (1, 0), (1, 2), (2, 0), (2, 1)}
    assert pairs(sigma_sum(seq, OMEGA)) == expected
    # matches the naive oracle
    assert brute_sigma(seq.entries, 3) == expected


def test_sigma_of_diagonals_is_diagonal(tower):
    seq = EntourageSequence(
        tower, 0, tuple(diagonal_entourage(n, tower.level_sizes[n]) for n in range(3))
    )
    assert pairs(sigma_sum(seq, OMEGA)) == diag(3)


def test_sigma_single_entry_finite(tower):
    e = Entourage(2, 3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    seq = EntourageSequence(tower, 2, (e,))
    assert sigma_sum(seq, 2) == e


def test_sigma_upto_below_start(tower):
    e = Entourage(2, 3, [(0, 0), (1, 1), (2, 2)])
    seq = EntourageSequence(tower, 2, (e,))
    with pytest.raises(ValidationError, match="^upto=1 below start=2$"):
        sigma_sum(seq, 1)


def test_sequence_entry_levels_enforced(tower):
    with pytest.raises(ValidationError, match=r"^expected entries for levels 0\.\.2, got 1$"):
        EntourageSequence(tower, 0, (diagonal_entourage(0, 1),))


def test_check_entourages(tower):
    glued = Entourage(2, 3, [(0, 0), (1, 1), (2, 2)])
    seq = EntourageSequence(tower, 2, (glued,))
    check_entourages(seq)  # diagonal contains the zero-relation here

    merged_tower_rel = EntourageSequence(
        tower,
        0,
        (
            diagonal_entourage(0, 1),
            diagonal_entourage(1, 2),
            diagonal_entourage(2, 3),
        ),
    )
    check_entourages(merged_tower_rel)


def test_check_entourages_rejects_missing_zero_pair(glued):
    t = glued.source  # d_1(a,b) = 0, so the zero-relation joins a and b
    seq = EntourageSequence(
        t, 0, (diagonal_entourage(0, 1), diagonal_entourage(1, 2))
    )
    with pytest.raises(ValidationError, match="^relation at level 1 misses a zero-pair$"):
        check_entourages(seq)


def test_ball_orientation_frozen(e_u, e_v):
    uv = compose(e_u, e_v)
    vu = compose(e_v, e_u)
    assert ball(0, uv) == {0, 1, 2}
    assert ball(0, vu) == {0, 1}
    assert ball(0, diagonal_entourage(2, 3)) == {0}


def test_ball_set(e_v):
    assert members(ball_set_mask(0b011, e_v)) == {0, 1, 2}
    assert members(ball_set_mask(0, e_v)) == set()
    assert members(ball_set_mask(0b101, diagonal_entourage(2, 3))) == {0, 2}


def test_grid_sequence(tower):
    seq = grid_sequence(tower, 0, [0, 0, 0])
    for n, e in enumerate(seq.entries):
        assert e == tower.zero_relation(n)


# -- randomized properties ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_compose_matches_oracle(seed, size):
    rng = random.Random(seed)
    u = random_entourage(rng, 0, size)
    v = random_entourage(rng, 0, size)
    assert pairs(compose(u, v)) == brute_compose(set(u.pairs), set(v.pairs), size)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.data())
def test_compose_of_a_higher_then_a_lower_operand_matches_oracle(seed, size, data):
    rng = random.Random(seed)
    u = random_entourage(rng, 2, size)
    v = random_entourage(rng, 1, data.draw(st.integers(1, size)))
    assert pairs(compose(u, v)) == brute_compose(set(u.pairs), set(v.pairs) | diag(size), size)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_associativity(seed, size):
    rng = random.Random(seed)
    u, v, w = (random_entourage(rng, 0, size) for _ in range(3))
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_monotone_in_both_arguments(seed, size):
    rng = random.Random(seed)
    u = random_entourage(rng, 0, size, density=0.3)
    v = random_entourage(rng, 0, size, density=0.3)
    u_big = union(u, random_entourage(rng, 0, size, density=0.3))
    v_big = union(v, random_entourage(rng, 0, size, density=0.3))
    assert compose(u, v).issubset(compose(u_big, v_big))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_diagonal_absorption(seed, size):
    rng = random.Random(seed)
    u = random_entourage(rng, 0, size)
    v = random_entourage(rng, 0, size)
    assert union(u, v).issubset(compose(u, v))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5))
def test_ball_sum_identity(seed, size):
    """The orientation pin: B(B(x;U);V) = B(x;U+V) for every x."""
    rng = random.Random(seed)
    u = random_entourage(rng, 0, size)
    v = random_entourage(rng, 0, size)
    uv = compose(u, v)
    for x in range(size):
        assert members(ball_set_mask(u.columns()[x], v)) == ball(x, uv)
        assert ball(x, u) == brute_ball(x, set(u.pairs))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_sigma_is_fixpoint(seed):
    from unilim.fixtures import three_point_tower

    tower = three_point_tower()
    rng = random.Random(seed)
    entries = tuple(
        random_entourage(rng, n, tower.level_sizes[n]) for n in range(3)
    )
    seq = EntourageSequence(tower, 0, entries)
    s = sigma_sum(seq, OMEGA)
    assert compose(s, seq.tail()) == s
    assert pairs(s) == brute_sigma(entries, 3)


# -- the omega tail as the (size-1)-fold sum, against the fixpoint loop -------


def omega_tail(u):
    """The omega sum of a one-level sequence whose one entry is the
    diagonal and whose tail is ``u``: the closure the omega tail adds."""
    n = u.size
    seq = EntourageSequence(flat_tower([n]), 0, (diagonal_entourage(0, n),), u)
    return sigma_sum(seq, OMEGA)


@st.composite
def reflexive_relations(draw, max_size=12):
    """A reflexive relation as bitmask rows: sparse or dense, most often not
    symmetric, sometimes made symmetric by adding the transpose."""
    n = draw(st.integers(1, max_size))
    density = draw(st.sampled_from((0.05, 0.15, 0.5)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    u = random_entourage(rng, draw(st.integers(0, 3)), n, density)
    return union(u, transpose(u)) if draw(st.booleans()) else u


@settings(max_examples=300, deadline=None)
@given(reflexive_relations())
def test_closure_matches_compose_until_stable(u):
    c = multiple(u, max(1, u.size - 1))
    assert c == omega_tail(u) == fixpoint_closure(u)
    assert c.columns() == transpose(c).rows
    assert multiple(c, 2) == c


@st.composite
def symmetric_relations(draw):
    """A symmetric reflexive relation on 0 to 40 points: sparse, dense, one
    class (a path through every point in a random order, so a component
    takes many rounds to grow) or all singletons (the diagonal)."""
    n = draw(st.integers(0, 40))
    level = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(("sparse", "dense", "one class", "singletons")))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if kind == "singletons":
        return diagonal_entourage(level, n)
    if kind == "one class":
        order = rng.sample(range(n), n)
        u = Entourage(level, n, [(i, i) for i in range(n)] + list(zip(order, order[1:])))
    else:
        u = random_entourage(rng, level, n, 0.02 if kind == "sparse" else 0.3)
    return union(u, transpose(u))


@settings(max_examples=200, deadline=None)
@given(symmetric_relations())
def test_components_match_closure(u):
    c = u.components()
    assert c == multiple(u, max(1, u.size - 1)) == fixpoint_closure(u)
    assert c.columns() == transpose(c).rows
    assert u.components() == c


def test_components_refuse_a_directed_relation():
    u = Entourage(0, 3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    with pytest.raises(ValidationError, match="not symmetric"):
        u.components()


def test_closure_follows_direction():
    # 0 -> 1 -> 2 only: the closure adds (0, 2) and nothing backwards
    u = Entourage(0, 3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    c = multiple(u, 2)
    assert pairs(c) == diag(3) | {(0, 1), (1, 2), (0, 2)}
    assert c == omega_tail(u) == fixpoint_closure(u)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_omega_sum_matches_fixpoint(seed, own_tail):
    rng = random.Random(seed)
    tower = random_tower(rng, Profile(levels=rng.randint(1, 3), max_size=8))
    start = rng.randrange(tower.num_levels)
    entries = tuple(
        random_entourage(rng, n, tower.level_sizes[n], density=rng.choice((0.05, 0.15, 0.4)))
        for n in range(start, tower.num_levels)
    )
    tail = (
        random_entourage(rng, tower.top_level, tower.ground_size, density=0.1)
        if own_tail
        else REPEAT_LAST
    )
    seq = EntourageSequence(tower, start, entries, tail)
    assert sigma_sum(seq, OMEGA) == fixpoint_sigma_omega(seq)
