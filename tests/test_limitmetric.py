import gc
import random
import signal
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilim import limitmetric
from unilim.core import Entourage, MonotonePseudometricSequence, Pseudometric, Tower
from unilim.errors import ValidationError
from unilim.generate import Profile, generate_instance, random_monotone_sequence, random_tower
from unilim.limitmetric import (
    _extend_one,
    _target_indicator,
    adequate_sequence,
    chain_weight,
    extend_pseudometric,
    limit_pseudometric,
    sum_of_extensions,
    valley_distance,
    verify_generation,
    witness_chain,
)
from unilim.relations import multiple
from unilim.verify import exhaustive_limit_distance

from .conftest import flat_tower, frac_matrix, mixed_towers, probe_sequence, same_table
from .oracles import (
    closure_target_indicator,
    diagonal_entourage,
    fraction_chain_distance,
    fraction_extend_one,
    fraction_limit,
    fraction_sum,
    fraction_valley_distance,
    full_closure_limit,
    full_entourage,
    glued_extension,
    int_link_weights,
    loop_valley_row,
    pair_height,
    random_entourage,
    twin_tower,
    union,
)


def test_chain_weight_frozen(mono_seq):
    assert chain_weight(mono_seq, (0, 1, 2)) == 2
    assert chain_weight(mono_seq, (0, 2)) == 3
    assert chain_weight(mono_seq, (1,)) == 0


@settings(max_examples=100, deadline=None)
@given(mixed_towers(), st.data())
def test_chain_weight_matches_a_fraction_sum_of_links(drawn, data):
    """Any chain, repeated points and one-point chains included, weighs
    the Fraction sum of its links at their pair heights."""
    seq = sum_of_extensions(*drawn)
    t = seq.tower
    n = t.ground_size
    pts = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))

    def reference(points):
        return sum(
            (seq[pair_height(t, a, b)].dist[a][b] for a, b in zip(points, points[1:])),
            Fraction(0),
        )

    assert chain_weight(seq, pts) == reference(pts)
    there_and_back = pts + pts[-2::-1]
    assert chain_weight(seq, there_and_back) == 2 * reference(pts)
    assert chain_weight(seq, pts[-1:]) == 0


def test_limit_values_frozen(mono_seq):
    lim = limit_pseudometric(mono_seq)
    assert lim(0, 1) == 1
    assert lim(1, 2) == 1
    assert lim(0, 2) == 2  # via the middle point: 1+1 beats the direct 3
    lim.validate()


def test_limit_dominated_by_single_link(mono_seq):
    lim = limit_pseudometric(mono_seq)
    t = mono_seq.tower
    for x in range(3):
        for y in range(3):
            assert lim(x, y) <= mono_seq[pair_height(t, x, y)].dist[x][y]


def test_single_level_limit_is_the_metric():
    d = frac_matrix([[0, 1], [1, 0]])
    t = Tower(["a", "b"], [2], [d])
    from unilim.core import MonotonePseudometricSequence

    seq = MonotonePseudometricSequence(t, [d])
    lim = limit_pseudometric(seq)
    assert lim == d


def test_witness_chain_is_optimal(mono_seq):
    ch = witness_chain(mono_seq, 0, 2)
    assert chain_weight(mono_seq, ch) == 2
    assert ch[0] == 0 and ch[-1] == 2


def _timeout(signum, frame):
    raise TimeoutError("witness_chain did not terminate")


def test_witness_chain_terminates_across_zero_weight_links():
    """Zero-weight links close cycles of optimal steps; the chain must
    still end at y, visit no point twice and weigh d(x, y)."""
    seq = generate_instance(2).seq
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(10)
    try:
        ch = witness_chain(seq, 1, 5)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert ch[0] == 1 and ch[-1] == 5
    assert len(set(ch)) == len(ch)
    assert chain_weight(seq, ch) == limit_pseudometric(seq)(1, 5)


def test_valley_distance_frozen(mono_seq):
    assert valley_distance(mono_seq, 0, 2) == 2
    assert valley_distance(mono_seq, 0, 1) == 1
    assert valley_distance(mono_seq, 1, 1) == 0


@pytest.mark.parametrize("point", [-1, 3])
def test_chain_and_valley_calls_refuse_points_outside_the_ground_set(mono_seq, point):
    """-1 is out of range, as 3 is, and is not read as the last point."""
    with pytest.raises(ValidationError, match=f"^chain point {point}$"):
        chain_weight(mono_seq, (0, point))
    for call in (valley_distance, witness_chain):
        with pytest.raises(ValidationError, match=f"^element {point}$"):
            call(mono_seq, 0, point)
        with pytest.raises(ValidationError, match=f"^element {point}$"):
            call(mono_seq, point, 0)


def assert_valley_witness(seq, x, y, d):
    """``witness_chain(seq, x, y)`` runs from x to y, visits no point twice,
    has every interior point lower than the higher of its neighbors, and
    weighs ``d``."""
    pts = witness_chain(seq, x, y)
    assert pts[0] == x and pts[-1] == y
    assert len(set(pts)) == len(pts)
    hs = [seq.tower.height(p) for p in pts]
    for i in range(1, len(hs) - 1):
        assert hs[i] < max(hs[i - 1], hs[i + 1])
    assert chain_weight(seq, pts) == d


def test_valley_witness_is_valley_shaped(mono_seq):
    assert_valley_witness(mono_seq, 0, 2, 2)


def test_empty_chain_is_named(mono_seq):
    with pytest.raises(ValidationError, match="^chain must be nonempty$"):
        chain_weight(mono_seq, ())


def test_extension_restricts_exactly(tower):
    rho = frac_matrix([[0, 1], [1, 0]])
    ext = extend_pseudometric(tower, rho, 2)
    assert ext.restrict(2) == rho
    ext.validate()
    # hand values for this tower: c sits at distance 2 from a, 1 from b
    assert ext.dist[0][2] == 2
    assert ext.dist[1][2] == 1


def test_extension_of_zero_is_zero(tower):
    ext = extend_pseudometric(tower, Pseudometric.zero(2), 2)
    assert ext == Pseudometric.zero(3)


def test_extension_identity_at_same_level(tower):
    rho = frac_matrix([[0, 1], [1, 0]])
    assert extend_pseudometric(tower, rho, 1) == rho


def test_extension_rejects_nonuniform():
    t = flat_tower([1, 2], value=0)
    rho = frac_matrix([[0, 1], [1, 0]])
    with pytest.raises(
        ValidationError, match=r"^pseudometric positive on zero-pair \(p0,p1\) of level 1$"
    ):
        extend_pseudometric(t, rho, 1)


def test_extension_preserves_uniformity(tower):
    rho = frac_matrix([[0, 1], [1, 0]])
    ext = extend_pseudometric(tower, rho, 2)
    for i, row in enumerate(tower.metric(2).numer):
        for j, v in enumerate(row):
            if v == 0:
                assert ext.dist[i][j] == 0


def test_extension_names_the_first_positive_zero_pair_in_row_major_order():
    t = flat_tower([3], value=0)
    rho = frac_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    with pytest.raises(ValidationError, match=r"zero-pair \(p0,p2\) of level 0"):
        extend_pseudometric(t, rho, 0)


@pytest.mark.parametrize("rows, message", [
    ([[1]], r"^nonzero diagonal at a$"),
    ([[0, 1], [2, 0]], r"^asymmetric pair \(b,a\)$"),
    ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], r"^triangle inequality fails at level 2"),
])
def test_extension_refuses_a_table_that_is_not_a_pseudometric(tower, rows, message):
    """Checked before uniformity, which reads only the pairs above the
    diagonal of a symmetric table: a nonzero diagonal would otherwise
    extend over the denominator 0."""
    with pytest.raises(ValidationError, match=message):
        extend_pseudometric(tower, frac_matrix(rows), 2)


def _three_point_pieces(tower):
    return [tower.metric(n) for n in range(3)]


@pytest.mark.parametrize("edit, message", [
    (lambda p, t: p[:2], r"^metrics: 2 for 3 levels$"),
    (lambda p, t: p + [t.metric(2)], r"^level 3 out of range$"),
    (lambda p, t: [t.metric(1)] + p[1:], r"^piece at level 0 has size 2, expected 1$"),
    (lambda p, t: p[:2] + [t.metric(1)], r"^piece at level 2 has size 2, expected 3$"),
], ids=["two pieces", "four pieces", "oversized level-0 piece", "undersized level-2 piece"])
def test_sum_of_extensions_refuses_a_bad_piece_list_naming_it(tower, edit, message):
    """Too few or too many pieces, or a piece of another level's size, is a
    library error, not an ``IndexError``, a silently dropped piece or a
    refusal that names another level."""
    with pytest.raises(ValidationError, match=message):
        sum_of_extensions(tower, edit(_three_point_pieces(tower), tower))


def test_sum_of_extensions_refuses_a_piece_positive_on_a_zero_pair():
    t = flat_tower([1, 3], value=0)
    pieces = [Pseudometric.zero(1), frac_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])]
    with pytest.raises(
        ValidationError, match=r"^pseudometric positive on zero-pair \(p0,p2\) of level 1$"
    ):
        sum_of_extensions(t, pieces)


def test_sum_of_extensions_checks_each_piece_once_and_lifts_without_rechecking(
    tower, monkeypatch
):
    """Each piece is checked for uniformity once, on its own level, and the
    pieces carried up are lifted by the extension step alone."""
    checked = []
    check = Tower._check_uniform

    def record(self, level, d, name):
        checked.append((level, d.size, name))
        return check(self, level, d, name)

    def refuse(*args):
        raise AssertionError("a carried piece went through extend_pseudometric")

    monkeypatch.setattr(Tower, "_check_uniform", record)
    monkeypatch.setattr(limitmetric, "extend_pseudometric", refuse)
    seq = sum_of_extensions(tower, _three_point_pieces(tower))
    assert [c for c in checked if c[2] == "pseudometric"] == [
        (0, 1, "pseudometric"), (1, 2, "pseudometric"), (2, 3, "pseudometric")
    ]
    # the sequence checks each level once more on its zero classes, and
    # every level passes there, so no scan runs to name a failing pair
    assert [c for c in checked if c[2] != "pseudometric"] == []
    # d(a,c): the level-1 piece lifts to 2 there, the level-2 piece adds 2
    assert seq[2].dist[0][2] == 4


def test_adequate_sequence_refines_targets(tower):
    targets = [
        tower.metric(n).sublevel(n, Fraction(1))
        for n in range(3)
    ]
    seq = adequate_sequence(tower, targets)
    for n, target in enumerate(targets):
        assert seq[n].sublevel(n, Fraction(1)).pairs <= target.pairs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.05, 0.6))
def test_target_indicator_matches_the_closure_reference(seed, density):
    """Components of the mutual relation against the shortest-path repair
    of its 0/1 indicator, on random reflexive targets holding the level's
    zero-relation; most are not transitive, so both branches are taken."""
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=3, max_size=8))
    for n in range(t.num_levels):
        target = union(random_entourage(rng, n, t.level_sizes[n], density), t.zero_relation(n))
        got = _target_indicator(t, n, target)
        assert same_table(got, closure_target_indicator(t, n, target))


def test_target_indicator_takes_both_branches():
    """A non-transitive target whose mutual pairs chain out of it falls back
    to the zero-relation; a transitive one is kept."""
    d = frac_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    t = Tower(["a", "b", "c"], [3], [d])
    path = Entourage(0, 3, [(i, i) for i in range(3)] + [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert _target_indicator(t, 0, path) == closure_target_indicator(t, 0, path) == d
    pair = Entourage(0, 3, [(i, i) for i in range(3)] + [(0, 1), (1, 0), (1, 2)])
    kept = frac_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    assert _target_indicator(t, 0, pair) == closure_target_indicator(t, 0, pair) == kept


def test_adequate_sequence_full_targets_gives_zero(tower):
    targets = [full_entourage(n, tower.level_sizes[n]) for n in range(3)]
    seq = adequate_sequence(tower, targets)
    # the refinement property is all that is promised; with nothing to
    # separate, the zero sequence qualifies
    for n in range(3):
        assert seq[n] == Pseudometric.zero(tower.level_sizes[n])


def test_adequate_single_level():
    d = frac_matrix([[0, 1], [1, 0]])
    t = Tower(["a", "b"], [2], [d])
    seq = adequate_sequence(t, [full_entourage(0, 2)])
    assert len(seq) == 1


def test_adequate_rejects_bad_target(glued):
    t = glued.source  # zero-pair (a,b) at level 1
    with pytest.raises(ValidationError, match="^relation at level 1 misses a zero-pair$"):
        adequate_sequence(
            t, [diagonal_entourage(0, 1), diagonal_entourage(1, 2)]
        )


def _halving_ladder(tower, delta):
    d = tower.metric(tower.top_level)
    size = tower.ground_size
    return [
        d.sublevel(tower.top_level, delta / (5 * 2**n))
        for n in range(tower.num_levels)
    ]


def test_verify_generation_confirms(tower):
    d = tower.metric(2)
    u = d.sublevel(2, Fraction(2))
    ladder = _halving_ladder(tower, Fraction(2))
    seq = adequate_sequence(tower, [tower.zero_relation(n) for n in range(3)])
    assert verify_generation(tower, u, seq, ladder) is None


def test_verify_generation_vacuous_on_full(tower):
    u = full_entourage(2, 3)
    ladder = _halving_ladder(tower, Fraction(1))
    seq = adequate_sequence(tower, [tower.zero_relation(n) for n in range(3)])
    assert verify_generation(tower, u, seq, ladder) is None


def test_verify_generation_precondition_gate(tower):
    seq = adequate_sequence(tower, [tower.zero_relation(n) for n in range(3)])
    u = full_entourage(2, 3)
    bad_ladder = [full_entourage(2, 3)] * 3  # 2*U_1 not inside U_0? no: full
    # full relations satisfy the inclusions; violate 5U_0 instead
    small_u = tower.zero_relation(2)
    with pytest.raises(ValidationError, match=r"^5\*U_0 is not contained in U$"):
        verify_generation(tower, small_u, seq, bad_ladder)

    # a ladder whose second rung is too coarse
    ladder = [tower.zero_relation(2), full_entourage(2, 3), full_entourage(2, 3)]
    assert not multiple(ladder[1], 2).issubset(ladder[0])
    with pytest.raises(ValidationError, match=r"^2\*U_1 is not contained in U_0$"):
        verify_generation(tower, u, seq, ladder)


# -- randomized properties ----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_limit_matches_bruteforce(seed):
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=3, max_size=5))
    seq = random_monotone_sequence(rng, t)
    lim = limit_pseudometric(seq)
    for x in range(t.ground_size):
        for y in range(t.ground_size):
            assert lim(x, y) == exhaustive_limit_distance(seq, x, y)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_valley_equals_limit(seed):
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=3, max_size=5))
    seq = random_monotone_sequence(rng, t)
    lim = limit_pseudometric(seq)
    for x in range(t.ground_size):
        for y in range(t.ground_size):
            assert valley_distance(seq, x, y) == lim(x, y)


@st.composite
def random_sequences(draw):
    """A random monotone sequence on a random tower of 3 or 4 levels and at
    most 8 points."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    profile = Profile(levels=draw(st.integers(3, 4)), max_size=draw(st.integers(4, 8)))
    return random_monotone_sequence(rng, random_tower(rng, profile))


@settings(max_examples=100, deadline=None)
@given(st.one_of(mixed_towers().map(lambda drawn: sum_of_extensions(*drawn)), random_sequences()))
def test_witness_chain_is_a_simple_optimal_valley_chain(seq):
    lim = limit_pseudometric(seq)
    n = seq.tower.ground_size
    for x in range(n):
        for y in range(n):
            assert_valley_witness(seq, x, y, lim(x, y))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_limit_vanishes_on_level_zero_pairs(seed):
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=3, max_size=6))
    seq = random_monotone_sequence(rng, t)
    lim = limit_pseudometric(seq)
    for n in range(t.num_levels):
        for i, row in enumerate(t.metric(n).numer):
            for j, v in enumerate(row):
                if v == 0:
                    assert lim(i, j) == 0


# -- the integer kernels against their Fraction references ---------------------


@settings(max_examples=150, deadline=None)
@given(mixed_towers())
def test_extensions_and_their_sums_match_fraction_reference(drawn):
    t, pieces = drawn
    carried = []
    for n in range(t.num_levels):
        carried = [fraction_extend_one(t, r, n) for r in carried] + [pieces[n]]
        for k, r in enumerate(carried):
            assert same_table(extend_pseudometric(t, pieces[k], n), r)
        assert same_table(sum_of_extensions(t, pieces)[n], fraction_sum(carried))


@settings(max_examples=150, deadline=None)
@given(mixed_towers())
def test_extension_step_matches_the_glued_reference(drawn):
    """The closure of D with rho on its lower square against the explicit
    two-sided gluing, for every step of every piece's extension."""
    t, pieces = drawn
    for k, rho in enumerate(pieces):
        for n in range(k + 1, t.num_levels):
            ext = _extend_one(t, rho, n)
            assert same_table(ext, glued_extension(t, rho, n))
            rho = ext


def test_extension_steps_of_seeded_instances_match_the_glued_reference(monkeypatch):
    steps = []

    def record(tower, rho, n):
        steps.append((tower, rho, n))
        return _extend_one(tower, rho, n)

    monkeypatch.setattr(limitmetric, "_extend_one", record)
    for seed in range(200):
        generate_instance(seed)
    assert len(steps) > 1000
    for tower, rho, n in steps:
        assert same_table(_extend_one(tower, rho, n), glued_extension(tower, rho, n))


@settings(max_examples=100, deadline=None)
@given(mixed_towers())
def test_limit_valley_and_oracle_match_fraction_reference(drawn):
    seq = sum_of_extensions(*drawn)
    lim = limit_pseudometric(seq)
    assert same_table(lim, fraction_limit(seq))
    n = seq.tower.ground_size
    for x in range(n):
        for y in range(n):
            assert valley_distance(seq, x, y) == fraction_valley_distance(seq, x, y)
            assert exhaustive_limit_distance(seq, x, y) == fraction_chain_distance(seq, x, y)
            assert chain_weight(seq, witness_chain(seq, x, y)) == lim(x, y)


# -- the closure on representatives and the valley DP's ranges -----------------


@st.composite
def twin_sequences(draw):
    """A random monotone sequence on a ``twin_tower`` of a mixed tower: points
    repeat lower-index ones at distance 0, so a zero class can span heights,
    the case where the closure's choice of representative matters."""
    tower, _ = draw(mixed_towers(max_size=8))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return random_monotone_sequence(rng, twin_tower(rng, tower, prob=0.5))


SEQUENCES = st.one_of(mixed_towers().map(lambda drawn: sum_of_extensions(*drawn)), twin_sequences())


@settings(max_examples=150, deadline=None)
@given(SEQUENCES)
def test_limit_on_representatives_equals_the_closure_of_the_whole_link_table(seq):
    assert same_table(limit_pseudometric(seq), full_closure_limit(seq))


def test_limit_closes_one_row_per_top_zero_class(monkeypatch):
    """The 100-point probe's 45 top zero classes: the closure runs on 45
    representatives, not on 100 points, and gives the whole closure."""
    sizes = []
    closure = limitmetric.closure_in_place
    monkeypatch.setattr(
        limitmetric, "closure_in_place", lambda d: sizes.append(len(d)) or closure(d)
    )
    seq = probe_sequence(100)
    lim = limit_pseudometric(seq)
    assert sizes == [len(set(seq.tower.metric(3).zero_classes))] == [45]
    assert same_table(lim, full_closure_limit(seq))


@settings(max_examples=100, deadline=None)
@given(st.one_of(SEQUENCES, random_sequences()))
def test_valley_row_matches_the_dp_over_every_point(seq):
    """Same costs and the same predecessors, so the same witness chains."""
    for x in range(seq.tower.ground_size):
        assert limitmetric._valley_row(seq, x) == loop_valley_row(seq, x)


def test_seeded_twin_sequences_match_both_references():
    """Over seeded twin towers, in many of which a class's last member sits
    above its lowest: the limit against the closure of the whole link
    table, and the valley row from every point against the DP over every
    point."""
    across = 0
    for seed in range(100):
        rng = random.Random(seed)
        t = twin_tower(rng, random_tower(rng, Profile(3, 8)), prob=0.5)
        seq = random_monotone_sequence(rng, t)
        classes = t.metric(t.top_level).zero_classes
        across += any(t.height(c.bit_length() - 1) > t.height(x) for x, c in enumerate(classes))
        assert same_table(limit_pseudometric(seq), full_closure_limit(seq))
        for x in range(t.ground_size):
            assert limitmetric._valley_row(seq, x) == loop_valley_row(seq, x)
    assert across >= 20


def test_a_sequence_keeps_its_limit_and_a_fresh_one_rebuilds_it():
    """The limit is built once per sequence; a sequence built again from
    the same tower and metrics builds an equal table of its own."""
    for seed in range(20):
        seq = generate_instance(seed).seq
        lim = limit_pseudometric(seq)
        assert limit_pseudometric(seq) is lim
        again = limit_pseudometric(MonotonePseudometricSequence(seq.tower, seq.metrics))
        assert again is not lim and again == lim == fraction_limit(seq)


def test_sequences_over_one_tower_keep_their_own_limits():
    """The limit is kept on the sequence, not on its tower: two sequences
    over one tower, asked in turn, each answer their own limit."""
    differ = 0
    for seed in range(20):
        rng = random.Random(seed)
        t = random_tower(rng, Profile())
        a, b = random_monotone_sequence(rng, t), random_monotone_sequence(rng, t)
        for seq in (a, b, a, b):
            assert limit_pseudometric(seq) == fraction_limit(seq)
        differ += limit_pseudometric(a) != limit_pseudometric(b)
    assert differ >= 10


def test_interleaved_sequences_build_each_link_table_once():
    """A one-entry cache rebuilt the first table when asked again after the
    second; the table kept on each sequence is the one built first."""
    rng = random.Random(7)
    t = random_tower(rng, Profile())
    a, b = random_monotone_sequence(rng, t), random_monotone_sequence(rng, t)
    wa, wb = limitmetric._link_weights(a), limitmetric._link_weights(b)
    for x in range(t.ground_size):
        valley_distance(a, x, 0)
        valley_distance(b, x, 0)
    assert limitmetric._link_weights(a) is wa and limitmetric._link_weights(b) is wb
    assert (a._links, b._links) == (wa, wb)
    for seq, (den, w) in ((a, wa), (b, wb)):
        assert (den, list(map(list, w))) == int_link_weights(seq)


def test_a_dropped_sequence_is_freed_after_the_valley_dp_and_the_oracle():
    """No module-level cache holds a sequence, nor with it its kept link
    table and limit, once its caller drops it: the valley row is kept on
    the sequence and the oracle's links under a weak reference."""
    seq = generate_instance(3).seq
    witness_chain(seq, 0, 1)
    exhaustive_limit_distance(seq, 0, 1)
    assert seq._valley is not None and seq._links is not None
    gone = weakref.ref(seq)
    del seq
    gc.collect()
    assert gone() is None
