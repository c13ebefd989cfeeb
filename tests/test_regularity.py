import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilim import cli, fixtures, io, regularity, verify
from unilim.core import Pseudometric, Tower, members, shortest_path_closure
from unilim.errors import ValidationError
from unilim.fixtures import rescaled_homeo, three_point_tower
from unilim.generate import Profile, random_space_map, random_tower
from unilim.regularity import (
    CriterionVerdict,
    SpaceMap,
    continuity_criterion,
    homeo_criterion,
    is_continuous,
    is_regular_at,
)
from unilim.relations import ball_set_mask
from unilim.topology import compare_topologies, ulim_topology

from .conftest import frac_matrix
from .oracles import (
    loop_restriction_continuous,
    open_set_walk_continuous,
    twin_tower,
)


def two_level_map(d_ab, f_b=1):
    source = Tower(
        ["a", "b"],
        [1, 2],
        [Pseudometric.zero(1), frac_matrix([[0, d_ab], [d_ab, 0]])],
    )
    target = Tower(["p", "q"], [2], [frac_matrix([[0, 1], [1, 0]])])
    return SpaceMap(source, target, (0, f_b))


def test_separated_map_is_regular():
    assert is_regular_at(two_level_map(1), 1)


def test_glued_map_is_not_regular(glued):
    assert not is_regular_at(glued, 1)


def test_constant_map_regular_everywhere(tower):
    target = Tower(["p", "q"], [2], [frac_matrix([[0, 1], [1, 0]])])
    f = SpaceMap(tower, target, (0, 0, 0))
    for n in (1, 2):
        assert is_regular_at(f, n)


def test_regularity_level_bounds(glued):
    for level in (0, 2):
        with pytest.raises(ValidationError, match=r"^regularity needs a level in 1\.\.1$"):
            is_regular_at(glued, level)


def naive_regular(f, level):
    """Triple-quantifier loop, no zero-relation shortcut."""
    t = f.source
    below = range(t.level_sizes[level - 1])
    below_mask = (1 << len(below)) - 1
    grids_v = t.grid_entourages(level)
    grids_w = t.grid_entourages(level)
    grids_u = f.target.grid_entourages(f.target.top_level)
    for u in grids_u:
        for v in grids_v:
            found_w = False
            for w in grids_w:
                ok = all(
                    any(
                        v.rows[a] >> x & 1 and u.rows[f(x)] >> f(a) & 1
                        for a in below
                    )
                    for x in members(ball_set_mask(below_mask, w))
                )
                if ok:
                    found_w = True
                    break
            if not found_w:
                return False
    return True


def prefix_tower(rng, levels, max_size):
    """Levels are prefixes of one random pseudometric with zero entries, so
    a point can first appear at distance 0 from an older one: the
    cross-level zero-pairs that ``random_tower`` never creates and that
    make regularity fail."""
    sizes = sorted(rng.sample(range(1, max_size + 1), levels))
    n = sizes[-1]
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            v = 0 if rng.random() < 0.3 else rng.choice((1, 2, 3))
            dist[i][j] = dist[j][i] = Fraction(v, 2)
    d = Pseudometric(shortest_path_closure(dist))
    return Tower([f"x{i}" for i in range(n)], sizes, [d.restrict(m) for m in sizes])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_zero_relation_shortcut_matches_naive_quantifier(seed):
    rng = random.Random(seed)
    t = prefix_tower(rng, 3, 6)
    tgt = prefix_tower(rng, 2, 4)
    f = random_space_map(rng, t, tgt)
    for n in range(1, t.num_levels):
        assert is_regular_at(f, n) == naive_regular(f, n)


def test_regularity_ball_is_computed_once(monkeypatch):
    """B(X_{n-1}; z) is built once per check."""
    calls = []

    def counted(mask, u):
        calls.append(u)
        return ball_set_mask(mask, u)

    monkeypatch.setattr(regularity, "ball_set_mask", counted)
    for seed in range(20):
        rng = random.Random(seed)
        t = prefix_tower(rng, 3, 6)
        f = random_space_map(rng, t, prefix_tower(rng, 2, 4))
        for n in range(1, t.num_levels):
            calls.clear()
            regular = is_regular_at(f, n)
            assert calls == [t.zero_relation(n)]
            assert regular == naive_regular(f, n)


def test_restriction_continuity_matches_the_entry_loop():
    """On seeded towers with twins and on prefix towers, both with
    zero-pairs across heights, under random maps and maps constant on the
    top zero-classes (continuous on every level), with one point moved."""
    found = []
    for seed in range(300):
        rng = random.Random(seed)
        if seed % 2:
            t = twin_tower(rng, random_tower(rng, Profile(3, 8)))
        else:
            t = prefix_tower(rng, 3, 6)
        tgt = twin_tower(rng, random_tower(rng, Profile(2, 5)))
        f = random_space_map(rng, t, tgt)
        if seed % 3:
            classes = t.zero_relation(t.top_level).rows
            values = [f((c & -c).bit_length() - 1) for c in classes]
            values[rng.randrange(len(values))] = rng.randrange(tgt.ground_size)
            f = SpaceMap(t, tgt, tuple(values))
        for n in range(t.num_levels):
            got = regularity._restriction_continuous(f, n)
            assert got == loop_restriction_continuous(f, n)
            found.append(got)
    assert found.count(True) > 100 and found.count(False) > 100


def test_is_continuous_identity(identity_into_top):
    assert is_continuous(identity_into_top)


def test_is_continuous_glued(glued):
    assert not is_continuous(glued)


def test_is_continuous_into_indiscrete(tower):
    target = Tower(["p", "q"], [2], [Pseudometric.zero(2)])
    f = SpaceMap(tower, target, (0, 1, 0))
    assert is_continuous(f)


def test_criterion_glued(glued):
    v = continuity_criterion(glued)
    assert not v.hypothesis
    assert not v.conclusion
    assert not v.theorem_violation


def test_criterion_identity(identity_into_top):
    v = continuity_criterion(identity_into_top)
    assert v.hypothesis
    assert v.conclusion


def test_theorem_violation_is_a_true_hypothesis_with_a_false_conclusion():
    for hypothesis in (False, True):
        for conclusion in (False, True):
            v = CriterionVerdict(hypothesis, conclusion)
            assert v.theorem_violation == (hypothesis and not conclusion)


def test_criterion_constant(tower):
    target = Tower(["p"], [1], [Pseudometric.zero(1)])
    f = SpaceMap(tower, target, (0, 0, 0))
    v = continuity_criterion(f)
    assert v.hypothesis and v.conclusion


def test_map_value_table_validated(tower):
    target = Tower(["p"], [1], [Pseudometric.zero(1)])
    with pytest.raises(ValidationError, match="^value table must cover the top source level$"):
        SpaceMap(tower, target, (0, 0))
    with pytest.raises(ValidationError, match="^target index 1 out of range$"):
        SpaceMap(tower, target, (0, 0, 1))
    # the CLI's reader names a negative index first, so only this call
    # reaches the guard
    with pytest.raises(ValidationError, match="^target index -1 out of range$"):
        SpaceMap(tower, tower, (0, -1, 1))


def test_homeo_identity(tower):
    idx = (0, 1, 2)
    v = homeo_criterion(SpaceMap(tower, tower, idx), SpaceMap(tower, tower, idx))
    assert v.homeomorphism
    assert v.transport == "equal"


def test_homeo_rescaled():
    h, h_inv = rescaled_homeo(three_point_tower())
    v = homeo_criterion(h, h_inv)
    assert v.homeomorphism
    assert v.forward.hypothesis and v.backward.hypothesis
    assert v.transport == "equal"


def test_the_rescaled_twin_revalidates():
    """``rescaled_homeo`` builds its twin as a derived tower, with no
    triangle or zero-pair pass; validated in full, it is the same tower,
    and each level is twice the tower's."""
    towers = [three_point_tower()] + [random_tower(random.Random(s), Profile()) for s in range(200)]
    for t in towers:
        h, h_inv = rescaled_homeo(t)
        s = h.target
        assert h.source is h_inv.target is t and h_inv.source is s
        assert Tower(s.labels, s.level_sizes, s.level_metrics) == s
        assert s.level_metrics == tuple(t.metric(n).scale(2) for n in range(t.num_levels))


def glued_three_point_tower():
    """The three-point tower's points with a and b glued at every level."""
    glued_metrics = [
        Pseudometric.zero(1),
        frac_matrix([[0, 0], [0, 0]]),
        frac_matrix([[0, 0, 2], [0, 0, 2], [2, 2, 0]]),
    ]
    return Tower(["a", "b", "c"], [1, 2, 3], glued_metrics)


def test_homeo_onto_glued_tower_fails_one_direction():
    t, g = three_point_tower(), glued_three_point_tower()
    idx = (0, 1, 2)
    v = homeo_criterion(SpaceMap(t, g, idx), SpaceMap(g, t, idx))
    assert not v.homeomorphism
    # the map out of the glued tower separates a glued pair
    assert not v.backward.conclusion
    assert v.transport != "equal"
    assert not v.theorem_violation


@pytest.mark.parametrize("glued_side", ["target", "source"])
def test_check_homeo_exits_3_on_a_criterion_violation_in_either_direction(
    monkeypatch, capsys, tmp_path, glued_side
):
    """With the criterion's hypothesis forced true, the identity out of the
    glued tower, which separates a glued pair, has a true hypothesis and a
    false conclusion.  Plain ``check`` of it exits 3; so does ``check
    --homeo`` with it as either direction, and C6 fails on the pair."""
    monkeypatch.setattr(regularity, "_restriction_continuous", lambda f, n: True)
    monkeypatch.setattr(regularity, "is_regular_at", lambda f, n: True)
    towers = {"t": three_point_tower(), "g": glued_three_point_tower()}
    paths = {name: str(tmp_path / f"{name}.json") for name in ("t", "g", "idx")}
    for name, tower in towers.items():
        io.dump(io.tower_to_json(tower), paths[name])
    io.dump([0, 1, 2], paths["idx"])

    out_of_glued = ["check", "--tower", paths["g"], "--target", paths["t"], "--map", paths["idx"]]
    assert cli.main(out_of_glued) == 3
    assert capsys.readouterr().out == '{"continuous":false,"hypothesis":true}\n'
    src, tgt = ("t", "g") if glued_side == "target" else ("g", "t")
    argv = ["check", "--tower", paths[src], "--target", paths[tgt], "--map", paths["idx"]]
    assert cli.main([*argv, "--homeo", paths["idx"]]) == 3
    assert json.loads(capsys.readouterr().out)["homeomorphism"] is False

    idx = (0, 1, 2)
    pair = SpaceMap(towers[src], towers[tgt], idx), SpaceMap(towers[tgt], towers[src], idx)
    monkeypatch.setattr(fixtures, "rescaled_homeo", lambda tower: pair)
    assert not verify._check_homeo(towers["t"])[0]


def test_homeo_names_a_non_inverse_point_by_label():
    t = three_point_tower()
    with pytest.raises(ValidationError, match=r"^h_inv\(h\(b\)\) != b$"):
        homeo_criterion(SpaceMap(t, t, (0, 1, 2)), SpaceMap(t, t, (0, 2, 1)))


def test_homeo_requires_inverse(tower):
    with pytest.raises(ValidationError, match=r"^h_inv\(h\(b\)\) != b$"):
        homeo_criterion(
            SpaceMap(tower, tower, (0, 1, 2)), SpaceMap(tower, tower, (0, 2, 1))
        )
    with pytest.raises(ValidationError, match="^map is not a bijection of the top levels$"):
        homeo_criterion(
            SpaceMap(tower, tower, (0, 0, 1)), SpaceMap(tower, tower, (0, 1, 2))
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_criterion_soundness_randomized(seed):
    """A true hypothesis always comes with a continuous map."""
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=3, max_size=6))
    tgt = random_tower(rng, Profile(levels=2, max_size=5))
    f = random_space_map(rng, t, tgt)
    v = continuity_criterion(f)
    assert not v.theorem_violation
    if v.hypothesis:
        assert v.conclusion


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_criterion_agrees_with_transported_topology(seed):
    rng = random.Random(seed)
    t = random_tower(rng, Profile(levels=3, max_size=6))
    perm = list(range(t.ground_size))
    rng.shuffle(perm)
    # permuted copy of the same tower: relabel points, transport metrics
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    # a permutation must preserve heights to keep level nesting intact
    order = sorted(range(t.ground_size), key=lambda i: (t.height(i), perm[i]))
    inv = [0] * len(order)
    for new, old in enumerate(order):
        inv[old] = new
    metrics = [
        Pseudometric(
            [
                [t.metric(n).dist[order[i]][order[j]] for j in range(m)]
                for i in range(m)
            ]
        )
        for n, m in enumerate(t.level_sizes)
    ]
    s = Tower([t.labels[i] for i in order], t.level_sizes, metrics)
    h = SpaceMap(t, s, tuple(inv))
    h_inv = SpaceMap(s, t, tuple(order))
    v = homeo_criterion(h, h_inv)
    assert v.homeomorphism
    assert v.transport == "equal"
    assert compare_topologies(ulim_topology(t), ulim_topology(t)) == "equal"


def _seeded_maps(seeds):
    """Per seed, a random map between two random towers and one back."""
    for seed in seeds:
        rng = random.Random(seed)
        a = random_tower(rng, Profile(levels=3, max_size=6))
        b = random_tower(rng, Profile(levels=2, max_size=5))
        yield random_space_map(rng, a, b)
        yield random_space_map(rng, b, a)


def test_is_continuous_agrees_with_open_set_walk():
    maps = list(_seeded_maps(range(300)))
    discontinuous = 0
    for f in maps:
        continuous = is_continuous(f)
        assert continuous == open_set_walk_continuous(f)
        discontinuous += not continuous
    # both verdicts occur often enough for the agreement to mean something
    assert 0.2 < discontinuous / len(maps) < 0.8
