"""Metamorphic relations at 100 points, where no oracle reaches.

T3's chain oracle stops at about a dozen points, so at the scale probe's
sizes the limit is checked against itself: relabelling, twinning and
scaling the input move the output in a way the paper's definitions fix
(Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 51(1), 2018).
"""

import random
from fractions import Fraction

import pytest

from unilim.constructions import check_multiplicativity, product_tower
from unilim.core import MonotonePseudometricSequence, Pseudometric, Tower, bits
from unilim.limitmetric import chain_weight, limit_pseudometric, witness_chain
from unilim.regularity import SpaceMap, continuity_criterion, homeo_criterion, is_continuous
from unilim.topology import ulim_topology

from .conftest import probe_sequence

N = 100


@pytest.fixture(scope="module")
def probe():
    seq = probe_sequence(N, seed=0)
    return seq, limit_pseudometric(seq)


def _permuted(d, order):
    """The table of ``d`` relabelled: new point i is old point ``order[i]``."""
    return Pseudometric._from_numer(d.den, [[d.numer[a][b] for b in order] for a in order])


def _topo_classes(tower):
    """The classes ``topo`` prints, as a set of label sets."""
    return {frozenset(tower.labels[i] for i in bits(c)) for c in ulim_topology(tower).min_nbhd}


def _band_order(tower, seed):
    """A relabelling that keeps every height: ``order[i]`` is the old point
    that new point i is, shuffled within each height band."""
    rng = random.Random(seed)
    order = []
    for lo, hi in zip((0, *tower.level_sizes), tower.level_sizes):
        band = list(range(lo, hi))
        rng.shuffle(band)
        order += band
    assert order != list(range(tower.ground_size))
    return order


def _moved(tower, order):
    """``tower`` relabelled by ``order``; labels travel with their points."""
    sizes = tower.level_sizes
    return Tower(
        [tower.labels[a] for a in order], sizes,
        [_permuted(d, order[:m]) for d, m in zip(tower.level_metrics, sizes)],
    )


def test_permutation_within_height_bands_permutes_limit_and_topo_classes(probe):
    seq, lim = probe
    tower = seq.tower
    order = _band_order(tower, 0)
    moved = _moved(tower, order)
    moved_seq = MonotonePseudometricSequence(
        moved, [_permuted(d, order[:m]) for d, m in zip(seq.metrics, tower.level_sizes)]
    )
    assert limit_pseudometric(moved_seq) == _permuted(lim, order)
    # labels travel with their points, so the classes hold the same labels
    assert _topo_classes(moved) == _topo_classes(tower)


def test_permutation_within_height_bands_permutes_product_tables():
    """Relabelling each factor within its height bands relabels the product:
    a tuple keeps its height and its label, so each level of the new
    product is the old one read at the same labels, and the product check
    still reads "equal".  Factors of 12 points: 144 in the product."""
    a, b = (probe_sequence(12, seed).tower for seed in (0, 1))
    prod = product_tower(a, b)
    moved_a, moved_b = _moved(a, _band_order(a, 2)), _moved(b, _band_order(b, 3))
    moved = product_tower(moved_a, moved_b)
    assert moved.level_sizes == prod.level_sizes
    # new product point k is old product point at[k]
    at = list(map({label: k for k, label in enumerate(prod.labels)}.__getitem__, moved.labels))
    assert at != list(range(len(at)))
    for n, m in enumerate(prod.level_sizes):
        assert moved.metric(n) == _permuted(prod.metric(n), at[:m])
    assert check_multiplicativity(moved_a, moved_b, moved) == "equal"
    assert check_multiplicativity(a, b, prod) == "equal"


def test_permutation_within_height_bands_keeps_check_verdicts(probe):
    """A self-map of the probe tower and the same map between relabelled
    copies get the same verdicts from ``check`` in all three modes: the
    criterion, ``--direct`` and ``--homeo``."""
    tower = probe[0].tower
    order = _band_order(tower, 0)
    moved = _moved(tower, order)
    new = {a: i for i, a in enumerate(order)}

    def relabelled(values):
        return SpaceMap(moved, moved, tuple(new[values[a]] for a in order))

    rng = random.Random(1)
    classes = tower.metric(tower.top_level).zero_classes
    # each class's points cycled among themselves, a homeomorphism
    cycled = list(range(N))
    for c in set(classes):
        points = list(bits(c))
        for p, q in zip(points, points[1:] + points[:1]):
            cycled[p] = q
    shuffled = list(range(N))
    rng.shuffle(shuffled)
    maps = [
        list(range(N)),
        [(c & -c).bit_length() - 1 for c in classes],
        [rng.randrange(N) for _ in range(N)],
        cycled,
        shuffled,
    ]
    verdicts = set()
    for values in maps:
        f = SpaceMap(tower, tower, tuple(values))
        assert continuity_criterion(relabelled(values)) == continuity_criterion(f)
        assert is_continuous(relabelled(values)) == is_continuous(f)
        verdicts.add(is_continuous(f))
    homeo = set()
    for values in (cycled, shuffled):
        inverse = [0] * N
        for x, y in enumerate(values):
            inverse[y] = x
        h, h_inv = SpaceMap(tower, tower, tuple(values)), SpaceMap(tower, tower, tuple(inverse))
        v = homeo_criterion(h, h_inv)
        assert homeo_criterion(relabelled(values), relabelled(inverse)) == v
        homeo.add(v.homeomorphism)
    # both outcomes occur, so the relation is not met by constant verdicts
    assert verdicts == homeo == {True, False}


def _with_twin(d, x):
    """``d`` with one more point, last, whose row is x's and at 0 from x."""
    rows = [[*row, row[x]] for row in d.numer]
    return Pseudometric._from_numer(d.den, [*rows, list(rows[x])])


def test_top_level_twin_of_a_level_0_point_copies_its_limit_row(probe):
    seq, lim = probe
    tower = seq.tower
    x = 3
    assert tower.height(x) == 0
    sizes = (*tower.level_sizes[:-1], N + 1)
    # the twin sits at the top level at distance 0 from x: a zero-pair
    # across heights, which no chain through the twin can undercut
    twinned = Tower(
        (*tower.labels, "twin"), sizes,
        (*tower.level_metrics[:-1], _with_twin(tower.level_metrics[-1], x)),
    )
    twinned_seq = MonotonePseudometricSequence(
        twinned, (*seq.metrics[:-1], _with_twin(seq.metrics[-1], x))
    )
    got = limit_pseudometric(twinned_seq)
    assert got.restrict(N) == lim
    assert got.dist[N] == (*lim.dist[x], Fraction(0))


@pytest.mark.parametrize("c", [Fraction(3), Fraction(2, 7)])
def test_scaling_the_sequence_scales_the_limit_and_the_witness_weight(probe, c):
    seq, lim = probe
    scaled = MonotonePseudometricSequence(seq.tower, [d.scale(c) for d in seq.metrics])
    assert limit_pseudometric(scaled) == lim.scale(c)
    for x, y in ((0, N - 1), (N - 1, 1), (30, 70)):
        weight = chain_weight(seq, witness_chain(seq, x, y))
        assert weight == lim(x, y) > 0
        assert chain_weight(scaled, witness_chain(scaled, x, y)) == c * weight
