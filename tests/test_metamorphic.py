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

from unilim.core import MonotonePseudometricSequence, Pseudometric, Tower, bits
from unilim.limitmetric import chain_weight, limit_pseudometric, witness_chain
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


def test_permutation_within_height_bands_permutes_limit_and_topo_classes(probe):
    seq, lim = probe
    tower = seq.tower
    rng = random.Random(0)
    # new point i is old point order[i]; each band keeps its heights
    order = []
    for lo, hi in zip((0, *tower.level_sizes), tower.level_sizes):
        band = list(range(lo, hi))
        rng.shuffle(band)
        order += band
    assert order != list(range(N))
    labels = [tower.labels[a] for a in order]
    sizes = tower.level_sizes
    moved = Tower(labels, sizes, [_permuted(d, order[:m]) for d, m in zip(tower.level_metrics, sizes)])
    moved_seq = MonotonePseudometricSequence(
        moved, [_permuted(d, order[:m]) for d, m in zip(seq.metrics, sizes)]
    )
    assert limit_pseudometric(moved_seq) == _permuted(lim, order)
    # labels travel with their points, so the classes hold the same labels
    assert _topo_classes(moved) == _topo_classes(tower)


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
