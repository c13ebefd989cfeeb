import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from unilim import io
from unilim.core import (
    Entourage,
    MonotonePseudometricSequence,
    Pseudometric,
    Tower,
    shortest_path_closure,
)
from unilim.fixtures import (
    binary_group_tower,
    glued_map,
    halving_factors,
    identity_map,
    three_point_sequence,
    three_point_tower,
)
from unilim.generate import Profile

from .oracles import fraction_random_tower


@pytest.fixture
def tower():
    return three_point_tower()


@pytest.fixture
def mono_seq():
    return three_point_sequence()


@pytest.fixture
def group():
    return binary_group_tower()


@pytest.fixture
def factors():
    return halving_factors()


@pytest.fixture
def glued():
    return glued_map()


@pytest.fixture
def identity_into_top():
    return identity_map()


@pytest.fixture
def e_u(tower):
    # top-level relation joining a and b both ways
    return Entourage(2, 3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])


@pytest.fixture
def e_v(tower):
    # top-level relation joining b and c both ways
    return Entourage(2, 3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)])


def pairs(e):
    return set(e.sorted_pairs())


def diag(n):
    return {(i, i) for i in range(n)}


def frac_matrix(rows):
    return Pseudometric([[Fraction(v) for v in row] for row in rows])


def flat_tower(sizes, value=0):
    """Tower whose every level metric is constant ``value`` off-diagonal."""
    n = sizes[-1]
    labels = [f"p{i}" for i in range(n)]
    metrics = []
    for m in sizes:
        metrics.append(
            Pseudometric(
                [[Fraction(0 if i == j else value) for j in range(m)] for i in range(m)]
            )
        )
    return Tower(labels, sizes, metrics)


def make_seq(tower, rows_per_level):
    return MonotonePseudometricSequence(
        tower, [frac_matrix(rows) for rows in rows_per_level]
    )


# values whose denominators 3, 5, 7 and 12 share no power of two, so the
# integer kernels must scale every table to a true common denominator
MIXED_POOL = tuple(Fraction(v) for v in ("1/3", "1/5", "1/7", "1/12", "1/2", "5/4"))


def _random_piece(rng, d):
    """A uniform pseudometric on the level of ``d``: ``d`` scaled by a pool
    value, or the closure of pool values and zeros that vanishes at least
    where ``d`` does."""
    if rng.random() < 0.5:
        return d.scale(rng.choice(MIXED_POOL))
    m = [[Fraction(0)] * d.size for _ in range(d.size)]
    for i in range(d.size):
        for j in range(i):
            if d.numer[i][j] and rng.random() < 0.7:
                m[i][j] = m[j][i] = rng.choice(MIXED_POOL)
    return Pseudometric(shortest_path_closure(m))


@st.composite
def mixed_towers(draw, levels=None, max_size=6):
    """A seeded random tower over ``MIXED_POOL`` and one random piece per
    level: the inputs of ``sum_of_extensions``."""
    levels = levels or draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    size = draw(st.integers(max(levels, 4), max_size))
    tower = fraction_random_tower(rng, Profile(levels, size), MIXED_POOL)
    return tower, [_random_piece(rng, tower.metric(k)) for k in range(levels)]


def same_table(got, ref):
    """Equal values, held the same way: over the same denominator."""
    return (got.dist, got.den, got.numer) == (ref.dist, ref.den, ref.numer)


# -- document writers the CLI tests build their input files with -------------


def metric_from_json(rows):
    return io._metric_from_json(rows, "metric")


def map_to_json(values):
    return [int(v) for v in values]


def group_to_json(g):
    doc = io.tower_to_json(g.tower)
    doc["op"] = [list(row) for row in g.op]
    doc["neg"] = list(g.neg)
    return doc


def factor_to_json(f):
    return {"basepoint": f.basepoint, "metric": io.metric_to_json(f.metric)}


def factor_from_json(doc):
    return io._factor_from_json(doc, "factor")


def big_denominator_rows(n):
    """Lower-triangular rows of n points, entry k being (q + 1)/q for
    q = 10**999 + k: a metric, since every value lies in (1, 2), whose
    entries each have their own 1,000-digit denominator, so at 8 points
    their lcm has some 28,000 digits, past the int digit limit."""
    q = iter(range(10**999, 10**999 + n * n))
    return [[f"{k + 1}/{k}" for k, _ in zip(q, range(i))] for i in range(n)]


# -- the scale probe: towers past the reach of every oracle -------------------


def grid_points(n, seed=0):
    """n points of the 8x8 integer grid drawn from ``seed``: each point
    after the first copies an earlier one with probability 0.3, and is
    otherwise uniform on the grid."""
    rng = random.Random(seed)
    points = []
    for k in range(n):
        if k and rng.random() < 0.3:
            points.append(points[rng.randrange(k)])
        else:
            points.append((rng.randrange(8), rng.randrange(8)))
    return points


def l1_table(points):
    """The int table of L1 distances between ``points``."""
    return [[abs(x - u) + abs(y - v) for u, v in points] for x, y in points]


def probe_sequence(n, seed=0):
    """The scale probe on n points, n a multiple of 4: the L1 table of
    ``grid_points(n, seed)`` restricted to 4 levels of n/4, n/2, 3n/4 and n
    points, and the sequence d_k = d / 2^(3-k) on that tower."""
    d = Pseudometric._from_numer(1, l1_table(grid_points(n, seed)))
    sizes = [n * k // 4 for k in range(1, 5)]
    tower = Tower([f"p{i}" for i in range(n)], sizes, [d.restrict(m) for m in sizes])
    return MonotonePseudometricSequence(
        tower, [d.restrict(m).scale(Fraction(1, 2 ** (3 - k))) for k, m in enumerate(sizes)]
    )
