"""Small hand-built instances used by the verification suite and tests."""

from __future__ import annotations

from fractions import Fraction

from .constructions import GroupTower, PointedSpace
from .core import MonotonePseudometricSequence, Pseudometric, Tower
from .generate import cyclic_group_tower
from .regularity import SpaceMap


def three_point_tower() -> Tower:
    """Three genuine metric levels {a} in {a,b} in {a,b,c}."""
    return Tower(
        ["a", "b", "c"],
        [1, 2, 3],
        [
            Pseudometric.from_lower_triangular([[]]),
            Pseudometric.from_lower_triangular([[], [1]]),
            Pseudometric.from_lower_triangular([[], [1], [2, 1]]),
        ],
    )


def three_point_sequence() -> MonotonePseudometricSequence:
    """Monotone sequence over the three-point tower whose limit distances
    are known in closed form (1, 1, 2)."""
    return MonotonePseudometricSequence(
        three_point_tower(),
        [
            Pseudometric.zero(1),
            Pseudometric.from_lower_triangular([[], [1]]),
            Pseudometric.from_lower_triangular([[], [2], [3, 1]]),
        ],
    )


def binary_group_tower() -> GroupTower:
    """(Z_2)^1 in (Z_2)^2 in (Z_2)^3 with weighted Hamming distances."""
    return cyclic_group_tower(
        (2, 2, 2), (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    )


def halving_factors() -> list[PointedSpace]:
    """Two-point factors at distances 1, 1/2, 1/4."""
    return [
        PointedSpace(Pseudometric.from_lower_triangular([[], [Fraction(1, 2**i)]]))
        for i in range(3)
    ]


def glued_map() -> SpaceMap:
    """A map that is constant-blind to a glued pair: the source identifies
    a and b at every level, the target separates their images."""
    source = Tower(
        ["a", "b"],
        [1, 2],
        [Pseudometric.zero(1), Pseudometric.zero(2)],
    )
    target = Tower(
        ["p", "q"],
        [2],
        [Pseudometric.from_lower_triangular([[], [1]])],
    )
    return SpaceMap(source, target, (0, 1))


def identity_map() -> SpaceMap:
    """Identity of the three-point tower into its top level as a one-level
    tower; continuous, with a true criterion hypothesis."""
    t = three_point_tower()
    target = Tower(t.labels, [3], [t.metric(2)])
    return SpaceMap(t, target, (0, 1, 2))


def rescaled_homeo(t: Tower) -> tuple[SpaceMap, SpaceMap]:
    """The identity from a tower to its uniform rescale by 2, and back; a
    homeomorphism of the limits.  The rescale is a derived tower: twice a
    pseudometric is one with the same zero pairs, so its levels agree as
    the valid tower's do and it needs no triangle or zero-pair pass."""
    s = Tower._derived(t.labels, t.level_sizes, [d.scale(2) for d in t.level_metrics])
    idx = tuple(range(t.ground_size))
    return SpaceMap(t, s, idx), SpaceMap(s, t, idx)
