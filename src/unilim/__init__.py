"""Exact computation with finite towers of rational pseudometric spaces:
entourage arithmetic, limit pseudometrics, limit topologies, a continuity
criterion for maps off the limit, and derived constructions (products,
abelian group towers, box products), all verifiable against brute force.
"""

from .constructions import (
    GroupLimitVerdict,
    GroupTower,
    PointedSpace,
    box_tower,
    check_box_limit,
    check_group_limit,
    check_multiplicativity,
    ordered_product_ball,
    product_topology,
    product_tower,
)
from .core import (
    Entourage,
    MonotonePseudometricSequence,
    Pseudometric,
    Tower,
    shortest_path_closure,
)
from .errors import (
    CertificateFailure,
    GroundMismatch,
    IndexOutOfRange,
    InvarianceViolation,
    LevelCountMismatch,
    LevelMismatch,
    LevelOutOfRange,
    NeighborhoodViolation,
    NestingViolation,
    NotAnEntourage,
    NotInverse,
    NotUniform,
    PreconditionFailed,
    ProfileTooLarge,
    StartMismatch,
    SubspaceViolation,
    TriangleViolation,
    UnilimError,
    UnknownTheoremId,
    ValidationError,
)
from .generate import Instance, Profile, cyclic_group_tower, generate_instance
from .limitmetric import (
    Chain,
    GenerationVerdict,
    adequate_sequence,
    chain_weight,
    extend_pseudometric,
    limit_pseudometric,
    valley_distance,
    verify_generation,
    witness_chain,
)
from .regularity import (
    ContinuityVerdict,
    CriterionVerdict,
    HomeoVerdict,
    RegularityVerdict,
    SpaceMap,
    continuity_criterion,
    homeo_criterion,
    is_continuous,
    is_regular_at,
    transport_topology,
)
from .relations import (
    OMEGA,
    REPEAT_LAST,
    EntourageSequence,
    ball,
    compose,
    multiple,
    sigma_sum,
)
from .topology import (
    TopologyComparison,
    TopologyFamily,
    base_ball,
    compare_topologies,
    minimal_grid_ball,
    tlim_topology,
    ulim_topology,
)
from .verify import THEOREM_IDS, VerifyReport, verify_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
