"""Exact computation with finite towers of rational pseudometric spaces:
entourage arithmetic, limit pseudometrics, limit topologies, a continuity
criterion for maps off the limit, and derived constructions (products,
abelian group towers, box products), all verifiable against brute force.

Every public name resolves on first use (PEP 562): ``import unilim`` loads
no submodule, and ``unilim.X`` imports the one module that defines X.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names each module exports through the package
_EXPORTS = {
    "constructions": "GroupLimitVerdict GroupTower PointedSpace box_tower check_box_limit "
    "check_group_limit check_multiplicativity ordered_product_ball product_topology product_tower",
    "core": "Entourage MonotonePseudometricSequence Pseudometric Tower shortest_path_closure",
    "errors": "CertificateFailure UnilimError ValidationError",
    "generate": "Instance Profile cyclic_group_tower generate_instance",
    "limitmetric": "adequate_sequence chain_weight extend_pseudometric limit_pseudometric "
    "valley_distance verify_generation witness_chain",
    "regularity": "CriterionVerdict HomeoVerdict SpaceMap continuity_criterion homeo_criterion "
    "is_continuous is_regular_at transport_topology",
    "relations": "OMEGA REPEAT_LAST EntourageSequence ball compose multiple sigma_sum",
    "topology": "TopologyFamily compare_topologies minimal_grid_ball tlim_topology ulim_topology",
    "verify": "THEOREM_IDS VerifyReport verify_suite",
}
_SUBMODULES = {*_EXPORTS, "fixtures", "io"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted({*_MODULE_OF, *_SUBMODULES})


def __getattr__(name: str):
    if name in _SUBMODULES:  # the import binds it on the package
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
