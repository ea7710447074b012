"""Green and Martin kernels, boundary measures, and conformality
diagnostics for transient random walks on discrete groups."""

import importlib

from .errors import (
    ConfigError,
    ConvergenceError,
    GreenwalkError,
    PartitionError,
    PrecisionError,
    RangeError,
    RepresentationError,
    ResourceLimitError,
    SamplingError,
    TransienceError,
    UnsupportedGroupError,
)
from .groups import (
    Ball,
    GroupElement,
    GroupModel,
    ball_enumerate,
    parse_element,
    parse_group,
    serialize_element,
)
from .walks import (
    WalkSpec,
    drift_z,
    generation_certificate,
    make_walk,
    named_walk,
    product_walk,
    resolve_walk,
    srw_free,
    wreath_walk,
)
from .kernels import (
    KernelTable,
    build_kernel_table,
    harnack_scan,
    n_step_distribution,
)

# The analysis layer: each module and the public names it defines.  They
# are imported on first access (PEP 562, `__getattr__` below), so a job
# that only builds tables loads the core above and no more.
_LAZY = {
    "boundary": (
        "BoundaryApproximant",
        "best_spine_candidate",
        "cocycle_residual",
        "extend_kernel",
        "free_tree_kernel_oracle",
        "harmonicity_residual",
        "parse_approximant",
        "spine_scan",
    ),
    "measures": (
        "MeasureModel",
        "all_cells",
        "cell_name",
        "parse_cell",
        "translate_cell",
        "tree_exit_measure",
        "uniform_depth1_measure",
    ),
    "sampler": ("harmonic_measure_estimate",),
    "conformal": (
        "BetaVerdict",
        "CellFunction",
        "PhiCurve",
        "classify",
        "conformality_residual",
        "invariant_measure_feasibility",
        "kms_residual",
        "multiplicity_report",
        "phi_curve",
        "phi_map_pushforward_check",
        "rn_identity_check",
        "stationarity_residual",
    ),
    "acceptance": ("run_all", "summary_lines"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
# submodules that `import greenwalk` used to load as a side effect
_SUBMODULES = frozenset(_LAZY) | {"rng"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)


# the core names imported above, and every name of the analysis layer
__all__ = sorted([
    "Ball",
    "ConfigError",
    "ConvergenceError",
    "GreenwalkError",
    "GroupElement",
    "GroupModel",
    "KernelTable",
    "PartitionError",
    "PrecisionError",
    "RangeError",
    "RepresentationError",
    "ResourceLimitError",
    "SamplingError",
    "TransienceError",
    "UnsupportedGroupError",
    "WalkSpec",
    "ball_enumerate",
    "build_kernel_table",
    "drift_z",
    "generation_certificate",
    "harnack_scan",
    "make_walk",
    "n_step_distribution",
    "named_walk",
    "parse_element",
    "parse_group",
    "product_walk",
    "resolve_walk",
    "serialize_element",
    "srw_free",
    "wreath_walk",
    *_HOME,
])

__version__ = "0.1.0"
