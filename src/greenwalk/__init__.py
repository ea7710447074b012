"""Green and Martin kernels, boundary measures, and conformality
diagnostics for transient random walks on discrete groups."""

import importlib

# Each module and the public names it defines.  The table core, _CORE,
# is bound at import; the analysis layer is imported on first access
# (PEP 562, `__getattr__` below), so a job that only builds tables loads
# the core and no more.
_PUBLIC = {
    "errors": (
        "ConfigError",
        "ConvergenceError",
        "GreenwalkError",
        "PartitionError",
        "PrecisionError",
        "RangeError",
        "RepresentationError",
        "ResourceLimitError",
        "SamplingError",
        "TransienceError",
        "UnsupportedGroupError",
    ),
    "groups": (
        "Ball",
        "GroupElement",
        "GroupModel",
        "ball_enumerate",
        "parse_element",
        "parse_group",
        "serialize_element",
    ),
    "walks": (
        "WalkSpec",
        "drift_z",
        "generation_certificate",
        "make_walk",
        "named_walk",
        "product_walk",
        "resolve_walk",
        "srw_free",
        "wreath_walk",
    ),
    "kernels": (
        "KernelTable",
        "build_kernel_table",
        "harnack_scan",
        "n_step_distribution",
    ),
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
    ),
    "acceptance": ("run_all", "summary_lines"),
}
_CORE = ("errors", "groups", "walks", "kernels")
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
# submodules that `import greenwalk` used to load as a side effect
_SUBMODULES = frozenset(_PUBLIC) | {"rng"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__package__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{_HOME[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)


for _module in _CORE:
    for _name in _PUBLIC[_module]:
        __getattr__(_name)
del _module, _name

__all__ = sorted(_HOME)

__version__ = "0.1.0"
