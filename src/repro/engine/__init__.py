"""Layered model engine: incremental structure rebuilds and memoized solves.

See :mod:`repro.engine.engine` for the layer split (topology / layout /
solve), :mod:`repro.engine.backend` for the solver-backend registry and
:mod:`repro.engine.assembly` for the shared LP-assembly helpers.
``docs/architecture.md`` has the full design narrative.
"""

from .assembly import append_column, capacity_floor_blocks, stage1_blocks
from .backend import (
    HighsBackend,
    SimplexBackend,
    SolverBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .engine import ModelEngine, build_structure
from .layout import FragmentCache, LayoutLayer, patch_structure
from .topology import TopologyLayer

__all__ = [
    "ModelEngine",
    "build_structure",
    "TopologyLayer",
    "LayoutLayer",
    "FragmentCache",
    "patch_structure",
    "SolverBackend",
    "HighsBackend",
    "SimplexBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "append_column",
    "capacity_floor_blocks",
    "stage1_blocks",
]
