"""Layout layer: reusing column layouts and constraint blocks across builds.

A :class:`~repro.lp.model.ProblemStructure` is a pure function of
``(network, jobs, grid, k_paths, path_sets, capacity_profile)``.  A
request for one takes one of three tiers:

* **Exact hit** — an LRU keyed on the exact signature (raw job windows
  and sizes included).  Repeat requests for the same instance — the
  admission prefix search re-evaluating its final prefix, a journal
  replay re-solving a committed epoch, the scheduler re-scheduling an
  unchanged residual — get the *same object* back.
* **Clone** — a miss whose *layout* matches a cached structure: the
  same job ids and endpoints in the same order, the same integer slice
  windows, grid, ``k_paths`` and routes, and no capacity profile.  Only
  the demands (an rhs) differ, so :func:`patch_structure` shares the
  donor's column arrays and matrices outright.  A simulator epoch that
  only shrinks residual sizes, and RET probes that re-solve one layout
  for different demands, land here.
* **Cold build** — everything else.  The build still reuses per-job
  capacity fragments: the capacity block's sparsity pattern for one job
  depends only on its paths' edge ids and its window span, not on where
  the window sits or where its columns start (see
  :func:`repro.lp.model.job_capacity_fragment`).

Every built structure carries a *discretized* signature
(``_engine_key``: the layout key plus per-job sizes, arrivals and
weights) that the solve layer memoizes solutions under: RET bisection
probes whose ``b`` values differ below slice granularity get distinct
structures but share one LP solution.

Cache invalidation is by construction: *every* input participates in
the exact key — per-job ``(id, endpoints, size, window, arrival,
weight)`` tuples, the grid's boundary array, ``k_paths``, the resolved
paths' edge ids and the capacity profile's matrix bytes — so changing
any of them can only miss, never serve a stale layout.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from collections.abc import Hashable, Mapping, Sequence

from ..errors import ValidationError
from ..lp.model import ProblemStructure
from ..network.paths import Path
from ..obs import current
from ..timegrid import TimeGrid
from ..workload.jobs import JobSet
from .assembly import DEMAND_INDEPENDENT
from .topology import TopologyLayer

__all__ = ["LayoutLayer", "FragmentCache", "patch_structure"]

Node = Hashable


class FragmentCache(OrderedDict):
    """LRU-bounded mapping for per-job capacity fragments.

    Fragments are small (three int64 arrays per ``(paths, span)`` key)
    but a long simulation over a heavy workload mints new keys every
    epoch — unbounded growth contradicts the million-job north star the
    same way the old unbounded solution memo did.  ``get`` refreshes
    recency; inserting past ``max_entries`` evicts the stalest entry.
    :class:`LayoutLayer` bounds its structure cache and layout index
    with the same class.
    """

    def __init__(self, max_entries: int) -> None:
        super().__init__()
        if max_entries < 1:
            raise ValidationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = int(max_entries)

    def get(self, key, default=None):
        try:
            value = super().__getitem__(key)
        except KeyError:
            return default
        self.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        while len(self) > self.max_entries:
            self.popitem(last=False)


def _jobs_key(jobs: JobSet) -> tuple:
    """Everything about the jobs that can change the built structure."""
    return tuple(
        (j.id, j.source, j.dest, j.size, j.start, j.end, j.arrival, j.weight)
        for j in jobs
    )


def _jobs_layout_key(jobs: JobSet, grid: TimeGrid) -> tuple:
    """What the *discretized* layout can observe about the jobs.

    Ids, endpoints and integer slice windows on ``grid``: raw window
    endpoints that differ below slice granularity (RET bisection probes,
    above all) give the same columns and matrices.  Sizes, arrivals and
    weights are left out; they change the LP's rhs and objective, not
    its layout.
    """
    out = []
    for j in jobs:
        window = grid.window_slices(j.start, j.end)
        out.append((j.id, j.source, j.dest, window.start, window.stop))
    return tuple(out)


def _paths_key(path_sets: Mapping[tuple[Node, Node], Sequence[Path]]) -> tuple:
    """Resolved-route signature: per pair, the ordered path edge ids."""
    return tuple(
        sorted(
            (
                (pair, tuple(tuple(p.edge_ids) for p in pset))
                for pair, pset in path_sets.items()
            ),
            key=lambda item: (str(item[0][0]), str(item[0][1])),
        )
    )


def _profile_key(profile) -> tuple | None:
    """Capacity-profile signature (grid + matrix content), or None."""
    if profile is None:
        return None
    return (profile.grid, profile.matrix.tobytes())


def patch_structure(donor: ProblemStructure, jobs: JobSet) -> ProblemStructure:
    """A structure for ``jobs`` that shares ``donor``'s layout.

    The caller has matched the layout key: the same job ids and
    endpoints in the same order, the same slice windows, grid,
    ``k_paths`` and routes, and no capacity profile.  Only the demands
    differ, so every column array and constraint matrix of the donor
    applies verbatim, as do its demand-independent assembly-cache
    entries (:data:`repro.engine.assembly.DEMAND_INDEPENDENT`: the
    ``capacity_floor`` block with its HiGHS rows, Algorithm 1's tables
    and the SUB-RET objective and form), and its ``stage1`` blocks when
    the demands are equal too, since those embed ``-demands``.
    """
    out = copy.copy(donor)
    out.jobs = jobs
    out.demands = jobs.sizes() / donor.network.wavelength_rate
    out.demands.setflags(write=False)
    donor_cache = donor._assembly_cache
    shared = [key for key in DEMAND_INDEPENDENT if key in donor_cache]
    if "stage1" in donor_cache and (out.demands == donor.demands).all():
        shared.append("stage1")
    out._assembly_cache = {key: donor_cache[key] for key in shared}
    current().record("structure_patched", jobs=len(jobs), num_cols=out.num_cols)
    return out


class LayoutLayer:
    """Structure builder: exact hit, layout clone or cold build.

    Parameters
    ----------
    topology:
        The :class:`~repro.engine.topology.TopologyLayer` below; supplies
        the network, ``k_paths`` and cached path resolution.
    warm_start:
        Enables reuse: the exact-signature structure cache, the layout
        index a miss clones from (:func:`patch_structure`) and the
        per-job fragment cache cold builds draw on.  Off, every
        structure is built from scratch (the baseline
        ``ModelEngine(warm_start=False)`` selects).
    max_structures:
        LRU bound on retained structures, and separately on the layout
        index (matrices are the bulk of an instance's memory; old
        epochs must not accumulate forever).
    max_fragments:
        LRU bound on retained per-job fragments (see
        :class:`FragmentCache`).

    Telemetry counters: exact hits count as ``structure_cache_hits``,
    clones as ``structure_patch_hits``, real builds as ``cold_builds``
    (fragment-level reuse counts inside
    :class:`~repro.lp.model.ProblemStructure` as ``layout_fragment_hits``
    / ``layout_fragment_builds``).
    """

    def __init__(
        self,
        topology: TopologyLayer,
        warm_start: bool = True,
        max_structures: int = 64,
        max_fragments: int = 512,
    ) -> None:
        if max_structures < 1:
            raise ValidationError(
                f"max_structures must be >= 1, got {max_structures}"
            )
        self.topology = topology
        self.warm_start = bool(warm_start)
        self.max_structures = int(max_structures)
        self.max_fragments = int(max_fragments)
        self._structures = FragmentCache(self.max_structures)
        self._layouts = FragmentCache(self.max_structures)
        self._fragments: FragmentCache | None = (
            FragmentCache(max_fragments) if self.warm_start else None
        )

    @property
    def network(self):
        return self.topology.network

    def structure(
        self,
        jobs: JobSet,
        grid: TimeGrid,
        path_sets: Mapping[tuple[Node, Node], Sequence[Path]] | None = None,
        capacity_profile=None,
        banned_edges: frozenset[int] = frozenset(),
    ) -> ProblemStructure:
        """A structure for the instance, reused when the signature matches.

        ``path_sets=None`` resolves routes through the topology layer
        (honouring ``banned_edges``); an explicit mapping — e.g. the
        fault-aware routes an epoch already computed — short-circuits it
        and participates in the cache key by content, not identity.
        """
        if path_sets is None:
            path_sets = self.topology.path_sets(
                jobs.od_pairs(), banned_edges=banned_edges
            )
        if not self.warm_start:
            current().count("cold_builds")
            return self._cold(jobs, grid, path_sets, capacity_profile)
        shared = (
            grid,
            self.topology.k_paths,
            _paths_key(path_sets),
            _profile_key(capacity_profile),
        )
        telemetry = current()
        # Exact key: the structure object (which carries the raw jobs)
        # is reused only for a byte-for-byte identical request.
        key = (_jobs_key(jobs), *shared)
        hit = self._structures.get(key)
        if hit is not None:
            telemetry.count("structure_cache_hits")
            return hit
        layout = (_jobs_layout_key(jobs, grid), *shared)
        donor = self._layouts.get(layout) if capacity_profile is None else None
        if donor is not None:
            built = patch_structure(donor, jobs)
            telemetry.count("structure_patch_hits")
        else:
            built = self._cold(jobs, grid, path_sets, capacity_profile)
            telemetry.count("cold_builds")
        # Solve-memo key: the layout plus what changes the LP's rhs and
        # objective, so probes that only differ below slice granularity
        # share their (provably identical) LP solutions.
        built._engine_key = (
            layout,
            tuple((j.size, j.arrival, j.weight) for j in jobs),
        )
        self._structures[key] = built
        if capacity_profile is None:
            self._layouts[layout] = built
        return built

    def _cold(
        self,
        jobs: JobSet,
        grid: TimeGrid,
        path_sets: Mapping[tuple[Node, Node], Sequence[Path]],
        capacity_profile,
    ) -> ProblemStructure:
        return ProblemStructure(
            self.network,
            jobs,
            grid,
            self.topology.k_paths,
            path_sets=path_sets,
            capacity_profile=capacity_profile,
            fragment_cache=self._fragments,
        )

    def clear(self) -> None:
        """Drop every cached structure and fragment."""
        self._structures.clear()
        self._layouts.clear()
        if self._fragments is not None:
            self._fragments.clear()

    def __repr__(self) -> str:
        frags = len(self._fragments) if self._fragments is not None else 0
        return (
            f"LayoutLayer(structures={len(self._structures)}, "
            f"fragments={frags})"
        )

