"""Layout layer: reusing column layouts and constraint blocks across builds.

A :class:`~repro.lp.model.ProblemStructure` is a pure function of
``(network, jobs, grid, k_paths, path_sets, capacity_profile)``.  The
layout layer exploits that purity at two granularities:

* **Whole-structure cache** — an LRU keyed on the exact signature (raw
  job windows included).  Repeat requests for the same instance — the
  admission prefix search re-evaluating its final prefix, a journal
  replay re-solving a committed epoch, the scheduler re-scheduling an
  unchanged residual — get the *same object* back, skipping assembly
  entirely.  Each built structure additionally carries a *discretized*
  signature (``_engine_key``, raw window endpoints replaced by integer
  slice windows) that the solve layer memoizes solutions under: RET
  bisection probes whose ``b`` values differ below slice granularity
  rebuild the (fragment-reusing) structure but share one LP solution.
* **Per-job fragment cache** — the capacity block's sparsity pattern for
  one job depends only on its paths' edge ids and its window span, not
  on where the window sits or where its columns start (see
  :func:`repro.lp.model.job_capacity_fragment`).  Structures that miss
  the exact cache (a new grid, a shifted window) still reuse every
  unchanged per-job segment instead of re-broadcasting it.

Cache invalidation is by construction: *every* input participates in the
key — per-job ``(id, endpoints, size, window, arrival, weight)`` tuples,
the grid's boundary array, ``k_paths``, the resolved paths' edge ids and
the capacity profile's matrix bytes — so changing any of them can only
miss, never serve a stale layout.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Mapping, Sequence

from ..errors import ValidationError
from ..lp.model import ProblemStructure
from ..network.paths import Path
from ..obs import current
from ..timegrid import TimeGrid
from ..workload.jobs import JobSet
from .delta import patch_structure
from .topology import TopologyLayer

__all__ = ["LayoutLayer", "FragmentCache"]

Node = Hashable

#: How many most-recent cached structures a near-miss tries as donors.
#: A simulator epoch leaves at most a handful of live structures (RET
#: probes plus the scheduling grid), so the previous epoch's donors are
#: always within this window.
MAX_PATCH_DONORS = 6


class FragmentCache(OrderedDict):
    """LRU-bounded mapping for per-job capacity fragments.

    Fragments are small (three int64 arrays per ``(paths, span)`` key)
    but a long simulation over a heavy workload mints new keys every
    epoch — unbounded growth contradicts the million-job north star the
    same way the old unbounded solution memo did.  ``get`` refreshes
    recency; inserting past ``max_entries`` evicts the stalest entry.
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

    Raw window endpoints are replaced by their integer slice windows on
    ``grid``: two job sets whose endpoints differ below slice
    granularity (RET bisection probes, above all) produce bit-identical
    LPs, and this key is how the solve layer knows it.
    """
    out = []
    for j in jobs:
        window = grid.window_slices(j.start, j.end)
        out.append(
            (j.id, j.source, j.dest, j.size, window.start, window.stop,
             j.arrival, j.weight)
        )
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


class LayoutLayer:
    """Structure builder with exact-signature and per-job-fragment reuse.

    Parameters
    ----------
    topology:
        The :class:`~repro.engine.topology.TopologyLayer` below; supplies
        the network, ``k_paths`` and cached path resolution.
    warm_start:
        Enables both reuse levels: the exact-signature structure cache
        and the per-job fragment cache.  Structure caching also enables
        delta *patching*: an exact-cache miss tries the most recent
        cached structures as donors
        (:func:`repro.engine.delta.patch_structure`) before paying a
        cold build.  Off, every structure is built from scratch (the
        baseline ``ModelEngine(warm_start=False)`` selects).
    max_structures:
        LRU bound on retained structures (matrices are the bulk of an
        instance's memory; old epochs must not accumulate forever).
    max_fragments:
        LRU bound on retained per-job fragments (see
        :class:`FragmentCache`).

    Telemetry counters: exact hits count as ``structure_cache_hits``,
    patches as ``structure_patch_hits``, real builds as ``cold_builds``
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
        self._structures: OrderedDict[tuple, ProblemStructure] = OrderedDict()
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
        key = None
        shared = (
            grid,
            self.topology.k_paths,
            _paths_key(path_sets),
            _profile_key(capacity_profile),
        )
        telemetry = current()
        if self.warm_start:
            # Exact key: the structure object (which carries the raw
            # jobs) is reused only for a byte-for-byte identical request.
            key = (_jobs_key(jobs), *shared)
            hit = self._structures.get(key)
            if hit is not None:
                self._structures.move_to_end(key)
                telemetry.count("structure_cache_hits")
                return hit
        built = None
        if key is not None and capacity_profile is None:
            built = self._try_patch(jobs, grid, path_sets)
        if built is not None:
            telemetry.count("structure_patch_hits")
        else:
            built = ProblemStructure(
                self.network,
                jobs,
                grid,
                self.topology.k_paths,
                path_sets=path_sets,
                capacity_profile=capacity_profile,
                fragment_cache=self._fragments,
            )
            telemetry.count("cold_builds")
        if key is not None:
            # Solve-memo key: discretized windows instead of raw floats,
            # so probes that only differ below slice granularity share
            # their (provably identical) LP solutions.
            built._engine_key = (_jobs_layout_key(jobs, grid), *shared)
            self._structures[key] = built
            while len(self._structures) > self.max_structures:
                self._structures.popitem(last=False)
        return built

    def _try_patch(
        self,
        jobs: JobSet,
        grid: TimeGrid,
        path_sets: Mapping[tuple[Node, Node], Sequence[Path]],
    ) -> ProblemStructure | None:
        """Near-miss path: patch from the freshest compatible donor.

        Tries the :data:`MAX_PATCH_DONORS` most recently used cached
        structures; the first donor the patcher accepts wins.  ``None``
        sends the caller to the cold build (and its validation errors).
        """
        if not self._structures:
            return None
        tried = 0
        with current().span("structure_patch"):
            for donor in reversed(self._structures.values()):
                patched = patch_structure(
                    donor,
                    jobs,
                    grid,
                    self.topology.k_paths,
                    path_sets,
                    fragment_cache=self._fragments,
                )
                if patched is not None:
                    return patched
                tried += 1
                if tried >= MAX_PATCH_DONORS:
                    return None
        return None

    def clear(self) -> None:
        """Drop every cached structure and fragment."""
        self._structures.clear()
        if self._fragments is not None:
            self._fragments.clear()

    def __repr__(self) -> str:
        frags = len(self._fragments) if self._fragments is not None else 0
        return (
            f"LayoutLayer(structures={len(self._structures)}, "
            f"fragments={frags})"
        )
