"""Topology layer: per-network path resolution, computed once and cached.

Paths depend only on the graph (and the set of banned edges), never on
jobs, grids or capacities — yet the pre-engine code re-ran Yen's
k-shortest-paths for every RET probe, every admission prefix and every
simulator epoch that did not happen to thread an explicit ``path_sets``
mapping.  :class:`TopologyLayer` memoizes resolution per
``(od_pair, banned_edges)`` so each pair is routed exactly once per
fault pattern for the engine's whole lifetime.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from ..errors import ValidationError
from ..network.graph import Network
from ..network.paths import Path, build_path_sets
from ..obs import current

__all__ = ["TopologyLayer"]

Node = Hashable


class TopologyLayer:
    """Immutable per-network layer: the graph and cached path sets.

    Parameters
    ----------
    network:
        The wavelength-switched network; the layer (and every engine
        built on it) is bound to this one graph.
    k_paths:
        Paths resolved per origin-destination pair.

    Cache hits and misses count as ``path_cache_hits`` /
    ``path_cache_misses`` telemetry.
    """

    def __init__(self, network: Network, k_paths: int = 4) -> None:
        if k_paths < 1:
            raise ValidationError(f"k_paths must be >= 1, got {k_paths}")
        self.network = network
        self.k_paths = int(k_paths)
        self._cache: dict[tuple, tuple[Path, ...]] = {}

    def path_sets(
        self,
        od_pairs: Iterable[tuple[Node, Node]],
        banned_edges: frozenset[int] = frozenset(),
    ) -> dict[tuple[Node, Node], list[Path]]:
        """Resolved paths per OD pair, shaped like ``build_path_sets``.

        Pairs already resolved under the same ``banned_edges`` come from
        the cache; only genuinely new pairs run the k-shortest-paths
        search.  A pair with *no* surviving path caches as empty (the
        disconnection is itself a stable fact of the topology).
        """
        banned = frozenset(banned_edges)
        telemetry = current()
        out: dict[tuple[Node, Node], list[Path]] = {}
        missing: list[tuple[Node, Node]] = []
        for pair in od_pairs:
            if pair in out:
                continue
            cached = self._cache.get((pair, banned))
            if cached is not None:
                out[pair] = list(cached)
                telemetry.count("path_cache_hits")
            else:
                out[pair] = []  # placeholder; filled below, dedupes repeats
                missing.append(pair)
        if missing:
            fresh = build_path_sets(
                self.network, missing, self.k_paths, banned_edges=banned
            )
            for pair in missing:
                pset = tuple(fresh.get(pair) or ())
                self._cache[(pair, banned)] = pset
                out[pair] = list(pset)
                telemetry.count("path_cache_misses")
        return out

    def clear(self) -> None:
        """Drop every cached path set (e.g. after mutating the graph)."""
        self._cache.clear()

    def __repr__(self) -> str:
        return (
            f"TopologyLayer(nodes={self.network.num_nodes}, "
            f"k_paths={self.k_paths}, cached_pairs={len(self._cache)})"
        )
