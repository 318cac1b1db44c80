"""The layered model engine: topology -> layout -> solve, behind one facade.

:class:`ModelEngine` is the shared factory every solver front-end builds
its :class:`~repro.lp.model.ProblemStructure` through.  It separates
what is invariant from what changes:

1. **Topology layer** (:class:`~repro.engine.topology.TopologyLayer`) —
   the network and its resolved path sets, computed once per
   ``(od pair, banned edges)``.
2. **Layout layer** (:class:`~repro.engine.layout.LayoutLayer`) — column
   layouts and constraint blocks, with whole-structure and per-job
   fragment reuse; :meth:`extend_windows` is the incremental rebuild
   entry point.
3. **Solve layer** — :meth:`cached_solve`'s exact solution memo over
   engine-built structures.  Every LP that misses the memo is solved
   cold on the default HiGHS backend, under the engine's
   ``resilience``: no basis or dual hint is passed on.

Warm-start semantics
--------------------

A RET binary search probes many candidate stretch factors ``b``, but
window discretization is a step function of ``b``: once ``hi - lo``
falls below one slice of granularity, consecutive probes produce *the
same* integer windows, grid and capacities — i.e. bit-identical LPs.
:meth:`cached_solve` keys its memo on the layout layer's exact structure
signature, so a hit returns the verbatim optimal solution (or replays
the memoized infeasibility) of that identical LP.  Results are therefore
equal whether warm starts are on or off — ``warm_start=False`` (and the
CLI ``--no-warm-start`` escape hatch) trades the speedup for a fully
from-scratch audit path, nothing else.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable, Mapping, Sequence

from ..errors import InfeasibleProblemError, ValidationError
from ..lp.model import ProblemStructure
from ..lp.solver import (
    LinearProgram,
    LPSolution,
    SolveBudget,
    SolveResilience,
    solve_lp,
)
from ..network.graph import Network
from ..network.paths import Path
from ..obs import current
from ..timegrid import TimeGrid
from ..workload.jobs import JobSet
from .layout import LayoutLayer
from .topology import TopologyLayer

__all__ = ["ModelEngine", "bind_engine", "build_structure"]

Node = Hashable

#: Memo marker for a structure whose SUB-RET (or other) LP was proven
#: infeasible: replaying the outcome must re-raise, not return a value.
_INFEASIBLE = object()


class ModelEngine:
    """Layered structure factory with memoized solves.

    Parameters
    ----------
    network:
        The network the engine is bound to; every structure it builds
        references this one graph.
    k_paths:
        Paths resolved per OD pair at the topology layer.
    warm_start:
        Enables every reuse layer: the structure and fragment caches
        and the solve-layer memo.  Off, every structure is built and
        every LP solved from scratch — the baseline the benchmarks
        compare against and what the CLI ``--no-warm-start`` flag
        selects (results are identical either way; see the module
        docstring).
    max_cached_structures, max_cached_fragments:
        Layout-layer LRU bounds (see
        :class:`~repro.engine.layout.LayoutLayer`).
    max_cached_solutions:
        LRU bound on memoized solutions.
    resilience:
        The retry policy of every LP this engine routes: the
        :meth:`cached_solve` misses (stage 1, SUB-RET probes, admission
        probes) and the stage-2 solves of a
        :class:`~repro.core.scheduler.Scheduler` bound to it.  The
        front-ends take no copy of their own, so one setting governs a
        whole epoch's chain of LPs.  ``None`` solves each LP once.

    All three layers count into the :func:`~repro.obs.current` collector
    (``structure_cache_hits``, ``cold_builds``, ``memo_hits``,
    ``engine_solves``, ``path_cache_hits`` / ``_misses``,
    ``layout_fragment_hits`` / ``_builds``).
    """

    def __init__(
        self,
        network: Network,
        k_paths: int = 4,
        *,
        warm_start: bool = True,
        max_cached_structures: int = 64,
        max_cached_fragments: int = 512,
        max_cached_solutions: int = 256,
        resilience: SolveResilience | None = None,
    ) -> None:
        self.warm_start = bool(warm_start)
        self.resilience = resilience
        self.topology = TopologyLayer(network, k_paths)
        self.layout = LayoutLayer(
            self.topology,
            warm_start=self.warm_start,
            max_structures=max_cached_structures,
            max_fragments=max_cached_fragments,
        )
        if max_cached_solutions < 1:
            raise ValidationError(
                f"max_cached_solutions must be >= 1, got {max_cached_solutions}"
            )
        self.max_cached_solutions = int(max_cached_solutions)
        self._solutions: OrderedDict[tuple, object] = OrderedDict()

    @property
    def network(self) -> Network:
        return self.topology.network

    @property
    def k_paths(self) -> int:
        return self.topology.k_paths

    # ------------------------------------------------------------------
    # Layout layer entry points
    # ------------------------------------------------------------------
    def structure(
        self,
        jobs: JobSet,
        grid: TimeGrid | None = None,
        *,
        slice_length: float = 1.0,
        path_sets: Mapping[tuple[Node, Node], Sequence[Path]] | None = None,
        capacity_profile=None,
        banned_edges: frozenset[int] = frozenset(),
    ) -> ProblemStructure:
        """The structure for this instance (cached when signatures match)."""
        if grid is None:
            grid = TimeGrid.covering(jobs.max_end(), slice_length)
        return self.layout.structure(
            jobs,
            grid,
            path_sets=path_sets,
            capacity_profile=capacity_profile,
            banned_edges=banned_edges,
        )

    def extend_windows(
        self,
        jobs: JobSet,
        b: float,
        *,
        mode: str = "end_time",
        slice_length: float = 1.0,
        path_sets: Mapping[tuple[Node, Node], Sequence[Path]] | None = None,
        capacity_profile=None,
    ) -> ProblemStructure:
        """Incremental rebuild for windows stretched by ``(1 + b)``.

        This is the RET probe builder: candidate ``b`` values that
        discretize to the same integer windows return the cached
        structure, and genuinely new layouts still reuse cached paths
        and per-job fragments.  ``capacity_profile`` (absolute time) is
        re-based onto each candidate grid, exactly as the pre-engine
        probe loop did.
        """
        if b < 0:
            raise ValidationError(f"window extension b must be >= 0, got {b}")
        if mode == "interval":
            extended = jobs.with_extended_intervals(b)
        elif mode == "end_time":
            extended = jobs.with_extended_ends(b)
        else:
            raise ValidationError(f"unknown RET mode {mode!r}")
        grid = TimeGrid.covering(extended.max_end(), slice_length)
        profile = (
            capacity_profile.for_grid(grid)
            if capacity_profile is not None
            else None
        )
        return self.structure(
            extended, grid, path_sets=path_sets, capacity_profile=profile
        )

    # ------------------------------------------------------------------
    # Solve layer
    # ------------------------------------------------------------------
    def cached_solve(
        self,
        structure: ProblemStructure,
        kind: str,
        build: Callable[[], LinearProgram],
        *,
        cache: bool = True,
        budget: SolveBudget | None = None,
        label: str | None = None,
    ) -> LPSolution:
        """Solve one LP family over an engine-built structure, memoized.

        ``kind`` names the family (``"subret"``, ``"stage1"``, ...);
        ``build`` assembles the LP only on a miss.  The memo key is the
        structure's exact layout signature plus ``kind``, so a hit means
        the LP is bit-identical to one already solved — the cached
        solution (or memoized infeasibility) *is* the answer, counted as
        a ``memo_hits`` telemetry hit.  Structures built outside this
        engine, and calls with ``cache=False`` (e.g. a caller-supplied
        objective the key cannot see), always solve, and every solve
        starts cold under the engine's ``resilience``.
        """
        telemetry = current()
        key = None
        if self.warm_start and cache:
            signature = getattr(structure, "_engine_key", None)
            if signature is not None:
                key = (signature, kind)
                hit = self._solutions.get(key)
                if hit is not None:
                    self._solutions.move_to_end(key)
                    telemetry.count("memo_hits")
                    if hit is _INFEASIBLE:
                        raise InfeasibleProblemError()
                    return hit
            else:
                # A memoizable call over a structure the layout cache
                # never keyed (built outside the engine) silently falls
                # through to a cold solve; make the bypass visible in
                # telemetry.
                telemetry.count("engine_memo_bypass")
        try:
            solution = solve_lp(
                build(),
                label=label or kind,
                resilience=self.resilience,
                budget=budget,
            )
        except InfeasibleProblemError:
            if key is not None:
                self._remember(key, _INFEASIBLE)
            raise
        telemetry.count("engine_solves")
        if key is not None:
            self._remember(key, solution)
        return solution

    def _remember(self, key: tuple, value: object) -> None:
        self._solutions[key] = value
        while len(self._solutions) > self.max_cached_solutions:
            self._solutions.popitem(last=False)

    def clear(self) -> None:
        """Drop every cache at every layer (topology, layout, solve)."""
        self.topology.clear()
        self.layout.clear()
        self._solutions.clear()

    def __repr__(self) -> str:
        return (
            f"ModelEngine(k_paths={self.k_paths}, "
            f"warm_start={self.warm_start}, "
            f"cached_solutions={len(self._solutions)})"
        )


def bind_engine(
    network: Network,
    k_paths: int,
    engine: ModelEngine | None,
    owner: str,
    *,
    warm_start: bool = True,
) -> ModelEngine:
    """A front-end's engine: ``engine`` checked against its inputs, or a new one.

    A shared engine (the epoch kernel passes one per ``k_paths``) must be
    bound to the very ``network`` the front-end plans over and resolve
    the same ``k_paths``; ``owner`` names the front-end in the error.
    Without one, a private engine is built with ``warm_start``.
    ``warm_start=False`` next to a warm shared engine contradicts itself
    (the engine would memoize anyway), so that pair is rejected.
    """
    if engine is None:
        return ModelEngine(network, k_paths, warm_start=warm_start)
    if not warm_start and engine.warm_start:
        raise ValidationError(
            f"{owner} was asked for warm_start=False but given a warm "
            f"engine; pass ModelEngine(..., warm_start=False) instead"
        )
    if engine.network is not network:
        raise ValidationError(
            f"engine is bound to a different network than {owner}'s"
        )
    if engine.k_paths != k_paths:
        raise ValidationError(
            f"engine resolves k_paths={engine.k_paths} but {owner} was "
            f"asked for k_paths={k_paths}"
        )
    return engine


def build_structure(
    network: Network,
    jobs: JobSet,
    grid: TimeGrid | None = None,
    k_paths: int = 4,
    *,
    slice_length: float = 1.0,
    path_sets: Mapping[tuple[Node, Node], Sequence[Path]] | None = None,
    capacity_profile=None,
    banned_edges: frozenset[int] = frozenset(),
) -> ProblemStructure:
    """One-shot shared factory: a structure via a transient engine.

    The single front door for call sites that build one instance and
    move on (experiments, analysis, verification); long-lived callers
    (the scheduler, the simulator, RET) hold a :class:`ModelEngine` and
    reap the cross-build reuse.
    """
    engine = ModelEngine(network, k_paths)
    return engine.structure(
        jobs,
        grid,
        slice_length=slice_length,
        path_sets=path_sets,
        capacity_profile=capacity_profile,
        banned_edges=banned_edges,
    )
