"""Vectorized CSR graph kernels (the ``fast`` backend).

The pure-Python BFS metrics in :mod:`repro.graphs.metrics` are the readable
reference implementation, but they dominate the runtime of every resilience
sweep once networks grow past a few thousand nodes.  This module provides a
compressed-sparse-row (CSR) mirror of :class:`~repro.graphs.adjacency.
UndirectedGraph` -- two numpy arrays, ``indptr`` and ``indices`` -- plus
vectorized kernels over it:

* frontier-based BFS (distances, eccentricity, closeness),
* batched multi-source BFS: an adaptive multi-word frontier engine.  Each
  node carries ``W`` bit-packed ``uint64`` frontier words, so one wave
  advances up to ``64 * W`` sources together; every level dispatches
  between a dense all-edges step (transposed-ELL in-place OR accumulation,
  or a ``bitwise_or.reduceat`` segment reduction on skew-degreed graphs)
  and a sparse step touching only frontier-incident edges, chosen from the
  live frontier's edge count.  ``W`` is auto-tuned from the graph and the
  source count (overridable via ``REPRO_BFS_BATCH`` /
  ``backend.use_bfs_batch``); the sampled *and full-population* diameter /
  average-shortest-path / closeness estimators all run on this engine,
* exact full-population path metrics: per wave level the per-node row
  popcounts fold into an eccentricity *max* and a level-weighted distance
  *sum* (:func:`accumulate_path_shard`), so one campaign yields the exact
  diameter, per-node/average shortest path length *and* closeness
  (:func:`full_path_metrics`, :func:`path_length_accumulators`); the int64
  accumulators merge exactly across any source split, which is what the
  runner's source-sharded parallel campaigns exploit.  These waves run on a
  compiled C kernel (``wavekernel.c``, built on first use and loaded through
  ``ctypes`` by :mod:`repro.graphs._wavekernel`) when a C compiler is
  available, and on the numpy engine otherwise -- with identical results,
* connected components via min-label propagation with pointer jumping
  (Shiloach--Vishkin style, O(m log n) total work),
* masked component summaries for the Figure 6 simultaneous-deletion sweeps
  (no Python-side subgraph construction per victim set).

Every public function takes the same arguments as its ``metrics`` twin and is
required -- and tested, in ``tests/graphs/test_backend_equivalence.py`` -- to
return **identical** results: exact for integer metrics, bit-identical for
float ones (the float expressions deliberately mirror the reference
implementation's evaluation order, and sampled estimators consume a shared
``random.Random`` in exactly the same way).

The CSR mirror is cached on the graph object, keyed on the graph's mutation
stamp; on a stamp mismatch :func:`csr_of` rebuilds it from scratch with
:func:`build_csr`.  Every snapshot is therefore compact: index ``i`` is the
``i``-th entry of ``graph.nodes()``, and no kernel needs a liveness mask.
"""

from __future__ import annotations

import random
import sys
import time
from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.adjacency import GraphError, UndirectedGraph
from repro.graphs.metrics import _select_nodes
from repro.obs.telemetry import current as _telemetry

NodeId = Hashable

_CSR_CACHE_ATTR = "_csr_cache"

#: Bits per frontier word: one ``uint64`` word carries 64 sources.  Waves may
#: span several words per node (see :func:`wave_batch`), so this is the wave
#: width *granularity*, not a cap.
BFS_BATCH = 64

#: Upper bound on frontier words per node under the ``auto`` wave-width
#: policy: one wave advances at most ``64 * MAX_WAVE_WORDS`` sources.
MAX_WAVE_WORDS = 64

#: Byte budget for one ``(n, words)`` uint64 wave work array under ``auto``;
#: the tuner shrinks the word count on huge graphs so the handful of wave
#: buffers stays cache/RAM-friendly.
WAVE_BUFFER_BUDGET = 64 << 20

#: Dense/sparse crossover: a level advances with the sparse frontier step
#: when the edges incident to the live frontier, times this divisor, fit
#: inside the total edge count (i.e. the dense all-edges gather would touch
#: ``>= SPARSE_EDGE_DIVISOR`` times more edges than the frontier owns).
SPARSE_EDGE_DIVISOR = 12

#: Saturation (pull) crossover: once the bits still missing across the whole
#: wave, scaled by the mean degree and this divisor, fit inside the total
#: edge count, the engine materialises the unsaturated-row set and advances
#: by pulling into those rows only -- the tail levels of a wave stop paying
#: for edges whose endpoints already hold every source bit.
PULL_EDGE_DIVISOR = 4

#: Per-level step selection: ``"adaptive"`` (occupancy-driven, the default)
#: or ``"dense"`` / ``"sparse"`` / ``"pull"`` to force one step kind (the
#: compiled kernel runs ``"pull"`` as its dense step, which already skips
#: saturated rows).  A testing and benchmarking knob -- every mode returns
#: identical results.
WAVE_STEP_MODE = "adaptive"

#: The dense step uses a padded transposed-ELL neighbour table (cached per
#: CSR snapshot) when the padding stays within this factor of the real edge
#: count; skew-degreed graphs (hubs, stars) fall back to the segment-reduce
#: gather so padding can never blow up memory or time.
ELL_PAD_FACTOR = 4


class CSRGraph:
    """Immutable CSR snapshot of an :class:`UndirectedGraph`.

    ``nodes`` preserves the graph's insertion order (``graph.nodes()``), so
    index ``i`` everywhere below refers to ``nodes[i]``.  Each undirected edge
    appears twice in ``indices`` (once per direction).
    """

    __slots__ = ("nodes", "index_of", "indptr", "indices", "_ell", "_scratch")

    def __init__(
        self,
        nodes: List[NodeId],
        index_of: Dict[NodeId, int],
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> None:
        self.nodes = nodes
        self.index_of = index_of
        self.indptr = indptr
        self.indices = indices
        #: Lazily built transposed-ELL neighbour table for the dense wave
        #: step (``False`` = not built yet, ``None`` = unsuitable).
        self._ell = False
        #: Reusable dense-step buffers keyed by wave word count, so the
        #: thousands of waves of a full-population campaign do not pay an
        #: allocation-and-fault burst each.
        self._scratch: Dict[int, "_DenseScratch"] = {}

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def degrees(self) -> np.ndarray:
        """Degree of every index, in index order."""
        return np.diff(self.indptr)


def build_csr(graph: UndirectedGraph) -> CSRGraph:
    """Convert ``graph`` into a fresh :class:`CSRGraph` (no caching)."""
    adjacency = graph._adjacency
    nodes = list(adjacency)
    n = len(nodes)
    degrees = np.fromiter(
        (len(adjacency[node]) for node in nodes), dtype=np.int64, count=n
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    total = int(indptr[-1])
    if nodes == list(range(n)):
        # Contiguous integer labels (every generator's output): neighbour ids
        # are already CSR indices, so skip the per-edge dict lookups.
        index_of = {node: node for node in nodes}
        flat = chain.from_iterable(adjacency[node] for node in nodes)
    else:
        index_of = {node: i for i, node in enumerate(nodes)}
        flat = (
            index_of[neighbor]
            for node in nodes
            for neighbor in adjacency[node]
        )
    indices = np.fromiter(flat, dtype=np.int32, count=total)
    return CSRGraph(nodes, index_of, indptr, indices)


def csr_of(graph: UndirectedGraph) -> CSRGraph:
    """The cached CSR mirror of ``graph``, rebuilt after any mutation."""
    stamp = graph.mutation_stamp
    cached = getattr(graph, _CSR_CACHE_ATTR, None)
    tel = _telemetry()
    if cached is not None and cached[0] == stamp:
        if tel.enabled:
            tel.count("csr.cache.hit")
        return cached[1]
    started = time.perf_counter() if tel.enabled else 0.0
    csr = build_csr(graph)
    setattr(graph, _CSR_CACHE_ATTR, (stamp, csr))
    if tel.enabled:
        tel.count("csr.cache.build")
        tel.record_span("csr.sync", time.perf_counter() - started)
    return csr


# ----------------------------------------------------------------------
# Core kernels
# ----------------------------------------------------------------------
def _gather_neighbors(csr: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """Concatenation of every frontier node's neighbour list (with duplicates)."""
    starts = csr.indptr[frontier]
    counts = csr.indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int32)
    exclusive = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=exclusive[1:])
    positions = np.repeat(starts - exclusive, counts) + np.arange(total, dtype=np.int64)
    return csr.indices[positions]


def bfs_distances(csr: CSRGraph, source_index: int) -> np.ndarray:
    """BFS distances (``-1`` for unreachable) from one node index."""
    distances = np.full(csr.n, -1, dtype=np.int64)
    distances[source_index] = 0
    frontier = np.array([source_index], dtype=np.int64)
    mask = np.zeros(csr.n, dtype=bool)
    depth = 0
    while frontier.size:
        candidates = _gather_neighbors(csr, frontier)
        if candidates.size == 0:
            break
        mask[:] = False
        mask[candidates] = True
        mask &= distances < 0
        frontier = np.flatnonzero(mask)
        depth += 1
        distances[frontier] = depth
    return distances


# ----------------------------------------------------------------------
# Batched multi-source BFS (adaptive multi-word frontier engine)
# ----------------------------------------------------------------------
#: Estimated BFS level count above which the auto-tuner widens waves past
#: one word.  Below it (low-diameter graphs) per-level *work* dominates and
#: the dense step's cost per word is flat, so narrow waves cost nothing and
#: keep the thin early/late levels below the sparse-step crossover; above it
#: (ring/path-like topologies) most levels are thin and the per-level fixed
#: cost dominates, which wide waves amortise across ``64 * words`` sources.
WIDE_WAVE_LEVELS = 48


def _estimated_levels(csr: CSRGraph) -> float:
    """Rough BFS level count: the random-graph diameter ``log n / log(d-1)``."""
    n = max(csr.n, 2)
    mean_degree = csr.indices.size / n
    if mean_degree <= 2.05:
        return float(n)  # path/ring-like: levels scale with n
    import math

    return math.log(n) / math.log(mean_degree - 1.0)


def wave_batch(csr: CSRGraph, total_sources: int) -> int:
    """Sources advanced per wave for a ``total_sources``-source campaign.

    The auto-tuner picks the wave width from the graph and the workload:

    * low-diameter graphs (estimated levels below :data:`WIDE_WAVE_LEVELS`)
      keep single-word waves -- the dense step costs the same per word at
      any width, and narrow frontiers let more levels take the cheap sparse
      step;
    * high-diameter graphs widen up to :data:`MAX_WAVE_WORDS` words so one
      wave carries up to ``64 * MAX_WAVE_WORDS`` sources and the per-level
      fixed cost is paid once for all of them, shrinking only when a
      ``(n, words)`` work array would blow :data:`WAVE_BUFFER_BUDGET`.

    A forced policy (``backend.use_bfs_batch`` / ``REPRO_BFS_BATCH``)
    bypasses the tuner entirely; the kernel rounds it up to whole 64-bit
    words.
    """
    from repro.graphs import backend

    policy = backend.bfs_batch_policy()
    if policy != "auto":
        return int(policy)
    if total_sources <= BFS_BATCH:
        return BFS_BATCH
    if _estimated_levels(csr) < WIDE_WAVE_LEVELS:
        return BFS_BATCH
    words = -(-total_sources // BFS_BATCH)
    # The budget must cover the largest per-word transient a level can
    # materialise: (n,) buffers on ELL-suitable graphs, but the segment
    # fallback and the pull step gather up to one word per *edge* when the
    # degree skew rules the padded table out.
    n = max(csr.n, 1)
    degrees = np.diff(csr.indptr)
    dmax = int(degrees.max()) if csr.n else 0
    transient_rows = n if _ell_suitable(csr.n, dmax, csr.indices.size) else max(
        n, csr.indices.size
    )
    budget_words = max(1, WAVE_BUFFER_BUDGET // (8 * transient_rows))
    return min(words, MAX_WAVE_WORDS, budget_words) * BFS_BATCH


def _ell_suitable(n: int, dmax: int, m: int) -> bool:
    """Whether padding to ``dmax`` neighbour slots stays within budget."""
    return 0 < dmax and n * dmax <= ELL_PAD_FACTOR * m + n


def _ell_of(csr: CSRGraph) -> Optional[np.ndarray]:
    """Cached transposed-ELL neighbour table, or ``None`` when unsuitable.

    Shape ``(dmax, n)`` int32: slot ``j`` of column ``v`` is ``v``'s j-th
    neighbour, padded with ``v`` itself past its degree.  Self-padding is
    semantically free inside the wave -- a node's own frontier bits are
    always a subset of its visited bits, so the ``& ~visited`` mask erases
    the self contribution.  Unsuitable when padding to the maximum degree
    would cost more than :data:`ELL_PAD_FACTOR` times the real edge count
    (skew-degreed graphs keep the segment-reduce dense step).
    """
    cached = csr._ell
    if cached is not False:
        return cached
    n = csr.n
    degrees = np.diff(csr.indptr)
    dmax = int(degrees.max()) if n else 0
    table: Optional[np.ndarray] = None
    if _ell_suitable(n, dmax, csr.indices.size):
        table = np.empty((dmax, n), dtype=np.int32)
        table[:] = np.arange(n, dtype=np.int32)[None, :]
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        slots = np.arange(csr.indices.size, dtype=np.int64) - np.repeat(
            csr.indptr[:-1], degrees
        )
        table[slots, rows] = csr.indices
    csr._ell = table
    return table


def _sparse_step(
    csr: CSRGraph, frontier: np.ndarray, active: np.ndarray, visited: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One top-down level touching only edges incident to the live frontier.

    Gathers the CSR slices of the ``active`` rows, scatter-ORs their packed
    words into the neighbour rows (sort + segment-reduce, no ufunc.at inner
    loop), masks already-visited bits and returns ``(rows, words)`` for the
    newly reached rows.  Bit-identical to the dense step by construction:
    rows outside the frontier hold all-zero words, so restricting the OR to
    frontier-incident edges drops only zero contributions.
    """
    indptr = csr.indptr
    starts = indptr[active]
    counts = indptr[active + 1] - starts
    total = int(counts.sum())
    word_count = frontier.shape[1]
    if total == 0:
        return _EMPTY_ROWS, np.empty((0, word_count), dtype=np.uint64)
    exclusive = np.zeros(active.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=exclusive[1:])
    positions = np.repeat(starts - exclusive, counts) + np.arange(total, dtype=np.int64)
    targets = csr.indices[positions]
    if word_count == 1 and total >= frontier.shape[0] // 8:
        # Medium-density frontier: a direct scatter-OR over a zeroed row
        # buffer beats sorting the edge list, and the full-row scan it needs
        # is already cheaper than the work just done.
        flat = frontier.reshape(-1)
        out = np.zeros(frontier.shape[0], dtype=np.uint64)
        np.bitwise_or.at(out, targets, np.repeat(flat[active], counts))
        out &= ~visited.reshape(-1)
        rows = np.flatnonzero(out)
        return rows, out[rows].reshape(-1, 1)
    # No stability needed: the segment OR is commutative and the row order
    # comes out sorted either way (introsort is ~2x faster than timsort here).
    order = np.argsort(targets)
    targets = targets[order]
    seg_starts = np.concatenate(([0], np.flatnonzero(np.diff(targets)) + 1))
    rows = targets[seg_starts].astype(np.int64, copy=False)
    if word_count == 1:
        # Single-word waves run on flat views: 2-D ops over one column pay a
        # real per-row toll in the hottest estimator configurations.
        flat = frontier.reshape(-1)
        contrib = np.repeat(flat[active], counts)[order]
        words = np.bitwise_or.reduceat(contrib, seg_starts)
        words &= ~visited.reshape(-1)[rows]
        fresh = words != 0
        return rows[fresh], words[fresh].reshape(-1, 1)
    contrib = np.repeat(frontier[active], counts, axis=0)
    words = np.bitwise_or.reduceat(contrib[order], seg_starts, axis=0)
    np.bitwise_and(words, ~visited[rows], out=words)
    fresh = words.any(axis=1)
    return rows[fresh], words[fresh]


def _pull_step(
    csr: CSRGraph, frontier: np.ndarray, unsat: np.ndarray, visited: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One bottom-up level: only unsaturated rows pull from their neighbours.

    A row whose visited word(s) already hold every source bit can never gain
    another, so near the end of a wave the engine walks just the unsaturated
    rows' CSR slices (a segment reduction, no sort) instead of all ``m``
    edges.  Bit-identical to the dense step restricted to rows that could
    change -- which is all of them that matter.
    """
    indptr = csr.indptr
    starts = indptr[unsat]
    counts = indptr[unsat + 1] - starts
    occupied = counts > 0
    rows = unsat[occupied]
    counts = counts[occupied]
    total = int(counts.sum())
    word_count = frontier.shape[1]
    if total == 0:
        return _EMPTY_ROWS, np.empty((0, word_count), dtype=np.uint64)
    exclusive = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=exclusive[1:])
    positions = np.repeat(starts[occupied] - exclusive, counts) + np.arange(
        total, dtype=np.int64
    )
    neighbors = csr.indices[positions]
    if word_count == 1:
        gathered = frontier.reshape(-1)[neighbors]
        words = np.bitwise_or.reduceat(gathered, exclusive)
        words &= ~visited.reshape(-1)[rows]
        fresh = words != 0
        return rows[fresh], words[fresh].reshape(-1, 1)
    gathered = frontier[neighbors]
    words = np.bitwise_or.reduceat(gathered, exclusive, axis=0)
    np.bitwise_and(words, ~visited[rows], out=words)
    fresh = words.any(axis=1)
    return rows[fresh], words[fresh]


_EMPTY_ROWS = np.empty(0, dtype=np.int64)


class _DenseScratch:
    """Per-wave reusable ``(n, words)`` buffers for the dense step."""

    __slots__ = ("out", "tmp", "inv", "nonzero", "starts")

    def __init__(self, n: int, words: int) -> None:
        self.out = np.empty((n, words), dtype=np.uint64)
        self.tmp = np.empty((n, words), dtype=np.uint64)
        self.inv = np.empty((n, words), dtype=np.uint64)
        self.nonzero: Optional[np.ndarray] = None
        self.starts: Optional[np.ndarray] = None


def _dense_step(
    csr: CSRGraph,
    frontier: np.ndarray,
    visited: np.ndarray,
    scratch: _DenseScratch,
) -> Tuple[np.ndarray, np.ndarray]:
    """One level over every edge: new word per node = OR of its neighbours'.

    Uses the transposed-ELL table when the snapshot has one -- ``dmax``
    row-gathers accumulated in place, which streams sequential writes and
    amortises each random row lookup over all frontier words -- and falls
    back to the ``bitwise_or.reduceat`` segment reduction on skew-degreed
    snapshots.  Returns the new frontier buffer (``scratch.out``, swapped by
    the caller) already masked by ``~visited``.
    """
    out = scratch.out
    table = _ell_of(csr)
    if table is not None:
        np.take(frontier, table[0], axis=0, out=out)
        tmp = scratch.tmp
        for slot in range(1, table.shape[0]):
            np.take(frontier, table[slot], axis=0, out=tmp)
            np.bitwise_or(out, tmp, out=out)
    else:
        if scratch.nonzero is None:
            degrees = np.diff(csr.indptr)
            scratch.nonzero = np.flatnonzero(degrees > 0)
            scratch.starts = csr.indptr[scratch.nonzero]
        gathered = frontier[csr.indices]
        neighbor_or = np.bitwise_or.reduceat(gathered, scratch.starts, axis=0)
        out[:] = 0
        out[scratch.nonzero] = neighbor_or
    np.invert(visited, out=scratch.inv)
    np.bitwise_and(out, scratch.inv, out=out)
    rows = np.flatnonzero(out.reshape(-1) if out.shape[1] == 1 else out.any(axis=1))
    return rows, out


def _batched_wave(csr: CSRGraph, sources: np.ndarray, counting: bool = False):
    """Advance many BFS sources at once, yielding ``(rows, words)`` per level.

    Source ``j`` of the batch occupies bit ``j % 64`` of frontier word
    ``j // 64`` of each node, so one wave carries ``64 * words`` sources --
    there is no 64-source cap; callers chunk by :func:`wave_batch`.  Every
    level advances *all* sources at once, dispatching between two
    bit-identical steps on live frontier occupancy (or as forced by
    :data:`WAVE_STEP_MODE`):

    * **dense** -- all-edges neighbour OR (transposed-ELL accumulation, or
      segment reduction on skew-degreed snapshots);
    * **sparse** -- touch only the edges incident to the frontier rows
      (CSR slice gather + sort/segment-reduce scatter-OR), restoring
      near-linear total work on high-diameter, thin-frontier topologies.

    The yield for level ``d >= 1`` is ``(rows, words)``: ``words[i]`` has
    bit ``j`` set iff source ``j`` first reached node ``rows[i]`` at
    distance ``d``.  With ``counting=True`` the second element is instead
    the per-row popcount vector (how many sources first reached each row at
    this level), which the aggregate estimators consume without a second
    popcount pass.  ``rows`` ascends; the yielded arrays are fresh copies
    safe to keep across levels.
    """
    batch = sources.size
    if batch == 0:
        return
    n = csr.n
    words = -(-batch // BFS_BATCH)
    tel = _telemetry()
    # Hoisted so the disabled path pays one attribute check per *level*, not
    # a collector call; everything below is observational only (no branch of
    # the wave may ever depend on a collected value).
    rec = tel.enabled
    if rec:
        tel.count("wave.count")
        tel.count("wave.sources", int(batch))
        tel.count(f"wave.words.{words}")
        tel.gauge("wave.popcount_backend", _POPCOUNT_BACKEND)
    bits = np.left_shift(
        np.uint64(1), np.arange(batch, dtype=np.uint64) & np.uint64(63)
    )
    word_col = np.arange(batch, dtype=np.int64) >> 6
    visited = np.zeros((n, words), dtype=np.uint64)
    np.bitwise_or.at(visited, (sources, word_col), bits)
    frontier = visited.copy()
    active = np.unique(sources)
    if csr.indices.size == 0:
        return
    indptr = csr.indptr
    m = csr.indices.size
    mean_degree = m / n
    scratch: Optional[_DenseScratch] = None
    flat = words == 1
    # Saturation bookkeeping: a full row can never gain a bit, so the wave
    # (a) stops outright once every (source, node) pair is visited -- no
    # final all-edges step just to discover an empty frontier -- and (b)
    # switches to the pull step over the unsaturated rows once few bits are
    # missing.  ``full_row`` is the all-sources-visited word pattern.
    full_row = np.full(words, np.uint64(2 ** 64 - 1), dtype=np.uint64)
    if batch % BFS_BATCH:
        full_row[-1] = np.uint64((1 << (batch % BFS_BATCH)) - 1)
    remaining = n * batch - int(_row_popcounts(visited[active]).sum())
    unsat: Optional[np.ndarray] = None
    sparse_limit = m // SPARSE_EDGE_DIVISOR
    try:
        while True:
            # Summing frontier degrees costs O(active); skip it when the
            # active count alone already rules the sparse step out (every
            # row contributes at least one edge or the step is a no-op).
            if active.size > sparse_limit:
                frontier_edges = m
            else:
                frontier_edges = int((indptr[active + 1] - indptr[active]).sum())
                if frontier_edges == 0:
                    return
            mode = WAVE_STEP_MODE
            if mode == "adaptive":
                if frontier_edges * SPARSE_EDGE_DIVISOR <= m:
                    mode = "sparse"
                elif remaining * mean_degree * PULL_EDGE_DIVISOR <= m:
                    mode = "pull"
                else:
                    mode = "dense"
            if mode == "dense":
                if scratch is None:
                    # Checked out for this generator's lifetime, so two
                    # interleaved waves on one snapshot never share buffers.
                    scratch = csr._scratch.pop(words, None)
                    if scratch is None:
                        scratch = _DenseScratch(n, words)
                        if rec:
                            tel.count("wave.scratch.miss")
                    elif rec:
                        tel.count("wave.scratch.hit")
                rows, new_frontier = _dense_step(csr, frontier, visited, scratch)
                if rows.size == 0:
                    return
                scratch.out = frontier  # recycle the old buffer next level
                frontier = new_frontier
                if flat:
                    step_words = frontier.reshape(-1)[rows]
                    if 2 * rows.size < n:
                        visited.reshape(-1)[rows] |= step_words
                    else:
                        visited |= frontier
                    step_words = step_words.reshape(-1, 1)
                elif 2 * rows.size < n:
                    step_words = frontier[rows]
                    visited[rows] |= step_words
                else:
                    visited |= frontier
                    step_words = frontier[rows]
            else:
                if mode == "pull":
                    if flat:
                        visited_1d = visited.reshape(-1)
                        if unsat is None:
                            unsat = np.flatnonzero(visited_1d != full_row[0])
                        else:
                            unsat = unsat[visited_1d[unsat] != full_row[0]]
                    elif unsat is None:
                        unsat = np.flatnonzero((visited != full_row).any(axis=1))
                    else:
                        unsat = unsat[(visited[unsat] != full_row).any(axis=1)]
                    rows, step_words = _pull_step(csr, frontier, unsat, visited)
                else:
                    rows, step_words = _sparse_step(csr, frontier, active, visited)
                if flat:
                    frontier_1d = frontier.reshape(-1)
                    frontier_1d[active] = 0
                    if rows.size == 0:
                        return
                    words_1d = step_words.reshape(-1)
                    frontier_1d[rows] = words_1d
                    visited.reshape(-1)[rows] |= words_1d
                else:
                    frontier[active] = 0
                    if rows.size == 0:
                        return
                    frontier[rows] = step_words
                    visited[rows] |= step_words
            active = rows
            popcounts = _row_popcounts(step_words)
            if rec:
                tel.count("wave.levels")
                tel.count("wave.dispatch." + mode)
                # Frontier density falls out of the pair: newly-reached rows
                # summed per level over the row slots a dense level scans.
                tel.count("wave.frontier_rows", int(rows.size))
                tel.count("wave.node_levels", n)
            yield rows, (popcounts if counting else step_words)
            remaining -= int(popcounts.sum())
            if remaining == 0:
                return
    finally:
        if scratch is not None:
            csr._scratch[words] = scratch


def _le_bytes(words: np.ndarray) -> np.ndarray:
    """Packed words as a little-endian ``(rows, 8 * word_count)`` byte view.

    Byte ``b`` of a row covers source bits ``8b .. 8b+7``; big-endian hosts
    byteswap first (a copy, but those hosts are rare and correctness beats
    zero-copy there).
    """
    if sys.byteorder == "big":  # pragma: no cover - exercised on s390x etc.
        words = words.byteswap()
    words = np.ascontiguousarray(words)
    return words.view(np.uint8).reshape(words.shape[0], 8 * words.shape[1])


def _frontier_bits(words: np.ndarray, batch: int) -> np.ndarray:
    """``(rows, batch)`` 0/1 matrix of a packed level's per-source bits."""
    return np.unpackbits(_le_bytes(words), axis=1, bitorder="little")[:, :batch]


#: ``(256, 8)`` lookup: row ``b`` holds the bits of byte value ``b``; used to
#: turn per-byte histograms into per-source popcounts without unpacking.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)


def _frontier_bit_counts(words: np.ndarray, batch: int) -> np.ndarray:
    """Per-source popcount of a packed level: ``(batch,)`` int64 counts.

    One byte-value histogram per (transposed, contiguous) byte column folded
    through the :data:`_BYTE_BITS` table -- ~4x cheaper than unpacking every
    row to bits when many rows are live.
    """
    byte_columns = np.ascontiguousarray(_le_bytes(words).T)
    counts = np.empty(BFS_BATCH * words.shape[1], dtype=np.int64)
    for column in range(byte_columns.shape[0]):
        histogram = np.bincount(byte_columns[column], minlength=256)
        counts[8 * column:8 * (column + 1)] = histogram @ _BYTE_BITS
    return counts[:batch]


#: Per-byte popcount table backing the LUT row-popcount path (the only path
#: on numpy < 2.0, and force-selectable for testing on numpy >= 2.0).
_BYTE_POPCOUNT = _BYTE_BITS.sum(axis=1)

#: Set to ``1`` (or ``true``/``yes``/``on``) to force the byte-LUT popcount
#: path even when ``np.bitwise_count`` exists -- the CI job that keeps the
#: numpy < 2.0 fallback honest runs the wave-engine matrix under this flag.
#: The canonical definition (and numpy-free parser) live in
#: :mod:`repro.graphs.backend` so the runner's cache keys can cover it.
POPCOUNT_LUT_ENV_VAR = "REPRO_FORCE_POPCOUNT_LUT"


def _row_popcounts_lut(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a packed level via the byte lookup table."""
    return _BYTE_POPCOUNT[_le_bytes(words)].sum(axis=1)


if hasattr(np, "bitwise_count"):

    def _row_popcounts_native(words: np.ndarray) -> np.ndarray:
        """Per-row popcount of a packed level via ``np.bitwise_count``."""
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)

else:  # pragma: no cover - numpy < 2.0
    _row_popcounts_native = None


def configure_popcount() -> str:
    """(Re)select the row-popcount kernel; returns ``"native"`` or ``"lut"``.

    Reads :data:`POPCOUNT_LUT_ENV_VAR` and rebinds the module-level
    ``_row_popcounts`` used by every wave.  Called once at import; tests and
    long-lived processes that flip the variable call it again.  An
    unrecognised value raises :class:`~repro.core.errors.ConfigError` rather
    than silently picking a path.
    """
    global _row_popcounts, _POPCOUNT_BACKEND
    from repro.graphs import backend

    if backend.popcount_lut_forced() or _row_popcounts_native is None:
        _row_popcounts = _row_popcounts_lut
        _POPCOUNT_BACKEND = "lut"
    else:
        _row_popcounts = _row_popcounts_native
        _POPCOUNT_BACKEND = "native"
    return _POPCOUNT_BACKEND


#: The active per-row popcount kernel (rebindable via
#: :func:`configure_popcount`); both choices return identical int64 counts.
#: ``_POPCOUNT_BACKEND`` names the selection for the telemetry layer.
_row_popcounts = _row_popcounts_lut
_POPCOUNT_BACKEND = "lut"
configure_popcount()


def _batched_level_counts(csr: CSRGraph, sources: np.ndarray) -> List[np.ndarray]:
    """Per-level newly-visited counts for one wave of BFS sources.

    Returns one ``(B,)`` int64 array per BFS level ``d >= 1``: entry ``j`` is
    the number of nodes source ``j`` first reached at distance ``d``.
    Everything the sampled estimators need (eccentricity, distance sums,
    reachable counts) derives from these counts, so distances are never
    materialised.
    """
    batch = sources.size
    return [
        _frontier_bit_counts(words, batch)
        for _rows, words in _batched_wave(csr, sources)
    ]


def _batched_source_indices(csr: CSRGraph, nodes: Sequence[NodeId]) -> np.ndarray:
    index_of = csr.index_of
    return np.fromiter(
        (index_of[node] for node in nodes), dtype=np.int64, count=len(nodes)
    )


def bfs_distances_batch(csr: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """BFS distances (``-1`` unreachable) from many sources: a ``(B, n)`` matrix.

    Runs the same multi-word wave as :func:`_batched_level_counts` in chunks
    of :func:`wave_batch` sources, materialising per-level distance rows.
    Use the count-based estimators when only aggregates are needed; this is
    the kernel behind :func:`shortest_path_lengths_from_many`.
    """
    sources = np.asarray(sources, dtype=np.int64)
    total = sources.size
    n = csr.n
    distances = np.full((total, n), -1, dtype=np.int32)
    chunk_size = wave_batch(csr, total) if total else BFS_BATCH
    for offset in range(0, total, chunk_size):
        chunk = sources[offset:offset + chunk_size]
        batch = chunk.size
        rows_matrix = distances[offset:offset + batch]
        rows_matrix[np.arange(batch), chunk] = 0
        for depth, (rows, words) in enumerate(_batched_wave(csr, chunk), start=1):
            row_pos, source_bit = np.nonzero(_frontier_bits(words, batch))
            rows_matrix[source_bit, rows[row_pos]] = depth
    return distances


def shortest_path_lengths_from_many(
    graph: UndirectedGraph, sources: Sequence[NodeId]
) -> List[Dict[NodeId, int]]:
    """Batched :func:`shortest_path_lengths_from`: one distance dict per source."""
    csr = csr_of(graph)
    for source in sources:
        if source not in csr.index_of:
            raise GraphError(f"source {source!r} not in graph")
    if not sources:
        return []
    distances = bfs_distances_batch(csr, _batched_source_indices(csr, sources))
    nodes = csr.nodes
    result = []
    for row in distances:
        reached = np.flatnonzero(row >= 0)
        result.append({nodes[int(i)]: int(row[i]) for i in reached})
    return result


def _chunked_level_counts(
    csr: CSRGraph, nodes: Sequence[NodeId]
) -> Iterable[Tuple[int, List[np.ndarray]]]:
    """Yield ``(chunk_size, per-level counts)`` for sources in wave chunks."""
    indices = _batched_source_indices(csr, nodes)
    chunk_size = wave_batch(csr, indices.size) if indices.size else BFS_BATCH
    for offset in range(0, indices.size, chunk_size):
        chunk = indices[offset:offset + chunk_size]
        yield chunk.size, _batched_level_counts(csr, chunk)


def _component_labels(
    n: int, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Component label (minimum member index) for every node.

    Min-label propagation over the CSR neighbour segments
    (``np.minimum.reduceat``) alternated with pointer jumping; converges in
    O(log n) outer rounds even on path/ring graphs.
    """
    labels = np.arange(n, dtype=np.int64)
    if n == 0 or indices.size == 0:
        return labels
    degrees = np.diff(indptr)
    nonzero = np.flatnonzero(degrees > 0)
    starts = indptr[nonzero]
    while True:
        neighbor_min = np.minimum.reduceat(labels[indices], starts)
        proposal = labels.copy()
        proposal[nonzero] = np.minimum(labels[nonzero], neighbor_min)
        while True:
            hopped = proposal[proposal]
            if np.array_equal(hopped, proposal):
                break
            proposal = hopped
        if np.array_equal(proposal, labels):
            return labels
        labels = proposal


def component_labels(graph: UndirectedGraph) -> np.ndarray:
    """Component label per node, aligned with ``graph.nodes()`` order.

    Labels are minimum member *indices* into the mirror's index space: equal
    label means same component; the values themselves are not node ids.
    """
    csr = csr_of(graph)
    return _component_labels(csr.n, csr.indptr, csr.indices)


# ----------------------------------------------------------------------
# metrics.py twins
# ----------------------------------------------------------------------
def shortest_path_lengths_from(graph: UndirectedGraph, source: NodeId) -> Dict[NodeId, int]:
    """BFS distances from ``source`` to every reachable node (including itself)."""
    csr = csr_of(graph)
    if source not in csr.index_of:
        raise GraphError(f"source {source!r} not in graph")
    distances = bfs_distances(csr, csr.index_of[source])
    reached = np.flatnonzero(distances >= 0)
    nodes = csr.nodes
    return {nodes[int(i)]: int(distances[i]) for i in reached}


def closeness_centrality(graph: UndirectedGraph, node: NodeId) -> float:
    """Normalised closeness centrality of ``node`` (reference-identical)."""
    n = graph.number_of_nodes()
    if n <= 1:
        return 0.0
    csr = csr_of(graph)
    if node not in csr.index_of:
        raise GraphError(f"source {node!r} not in graph")
    distances = bfs_distances(csr, csr.index_of[node])
    reached = distances >= 0
    reachable = int(reached.sum()) - 1
    if reachable == 0:
        return 0.0
    total = int(distances[reached].sum())
    closeness = reachable / total
    return closeness * (reachable / (n - 1))


def average_closeness_centrality(
    graph: UndirectedGraph,
    *,
    sample_size: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> float:
    """Mean closeness centrality over all nodes (or a deterministic sample).

    All sources run as bit-packed multi-word BFS waves; the per-source
    closeness values are reassembled from per-level visit counts with exactly
    the reference's integer-then-float arithmetic (and summed in the same
    source order), so the result stays bit-identical.

    The full-population case (``sample_size=None`` or covering every node)
    additionally exploits distance symmetry: when *every* node is a source,
    ``sum_u d(u, v)`` over all sources equals node ``v``'s own distance sum,
    so the per-source column counts collapse to per-node row popcounts
    accumulated as the waves advance -- same integers, same node order, same
    float arithmetic, at a fraction of the counting cost.  This is what makes
    *exact* 100k-node closeness practical rather than merely sampled.
    """
    nodes = _select_nodes(graph, sample_size, rng)
    if not nodes:
        return 0.0
    n = graph.number_of_nodes()
    if n <= 1:
        return 0.0
    csr = csr_of(graph)
    if len(nodes) == n:
        return _full_population_closeness(csr, n)
    values: List[float] = []
    for batch, level_counts in _chunked_level_counts(csr, nodes):
        reachable = np.zeros(batch, dtype=np.int64)
        totals = np.zeros(batch, dtype=np.int64)
        for depth, counts in enumerate(level_counts, start=1):
            reachable += counts
            totals += depth * counts
        # Per-source floats in source order, with the reference's exact
        # integer-then-float arithmetic (the int64 accumulators are exact, so
        # vectorising the accumulation cannot perturb a bit).
        for j in range(batch):
            reached = int(reachable[j])
            if reached == 0:
                values.append(0.0)
            else:
                closeness = reached / int(totals[j])
                values.append(closeness * (reached / (n - 1)))
    return sum(values) / len(values)


def _full_population_closeness(csr: CSRGraph, n: int) -> float:
    """Exact mean closeness with every node as a BFS source.

    Instead of extracting per-*source* column counts each level, the
    full-population campaign of :func:`accumulate_path_shard` folds per-*node*
    row popcounts into distance sums: by symmetry of shortest-path distance,
    the ``totals`` a node collects across every wave is exactly its own
    distance sum once all sources have run.  The final per-node float
    expressions and their summation order mirror the reference
    implementation bit for bit.
    """
    # ``reached`` falls straight out of symmetry too: the sources reaching a
    # node are exactly the other members of its component, so one component
    # labelling replaces a per-level scatter.
    reached = _reached_counts(csr)
    _ecc, totals = accumulate_path_shard(csr, np.arange(csr.n, dtype=np.int64))
    # Vectorised but bit-identical assembly: every operand is an int64 far
    # below 2**53, so float64 conversion is exact and each division/multiply
    # rounds exactly like the reference's Python-float expression.  Only the
    # final accumulation must stay sequential (numpy would sum pairwise), so
    # it runs over a plain list exactly like the reference's ``sum(values)``.
    reached = reached.astype(np.float64)
    totals = totals.astype(np.float64)
    values = np.zeros(csr.n, dtype=np.float64)
    covered = reached > 0
    closeness = reached[covered] / totals[covered]
    values[covered] = closeness * (reached[covered] / (n - 1))
    return sum(values.tolist()) / values.size


# ----------------------------------------------------------------------
# Exact full-population path metrics (eccentricity / diameter / ASPL)
# ----------------------------------------------------------------------
def _reached_counts(csr: CSRGraph) -> np.ndarray:
    """Per-index count of *other* nodes in the same component.

    By distance symmetry this is exactly how many full-population sources
    reach each node, so one component labelling replaces a per-level
    scatter.
    """
    labels = _component_labels(csr.n, csr.indptr, csr.indices)
    sizes = np.bincount(labels, minlength=csr.n)
    return sizes[labels] - 1


def accumulate_path_shard(
    csr: CSRGraph, sources: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-node path accumulators from one shard of BFS sources.

    Runs the multi-word waves for ``sources`` (index array) in
    :func:`wave_batch`-sized chunks and scatters each level's per-node row
    popcounts into two ``(csr.n,)`` int64 accumulators:

    * ``ecc[v]``    -- ``max_u d(u, v)`` over the shard's sources ``u`` (the
      transposed per-node *max* over wave levels);
    * ``totals[v]`` -- ``sum_u d(u, v)`` (the level-weighted popcount sum).

    When the shards of a campaign together cover every node, distance
    symmetry makes the merged ``ecc`` the exact per-node eccentricity and
    ``totals`` the exact per-node distance sum.  Both accumulators are exact
    integers, so merging shard results (elementwise ``max`` for ``ecc``,
    ``+`` for ``totals``) is bit-identical no matter how the source set was
    split -- which is what lets the runner fan a 100k-source campaign across
    process-pool workers for free.

    The waves run on the compiled kernel (:mod:`repro.graphs._wavekernel`)
    when it builds and loads, else on the numpy engine; both produce the
    same integers, and the ``wave.kernel`` telemetry gauge names the one
    that ran.
    """
    sources = np.asarray(sources, dtype=np.int64)
    ecc = np.zeros(csr.n, dtype=np.int64)
    totals = np.zeros(csr.n, dtype=np.int64)
    if sources.size == 0:
        return ecc, totals
    # Imported here so that importing this module stays free of the
    # loader's subprocess/ctypes machinery (process set-up time).
    from repro.graphs import _wavekernel

    kernel = _wavekernel.load()
    tel = _telemetry()
    if tel.enabled:
        tel.gauge("wave.kernel", "numpy" if kernel is None else "compiled")
    if kernel is None:
        chunk_size = wave_batch(csr, sources.size)
        for offset in range(0, sources.size, chunk_size):
            chunk = sources[offset:offset + chunk_size]
            waves = _batched_wave(csr, chunk, counting=True)
            for depth, (rows, popcounts) in enumerate(waves, start=1):
                totals[rows] += depth * popcounts
                # ``rows`` is duplicate-free per level, so a fancy-indexed max
                # is safe; depths vary across chunks, hence max, not assign.
                ecc[rows] = np.maximum(ecc[rows], depth)
    else:
        _compiled_waves(kernel, csr, sources, ecc, totals)
    return ecc, totals


#: Frontier words per node of a compiled wave under the ``auto`` width
#: policy (``64 * COMPILED_WAVE_WORDS`` sources per wave).  Chosen by the
#: A/B in the README's "Compiled kernel" section: wider waves amortise each
#: neighbour gather over more sources but keep more levels on the dense
#: step.  Two words was fastest on the 8-regular graphs of the resilience
#: campaigns and stays within 2x of one word on rings.
COMPILED_WAVE_WORDS = 2

#: :data:`WAVE_STEP_MODE` as the compiled kernel's level-kind selector; it has
#: no separate pull step, because its dense step already skips saturated rows.
_KERNEL_MODES = {"adaptive": 0, "dense": 1, "pull": 1, "sparse": 2}


def _compiled_wave_batch(csr: CSRGraph, total_sources: int) -> int:
    """Sources per compiled wave: forced policy, else the constant width."""
    from repro.graphs import backend

    policy = backend.bfs_batch_policy()
    if policy != "auto":
        return int(policy)
    budget_words = max(1, WAVE_BUFFER_BUDGET // (8 * max(csr.n, 1)))
    return min(total_sources, BFS_BATCH * min(COMPILED_WAVE_WORDS, budget_words))


def _compiled_waves(
    kernel, csr: CSRGraph, sources: np.ndarray, ecc: np.ndarray, totals: np.ndarray
) -> None:
    """Fold every wave of ``sources`` into ``ecc``/``totals`` via the C kernel.

    One kernel call per wave chunk, so interrupts and deadlines are served
    between waves.  Every buffer is allocated here once and reused by all
    chunks; each wave's tallies (levels, levels per step kind, newly
    reached rows) feed the same ``wave.*`` counters the numpy engine emits.
    """
    n = csr.n
    if int(sources.min()) < 0 or int(sources.max()) >= n:
        raise IndexError(f"source index out of range for {n} nodes")
    indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(csr.indices, dtype=np.int32)
    # The kernel trusts these shapes for every pointer it walks.
    if indptr.size != n + 1 or int(indptr[-1]) != indices.size:
        raise ValueError("CSR arrays do not match the node count")
    chunk_size = _compiled_wave_batch(csr, sources.size)
    words = -(-min(chunk_size, sources.size) // BFS_BATCH)
    visited, frontier, scratch = np.empty((3, n * words), dtype=np.uint64)
    active, fresh = np.empty((2, n), dtype=np.int64)
    touched = np.empty(n, dtype=np.uint8)
    tallies = np.empty(4, dtype=np.int64)
    mode = _KERNEL_MODES[WAVE_STEP_MODE]
    pointers = [
        array.ctypes.data
        for array in (visited, frontier, scratch, active, fresh, touched, ecc, totals, tallies)
    ]
    tel = _telemetry()
    for offset in range(0, sources.size, chunk_size):
        chunk = np.ascontiguousarray(sources[offset:offset + chunk_size])
        kernel(
            n, indptr.ctypes.data, indices.ctypes.data, chunk.ctypes.data,
            chunk.size, mode, *pointers,
        )
        if tel.enabled:
            tel.gauge("wave.popcount_backend", _POPCOUNT_BACKEND)
            levels, dense, sparse, rows = tallies.tolist()
            for name, value in (
                ("wave.count", 1),
                ("wave.sources", chunk.size),
                (f"wave.words.{-(-chunk.size // BFS_BATCH)}", 1),
                ("wave.levels", levels),
                ("wave.dispatch.dense", dense),
                ("wave.dispatch.sparse", sparse),
                ("wave.frontier_rows", rows),
                ("wave.node_levels", n * levels),
            ):
                if value:
                    tel.count(name, int(value))


def serialize_accumulators(ecc: np.ndarray, totals: np.ndarray) -> Dict[str, str]:
    """Encode one shard's ``(ecc, totals)`` accumulators for the journal.

    zlib-compressed little-endian int64 bytes, base64-armored for JSON --
    the exact integer payload of :func:`accumulate_path_shard`, so a
    deserialized state merges bit-identically with freshly computed shards.
    """
    import base64
    import zlib

    def _pack(array: np.ndarray) -> str:
        data = np.ascontiguousarray(array, dtype="<i8").tobytes()
        return base64.b64encode(zlib.compress(data, 6)).decode("ascii")

    return {"ecc": _pack(ecc), "totals": _pack(totals)}


def deserialize_accumulators(
    state: Dict[str, str], n: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Decode a journaled accumulator state; ``None`` when it cannot be trusted.

    Validates shape (both arrays must decode to exactly ``n`` int64
    entries) and survives any decode failure -- a corrupt or mis-sized
    state means the shard recomputes, never crashes the resume.
    """
    import base64
    import binascii
    import zlib

    def _unpack(encoded: str) -> Optional[np.ndarray]:
        try:
            data = zlib.decompress(base64.b64decode(encoded, validate=True))
        except (binascii.Error, ValueError, zlib.error, TypeError):
            return None
        if len(data) != 8 * n:
            return None
        return np.frombuffer(data, dtype="<i8").astype(np.int64)

    try:
        ecc = _unpack(state["ecc"])
        totals = _unpack(state["totals"])
    except (KeyError, TypeError):
        return None
    if ecc is None or totals is None:
        return None
    return ecc, totals


def accumulator_state_key(csr: CSRGraph, sources: np.ndarray) -> str:
    """Content hash anchoring journaled accumulators to one exact checkpoint.

    Digests the CSR snapshot (``n``, ``indptr``, ``indices``) and the full
    source set, so a resumed campaign replays a saved shard only when the
    graph it would recompute against is byte-for-byte the graph it was
    computed on.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(int(csr.n).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(csr.indptr, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(csr.indices, dtype="<i4").tobytes())
    digest.update(np.ascontiguousarray(sources, dtype="<i8").tobytes())
    return digest.hexdigest()[:32]


def full_path_metrics(graph: UndirectedGraph, *, shard_runner=None) -> Dict:
    """Exact diameter, ASPL and closeness of the largest component, one campaign.

    Returns ``{components, largest_fraction, diameter, avg_path_length,
    avg_closeness}`` with every path metric *exact* (every node of the
    largest component a BFS source) -- the full-population counterpart of
    :meth:`repro.core.ddsr.DDSROverlay.path_metric_summary`'s sampled
    estimators, bit-identical to the pure-Python reference
    (:func:`repro.graphs.metrics.full_path_metrics`).

    One wave campaign feeds all three metrics through the per-node
    accumulators of :func:`accumulate_path_shard`: the diameter is the max
    of the per-node eccentricities, the ASPL divides the exact int64
    distance-sum total by the pair count, and closeness reuses the same
    distance sums with the reference's integer-then-float arithmetic and
    sequential summation order.

    ``shard_runner`` (used by
    :func:`repro.runner.executor.sharded_full_path_metrics`) replaces the
    serial accumulation: it receives ``(working, csr, sources)`` -- the
    working graph backing ``csr``, so a persistent pool can key its
    shared-memory publications -- and must return the merged ``(ecc,
    totals)`` accumulators.  Because the accumulators are exact integers,
    any split of the source set merges to the serial result bit for bit.
    """
    n = graph.number_of_nodes()
    summary = {
        "components": 0,
        "largest_fraction": 0.0,
        "diameter": 0.0,
        "avg_path_length": 0.0,
        "avg_closeness": 0.0,
    }
    if n == 0:
        return summary
    working, component_count = _working_component(graph)
    csr = csr_of(working)
    sources = np.arange(csr.n, dtype=np.int64)
    n_working = csr.n
    if shard_runner is None:
        ecc, totals = accumulate_path_shard(csr, sources)
    else:
        ecc, totals = shard_runner(working, csr, sources)
    summary["components"] = component_count
    summary["largest_fraction"] = n_working / n
    summary["diameter"] = float(int(ecc.max())) if n_working else 0.0
    total = int(totals.sum())
    pairs = n_working * (n_working - 1)
    summary["avg_path_length"] = total / pairs if pairs else 0.0
    if n_working > 1:
        # The working graph is connected, so every node reaches the same
        # ``n_working - 1`` peers; the per-node float expressions and the
        # sequential summation mirror the reference bit for bit (exact int64
        # operands below 2**53, identical IEEE divisions and products).
        reached = n_working - 1
        closeness = reached / totals.astype(np.float64)
        values = closeness * (reached / (n_working - 1))
        summary["avg_closeness"] = sum(values.tolist()) / n_working
    return summary


def path_length_accumulators(graph: UndirectedGraph) -> Dict[NodeId, Tuple[int, int, int]]:
    """``{node: (eccentricity, distance_sum, reachable_count)}`` -- all exact.

    The per-node accumulators behind :func:`full_path_metrics`, exposed for
    callers that want per-node ASPL (``distance_sum / reachable_count``) or
    the eccentricity distribution.  Identical to running the reference BFS
    from every node (:func:`repro.graphs.metrics.path_length_accumulators`);
    distances never leave the component, so no largest-component extraction
    happens here.
    """
    csr = csr_of(graph)
    ecc, totals = accumulate_path_shard(csr, np.arange(csr.n, dtype=np.int64))
    reached = _reached_counts(csr)
    return {
        node: (int(ecc[i]), int(totals[i]), int(reached[i]))
        for i, node in enumerate(csr.nodes)
    }


def degree_centrality(graph: UndirectedGraph, node: NodeId) -> float:
    """Degree of ``node`` normalised by ``n - 1``."""
    n = graph.number_of_nodes()
    if n <= 1:
        return 0.0
    return graph.degree(node) / (n - 1)


def average_degree_centrality(graph: UndirectedGraph) -> float:
    """Mean degree centrality over every node."""
    n = graph.number_of_nodes()
    if n <= 1:
        return 0.0
    csr = csr_of(graph)
    total_degree = int(csr.indptr[-1])
    return (total_degree / n) / (n - 1)


def _grouped_components(labels: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Unique labels (ascending == discovery order) and their member indices."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    groups = np.split(order, boundaries)
    unique = sorted_labels[np.concatenate(([0], boundaries))] if labels.size else sorted_labels
    return unique, groups


def connected_components(graph: UndirectedGraph) -> List[Set[NodeId]]:
    """All connected components as sets of nodes, reference-identical order.

    The reference implementation discovers components by scanning
    ``graph.nodes()`` and stable-sorts by size (descending).  A component's
    label is its minimum node *index*, so ascending label order *is* discovery
    order; the same stable size sort then reproduces the exact list order.
    """
    if graph.number_of_nodes() == 0:
        return []
    csr = csr_of(graph)
    labels = _component_labels(csr.n, csr.indptr, csr.indices)
    nodes = csr.nodes
    _, groups = _grouped_components(labels)
    members = [[int(i) for i in group] for group in groups]
    sizes = np.fromiter((len(group) for group in members), dtype=np.int64, count=len(members))
    order = np.argsort(-sizes, kind="stable")
    return [{nodes[i] for i in members[int(g)]} for g in order]


def number_connected_components(graph: UndirectedGraph) -> int:
    """Count of connected components (0 for an empty graph)."""
    if graph.number_of_nodes() == 0:
        return 0
    return len(np.unique(component_labels(graph)))


def component_summary(graph: UndirectedGraph) -> Tuple[int, int]:
    """``(component_count, largest_component_size)`` in one kernel run."""
    if graph.number_of_nodes() == 0:
        return 0, 0
    _, counts = np.unique(component_labels(graph), return_counts=True)
    return len(counts), int(counts.max())


def largest_component_fraction(graph: UndirectedGraph) -> float:
    """Fraction of surviving nodes inside the largest connected component."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    _, largest = component_summary(graph)
    return largest / n


def eccentricity(graph: UndirectedGraph, node: NodeId) -> int:
    """Largest BFS distance from ``node`` within its component."""
    csr = csr_of(graph)
    if node not in csr.index_of:
        raise GraphError(f"source {node!r} not in graph")
    distances = bfs_distances(csr, csr.index_of[node])
    return int(distances.max()) if distances.size else 0


def largest_component_subgraph(graph: UndirectedGraph) -> UndirectedGraph:
    """``graph`` when connected, else the induced largest-component subgraph."""
    if graph.number_of_nodes() == 0:
        return graph
    return _working_component(graph)[0]


def _working_component(graph: UndirectedGraph) -> Tuple[UndirectedGraph, int]:
    """``(graph-or-largest-component-subgraph, component_count)``.

    Mirrors the reference implementations exactly: the subgraph is built with
    the same ``UndirectedGraph.subgraph(set)`` call on an equal component set
    (largest, ties broken by discovery order), so node insertion order -- and
    therefore sampled-source selection -- is identical.
    """
    csr = csr_of(graph)
    labels = _component_labels(csr.n, csr.indptr, csr.indices)
    unique, counts = np.unique(labels, return_counts=True)
    if len(unique) <= 1:
        return graph, len(unique)
    # ``unique`` ascends by label == discovery order; argmax keeps the first
    # (discovery-order) component among equal-size ties, like the reference's
    # stable size sort.
    winner = unique[int(np.argmax(counts))]
    in_winner = labels == winner
    nodes = csr.nodes
    members = {nodes[int(i)] for i in np.flatnonzero(in_winner)}
    return graph.subgraph(members), len(unique)


def diameter(
    graph: UndirectedGraph,
    *,
    sample_size: Optional[int] = None,
    rng: Optional[random.Random] = None,
    largest_component_only: bool = True,
    connected: Optional[bool] = None,
) -> float:
    """Diameter of the graph (see :func:`repro.graphs.metrics.diameter`)."""
    if graph.number_of_nodes() == 0:
        return 0.0
    if connected:
        working = graph
    else:
        working, component_count = _working_component(graph)
        if component_count > 1 and not largest_component_only:
            return float("inf")
    csr = csr_of(working)
    nodes = _select_nodes(working, sample_size, rng)
    best = 0
    # A source's eccentricity is the last level at which its packed frontier
    # still advanced, so the batched wave's level count *is* the chunk's max
    # -- no per-level count extraction needed at all.
    indices = _batched_source_indices(csr, nodes)
    chunk_size = wave_batch(csr, indices.size) if indices.size else BFS_BATCH
    for offset in range(0, indices.size, chunk_size):
        chunk = indices[offset:offset + chunk_size]
        best = max(best, sum(1 for _ in _batched_wave(csr, chunk)))
    return float(best)


def average_shortest_path_length(
    graph: UndirectedGraph,
    *,
    sample_size: Optional[int] = None,
    rng: Optional[random.Random] = None,
    connected: Optional[bool] = None,
) -> float:
    """Mean pairwise distance inside the largest component (sampled sources)."""
    if graph.number_of_nodes() <= 1:
        return 0.0
    working = graph if connected else _working_component(graph)[0]
    csr = csr_of(working)
    nodes = _select_nodes(working, sample_size, rng)
    total = 0
    pairs = 0
    # Only the per-level aggregate is needed, so row popcounts suffice -- no
    # per-source column counting at all (the integers are identical).
    indices = _batched_source_indices(csr, nodes)
    chunk_size = wave_batch(csr, indices.size) if indices.size else BFS_BATCH
    for offset in range(0, indices.size, chunk_size):
        chunk = indices[offset:offset + chunk_size]
        waves = _batched_wave(csr, chunk, counting=True)
        for depth, (_rows, popcounts) in enumerate(waves, start=1):
            newly = int(popcounts.sum())
            total += depth * newly
            pairs += newly
    if pairs == 0:
        return 0.0
    return total / pairs


def degree_histogram(graph: UndirectedGraph) -> Dict[int, int]:
    """Mapping of degree value -> number of nodes with that degree."""
    if graph.number_of_nodes() == 0:
        return {}
    csr = csr_of(graph)
    degrees = csr.degrees()
    values, counts = np.unique(degrees, return_counts=True)
    return {int(value): int(count) for value, count in zip(values, counts)}


def top_degree_nodes(graph: UndirectedGraph) -> List[NodeId]:
    """All maximum-degree nodes, sorted by ``repr`` (empty for an empty graph).

    One argmax over the CSR degree array instead of a Python dict scan.
    """
    if graph.number_of_nodes() == 0:
        return []
    csr = csr_of(graph)
    degrees = csr.degrees()
    top = int(degrees.max())
    winners = np.flatnonzero(degrees == top)
    nodes = csr.nodes
    return sorted((nodes[int(i)] for i in winners), key=repr)


def induced_component_summary(
    graph: UndirectedGraph, keep_nodes: Sequence[NodeId]
) -> Tuple[int, int, int, int]:
    """``(surviving, components, largest, isolated)`` of an induced subgraph.

    Builds a compact CSR of the subgraph induced on ``keep_nodes`` straight
    from the adjacency sets -- one pass over the kept nodes' neighbour lists
    -- and labels components on it.  Unlike
    :func:`partition_summary_after_removal` it never mirrors the *full*
    graph, which matters when the kept set is a small minority: a finished
    SOAP campaign leaves several clones per bot, so the benign subgraph is an
    order of magnitude smaller than the overlay.
    """
    adjacency = graph._adjacency
    # dict.fromkeys: drop duplicates while keeping first-occurrence order, so
    # a repeated id cannot leave an edge-less phantom row behind.
    keep = [node for node in dict.fromkeys(keep_nodes) if node in adjacency]
    n = len(keep)
    if n == 0:
        return 0, 0, 0, 0
    index = {node: i for i, node in enumerate(keep)}
    src: List[int] = []
    dst: List[int] = []
    for i, node in enumerate(keep):
        for peer in adjacency[node]:
            j = index.get(peer)
            if j is not None:
                src.append(i)
                dst.append(j)
    # ``src`` is already nondecreasing (built in index order): no sort needed.
    indices = np.asarray(dst, dtype=np.int32)
    degrees = np.bincount(np.asarray(src, dtype=np.int64), minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    labels = _component_labels(n, indptr, indices)
    _, counts = np.unique(labels, return_counts=True)
    return n, len(counts), int(counts.max()), int((counts == 1).sum())


# ----------------------------------------------------------------------
# Masked kernels (Figure 6 simultaneous-deletion sweeps)
# ----------------------------------------------------------------------
def partition_summary_after_removal(
    graph: UndirectedGraph, victims: Sequence[NodeId]
) -> Tuple[int, int, int, int]:
    """``(surviving, components, largest, isolated)`` after removing ``victims``.

    Computes the survivors' component structure directly on a masked CSR --
    no per-victim-set Python subgraph construction -- which is what makes the
    100k-node partition-threshold sweep tractable.
    """
    csr = csr_of(graph)
    keep = np.ones(csr.n, dtype=bool)
    for victim in victims:
        index = csr.index_of.get(victim)
        if index is not None:
            keep[index] = False
    surviving = int(keep.sum())
    if surviving == 0:
        return 0, 0, 0, 0
    # Filter to surviving-endpoint edges and rebuild a compact CSR over the
    # original index space (removed nodes simply keep zero degree).
    src = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
    dst = csr.indices.astype(np.int64, copy=False)
    edge_keep = keep[src] & keep[dst]
    fsrc = src[edge_keep]
    fdst = dst[edge_keep]
    order = np.argsort(fsrc, kind="stable")
    findices = fdst[order]
    fdegrees = np.bincount(fsrc, minlength=csr.n)
    findptr = np.zeros(csr.n + 1, dtype=np.int64)
    np.cumsum(fdegrees, out=findptr[1:])
    labels = _component_labels(csr.n, findptr, findices)
    _, counts = np.unique(labels[keep], return_counts=True)
    components = len(counts)
    largest = int(counts.max())
    isolated = int((counts == 1).sum())
    return surviving, components, largest, isolated
