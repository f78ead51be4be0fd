"""Vectorized CSR graph kernels (the ``fast`` backend).

The pure-Python BFS metrics in :mod:`repro.graphs.metrics` are the readable
reference implementation, but they dominate the runtime of every resilience
sweep once networks grow past a few thousand nodes.  This module provides a
compressed-sparse-row (CSR) mirror of :class:`~repro.graphs.adjacency.
UndirectedGraph` -- two numpy arrays, ``indptr`` and ``indices`` -- plus
vectorized kernels over it:

* multi-source BFS waves: each node carries ``W`` bit-packed ``uint64``
  frontier words, so one wave advances up to ``64 * W`` sources together
  (:func:`_run_waves`).  Every wave runs on one compiled C kernel
  (``wavekernel.c``, built on first use and loaded through ``ctypes`` by
  :mod:`repro.graphs._wavekernel`), which picks a dense or a sparse step per
  level; without a C compiler a plain dense numpy wave
  (:func:`_dense_wave`) returns the same integers.  Both engines share one
  wave width (:func:`_wave_width`) and fold each level per node,
* path metrics from those per-node folds: per wave level the per-node row
  popcounts fold into an eccentricity *max* and a level-weighted distance
  *sum* (:func:`accumulate_path_shard`), so one campaign yields the exact
  diameter, per-node/average shortest path length *and* closeness
  (:func:`full_path_metrics`, :func:`path_length_accumulators`); the int64
  accumulators merge exactly across any source split, which is what the
  runner's source-sharded parallel campaigns exploit.  Single-source
  distances, eccentricity and closeness are one-source waves,
* connected components via min-label propagation with pointer jumping
  (Shiloach--Vishkin style, O(m log n) total work),
* masked component summaries for the Figure 6 simultaneous-deletion sweeps
  (no Python-side subgraph construction per victim set).

Every public function takes the same arguments as its ``metrics`` twin and is
required -- and tested, in ``tests/graphs/test_backend_equivalence.py`` -- to
return **identical** results: exact for integer metrics, bit-identical for
float ones (the float expressions deliberately mirror the reference
implementation's evaluation order).

The module needs numpy >= 2.0: per-node row popcounts use
``np.bitwise_count``.  :func:`repro.graphs.backend.fast_available` checks
for it, so an older numpy leaves every dispatch on the reference path.

The CSR mirror is cached on the graph object, keyed on the graph's mutation
stamp; on a stamp mismatch :func:`csr_of` rebuilds it from scratch with
:func:`build_csr`.  Every snapshot is therefore compact: index ``i`` is the
``i``-th entry of ``graph.nodes()``, and no kernel needs a liveness mask.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.adjacency import GraphError, UndirectedGraph
from repro.obs.telemetry import current as _telemetry

NodeId = Hashable

_CSR_CACHE_ATTR = "_csr_cache"

#: Bits per frontier word: one ``uint64`` word carries 64 sources.  Waves may
#: span several words per node (see :func:`_wave_width`), so this is the wave
#: width *granularity*, not a cap.
BFS_BATCH = 64

#: Frontier words per node of a wave (``64 * WAVE_WORDS`` sources per
#: wave).  Chosen by the A/B in the README's "Compiled kernel" section:
#: wider waves amortise each neighbour gather over more sources but keep
#: more levels on the dense step.  Two words was fastest on the 8-regular
#: graphs of the resilience campaigns and stays within 2x of one word on
#: rings.
WAVE_WORDS = 2

#: Byte budget for one ``(n, words)`` uint64 wave buffer; :func:`_wave_width`
#: drops to fewer words on huge graphs so the handful of wave buffers stays
#: RAM-friendly.
WAVE_BUFFER_BUDGET = 64 << 20

#: The compiled kernel's per-level step selection: ``"adaptive"`` (frontier
#: occupancy picks, the default) or ``"dense"`` / ``"sparse"`` to force one
#: level kind.  A testing and benchmarking knob -- every mode returns
#: identical results.  The numpy fallback has only its dense step.
WAVE_STEP_MODE = "adaptive"

#: :data:`WAVE_STEP_MODE` as the kernel's ``mode`` argument.
_KERNEL_MODES = {"adaptive": 0, "dense": 1, "sparse": 2}


class CSRGraph:
    """Immutable CSR snapshot of an :class:`UndirectedGraph`.

    ``nodes`` preserves the graph's insertion order (``graph.nodes()``), so
    index ``i`` everywhere below refers to ``nodes[i]``.  Each undirected edge
    appears twice in ``indices`` (once per direction).
    """

    __slots__ = ("nodes", "index_of", "indptr", "indices")

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

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def degrees(self) -> np.ndarray:
        """Degree of every index, in index order."""
        return np.diff(self.indptr)


#: Edges relabelled per array lookup in :func:`build_csr`.
_RELABEL_BLOCK = 1 << 15


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
    index_of = dict(zip(nodes, range(n)))
    # Plain int labels in a bounded range (every generator's output, and what
    # a takedown leaves of it) are mapped to indices through an array lookup
    # below instead of a dict lookup per edge.
    int_labels = bool(nodes) and all(type(node) is int for node in nodes) and (
        0 <= min(nodes) and max(nodes) < 4 * n
    )
    if int_labels:
        flat = chain.from_iterable(adjacency[node] for node in nodes)
    else:
        flat = (index_of[neighbor] for node in nodes for neighbor in adjacency[node])
    indices = np.fromiter(flat, dtype=np.int32, count=total)
    if int_labels:
        lookup = np.empty(max(nodes) + 1, dtype=np.int32)
        lookup[np.fromiter(nodes, dtype=np.int32, count=n)] = np.arange(n, dtype=np.int32)
        # In place, a block at a time: no second edge-sized array is held.
        for start in range(0, total, _RELABEL_BLOCK):
            block = indices[start:start + _RELABEL_BLOCK]
            block[:] = lookup[block]
    return CSRGraph(nodes, index_of, indptr, indices)


def cached_csr(graph: UndirectedGraph) -> Optional[CSRGraph]:
    """The CSR mirror cached for ``graph``'s current state, or ``None``."""
    cached = getattr(graph, _CSR_CACHE_ATTR, None)
    if cached is not None and cached[0] == graph.mutation_stamp:
        return cached[1]
    return None


def csr_of(graph: UndirectedGraph) -> CSRGraph:
    """The cached CSR mirror of ``graph``, rebuilt after any mutation."""
    cached = cached_csr(graph)
    tel = _telemetry()
    if cached is not None:
        if tel.enabled:
            tel.count("csr.cache.hit")
        return cached
    started = time.perf_counter() if tel.enabled else 0.0
    stamp = graph.mutation_stamp
    csr = build_csr(graph)
    setattr(graph, _CSR_CACHE_ATTR, (stamp, csr))
    if tel.enabled:
        tel.count("csr.cache.build")
        tel.record_span("csr.sync", time.perf_counter() - started)
    return csr


# ----------------------------------------------------------------------
# Multi-source BFS waves (compiled kernel, plain dense numpy fallback)
# ----------------------------------------------------------------------
def _wave_width(csr: CSRGraph, total_sources: int) -> int:
    """Sources per wave: ``64 * WAVE_WORDS``, fewer if over the buffer budget."""
    budget_words = max(1, WAVE_BUFFER_BUDGET // (8 * max(csr.n, 1)))
    return min(total_sources, BFS_BATCH * min(WAVE_WORDS, budget_words))


def _run_waves(
    csr: CSRGraph, sources: np.ndarray, ecc: np.ndarray, totals: np.ndarray
) -> None:
    """Run the BFS waves of ``sources`` (a non-empty index array) in chunks.

    Every level folds into the per-node ``(n,)`` int64 accumulators ``ecc``
    (max depth) and ``totals`` (depth sum).

    The waves run on the compiled kernel (:mod:`repro.graphs._wavekernel`)
    when it builds and loads, else on :func:`_dense_wave`; both produce the
    same integers, and the ``wave.kernel`` telemetry gauge names the one
    that ran.
    """
    n = csr.n
    if int(sources.min()) < 0 or int(sources.max()) >= n:
        raise IndexError(f"source index out of range for {n} nodes")
    # Imported here so that importing this module stays free of the
    # loader's subprocess/ctypes machinery (process set-up time).
    from repro.graphs import _wavekernel

    kernel = _wavekernel.load()
    tel = _telemetry()
    if tel.enabled:
        tel.gauge("wave.kernel", "numpy" if kernel is None else "compiled")
    chunk_size = _wave_width(csr, sources.size)
    if kernel is not None:
        _compiled_waves(kernel, csr, sources, chunk_size, ecc, totals)
        return
    for offset in range(0, sources.size, chunk_size):
        chunk = sources[offset:offset + chunk_size]
        for depth, (rows, words) in enumerate(_dense_wave(csr, chunk), start=1):
            totals[rows] += depth * _row_popcounts(words)
            # ``rows`` is duplicate-free per level, so a fancy-indexed max is
            # safe; depths vary across chunks, hence max, not assign.
            ecc[rows] = np.maximum(ecc[rows], depth)


def _compiled_waves(
    kernel,
    csr: CSRGraph,
    sources: np.ndarray,
    chunk_size: int,
    ecc: np.ndarray,
    totals: np.ndarray,
) -> None:
    """:func:`_run_waves` on the C kernel, one kernel call per wave chunk.

    Interrupts and deadlines are served between waves.  Every buffer is
    allocated here once and reused by all chunks; each wave's tallies
    (levels, levels per step kind, newly reached rows) feed the same
    ``wave.*`` counters the numpy fallback emits.
    """
    n = csr.n
    indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(csr.indices, dtype=np.int32)
    # The kernel trusts these shapes for every pointer it walks.
    if indptr.size != n + 1 or int(indptr[-1]) != indices.size:
        raise ValueError("CSR arrays do not match the node count")
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
            # The kernel counts with the compiler's popcount builtin (the
            # POPCNT instruction where the CPU has it, else the portable
            # libgcc routine; same counts), not with np.bitwise_count.
            tel.gauge("wave.popcount_backend", "builtin")
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


def _dense_wave(csr: CSRGraph, sources: np.ndarray):
    """The numpy fallback wave: yields ``(rows, words)`` per BFS level.

    Source ``j`` occupies bit ``j % 64`` of frontier word ``j // 64`` of each
    node.  Every level takes one dense step over all edges -- each node ORs
    its neighbours' frontier words (a gather plus a ``bitwise_or.reduceat``
    segment reduction) and keeps the bits it has not visited -- until a level
    reaches nothing new.  The yield for level ``d >= 1`` is ``(rows,
    words)``: ``words[i]`` has bit ``j`` set iff source ``j`` first reached
    node ``rows[i]`` at distance ``d``; ``rows`` ascends.
    """
    batch = sources.size
    n = csr.n
    words = -(-batch // BFS_BATCH)
    tel = _telemetry()
    # Hoisted so the disabled path pays one attribute check per *level*; no
    # branch of the wave depends on a collected value.
    rec = tel.enabled
    if rec:
        tel.gauge("wave.popcount_backend", "native")
        tel.count("wave.count")
        tel.count("wave.sources", int(batch))
        tel.count(f"wave.words.{words}")
    if csr.indices.size == 0:
        return
    # Word-major ``(words, n)`` buffers: every gather and segment reduction
    # runs over contiguous rows of one word each.
    column = np.arange(batch, dtype=np.int64)
    bits = np.left_shift(np.uint64(1), (column & 63).astype(np.uint64))
    visited = np.zeros((words, n), dtype=np.uint64)
    np.bitwise_or.at(visited, (column >> 6, sources), bits)
    # ``reduceat`` needs non-empty segments: isolated rows are left out and
    # stay zero.
    nonzero = np.flatnonzero(np.diff(csr.indptr) > 0)
    starts = csr.indptr[nonzero]
    frontier = visited.copy()
    while True:
        gathered = np.take(frontier, csr.indices, axis=1)
        if nonzero.size == n:
            reached = np.bitwise_or.reduceat(gathered, starts, axis=1)
        else:
            reached = np.zeros((words, n), dtype=np.uint64)
            reached[:, nonzero] = np.bitwise_or.reduceat(gathered, starts, axis=1)
        reached &= ~visited
        rows = np.flatnonzero(reached.any(axis=0))
        if rows.size == 0:
            return
        visited |= reached
        frontier = reached
        if rec:
            tel.count("wave.levels")
            tel.count("wave.dispatch.dense")
            tel.count("wave.frontier_rows", int(rows.size))
            tel.count("wave.node_levels", n)
        yield rows, np.ascontiguousarray(reached[:, rows].T)


def _row_popcounts(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a packed level via ``np.bitwise_count``."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def configure_popcount() -> str:
    """The numpy wave's row-popcount kernel: always ``"native"``.

    ``np.bitwise_count`` is the only kernel (the fast backend requires
    numpy >= 2.0).  Kept solely because ``perfbench/run.py``'s machine
    fingerprint calls it; drop it once that call goes.
    """
    return "native"


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
def _distances_from(
    graph: UndirectedGraph, source: NodeId
) -> Tuple[List[NodeId], int, np.ndarray]:
    """``(nodes, index, distances)``: BFS distances from ``source``, by index.

    A one-source :func:`accumulate_path_shard`: with a single source,
    ``ecc[v]`` is ``d(source, v)``, so the reached set is ``distances > 0``
    plus ``index`` itself (unreached nodes read 0 too).
    """
    csr = csr_of(graph)
    index = csr.index_of.get(source)
    if index is None:
        raise GraphError(f"source {source!r} not in graph")
    distances, _totals = accumulate_path_shard(csr, np.array([index], dtype=np.int64))
    return csr.nodes, index, distances


def shortest_path_lengths_from(graph: UndirectedGraph, source: NodeId) -> Dict[NodeId, int]:
    """BFS distances from ``source`` to every reachable node (including itself)."""
    nodes, index, distances = _distances_from(graph, source)
    reached = distances > 0
    reached[index] = True
    return {
        nodes[i]: distance
        for i, distance in zip(np.flatnonzero(reached).tolist(), distances[reached].tolist())
    }


def closeness_centrality(graph: UndirectedGraph, node: NodeId) -> float:
    """Normalised closeness centrality of ``node`` (reference-identical)."""
    n = graph.number_of_nodes()
    if n <= 1:
        return 0.0
    _nodes, _index, distances = _distances_from(graph, node)
    reachable = int(np.count_nonzero(distances))
    if reachable == 0:
        return 0.0
    total = int(distances.sum())
    closeness = reachable / total
    return closeness * (reachable / (n - 1))


def average_closeness_centrality(graph: UndirectedGraph) -> float:
    """Mean closeness centrality over all nodes.

    Exploits distance symmetry: with *every* node a source, ``sum_u d(u,
    v)`` over all sources equals node ``v``'s own distance sum, so the
    per-node row popcounts the waves accumulate are every node's distance
    sum -- same integers, same node order, same float arithmetic as the
    reference.  This is what makes exact 100k-node closeness practical.
    """
    n = graph.number_of_nodes()
    if n <= 1:
        return 0.0
    return _full_population_closeness(csr_of(graph), n)


def _full_population_closeness(csr: CSRGraph, n: int) -> float:
    """Exact mean closeness with every node as a BFS source.

    The full-population campaign of :func:`accumulate_path_shard` folds
    per-node row popcounts into distance sums: by symmetry of shortest-path
    distance, the ``totals`` a node collects across every wave is exactly its
    own distance sum once all sources have run.  The final per-node float
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

    Runs the multi-word waves for ``sources`` (index array) through
    :func:`_run_waves` and folds each level's per-node row popcounts into
    two ``(csr.n,)`` int64 accumulators:

    * ``ecc[v]``    -- ``max_u d(u, v)`` over the shard's sources ``u`` (the
      transposed per-node *max* over wave levels);
    * ``totals[v]`` -- ``sum_u d(u, v)`` (the level-weighted popcount sum).

    By distance symmetry ``ecc.max()`` is the largest eccentricity among the
    sources and ``totals.sum()`` the sum of their distance sums.  When the
    shards of a campaign together cover every node, distance symmetry makes
    the merged ``ecc`` the exact per-node eccentricity and ``totals`` the
    exact per-node distance sum.  Both accumulators are exact integers, so merging
    shard results (elementwise ``max`` for ``ecc``, ``+`` for ``totals``) is
    bit-identical no matter how the source set was split -- which is what
    lets the runner fan a 100k-source campaign across process-pool workers
    for free.
    """
    sources = np.asarray(sources, dtype=np.int64)
    ecc = np.zeros(csr.n, dtype=np.int64)
    totals = np.zeros(csr.n, dtype=np.int64)
    if sources.size:
        _run_waves(csr, sources, ecc, totals)
    return ecc, totals


def serialize_accumulators(ecc: np.ndarray, totals: np.ndarray) -> Dict[str, str]:
    """Encode one shard's ``(ecc, totals)`` accumulators for the journal.

    zlib-compressed little-endian int64 bytes, base64-armored for JSON --
    the exact integer payload of :func:`accumulate_path_shard`, so a
    deserialized state merges bit-identically with freshly computed shards.
    Level 1, not zlib's default 6: at 18k-20k nodes it encodes a
    ``totals`` array in ~2 ms instead of ~12 ms for a ~5% larger payload,
    and :func:`deserialize_accumulators` reads either level.
    """
    import base64
    import zlib

    def _pack(array: np.ndarray) -> str:
        data = np.ascontiguousarray(array, dtype="<i8").tobytes()
        return base64.b64encode(zlib.compress(data, 1)).decode("ascii")

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
    largest component a BFS source), bit-identical to the pure-Python
    reference (:func:`repro.graphs.metrics.full_path_metrics`).

    One wave campaign feeds all three metrics through the per-node
    accumulators of :func:`accumulate_path_shard`: the diameter is the max
    of the per-node eccentricities, the ASPL divides the exact int64
    distance-sum total by the pair count, and closeness reuses the same
    distance sums with the reference's integer-then-float arithmetic and
    sequential summation order.

    ``shard_runner`` (used by
    :func:`repro.runner.executor.sharded_full_path_metrics`) replaces the
    serial accumulation: ``shard_runner(csr, sources)`` receives the CSR
    snapshot of the working component and its source set -- the snapshot is
    the checkpoint's whole identity -- and must return the merged ``(ecc,
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
        ecc, totals = shard_runner(csr, sources)
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
    return int(_distances_from(graph, node)[2].max())


def largest_component_subgraph(graph: UndirectedGraph) -> UndirectedGraph:
    """``graph`` when connected, else the induced largest-component subgraph."""
    if graph.number_of_nodes() == 0:
        return graph
    return _working_component(graph)[0]


def _working_component(graph: UndirectedGraph) -> Tuple[UndirectedGraph, int]:
    """``(graph-or-largest-component-subgraph, component_count)``.

    Mirrors the reference implementations exactly: the subgraph is built with
    the same ``UndirectedGraph.subgraph(set)`` call on an equal component set
    (largest, ties broken by discovery order), so node insertion order is
    identical.
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
    ecc, _totals = accumulate_path_shard(csr, np.arange(csr.n, dtype=np.int64))
    return float(int(ecc.max()))


def average_shortest_path_length(
    graph: UndirectedGraph,
    *,
    connected: Optional[bool] = None,
) -> float:
    """Mean pairwise distance inside the largest component."""
    if graph.number_of_nodes() <= 1:
        return 0.0
    working = graph if connected else _working_component(graph)[0]
    csr = csr_of(working)
    _ecc, totals = accumulate_path_shard(csr, np.arange(csr.n, dtype=np.int64))
    pairs = int(_reached_counts(csr).sum())
    if pairs == 0:
        return 0.0
    return int(totals.sum()) / pairs


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

