"""The compiled wave kernel: differential against numpy and the reference.

:func:`repro.graphs.fast.accumulate_path_shard` runs its waves on the C
kernel in ``wavekernel.c`` when :mod:`repro.graphs._wavekernel` can build
and load it, and on the numpy engine otherwise.  The two engines and the
pure-Python BFS reference must produce the same ``(ecc, totals)`` integers
on every topology, source set, wave width and shard split.  The build
itself must never break a run: no compiler, a corrupt cached artifact, or
two processes building at once all end in correct results.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.core.ddsr import DDSROverlay
from repro.graphs import _wavekernel, backend, fast, metrics
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import k_regular_graph, ring_graph
from repro.obs import telemetry

from tests.graphs.test_wave_engine import STEP_ZOO

SRC = Path(fast.__file__).resolve().parents[2]


def _ddsr_repaired() -> UndirectedGraph:
    overlay = DDSROverlay.k_regular(220, 6, seed=3)
    rng = random.Random(4)
    overlay.remove_nodes(rng.sample(overlay.graph.nodes(), 70), repair=True)
    return overlay.graph


def _isolated() -> UndirectedGraph:
    edges = [(i, (i + 1) % 30) for i in range(30)] + [(0, 15), (7, 22)]
    return UndirectedGraph(nodes=range(45), edges=edges)


def _two_rings() -> UndirectedGraph:
    edges = [(i, (i + 1) % 50) for i in range(50)]
    edges += [(100 + i, 100 + (i + 1) % 70) for i in range(70)]
    return UndirectedGraph(edges=edges)


ZOO = STEP_ZOO + [
    ("isolated", _isolated()),
    ("two-rings", _two_rings()),
    ("ddsr-repaired", _ddsr_repaired()),
]


@pytest.fixture(params=ZOO, ids=[name for name, _ in ZOO])
def zoo_graph(request):
    return request.param[1]


@pytest.fixture(scope="module")
def kernel(tmp_path_factory):
    """The compiled kernel, built with the default compiler (``$CC`` unset).

    Skips when no C compiler exists.  The loader is reset on both sides so
    the remaining tests see whatever their own environment selects.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("CC", raising=False)
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        _wavekernel.reset()
        built = _wavekernel.load()
        _wavekernel.reset()
    if built is None:
        pytest.skip("no working C compiler")
    return built


def accumulate(engine, csr, sources):
    """``accumulate_path_shard`` pinned to ``engine`` (``None`` = numpy)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_wavekernel, "load", lambda: engine)
        return fast.accumulate_path_shard(csr, np.asarray(sources, dtype=np.int64))


def reference(graph, csr, sources):
    """Per-node ``max``/``sum`` of BFS distances from ``sources`` (pure Python)."""
    ecc = np.zeros(csr.n, dtype=np.int64)
    totals = np.zeros(csr.n, dtype=np.int64)
    for source in sources:
        lengths = metrics.shortest_path_lengths_from(graph, csr.nodes[int(source)])
        for node, distance in lengths.items():
            index = csr.index_of[node]
            ecc[index] = max(ecc[index], distance)
            totals[index] += distance
    return ecc, totals


def assert_same(left, right, label=""):
    assert np.array_equal(left[0], right[0]), label
    assert np.array_equal(left[1], right[1]), label


def source_sets(n):
    rng = random.Random(n)
    everyone = list(range(n))
    shuffled = everyone[:]
    rng.shuffle(shuffled)
    duplicated = shuffled[: max(1, n // 3)] * 2 + shuffled[:5]
    return {
        "all": everyone,
        "odd-count": everyone[: min(n, 100)],
        "unsorted": shuffled[: min(n, 131)],
        "duplicates": duplicated,
        "single": [n // 2],
    }


# ----------------------------------------------------------------------
# Differential: compiled == numpy == reference
# ----------------------------------------------------------------------
def test_zoo_all_engines_agree(kernel, zoo_graph):
    csr = fast.csr_of(zoo_graph)
    for name, sources in source_sets(csr.n).items():
        expected = reference(zoo_graph, csr, sources)
        assert_same(accumulate(kernel, csr, sources), expected, name)
        assert_same(accumulate(None, csr, sources), expected, name)


@pytest.mark.parametrize("mode", ["dense", "sparse", "pull"])
def test_zoo_forced_step_modes(kernel, zoo_graph, mode, monkeypatch):
    """Both level kinds of the kernel are exact on their own."""
    csr = fast.csr_of(zoo_graph)
    sources = np.arange(csr.n, dtype=np.int64)
    expected = accumulate(None, csr, sources)
    monkeypatch.setattr(fast, "WAVE_STEP_MODE", mode)
    assert_same(accumulate(kernel, csr, sources), expected)


@pytest.mark.parametrize("width", [64, 100, 128, 4096])
def test_forced_widths(kernel, width):
    graph = k_regular_graph(300, 6, seed=71)
    csr = fast.csr_of(graph)
    sources = np.arange(csr.n, dtype=np.int64)[::-1].copy()
    expected = reference(graph, csr, sources)
    with backend.using_bfs_batch(width):
        assert_same(accumulate(kernel, csr, sources), expected)
        assert_same(accumulate(None, csr, sources), expected)


def test_empty_sources_and_singleton(kernel):
    csr = fast.csr_of(k_regular_graph(50, 4, seed=1))
    for engine in (kernel, None):
        ecc, totals = accumulate(engine, csr, [])
        assert not ecc.any() and not totals.any() and ecc.size == csr.n
    single = fast.csr_of(UndirectedGraph(nodes=["only"]))
    for engine in (kernel, None):
        ecc, totals = accumulate(engine, single, [0])
        assert ecc.tolist() == [0] and totals.tolist() == [0]


def test_out_of_range_source_rejected(kernel):
    csr = fast.csr_of(ring_graph(10))
    with pytest.raises(IndexError):
        accumulate(kernel, csr, [3, 10])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_any_three_way_shard_split_merges_exactly(kernel, seed):
    graph = _ddsr_repaired() if seed == 2 else k_regular_graph(260, 5 + seed, seed=seed)
    csr = fast.csr_of(graph)
    sources = np.arange(csr.n, dtype=np.int64)
    serial = accumulate(None, csr, sources)
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(sources)
    cuts = np.sort(rng.choice(np.arange(1, csr.n), size=2, replace=False))
    ecc = np.zeros(csr.n, dtype=np.int64)
    totals = np.zeros(csr.n, dtype=np.int64)
    for shard in np.split(shuffled, cuts):
        shard_ecc, shard_totals = accumulate(kernel, csr, shard)
        np.maximum(ecc, shard_ecc, out=ecc)
        totals += shard_totals
    assert_same((ecc, totals), serial)


def test_full_path_metrics_and_closeness_on_kernel(kernel, monkeypatch):
    """The public metrics reach the kernel and still match the reference."""
    graph = k_regular_graph(400, 6, seed=72)
    monkeypatch.setattr(_wavekernel, "load", lambda: kernel)
    with telemetry.collecting() as collector:
        assert fast.full_path_metrics(graph) == metrics.full_path_metrics(graph)
        assert fast.average_closeness_centrality(graph) == (
            metrics.average_closeness_centrality(graph)
        )
    assert collector.snapshot()["gauges"]["wave.kernel"] == "compiled"


# ----------------------------------------------------------------------
# Telemetry parity
# ----------------------------------------------------------------------
def _wave_counters(engine, csr, sources):
    with telemetry.collecting() as collector:
        accumulate(engine, csr, sources)
    snap = collector.snapshot()
    return snap["counters"], snap["gauges"]


def test_telemetry_parity_with_numpy_engine(kernel):
    """At one wave width both engines run the same waves and levels."""
    graph = k_regular_graph(500, 8, seed=73)
    csr = fast.csr_of(graph)
    sources = np.arange(csr.n, dtype=np.int64)
    with backend.using_bfs_batch(128):
        compiled, compiled_gauges = _wave_counters(kernel, csr, sources)
        numpy_counters, numpy_gauges = _wave_counters(None, csr, sources)
    assert compiled_gauges["wave.kernel"] == "compiled"
    assert numpy_gauges["wave.kernel"] == "numpy"
    for name in ("wave.count", "wave.sources", "wave.levels", "wave.node_levels",
                 "wave.frontier_rows", "wave.words.2"):
        assert compiled[name] == numpy_counters[name], name
    for counters in (compiled, numpy_counters):
        dispatch = sum(v for k, v in counters.items() if k.startswith("wave.dispatch."))
        assert dispatch == counters["wave.levels"]
        assert counters["wave.node_levels"] == csr.n * counters["wave.levels"]


# ----------------------------------------------------------------------
# Build and load robustness
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An empty kernel cache and a forgotten loader, restored afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("CC", raising=False)
    _wavekernel.reset()
    yield tmp_path / "repro"
    monkeypatch.undo()
    _wavekernel.reset()


def _damage(artifact, data):
    """Put damaged bytes at ``artifact`` through a new inode.

    This process has the old inode mapped; rewriting it in place would
    crash the test runner itself with SIGBUS.
    """
    spare = artifact.with_name("damaged.tmp")
    spare.write_bytes(data)
    os.replace(spare, artifact)


def _artifacts(directory):
    return sorted(directory.glob("wavekernel-*.so")) if directory.exists() else []


def test_kernel_is_compiled_when_a_compiler_is_on_path(fresh_loader):
    """The fast path must not go dark silently wherever ``cc`` exists."""
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    csr = fast.csr_of(k_regular_graph(200, 4, seed=74))
    with telemetry.collecting() as collector:
        fast.accumulate_path_shard(csr, np.arange(csr.n))
    assert collector.snapshot()["gauges"]["wave.kernel"] == "compiled"
    assert len(_artifacts(fresh_loader)) == 1


def test_no_compiler_falls_back_to_numpy(fresh_loader, monkeypatch, kernel):
    monkeypatch.setenv("CC", "false")
    graph = _ddsr_repaired()
    csr = fast.csr_of(graph)
    sources = np.arange(csr.n, dtype=np.int64)
    with telemetry.collecting() as collector:
        result = fast.accumulate_path_shard(csr, sources)
    assert _wavekernel.load() is None
    assert collector.snapshot()["gauges"]["wave.kernel"] == "numpy"
    assert _artifacts(fresh_loader) == []
    assert_same(result, accumulate(kernel, csr, sources))


@pytest.mark.parametrize("damage", ["truncate", "flip", "empty"])
def test_damaged_artifact_is_rebuilt(fresh_loader, kernel, damage):
    assert _wavekernel.load() is not None
    (artifact,) = _artifacts(fresh_loader)
    data = artifact.read_bytes()
    if damage == "truncate":
        data = data[: len(data) // 2]
    elif damage == "flip":
        middle = len(data) // 2
        data = data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:]
    else:
        data = b""
    _damage(artifact, data)
    _wavekernel.reset()
    rebuilt = _wavekernel.load()
    assert rebuilt is not None
    assert artifact.read_bytes() != data
    assert _wavekernel._open(artifact) is not None
    graph = k_regular_graph(120, 4, seed=75)
    csr = fast.csr_of(graph)
    assert_same(accumulate(rebuilt, csr, range(csr.n)), reference(graph, csr, range(csr.n)))


def test_damaged_artifact_without_compiler_falls_back(fresh_loader, monkeypatch):
    """A corrupt artifact that cannot be rebuilt is never loaded."""
    assert _wavekernel.load() is not None
    (artifact,) = _artifacts(fresh_loader)
    _damage(artifact, artifact.read_bytes()[:-1])
    assert _wavekernel._open(artifact) is None
    monkeypatch.setattr(_wavekernel, "_build", _raise_os_error)
    _wavekernel.reset()
    assert _wavekernel.load() is None


def _raise_os_error(*_args, **_kwargs):
    raise OSError("read-only cache")


def _child_env(cache_home):
    env = {key: value for key, value in os.environ.items() if key != "CC"}
    env["XDG_CACHE_HOME"] = str(cache_home)
    env["PYTHONPATH"] = str(SRC)
    return env


def test_concurrent_first_calls_both_succeed(fresh_loader):
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    script = (
        "from repro.graphs import _wavekernel\n"
        "print('compiled' if _wavekernel.load() is not None else 'numpy')\n"
    )
    env = _child_env(fresh_loader.parent)
    children = [
        subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [child.communicate(timeout=300)[0].strip() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outputs == ["compiled", "compiled"]
    assert len(_artifacts(fresh_loader)) == 1
    assert sorted(path.name for path in fresh_loader.iterdir()) == [
        _artifacts(fresh_loader)[0].name
    ]


def test_import_neither_compiles_nor_loads(fresh_loader):
    script = (
        "import sys\n"
        "import repro.graphs.fast\n"
        "assert 'repro.graphs._wavekernel' not in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", script], env=_child_env(fresh_loader.parent), check=True
    )
    assert not fresh_loader.exists()
