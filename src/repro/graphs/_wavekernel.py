"""Build-on-first-use loader for the compiled kernels of ``repro``.

The four C sources, ``wavekernel.c``, ``pairing.c``, ``soap.c`` and
``ddsr.c``, compile into one shared library with four entry points:

* :func:`load` binds ``repro_wave_accumulate``: every multi-source BFS of
  :mod:`repro.graphs.fast` -- the per-node path accumulators of
  :func:`~repro.graphs.fast.accumulate_path_shard`, behind every path
  metric and single-source distance of the fast backend -- runs its waves
  through it when this module can build and load the library, and through
  the plain dense numpy wave otherwise; both return identical integers.
* :func:`load_pairing` binds ``repro_pair_stubs``:
  :func:`repro.graphs.generators.k_regular_graph` runs its pairing-model
  attempts through it, on a replay of ``random.Random``'s draws, and
  through the Python pairing model otherwise -- both build the same graph
  and leave the rng in the same state.
* :func:`load_soap` binds ``repro_soap_contain``:
  :meth:`repro.adversary.soap.SoapAttack.run_campaign` runs each target's
  clone/prune loop through it, on the same replay of ``random.Random``,
  and through the Python ``contain_node`` otherwise -- both prune the same
  victims, mint the same clones and leave the rng in the same state.
* :func:`load_ddsr` binds ``repro_ddsr_remove``:
  :meth:`repro.core.ddsr.DDSROverlay.remove_nodes` decides a batch's
  removals, clique repairs and prunes through it, on the same replay of
  ``random.Random``, and runs the Python deletion loop otherwise -- both
  make the same mutations in the same order and leave the rng in the same
  state.

Either way the choice never reaches a cache key.

* **Lazy.** Nothing happens at import; the first :func:`load`,
  :func:`load_pairing`, :func:`load_soap` or :func:`load_ddsr` call builds
  and loads the library and memoises the outcome (the library, or
  ``None``) for the life of the process; all four bind from that one
  library.  :func:`reset` forgets it.
* **Compiler.** ``$CC`` (split like a shell word list) or else ``cc``, with
  the portable :data:`FLAGS`.  No compiler, a failed build or a failed load
  all mean ``None``: the numpy wave, the Python pairing model, the Python
  containment loop and the Python deletion loop run instead.
* **Cache.** The shared object lives in ``$XDG_CACHE_HOME/repro/`` or else
  ``~/.cache/repro/``, named by the sha256 of every source, the flags, the
  compiler command, its ``--version`` output and the machine type, so an
  edit to any of them builds a new artifact.  Each process compiles into
  its own temporary file and installs it with :func:`os.replace`, so
  concurrent first calls never see a torn file; the last one wins.
* **Integrity.** The artifact ends with a trailer holding the sha256 of the
  library bytes before it.  A truncated or corrupt artifact fails the check
  and is rebuilt before anything is loaded from it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

#: The kernel sources, shipped as package data next to this module; they
#: build one library.
SOURCES = (
    Path(__file__).with_name("wavekernel.c"),
    Path(__file__).with_name("pairing.c"),
    Path(__file__).with_name("soap.c"),
    Path(__file__).with_name("ddsr.c"),
)

#: Portable compiler flags (no ``-march``): the artifact runs on any CPU of
#: the machine type; the wave functions' POPCNT clone is picked at load time
#: (``WAVE_CLONES`` in ``wavekernel.c``).
FLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")

#: Marks the integrity trailer appended after the library bytes.
_TRAILER_MAGIC = b"repro-wavekernel"

#: Seconds allowed for ``$CC --version`` and for the compile itself.
_COMPILE_TIMEOUT = 120

_state: Dict[str, object] = {}


def cache_dir() -> Path:
    """Where built kernels live: ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def load():
    """The bound ``repro_wave_accumulate`` function, or ``None``.

    Builds (at most once per process) and loads the library on the first
    call; every later call returns the memoised outcome.
    """
    library = _library()
    return None if library is None else library.repro_wave_accumulate


def load_pairing():
    """The bound ``repro_pair_stubs`` function, or ``None``.

    Comes from the same memoised library as :func:`load`.
    """
    library = _library()
    return None if library is None else library.repro_pair_stubs


def load_soap():
    """The bound ``repro_soap_contain`` function, or ``None``.

    Comes from the same memoised library as :func:`load`.
    """
    library = _library()
    return None if library is None else library.repro_soap_contain


def load_ddsr():
    """The bound ``repro_ddsr_remove`` function, or ``None``.

    Comes from the same memoised library as :func:`load`.
    """
    library = _library()
    return None if library is None else library.repro_ddsr_remove


def _library() -> Optional[ctypes.CDLL]:
    if "library" not in _state:
        _state["library"] = _load()
    return _state["library"]


def reset() -> None:
    """Forget the memoised outcome, so the next :func:`load` looks again."""
    _state.clear()


def _load() -> Optional[ctypes.CDLL]:
    try:
        sources = [path.read_bytes() for path in SOURCES]
        command = shlex.split(os.environ.get("CC") or "cc")
        version = subprocess.run(
            [*command, "--version"],
            capture_output=True,
            check=True,
            timeout=_COMPILE_TIMEOUT,
        ).stdout
    except (OSError, ValueError, subprocess.SubprocessError):
        return None
    digest = hashlib.sha256()
    for part in (*sources, " ".join(FLAGS).encode(), " ".join(command).encode(), version):
        digest.update(part)
        digest.update(b"\0")
    digest.update(platform.machine().encode())
    artifact = cache_dir() / f"wavekernel-{digest.hexdigest()[:24]}.so"
    library = _open(artifact)
    if library is None:
        try:
            _build(command, artifact)
        except (OSError, subprocess.SubprocessError):
            return None
        library = _open(artifact)
        if library is None:
            return None
    kernel = library.repro_wave_accumulate
    kernel.restype = None
    # (n, indptr, indices, sources, batch, mode, then nine buffers)
    kernel.argtypes = (
        [ctypes.c_int64] + [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 2
        + [ctypes.c_void_p] * 9
    )
    pairing = library.repro_pair_stubs
    pairing.restype = ctypes.c_int64
    # (n, k, attempts, rng state, stubs, tree, rows, degree)
    pairing.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 5
    soap = library.repro_soap_contain
    soap.restype = ctypes.c_int64
    # (io, rng state, rank, degree, work, ops, names, prefix, prefix length)
    soap.argtypes = [ctypes.c_void_p] * 8 + [ctypes.c_int64]
    ddsr = library.repro_ddsr_remove
    ddsr.restype = ctypes.c_int64
    # (io, rng state, key, rows, degree, slot, victims, ops, scratch, indptr,
    # indices)
    ddsr.argtypes = [ctypes.c_void_p] * 11
    return library


def _sealed(body: bytes) -> bytes:
    return _TRAILER_MAGIC + hashlib.sha256(body).digest()


def _open(artifact: Path) -> Optional[ctypes.CDLL]:
    """Load ``artifact`` if it exists and its integrity trailer checks out."""
    try:
        data = artifact.read_bytes()
    except OSError:
        return None
    size = len(_TRAILER_MAGIC) + hashlib.sha256().digest_size
    if len(data) <= size or data[-size:] != _sealed(data[:-size]):
        return None
    try:
        return ctypes.CDLL(str(artifact))
    except OSError:
        return None


def _build(command: List[str], artifact: Path) -> None:
    """Compile into a private temporary file, seal it, install atomically."""
    artifact.parent.mkdir(parents=True, exist_ok=True)
    handle, staging = tempfile.mkstemp(
        prefix=".wavekernel-", suffix=".so", dir=artifact.parent
    )
    os.close(handle)
    try:
        subprocess.run(
            [*command, *FLAGS, "-o", staging, *map(str, SOURCES)],
            capture_output=True,
            check=True,
            timeout=_COMPILE_TIMEOUT,
        )
        body = Path(staging).read_bytes()
        with open(staging, "ab") as sink:
            sink.write(_sealed(body))
        os.replace(staging, artifact)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(staging)
        raise
