"""Build-on-first-use loader for the compiled wave kernel (``wavekernel.c``).

:func:`repro.graphs.fast.accumulate_path_shard` runs its BFS waves through
the C kernel in ``wavekernel.c`` when this module can build and load it, and
through the numpy engine otherwise -- both return identical accumulators,
so the choice never reaches a cache key.

* **Lazy.** Nothing happens at import; :func:`load` builds and loads on its
  first call and memoises the outcome (the kernel, or ``None``) for the
  life of the process.  :func:`reset` forgets it.
* **Compiler.** ``$CC`` (split like a shell word list) or else ``cc``, with
  the portable :data:`FLAGS`.  No compiler, a failed build or a failed load
  all mean ``None``: the numpy engine runs instead.
* **Cache.** The shared object lives in ``$XDG_CACHE_HOME/repro/`` or else
  ``~/.cache/repro/``, named by the sha256 of the source, the flags, the
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

#: The kernel source, shipped as package data next to this module.
SOURCE = Path(__file__).with_name("wavekernel.c")

#: Portable compiler flags (no CPU-specific code generation).
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

    Builds (at most once per process) and loads the kernel on the first
    call; every later call returns the memoised outcome.
    """
    if "kernel" not in _state:
        _state["kernel"] = _load()
    return _state["kernel"]


def reset() -> None:
    """Forget the memoised outcome, so the next :func:`load` looks again."""
    _state.clear()


def _load():
    try:
        source = SOURCE.read_bytes()
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
    for part in (source, " ".join(FLAGS).encode(), " ".join(command).encode(), version):
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
    _state["library"] = library  # keeps the shared object mapped
    return kernel


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
            [*command, *FLAGS, "-o", staging, str(SOURCE)],
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
