"""Host and configuration fingerprint stamped on every benchmark result.

A timing means little without the machine and the program state it was
taken on, so every result carries: CPU model, processor count, Python,
numpy, scipy and BLAS versions, the BLAS thread count, the resolved
adaptive-kernel backend, the fast-path switch, the git commit (when the
checkout is a repository) and a digest of the program's source tree (always,
so two runs of the same code can be matched even without git).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

#: Variables that select program behaviour; the benchmark runs the
#: program at its defaults, so they are removed before it is imported.
PROGRAM_ENV_VARS = ("REPRO_KERNEL_BACKEND", "REPRO_FASTPATH",
                    "REPRO_DISK_CACHE", "REPRO_CACHE_DIR")

#: Thread-count variables of the common BLAS / OpenMP runtimes.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS")


def nproc():
    """Processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def pin_environment(environ=os.environ):
    """Run the program at its defaults with at most ``nproc`` threads.

    Must be called before numpy is imported: BLAS reads its thread
    count once, at load time.
    """
    for name in PROGRAM_ENV_VARS:
        environ.pop(name, None)
    limit = nproc()
    for name in THREAD_ENV_VARS:
        value = environ.get(name, "").strip()
        if value.isdigit() and int(value) > limit:
            environ[name] = str(limit)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas():
    """``(name, version, threads)`` of the BLAS numpy is linked against."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = info.get("name"), info.get("version")
    except (KeyError, TypeError, ValueError):
        name = version = None
    return name, version, _blas_threads()


def _blas_threads():
    """OpenBLAS's live thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def _git_commit(root):
    """The checked-out commit, read from ``.git`` without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        packed = (git / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    """SHA-256 over every ``.py`` file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    src = Path(src)
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root):
    """Everything a result needs to be compared with another one."""
    import numpy as np
    import scipy

    from repro.core.adaptive import kernels
    from repro.utils import fastpath

    blas_name, blas_version, blas_threads = _blas()
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads,
        "kernel_backend": kernels.resolve_backend_name(None),
        "fastpath": fastpath.enabled(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(Path(root) / "src"),
    }
