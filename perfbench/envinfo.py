"""The environment a measurement was taken in, recorded with every output."""

import ctypes
import os
import platform

# BLAS runs on one thread; set before numpy is imported.  The solve gains
# nothing from a second thread (its BLAS calls are small), and on a 2-vCPU
# virtual machine OpenBLAS's spin barriers make the two-thread cold Weyl builds
# stall up to 15-fold when the second vCPU was idle, which would swamp setup_s.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(root):
    """Environment for the benchmark's own processes."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _blas_threads():
    """Threads OpenBLAS reports, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(root, seed):
    """Record of where and how a run was made; call after numpy is imported."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_requested": os.environ.get(THREAD_VARS[0]),
        "cache": _cache_sizes(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
