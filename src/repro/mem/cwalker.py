"""On-demand C tier of the ``compiled`` hierarchy engine.

The per-run walk of :mod:`repro.mem.hierarchy` is bound by the
interpreter, not by the data structures -- even a fully inlined Python
loop costs a couple of microseconds per run, and numpy bookkeeping
around a C walk costs hundreds of microseconds per op.  This module
compiles the C routines (``_walker.c``, shipped next to this file)
with the system compiler the first time they are needed and binds them
through :mod:`ctypes`.  ``coalesce`` turns a batch into line runs
once (the caller keeps the runs of a read-only batch), ``bind`` stores
the interval, set and way tables and the counters in the C state when
they change, and one ``walk_batch`` call then walks an op's runs:
owner resolution, set mapping, the walk and the per-owner statistics.
Everything degrades gracefully: no compiler, a failed
compilation or an unwritable build directory simply mean :func:`load`
returns ``None`` and the compiled engine falls back to the reference
walk.

The compiled object is cached under ``<package>/_build/`` keyed by the
source content hash, so recompilation happens only when ``_walker.c``
changes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import threading
from typing import Optional

__all__ = ["load", "L2_MODE_LRU", "L2_MODE_FIFO", "L2_MODE_WAY",
           "WALK_OK", "WALK_NEGATIVE_OWNER", "WALK_GROW", "WALK_NO_MEMORY"]

_SOURCE = os.path.join(os.path.dirname(__file__), "_walker.c")
_BUILD_DIR = os.path.join(os.path.dirname(__file__), "_build")

_walker = None
_load_attempted = False
#: Serialises the first :func:`load`: a concurrent first caller must
#: wait for the compile, not see ``None`` and demote its engine.
_load_lock = threading.Lock()


def _find_compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _compile() -> Optional[str]:
    """Compile ``_walker.c``; returns the shared-object path or ``None``."""
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    digest = hashlib.sha256(source).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    so_path = os.path.join(_BUILD_DIR, f"_walker_{digest}{suffix}")
    if os.path.exists(so_path):
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        os.makedirs(_BUILD_DIR, exist_ok=True)
        tmp_path = so_path + f".tmp{os.getpid()}"
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_path, _SOURCE,
             "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_path, so_path)  # atomic wrt concurrent builders
    except (OSError, subprocess.SubprocessError):
        return None
    return so_path


#: L2 organisations of the persistent state handle.
L2_MODE_LRU = 0
L2_MODE_FIFO = 1
L2_MODE_WAY = 2

#: ``walk_batch`` results; must match ``_walker.c``.  Every result but
#: ``WALK_OK`` comes back before the call touched any state.
WALK_OK = 0
#: A run resolves a negative owner id.  (1 is unused: ``coalesce``
#: returns -1 for a negative address.)
WALK_NEGATIVE_OWNER = 2
#: A run's owner id is beyond the counters; ``out[0]`` holds it.
WALK_GROW = 3
#: A seen-set could not grow.
WALK_NO_MEMORY = 4


class CWalker:
    """Bound routines of the compiled walker library.

    The persistent-handle API of the ``compiled`` engine (see
    :mod:`repro.mem.hierarchy`): ``state_new`` / ``state_free`` own the
    C state; ``coalesce`` turns raw addresses into runs and touches no
    state; ``bind`` stores the per-call tables and counters in the
    state; ``walk_batch`` walks and prices one op's runs and counts
    their per-owner statistics; and ``seen_fresh`` / ``seen_take`` hand
    back the lines the C seen-sets gained since the last take.
    """

    #: Placeholder for the removed multi-entry segment walk: the
    #: repository benchmark's traced run (``perfbench/scenarios.py``)
    #: still wraps this attribute by name.  Nothing calls it.
    walk_segment = None

    def __init__(self, state_new, state_free, coalesce, bind, walk_batch,
                 seen_fresh, seen_take):
        self.state_new = state_new
        self.state_free = state_free
        self.coalesce = coalesce
        self.bind = bind
        self.walk_batch = walk_batch
        self.seen_fresh = seen_fresh
        self.seen_take = seen_take


def load() -> Optional[CWalker]:
    """The bound :class:`CWalker`, or ``None`` when unavailable.

    The first call pays the (cached) compilation; later calls return
    the memoised binding.  Concurrent first calls all wait for that one
    compilation.  Set ``REPRO_NO_CWALKER=1`` to disable the C tier,
    e.g. to run the default engine on its reference fallback.
    """
    global _walker, _load_attempted
    if _load_attempted:
        return _walker
    with _load_lock:
        if not _load_attempted:
            # Published before the flag: a caller that sees the flag
            # without taking the lock must also see the walker.
            _walker = _bind()
            _load_attempted = True
    return _walker


def _bind() -> Optional[CWalker]:
    """Compile (or reuse) the library and declare its signatures."""
    if os.environ.get("REPRO_NO_CWALKER"):
        return None
    so_path = _compile()
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(so_path)
        state_new = lib.walker_state_new
        state_free = lib.walker_state_free
        coalesce = lib.walker_coalesce
        bind = lib.walker_bind
        walk = lib.walk_batch
        seen_fresh = lib.walker_seen_fresh
        seen_take = lib.walker_seen_take
    except (OSError, AttributeError):
        return None
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    # Pointer arguments are declared as c_void_p and passed as raw
    # ``ndarray.ctypes.data`` integers: the walk runs once per op,
    # where building typed ctypes pointers per argument measurably
    # dominates small calls.
    ptr = ctypes.c_void_p
    state_new.restype = ctypes.c_void_p
    state_new.argtypes = [
        i64, i64,                   # n_cpus, line_shift
        i64, i64,                   # l1 sets/ways
        ptr, ptr, ptr, ptr,         # L1 lines/owners/dirty/len (all cpus)
        i64, i64,                   # l2 ways/mode
        ptr, ptr, ptr, ptr,         # L2 lines/owners/dirty/len
        ptr, ptr,                   # l2 stamps, way clock slot
        i64, i64, i64, i64, ptr,    # bank mask/busy/access/penalty, banks
        i64, f64, f64, f64,         # bus transfer/lines-per-cycle/decay/cap
        ptr, ptr,                   # bus demand / last-update
        ptr, ptr,                   # bus transfers / surcharge totals
        f64, i64,                   # issue_cpi, l2_hit_cycles
        ptr, ptr,                   # seen-set lines, per-cache counts
    ]
    state_free.restype = None
    state_free.argtypes = [ctypes.c_void_p]
    coalesce.restype = i64
    coalesce.argtypes = [
        ptr, ptr, i64,              # addrs, writes, n
        i64, i64,                   # line_shift, full_line_count
        ptr,                        # runs[2n]
    ]
    bind.restype = None
    bind.argtypes = [
        ctypes.c_void_p,            # state
        ptr, i64,                   # interval table, n_intervals
        ptr, i64,                   # set table, n_table
        ptr, i64,                   # way allocation table, way_rows
        ptr, ptr, i64,              # counters, eviction matrices, n_owners
    ]
    walk.restype = ctypes.c_int
    walk.argtypes = [
        ctypes.c_void_p,            # state
        i64, i64, i64, f64,         # cpu, task_owner, instructions, now
        ptr, i64,                   # runs, n_runs
        ptr,                        # out[8]
    ]
    seen_fresh.restype = i64
    seen_fresh.argtypes = [ctypes.c_void_p, i64]
    seen_take.restype = None
    seen_take.argtypes = [ctypes.c_void_p, i64, ptr]
    return CWalker(state_new, state_free, coalesce, bind, walk, seen_fresh,
                   seen_take)
