"""Fold cProfile stats into the benchmark's layers.

A layer owns every function defined in its package, plus the C functions
that belong to it by name.  Self time (cProfile ``tottime``) is summed per
layer, so the layers partition the profiled time: nothing is counted twice.

Layers (each name is the prefix of its per-layer metrics):

* ``des``: ``repro/des`` plus the compiled core's bound methods;
* ``sim``, ``core``, ``profiles``, ``runtime``: those ``repro`` packages;
* ``obs``: ``repro/obs`` except the span and profile modules, which are
  the benchmark's own instruments (folded into ``trace``);
* ``ext.numpy_scipy``: numpy and scipy, Python and C functions alike;
* ``runtime`` also takes the stdlib process-pool machinery and pickling;
  blocking waits of the coordinator are ``runtime.wait``;
* ``domain``: the other ``repro`` packages (traffic, stats, mobility, ...);
* ``other``: the rest of the standard library and the interpreter.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

#: Bound methods of the compiled DES core (``repro.des._speedups``).
NATIVE_CORE = frozenset(
    ("<built-in method pump>", "<built-in method timeout>", "<built-in method schedule>")
)

#: C functions the coordinator blocks in while workers compute.
WAITS = frozenset(
    (
        "<method 'acquire' of '_thread.lock' objects>",
        "<method 'acquire' of '_thread.RLock' objects>",
        "<method 'poll' of 'select.poll' objects>",
        "<built-in method select.select>",
        "<built-in method posix.waitpid>",
        "<built-in method posix.read>",
        "<built-in method time.sleep>",
    )
)

ALL_LAYERS = (
    "des", "sim", "core", "profiles", "runtime", "runtime.wait", "obs",
    "ext.numpy_scipy", "trace", "domain", "other",
)

_STDLIB_RUNTIME = ("concurrent/futures/", "multiprocessing/")
_STDLIB_RUNTIME_FILES = ("pickle.py", "copyreg.py", "threading.py", "selectors.py", "queue.py")


def _dir_of(module: Any) -> str:
    return os.path.dirname(os.path.abspath(module.__file__)).replace(os.sep, "/") + "/"


class LayerFold:
    """Maps profile keys ``(file, line, func)`` to layer names."""

    def __init__(self) -> None:
        import multiprocessing

        import numpy
        import scipy

        import repro

        self.repro_dir = _dir_of(repro)
        self.ext_dirs = (_dir_of(numpy), _dir_of(scipy))
        self.stdlib_dir = os.path.dirname(_dir_of(multiprocessing).rstrip("/")) + "/"
        self._memo: Dict[str, str] = {}

    def layer(self, key: Any) -> str:
        file, _line, name = key
        if file == "~":
            if name in NATIVE_CORE:
                return "des"
            if name in WAITS:
                return "runtime.wait"
            if "numpy" in name or "scipy" in name:
                return "ext.numpy_scipy"
            if "pickle" in name:
                return "runtime"
            return "other"
        layer = self._memo.get(file)
        if layer is None:
            layer = self._memo[file] = self._file_layer(file.replace(os.sep, "/"))
        return layer

    def _file_layer(self, path: str) -> str:
        if path.startswith(self.repro_dir):
            parts = path[len(self.repro_dir):].split("/")
            package = parts[0] if len(parts) > 1 else ""
            if package in ("des", "sim", "core", "profiles", "runtime"):
                return package
            if package == "obs":
                return "trace" if parts[1] in ("spans.py", "profiling.py") else "obs"
            return "domain"
        if path.startswith(self.ext_dirs):
            return "ext.numpy_scipy"
        if path.startswith(self.stdlib_dir):
            rest = path[len(self.stdlib_dir):]
            if rest.startswith(_STDLIB_RUNTIME) or rest in _STDLIB_RUNTIME_FILES:
                return "runtime"
        return "other"

    def self_times(self, stats: Dict[Any, Any]) -> Dict[str, float]:
        """Seconds of self time per layer (every layer present, maybe 0)."""
        out = dict.fromkeys(ALL_LAYERS, 0.0)
        for key, stat in stats.items():
            out[self.layer(key)] += stat[2]
        return out


def find(stats: Dict[Any, Any], path_suffix: str, name: str) -> Optional[tuple]:
    """The ``(cc, nc, tt, ct)`` row of one function, or None if never called."""
    for (file, _line, func), stat in stats.items():
        if func == name and file.replace(os.sep, "/").endswith(path_suffix):
            return stat[:4]
    return None


def calls(stats: Dict[Any, Any], path_suffix: str, name: str) -> int:
    row = find(stats, path_suffix, name)
    return row[1] if row else 0


def cumulative(stats: Dict[Any, Any], path_suffix: str, name: str) -> float:
    row = find(stats, path_suffix, name)
    return row[3] if row else 0.0

