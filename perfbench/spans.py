"""In-memory span recording and attribute wrappers for the traced run.

The benchmark times layers from its own files: it replaces module
attributes of dleit with wrappers that open a span around the original
call and puts the originals back afterwards.  Spans (name, start, end,
parent) stay in compact arrays until the run writes them out.  A wrapper
whose target attribute no longer exists is recorded as absent, and the
metrics built on it are left out instead of failing the run.
"""

from __future__ import annotations

import csv
import gzip
import time
from array import array
from collections import Counter


class Tracer:
    """Spans of one process, kept in memory.

    Span i has name ``names[name_id[i]]``, interval [start[i], end[i]] on
    ``time.perf_counter``, parent span index ``parent[i]`` (-1 at top
    level) and a numeric ``work`` amount (for example simulation steps).
    ``errors`` counts (span name, exception class name) pairs.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.errors: Counter = Counter()
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, work: float = 0.0) -> int:
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.end.append(float("nan"))
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} is open")

    def rename(self, index: int, name: str) -> None:
        self.name_id[index] = self._intern(name)

    def name(self, index: int) -> str:
        return self.names[self.name_id[index]]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its children cover."""
        children: dict[int, list[int]] = {}
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        result = []
        for index in range(len(self)):
            covered = 0.0
            lo, hi = self.start[index], self.end[index]
            cursor = lo
            for child in sorted(children.get(index, ()), key=self.start.__getitem__):
                a, b = max(self.start[child], cursor), min(self.end[child], hi)
                if b > a:
                    covered += b - a
                    cursor = b
            result.append(hi - lo - covered)
        return result

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and summed work."""
        out: dict[str, dict[str, float]] = {}
        for index, self_s in enumerate(self.self_times()):
            entry = out.setdefault(self.name(index), {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
            entry["calls"] += 1
            entry["total_s"] += self.end[index] - self.start[index]
            entry["self_s"] += self_s
            entry["work"] += self.work[index]
        return out

    def write(self, path, origin: float) -> None:
        """Write every span as gzip CSV, times in seconds after `origin`."""
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "parent", "name", "start_s", "end_s", "work"])
            for index in range(len(self)):
                writer.writerow([index, self.parent[index], self.name(index),
                                 f"{self.start[index] - origin:.9f}",
                                 f"{self.end[index] - origin:.9f}", self.work[index]])


def traced(tracer: Tracer, name: str, label=None, work=None):
    """Wrapper factory opening a span named `name` (plus `.label(args)`)."""

    def make(original):
        def wrapper(*args, **kwargs):
            full = name if label is None else f"{name}.{label(*args, **kwargs)}"
            index = tracer.open(full, 0.0 if work is None else work(*args, **kwargs))
            try:
                return original(*args, **kwargs)
            except Exception as exc:
                tracer.errors[(full, type(exc).__name__)] += 1
                raise
            finally:
                tracer.close(index)

        return wrapper

    return make


class Patcher:
    """Replaces attributes across a set of modules and restores them.

    ``wrap`` patches every binding of the target object in the given
    modules (a function re-exported or imported by name into another
    module is bound there too), so internal calls are timed as well.
    """

    def __init__(self, modules) -> None:
        self.modules = list(modules)
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return None
        wrapper = make(original)
        for module in self.modules:
            bound = [key for key, value in vars(module).items() if value is original]
            for key in bound:
                self._saved.append((module, key, original))
                setattr(module, key, wrapper)
        return original

    def restore(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()
