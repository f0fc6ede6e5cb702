"""Spans recorded from outside the library.

``Tracer.install`` replaces module attributes in the namespace where each
caller looks them up (``decomposition.build_region``,
``decomposition._search_pieces``, ``blocks._polish``, ...) with wrappers
that record a span per call, and ``Tracer.remove`` puts the originals
back. A hook whose target no longer exists is reported as absent and
skipped, so a renamed private function cannot break a run. A hook may also
carry a check that runs before every call, traced or not (the benchmark's
search-node budget is one); ``install(only=...)`` wraps just those hooks.

Spans are kept in memory as lists of ``FIELDS`` (parent is the index of
the enclosing span, op the benchmark's operation id) and are recorded
only inside an operation opened with ``Tracer.op``, so the benchmark's own
untimed checks leave none.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module path, attribute, span name, (unit, size function) or None)
# The size function receives (args, kwargs, result) of a call that completed
# and returns a count, summed into "<span name>.<unit>".
HOOKS = (
    ("rankrange", "ingest_matrix", "spectra.ingest_matrix", None),
    ("rankrange", "ingest_spectrum", "spectra.ingest_spectrum", None),
    ("rankrange", "build_region", "region.build_region", None),
    ("rankrange", "contains", "region.contains", None),
    ("rankrange", "interior_point", "region.interior_point", None),
    ("rankrange", "construct_projector", "decomposition.construct_projector",
     None),
    ("rankrange.region", "region_margin", "region.region_margin",
     ("points", lambda a, kw, r: int(np.size(a[1])))),
    ("rankrange.region.BruteForceOracle", "__init__", "region.oracle_build",
     ("hulls", lambda a, kw, r: len(a[0].hulls))),
    ("rankrange.region.BruteForceOracle", "verdict", "region.oracle_verdict",
     None),
    ("rankrange.decomposition", "build_region", "region.build_region", None),
    ("rankrange.decomposition", "contains", "region.contains", None),
    ("rankrange.decomposition", "plan", "decomposition.plan", None),
    ("rankrange.decomposition", "_caratheodory_support",
     "decomposition.caratheodory", None),
    ("rankrange.decomposition", "subspectrum_margin",
     "decomposition.subspectrum_margin", None),
    ("rankrange.decomposition", "_feasible_triples",
     "decomposition.feasible_triples", None),
    ("rankrange.decomposition", "_search_pieces", "decomposition.search",
     None),
    ("rankrange.decomposition", "_global_fallback",
     "decomposition.global_fallback", None),
    ("rankrange.decomposition", "_assemble", "decomposition.assemble", None),
    ("rankrange.decomposition", "projector_residuals",
     "decomposition.projector_residuals", None),
    ("rankrange.decomposition", "solve_barycentric",
     "triangles.solve_barycentric", None),
    ("rankrange.blocks", "isotropic_pair", "blocks.isotropic_pair", None),
    ("rankrange.blocks", "_polish", "blocks.polish", None),
    ("rankrange.blocks", "frame_solve", "blocks.frame_solve", None),
)

FIELDS = ["name", "start", "end", "parent", "op", "failed", "size"]

STRATEGIES = ("eigenspace", "planned", "adaptive", "least_squares",
              "caratheodory")

# span name -> metric suffixes reported for it
REPORTED = {
    "decomposition.search": ("nodes", "max_depth", "self_s"),
    "decomposition.subspectrum_margin": ("calls", "self_s"),
    "decomposition.feasible_triples": ("calls", "self_s"),
    "triangles.solve_barycentric": ("calls", "self_s"),
    "blocks.isotropic_pair": ("calls", "failed", "self_s"),
    "blocks.polish": ("calls",),
    "blocks.frame_solve": ("calls",),
    "decomposition.global_fallback": ("calls",),
    "spectra.ingest_matrix": ("calls", "self_s"),
    "spectra.ingest_spectrum": ("self_s",),
    "decomposition.assemble": ("self_s",),
    "decomposition.projector_residuals": ("self_s",),
    "decomposition.caratheodory": ("self_s",),
    "decomposition.plan": ("self_s",),
    "region.build_region": ("calls", "self_s"),
    "region.contains": ("calls", "self_s"),
    "region.oracle_build": ("self_s", "hulls"),
    "region.oracle_verdict": ("self_s",),
    "region.interior_point": ("self_s",),
    "region.region_margin": ("points", "self_s"),
}


def _resolve(path: str):
    """Import a module path, then walk any trailing class attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    def __init__(self, checks=None):
        self.spans = []          # lists of FIELDS
        self.absent = []         # "<module path>.<attribute>" of lost hooks
        self.checks = dict(checks or {})   # span name -> run before calls
        self._stack = []         # open span indices
        self._op = None
        self._installed = []     # (owner, attr, original, span name)

    # -- hooks ---------------------------------------------------------------

    def install(self, only=None):
        """Wrap every hook target, or those whose span name is in ``only``."""
        for path, attr, name, size in HOOKS:
            if only is not None and name not in only:
                continue
            try:
                owner = _resolve(path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if f"{path}.{attr}" not in self.absent:
                    self.absent.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, size))
            self._installed.append((owner, attr, original, name))

    def hooked(self, name) -> bool:
        """Whether a hook recording span ``name`` is installed."""
        return any(entry[3] == name for entry in self._installed)

    def remove(self):
        while self._installed:
            owner, attr, original, _ = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, size):
        tracer = self
        check = self.checks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if check is not None:
                check()
            if tracer._op is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(index, failed)
            if size is not None:
                tracer.spans[index][6] = size[1](args, kwargs, result)
            return result
        return traced

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._op, False, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index, failed):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = failed
        self._stack.pop()

    def op(self, op_id, fn, *args):
        """Run one benchmark operation as the root span ``op``."""
        self._op = op_id
        index = self._open("op")
        failed = True
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            self._close(index, failed)
            self._op = None

    def discard_op(self, op_id):
        """Drop the spans of the last operation, which a wall-clock
        interrupt cut off at a point that depends on timing."""
        while self.spans and self.spans[-1][4] == op_id:
            self.spans.pop()

    # -- aggregation ---------------------------------------------------------

    def metrics(self) -> dict:
        count = defaultdict(int)
        failed = defaultdict(int)
        self_s = defaultdict(float)
        sizes = defaultdict(int)
        max_depth = defaultdict(int)
        depth = [0] * len(self.spans)
        child_time = [0.0] * len(self.spans)
        escalated = set()    # isotropic_pair spans that needed polish/frame
        for i, (name, start, end, parent, _, bad, size) in \
                enumerate(self.spans):
            count[name] += 1
            failed[name] += bad
            sizes[name] += size
            if parent is not None:
                child_time[parent] += end - start
                up = self.spans[parent][0]
                if up == name:
                    depth[i] = depth[parent] + 1
                if up == "blocks.isotropic_pair" and name in (
                        "blocks.polish", "blocks.frame_solve"):
                    escalated.add(parent)
            max_depth[name] = max(max_depth[name], depth[i] + 1)
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]

        out = {}
        for name, fields in REPORTED.items():
            for field in fields:
                key = f"{name}.{field}"
                if field in ("calls", "nodes"):
                    out[key] = count[name]
                elif field == "failed":
                    out[key] = failed[name]
                elif field == "self_s":
                    out[key] = self_s[name]
                elif field == "max_depth":
                    out[key] = max_depth[name]
                else:
                    out[key] = sizes[name]
        pairs = [i for i, s in enumerate(self.spans)
                 if s[0] == "blocks.isotropic_pair"]
        newton = sum(1 for i in pairs
                     if i not in escalated and not self.spans[i][5])
        out["blocks.newton_ratio"] = newton / len(pairs) if pairs else 0.0
        out["trace.absent_hooks"] = len(self.absent)
        return out

    def write(self, path):
        """One JSON array per span, after a line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
