"""Spans recorded from outside the package, at its module boundaries.

``install`` replaces every binding of a traced public name, in every
``conformal`` module that imports it, with a wrapper that records one span
per call: (name, start, end, parent index, extra).  ``SurfacePatch.jet_raw``
is wrapped at class level and records ``np.size(u)`` as its extra, so jet
calls and jet points are counted where the work happens.  Spans stay in
memory until ``write_spans`` is called at the end of a run.

Nothing here edits the package: ``uninstall`` puts every original back.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name, extra(args, kwargs, result) or None)
_TARGETS = [
    ("conformal.cli", "load_surface_spec", "cli.spec_load", None),
    ("conformal.cli", "_emit", "cli.emit", None),
    ("conformal.catalog", "make_helcat", "catalog.make_helcat", None),
    ("conformal.catalog", "make_tube", "catalog.make_tube", None),
    ("conformal.catalog", "make_canonical", "catalog.make_canonical", None),
    ("conformal.catalog", "make_torus", "catalog.make_torus", None),
    ("conformal.surfaces", "shape_data", "surfaces.shape_data", None),
    ("conformal.surfaces", "mobius_transform", "surfaces.mobius_transform",
     None),
    ("conformal.invariants", "theta_state", "invariants.theta_state", None),
    ("conformal.invariants", "invariant_sample",
     "invariants.invariant_sample",
     lambda a, k, r: int(k.get("with_coeffs", True))),
    ("conformal.invariants", "psi_invariant", "invariants.psi_invariant",
     None),
    ("conformal.invariants", "psi_from_thetas", "invariants.psi_from_thetas",
     None),
    ("conformal.osculation", "osculating_cyclide",
     "osculation.osculating_cyclide",
     lambda a, k, r: int(r.limit_derived)),
    ("conformal.linefields", "integrate_dupin_line",
     "linefields.integrate_dupin_line", lambda a, k, r: len(r) - 1),
    ("conformal.linefields", "integrate_darboux_line",
     "linefields.integrate_darboux_line", lambda a, k, r: len(r) - 1),
    ("conformal.intersect", "trace_cyclide_intersection",
     "intersect.trace_cyclide_intersection", None),
    ("conformal.intersect", "_stitch", "intersect.stitch",
     lambda a, k, r: len(a[0])),
    ("conformal.prescribe", "prescribe", "prescribe.prescribe", None),
    ("conformal.prescribe", "helcat_grid", "prescribe.helcat_grid", None),
]
# bindings patched in one module only (a third-party name)
_LOCAL_TARGETS = [
    ("conformal.intersect", "brentq", "intersect.brentq"),
]
JET = "surfaces.jet_raw"
_MODULES = ["conformal.cli", "conformal.catalog", "conformal.surfaces",
            "conformal.invariants", "conformal.osculation",
            "conformal.linefields", "conformal.intersect",
            "conformal.prescribe"]


class Tracer:
    """In-memory span recorder for one run (single thread, nested calls)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # (name, start, end, parent, extra)
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                x = None if extra is None or result is None \
                    else extra(args, kwargs, result)
                spans[idx] = (name, t0, t1, parent, x)

        return traced

    # -- patching ----------------------------------------------------------
    def install(self):
        mods = [importlib.import_module(m) for m in _MODULES]
        for modname, attr, name, extra in _TARGETS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapped = self.wrap(name, orig, extra)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, val))
                        setattr(mod, key, wrapped)
        for modname, attr, name in _LOCAL_TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._undo.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig))
        from conformal.surfaces import SurfacePatch
        orig_jet = SurfacePatch.jet_raw
        self._undo.append((SurfacePatch, "jet_raw", orig_jet))
        SurfacePatch.jet_raw = self.wrap(
            JET, orig_jet, lambda a, k, r: int(np.size(a[1])))

    def uninstall(self):
        for obj, key, val in reversed(self._undo):
            setattr(obj, key, val)
        self._undo.clear()

    # -- output ------------------------------------------------------------
    def write_spans(self, fh):
        for name, t0, t1, parent, x in self.spans:
            fh.write(json.dumps({"run": self.run_id, "name": name,
                                 "start": t0, "end": t1, "parent": parent,
                                 "extra": x}) + "\n")


class SpanStats:
    """Per-name aggregates of a finished span list.

    ``self_s`` is a span's duration minus the time its direct children
    cover; ``jets`` is the number of jet spans below a span (inclusive of
    nested layers).
    """

    def __init__(self, spans):
        n = len(spans)
        child_time = [0.0]*n
        jets = [0]*n
        # children always come after their parent, so one reverse pass
        # finishes every child before its parent is read
        for i in range(n - 1, -1, -1):
            name, t0, t1, parent, _ = spans[i]
            if name == JET:
                jets[i] += 1
            if parent >= 0:
                child_time[parent] += t1 - t0
                jets[parent] += jets[i]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.jets = defaultdict(int)
        self.extra = defaultdict(list)
        self.root_s = 0.0
        for i, (name, t0, t1, parent, x) in enumerate(spans):
            self.calls[name] += 1
            self.total_s[name] += t1 - t0
            self.self_s[name] += (t1 - t0) - child_time[i]
            self.jets[name] += jets[i]
            if x is not None:
                self.extra[name].append(x)
            if parent < 0:
                self.root_s += t1 - t0
        self._spans = spans
        self._jets = jets

    def jets_where(self, name, pred) -> tuple:
        """(calls, jets) over spans called ``name`` whose extra satisfies
        ``pred``."""
        calls = jets = 0
        for i, (nm, _, _, _, x) in enumerate(self._spans):
            if nm == name and pred(x):
                calls += 1
                jets += self._jets[i]
        return calls, jets

    def calls_below(self, name, under) -> int:
        """Number of ``name`` spans that have an ``under`` span as an
        ancestor."""
        spans = self._spans
        n = 0
        for nm, _, _, parent, _ in spans:
            if nm != name:
                continue
            p = parent
            while p >= 0:
                if spans[p][0] in under:
                    n += 1
                    break
                p = spans[p][3]
        return n
