"""In-memory spans and counters around the public functions of ``netval``.

``Tracer.install`` replaces each listed function at every name a caller
looks it up by (the defining module, the package, and every sibling that
imported it with ``from .x import f``), so nothing under ``src/`` has to
change.  Spans are kept in a list and written out by the caller once the
run ends; a layer's self time is its span minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from netval.comonotonic import AffineMap, PowerMap

# functions timed with a span, by module
SPANNED = {
    "network": ("build_network", "network_from_relative"),
    "clearing": (
        "greatest_clearing",
        "greatest_clearing_batch",
        "delta_matrix",
        "delta_vector",
        "psi_star",
    ),
    "comonotonic": ("solvency_thresholds", "expected_values"),
    "capm": ("capm_thresholds", "debt_price_bound", "market_cap", "merton_baseline"),
    "calibration": ("calibrate", "fill_matrix", "calibrated_network"),
    "bounds": ("comonotonic_lower", "jensen_upper", "conditional_upper"),
    "oracle": ("simulate", "mc_expectations"),
}
# hot scalar functions: counted, never spanned
COUNTED = {"comonotonic": ("partial_expectation",)}
MAP_CLASSES = ("AffineMap", "PowerMap", "TabulatedMap")


def _is_affine(f) -> bool:
    # the maps the closed-form affine shortcut of solvency_thresholds accepts
    return isinstance(f, AffineMap) or (
        isinstance(f, PowerMap) and f.exponent in (0.0, 1.0)
    )


def _after_batch(tr, args, kwargs, out):
    Z = out[3]
    m = Z.shape[0]
    tr.counts["clearing.batch_rows"] += m
    if m:
        # default rows packed into 64-bit words; one word is a cheap 1-d unique
        packed = np.packbits(Z.astype(bool), axis=1)
        packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
        words = np.ascontiguousarray(packed).view(np.uint64)
        keys = words[:, 0] if words.shape[1] == 1 else words
        tr.counts["clearing.final_patterns"] += np.unique(keys, axis=0).shape[0]


def _after_single(tr, args, kwargs, out):
    tr.counts["clearing.single_iterations"] += out.iterations


def _after_thresholds(tr, args, kwargs, out):
    model = args[1] if len(args) > 1 else kwargs["model"]
    nbytes = sum(D.nbytes + d.nbytes for D, d in out.ladder)
    tr.peaks["comonotonic.ladder_bytes"] = max(tr.peaks["comonotonic.ladder_bytes"], nbytes)
    tr.counts["comonotonic.maps"] += len(model.f)
    tr.counts["comonotonic.affine_maps"] += sum(_is_affine(f) for f in model.f)


def _after_simulate(tr, args, kwargs, out):
    tr.counts["oracle.paths"] += out.X.shape[0]


AFTER = {
    "clearing.greatest_clearing_batch": _after_batch,
    "clearing.greatest_clearing": _after_single,
    "comonotonic.solvency_thresholds": _after_thresholds,
    "oracle.simulate": _after_simulate,
}


class Tracer:
    """Spans ``[name, start, end, parent]`` and named counters of one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.peaks = defaultdict(int)
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"netval.{m}") for m in SPANNED}
        importlib.import_module("netval.cli")
        swaps = {}
        for m, names in SPANNED.items():
            for name in names:
                orig = getattr(mods[m], name)
                swaps[id(orig)] = (orig, self._spanned(f"{m}.{name}", orig))
        for m, names in COUNTED.items():
            for name in names:
                orig = getattr(mods[m], name)
                swaps[id(orig)] = (orig, self._counted(f"{m}.{name}_calls", orig))
        for modname, mod in list(sys.modules.items()):
            if modname != "netval" and not modname.startswith("netval."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = swaps.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        for cname in MAP_CLASSES:
            cls = getattr(mods["comonotonic"], cname)
            orig = cls.__call__
            cls.__call__ = self._counted("comonotonic.map_evals", orig)
            self._undo.append((cls, "__call__", orig))

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._undo):
            setattr(obj, attr, val)
        self._undo.clear()

    def _spanned(self, name, fn):
        after = AFTER.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            ok = False
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                span[2] = clock()
                stack.pop()
                counts[name + ".calls"] += 1
                if not ok:
                    counts[name + ".errors"] += 1
            if after is not None:
                after(self, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals, self times and counters, JSON-ready."""
        total, self_t = layer_times(self.spans)
        return {
            "totals": dict(total),
            "self": dict(self_t),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
        }

    def dump(self, path: str) -> None:
        doc = dict(self.snapshot(), spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_times(spans):
    """(total, self) seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children; calls are sequential, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total, self_t = defaultdict(float), defaultdict(float)
    for k, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_t[name] += end - start - child[k]
    return total, self_t


def merge(into: dict, snap: dict) -> dict:
    """Add one snapshot's totals, self times and counts into ``into``."""
    for key in ("totals", "self", "counts"):
        dst = into.setdefault(key, defaultdict(float))
        for name, v in snap.get(key, {}).items():
            dst[name] += v
    peaks = into.setdefault("peaks", defaultdict(int))
    for name, v in snap.get("peaks", {}).items():
        peaks[name] = max(peaks[name], v)
    return into
