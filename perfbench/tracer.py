"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces the listed public functions of ncmilnor with
timing wrappers, in every ncmilnor module namespace that holds them, and
``Tracer.uninstall`` puts the originals back.  Each call becomes a span
(name, start, end, parent span, op id, size); spans live in flat arrays
until ``write`` stores them, and ``layers`` derives calls, self time and
summed sizes from them.  Hot ring operators and point construction get
counters instead of spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

NO_PARENT = -1


def _zeta_terms(zeta) -> int:
    return sum(order * abs(exponent) for order, exponent in zeta.factors)


# (module, attribute, span name, size metric, size of a call from (args,
# result)) -- functions traced as spans, replaced in every module holding them
SPANNED = (
    ("model", "validate", "model.validate", None, None),
    ("model", "load_model", "model.load_model", "bytes", lambda a, r: len(a[0])),
    ("model", "save_model", "model.save_model", "bytes", lambda a, r: len(r)),
    ("milnor", "motivic_terms", "milnor.motivic_terms", None, None),
    ("milnor", "naive_absolute_class", "milnor.naive_absolute_class", None, None),
    ("milnor", "keyed_class", "milnor.keyed_class", None, None),
    ("milnor", "acampo_zeta", "milnor.acampo_zeta", None, None),
    ("milnor", "milnor_fibre_euler", "milnor.milnor_fibre_euler", None, None),
    ("ring", "zeta_equal", "ring.zeta_equal", "dense_terms",
     lambda a, r: _zeta_terms(a[0]) + _zeta_terms(a[1])),
    ("blowup", "check_invariance", "blowup.check_invariance", "strata",
     lambda a, r: len(a[0].strata)),
    ("blowup", "apply_blowup", "blowup.apply_blowup", None, None),
    ("blowup", "validate_center", "blowup.validate_center", None, None),
    ("blowup", "exceptional_fibre_strata", "blowup.exceptional_fibre_strata", None, None),
    ("logspace", "sign_f", "logspace.sign_f", None, None),
    ("logspace", "monodromy", "logspace.monodromy", None, None),
    ("logspace", "simplex_representative", "logspace.simplex_representative", None, None),
    ("logspace", "psi_map", "logspace.psi_map", None, None),
    ("logspace", "psi_inverse", "logspace.psi_inverse", None, None),
    ("logspace", "f_mot", "logspace.f_mot", None, None),
    ("logspace", "recover_multiplicities", "logspace.recover_multiplicities", None, None),
)

# (module, class, method, span name, size metric, size) -- methods traced as spans
SPANNED_METHODS = (
    ("model", "NCModel", "stratum_class", "model.stratum_class", "scanned",
     lambda a, r: len(a[0].strata)),
)

# (module, class, method, counter name) -- methods only counted
COUNTED_METHODS = (
    ("ring", "LefschetzPoly", "__mul__", "ring.poly_mul.calls"),
    ("ring", "LefschetzPoly", "__pow__", "ring.poly_pow.calls"),
    ("logspace", "CplPoint", "__init__", "logspace.CplPoint.calls"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("d")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = NO_PARENT
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else NO_PARENT)
        self.op.append(self.op_id)
        self.size.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _spanned(self, name: str, fn, size_of):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            self._close(idx)
            if size_of is not None:
                self.size[idx] = size_of(args, result)
            return result

        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "ncmilnor" or key.startswith("ncmilnor.")]
        for module, attr, name, _, size_of in SPANNED:
            original = getattr(sys.modules[f"ncmilnor.{module}"], attr)
            wrapper = self._spanned(name, original, size_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for module, cls_name, method, name, _, size_of in SPANNED_METHODS:
            cls = getattr(sys.modules[f"ncmilnor.{module}"], cls_name)
            self._patch(cls, method, self._spanned(name, cls.__dict__[method], size_of))
        for module, cls_name, method, counter in COUNTED_METHODS:
            cls = getattr(sys.modules[f"ncmilnor.{module}"], cls_name)
            self._patch(cls, method, self._counted(counter, cls.__dict__[method]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and summed size."""
        count = len(self.start)
        child = [0.0] * count
        for idx in range(count):
            parent = self.parent[idx]
            if parent != NO_PARENT:
                child[parent] += self.end[idx] - self.start[idx]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "size": 0.0})
        for idx in range(count):
            row = out[self.names[self.name[idx]]]
            duration = self.end[idx] - self.start[idx]
            row["calls"] += 1
            row["self_s"] += duration - child[idx]
            row["size"] += self.size[idx]
        return out

    def calls_of(self, name: str) -> list[tuple[float, float]]:
        """(size, seconds) of every span called ``name``."""
        nid = self._ids.get(name)
        return [(self.size[i], self.end[i] - self.start[i])
                for i in range(len(self.start)) if self.name[i] == nid]

    def write(self, stem) -> None:
        """Store the spans as ``<stem>.json`` (name table, counters, field
        layout) plus ``<stem>.bin`` (the arrays, one after another)."""
        fields = ("name", "parent", "op", "size", "start", "end")
        header = {"names": self.names, "spans": len(self.start), "counts": dict(self.counts),
                  "fields": [[f, getattr(self, f).typecode] for f in fields]}
        with open(f"{stem}.bin", "wb") as out:
            for f in fields:
                getattr(self, f).tofile(out)
        with open(f"{stem}.json", "w", encoding="utf-8") as out:
            json.dump(header, out)
