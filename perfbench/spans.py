"""Span tracing of loewner-lab's layers from outside the package.

``Tracer.install`` wraps the calls into each layer's functions.  Every
wrapper is set on each binding that names the function: the defining
module, every ``loewner_lab`` module that imported it by name, the class
that holds a method, or ``numpy.linalg`` for the LAPACK drivers.  A span is
``(name, start, end, parent)``; spans are kept in flat arrays in memory and
written out by ``Tracer.save``.  The layer of a span is its name's prefix,
and a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("generate", "spectral", "kernels", "means", "maps", "certificates", "suite")

# (module, attribute, span name); a dotted attribute is a method on a class.
_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("suite", "run_suite", "suite.run_suite"),
    ("suite", "hunt_counterexamples", "suite.hunt_counterexamples"),
    ("suite", "probe_tightness", "suite.probe_tightness"),
    ("suite", "write_report", "suite.write_report"),
    ("suite", "Report.to_json", "suite.to_json"),
    ("generate", "_spd", "generate.spd"),
    ("generate", "random_orthogonal", "generate.random_orthogonal"),
    ("generate", "_sandwich_pair", "generate.sandwich_pair"),
    ("generate", "_bounded_pair", "generate.bounded_pair"),
    ("generate", "estimate_sandwich", "generate.estimate_sandwich"),
    ("generate", "SandwichPair.verify", "generate.verify"),
    ("generate", "BoundedPair.verify", "generate.verify"),
    ("spectral", "decompose", "spectral.decompose"),
    ("spectral", "matrix_function", "spectral.matrix_function"),
    ("spectral", "SymMatrix.__init__", "spectral.symmatrix"),
    ("spectral", "loewner_compare", "spectral.loewner_compare"),
    ("spectral", "loewner_slack", "spectral.loewner_slack"),
    ("spectral", "ui_norm", "spectral.ui_norm"),
    ("spectral", "op_norm", "spectral.op_norm"),
    ("spectral", "spectrum_bounds", "spectral.spectrum_bounds"),
    ("kernels", "kernel_dominance", "kernels.dominance"),
    ("kernels", "is_symmetric_kernel", "kernels.is_symmetric_kernel"),
    ("kernels", "mean_kernel_gaps", "kernels.mean_kernel_gaps"),
    ("kernels", "sandwich_constant", "kernels.sandwich_constant"),
    ("kernels", "specht_ratio", "kernels.specht_ratio"),
    ("kernels", "loewner_matrix_psd_test", "kernels.loewner_matrix_psd_test"),
    ("means", "mean", "means.mean"),
    ("means", "kernel_mean", "means.kernel_mean"),
    ("means", "arithmetic", "means.arithmetic"),
    ("means", "harmonic", "means.harmonic"),
    ("means", "geometric", "means.geometric"),
    ("means", "spectral_inverse", "means.spectral_inverse"),
    ("maps", "check_unital", "maps.check_unital"),
    ("maps", "parse_map", "maps.parse_map"),
    ("certificates", "_vet_sandwich", "certificates.vet"),
    ("certificates", "_vet_bounded", "certificates.vet"),
)
_NUMPY = (("eigh", "spectral.eigh"), ("eigvalsh", "spectral.eigvalsh"))
_MODULES = ("spectral", "kernels", "means", "maps", "generate", "certificates", "suite", "cli")


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._undo: list = []
        self.decompose_inputs: set = set()
        self.report_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock, stack = time.perf_counter, self._stack
        names, starts, ends, parents = self.name, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self, original, wrapper, owners) -> None:
        """Set ``wrapper`` on every module attribute bound to ``original``."""
        for module in owners:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        pkg = [sys.modules[f"loewner_lab.{m}"] for m in _MODULES]
        by_name = {m: mod for m, mod in zip(_MODULES, pkg)}
        for module, attr, span in _FUNCTIONS:
            owner = by_name[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self.wrap(span, cls.__dict__[meth]))
            else:
                original = getattr(owner, attr)
                wrapper = self.wrap(span, original)
                if span == "spectral.decompose":
                    wrapper = self._hash_inputs(wrapper)
                self._install(original, wrapper, pkg)
        maps = by_name["maps"]
        for cls in vars(maps).values():
            if isinstance(cls, type) and issubclass(cls, maps.MapSpec) and "apply" in vars(cls):
                self._set(cls, "apply", self.wrap("maps.apply", cls.__dict__["apply"]))
        certificates = by_name["certificates"]
        for attr, value in list(vars(certificates).items()):
            if (attr.startswith("check_") or attr == "ando_check") and callable(value) \
                    and getattr(value, "__module__", "") == certificates.__name__:
                self._install(value, self.wrap("certificates.check", value), pkg)
        for attr, span in _NUMPY:
            self._set(np.linalg, attr, self.wrap(span, getattr(np.linalg, attr)))

    def _hash_inputs(self, traced):
        """Count distinct decompose inputs by content; hashing is a trace span."""
        seen = self.decompose_inputs
        hashing = self.wrap("trace.hash", lambda data: seen.add(
            hashlib.blake2b(data.tobytes(), digest_size=16).digest()))

        @functools.wraps(traced)
        def counted(A, *args, **kwargs):
            hashing(np.ascontiguousarray(getattr(A, "data", A), dtype=float))
            return traced(A, *args, **kwargs)

        return counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self):
        n = len(self.start)
        return (np.frombuffer(self.name, dtype=np.int32, count=n),
                np.frombuffer(self.start, dtype=np.float64, count=n),
                np.frombuffer(self.end, dtype=np.float64, count=n),
                np.frombuffer(self.parent, dtype=np.int32, count=n))

    def save(self, path: Path) -> None:
        name, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent)


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict:
    """Per-layer counts and times from the recorded spans."""
    name, start, end, parent = tracer.arrays()
    dur = end - start
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    self_time = dur - child
    n_names = len(tracer.names)
    calls = np.bincount(name, minlength=n_names)
    self_by = np.bincount(name, weights=self_time, minlength=n_names)
    dur_by = np.bincount(name, weights=dur, minlength=n_names)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def count(span):
        return int(calls[ids[span]]) if span in ids else 0

    def self_s(span):
        return float(self_by[ids[span]]) if span in ids else 0.0

    def total_s(span):
        return float(dur_by[ids[span]]) if span in ids else 0.0

    out = {}
    for layer in LAYERS + ("cli",):
        layer_self = sum(float(self_by[i]) for n, i in ids.items() if n.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (layer_self, "s")
        out[f"{layer}.share"] = (layer_self / traced_wall, "1")
    decompose_calls = count("spectral.decompose")
    out.update({
        "generate.orthogonal_calls": (count("generate.random_orthogonal"), "count"),
        "generate.verify_s": (total_s("generate.verify"), "s"),
        "spectral.decompose.calls": (decompose_calls, "count"),
        "spectral.decompose.distinct_frac": (
            len(tracer.decompose_inputs) / decompose_calls if decompose_calls else 0.0, "1"),
        "spectral.decompose.self_s": (self_s("spectral.decompose"), "s"),
        "spectral.eigh.calls": (count("spectral.eigh"), "count"),
        "spectral.eigh.self_s": (self_s("spectral.eigh"), "s"),
        "spectral.eigvalsh.calls": (count("spectral.eigvalsh"), "count"),
        "spectral.matrix_function.calls": (count("spectral.matrix_function"), "count"),
        "spectral.matrix_function.self_s": (self_s("spectral.matrix_function"), "s"),
        "spectral.symmatrix.calls": (count("spectral.symmatrix"), "count"),
        "kernels.dominance.calls": (count("kernels.dominance"), "count"),
        "means.mean.calls": (count("means.mean"), "count"),
        "maps.apply.calls": (count("maps.apply"), "count"),
        "certificates.check.calls": (count("certificates.check"), "count"),
        "certificates.vet_s": (total_s("certificates.vet"), "s"),
        "suite.serialize_s": (total_s("suite.write_report"), "s"),
        "suite.report_bytes": (tracer.report_bytes, "bytes"),
        "trace.spans": (len(dur), "count"),
        "trace.hash_s": (self_s("trace.hash"), "s"),
    })
    return out
