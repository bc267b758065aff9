"""Span tracing from outside the program, by wrapping module-level names.

A target is (span name, module, attribute). Installing a target replaces the
function in its module and in every ``evorestore`` module that imported the
same object, so a call through any of those names is recorded. Each call is
one span: name, parent span, start and end (``perf_counter_ns``). Spans are
kept in columnar arrays in memory and written out once, at the end of a run.

Wrappers take any arguments, so they keep working when a signature changes;
a target whose module or attribute is gone is listed in ``absent``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "evorestore"

NUMPY_FFT = tuple(
    f"{p}{kind}"
    for kind in ("fft", "fft2", "fftn")
    for p in ("", "i", "r", "ir")
)

TARGETS = (
    ("degrade.synthetic_clean_images", "evorestore.degrade", "synthetic_clean_images"),
    ("degrade.build_dataset", "evorestore.degrade", "build_dataset"),
    ("degrade.apply_degradation", "evorestore.degrade", "apply_degradation"),
    ("degrade.write_dataset", "evorestore.degrade", "write_dataset"),
    ("degrade.load_dataset", "evorestore.degrade", "load_dataset"),
    ("grids.conv2_periodic", "evorestore.grids", "conv2_periodic"),
    ("fmm.fmm_forward", "evorestore.fmm", "fmm_forward"),
    ("fmm.band_split", "evorestore.fmm", "band_split"),
    ("fmm.spectral_gate", "evorestore.fmm", "spectral_gate"),
    ("fmm.spatial_gate", "evorestore.fmm", "spatial_gate"),
    ("fmm.fmm_backward", "evorestore.fmm", "fmm_backward"),
    ("fmm.apply_update", "evorestore.fmm", "apply_update"),
    ("losses.combined_loss", "evorestore.losses", "combined_loss"),
    ("losses.ms_ssim", "evorestore.losses", "ms_ssim"),
    ("losses.ms_ssim_value", "evorestore.losses", "ms_ssim_value"),
    ("losses.charbonnier", "evorestore.losses", "charbonnier"),
    ("losses.ssim_index", "evorestore.losses", "ssim_index"),
    ("eos.run_eos", "evorestore.eos", "run_eos"),
    ("eos.val_losses", "evorestore.eos", "val_losses"),
    ("trainer.train", "evorestore.trainer", "train"),
    ("trainer.evaluate", "evorestore.trainer", "evaluate"),
    ("util.parallel_map", "evorestore.util", "parallel_map"),
) + tuple((f"numpy.fft.{f}", "numpy.fft", f) for f in NUMPY_FFT)


class Tracer:
    """Records spans for the targets while installed (see ``active``)."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _wrap(self, nid: int, fn):
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        package_modules = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, module_name, attr in self.targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            traced = self._wrap(self._id(name), fn)
            for m in [module] + [p for p in package_modules if p is not module]:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, key, fn))
                        setattr(m, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            m, key, fn = self._patches.pop()
            setattr(m, key, fn)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def spans(self) -> dict:
        """Columnar spans with durations and self times (duration minus direct children)."""
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": parent,
            "start_ns": start,
            "end_ns": end,
            "dur_ns": dur.astype(np.float64),
            "self_ns": dur - child,
        }

    def within(self, spans: dict, ancestor: str) -> np.ndarray:
        """Boolean per span: the span is `ancestor` or has it above it."""
        target = self.ids.get(ancestor, -1)
        name_id, parent = spans["name_id"], spans["parent"]
        inside = np.zeros(len(name_id), dtype=bool)
        for i in range(len(name_id)):  # parents precede children
            p = parent[i]
            inside[i] = name_id[i] == target or (p >= 0 and inside[p])
        return inside

    def table(self, spans: dict, select=slice(None)) -> dict:
        """name -> (calls, total ns, self ns) over the spans `select` picks (slice or mask)."""
        ids = spans["name_id"][select]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=spans["dur_ns"][select], minlength=n)
        own = np.bincount(ids, weights=spans["self_ns"][select], minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def save(self, path, spans: dict) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: spans[k] for k in ("name_id", "parent", "start_ns", "end_ns")},
        )
