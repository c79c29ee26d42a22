"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``symae`` modules from outside the
library, so no library code changes.  The modules import functions by name
(``symae.architecture.pi_orth`` and ``symae.initializers.pi_orth`` are
separate bindings), so every module binding that holds a traced function is
replaced; methods are replaced once, on their class.  Spans are kept in
memory with their parent span and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute path inside the module, span name).  A missing name
# raises at install time, so a later rename cannot read as zero time.
TRACED = (
    ("activations", "LeakyReLU.apply", "activations.apply"),
    ("activations", "LeakyReLU.apply_inverse", "activations.apply_inverse"),
    ("activations", "LeakyReLU.derivative", "activations.derivative"),
    ("activations", "HypAct.apply", "activations.apply"),
    ("activations", "HypAct.apply_inverse", "activations.apply_inverse"),
    ("activations", "HypAct.derivative", "activations.derivative"),
    ("architecture", "assemble", "architecture.assemble"),
    ("architecture", "loss_on_batch", "architecture.loss_on_batch"),
    ("architecture", "SymmetricAutoencoder.reconstruct", "architecture.reconstruct"),
    (
        "architecture",
        "SymmetricAutoencoder.constraint_residual",
        "architecture.constraint_residual",
    ),
    ("autodiff", "gradient", "autodiff.gradient"),
    ("autodiff", "backward", "autodiff.backward"),
    ("bounds", "empirical_mse", "bounds.empirical_mse"),
    ("cli", "init_study", "cli.init_study"),
    ("data_io", "generate_pga", "data_io.generate_pga"),
    ("data_io", "save_snapshots", "data_io.save_snapshots"),
    ("data_io", "load_snapshots", "data_io.load_snapshots"),
    ("initializers", "eys_init", "initializers.eys_init"),
    ("initializers", "orthogonal_random_init", "initializers.orthogonal_random_init"),
    ("initializers", "lift", "initializers.lift"),
    ("initializers", "EysCache.level", "initializers.EysCache.level"),
    ("linalg", "pi_orth", "linalg.pi_orth"),
    ("linalg", "householder_qr", "linalg.householder_qr"),
    ("linalg", "thin_svd", "linalg.thin_svd"),
    ("linalg", "covariance_spectrum", "linalg.covariance_spectrum"),
    ("linalg", "orthonormal_completion", "linalg.orthonormal_completion"),
    ("training", "train", "training.train"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "split", "training.split"),
    ("training", "minmax_normalize", "training.minmax_normalize"),
    ("training", "apply_minmax", "training.apply_minmax"),
    ("training", "evaluate", "training.evaluate"),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span in TRACED))


def snapshot_file_bytes(path) -> int:
    """Size of a snapshot CSV plus its ``<stem>.params.csv`` sibling, if any."""
    path = Path(path)
    sibling = path.with_name(path.stem + ".params.csv")
    return path.stat().st_size + (sibling.stat().st_size if sibling.exists() else 0)


class Tracer:
    """Records one span per call of a traced function.

    A span is ``(name, parent index, start, end, tape nodes)``; the tape-node
    count is the number of ``symae.autodiff.Var`` objects built during the
    span.  Spans are stored in call order, so a parent's index is below its
    children's.
    """

    def __init__(self):
        self.spans: list = []
        self.var_nodes = 0
        self.bytes_read = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name):
        count_bytes = name == "data_io.load_snapshots"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_bytes:
                self.bytes_read += snapshot_file_bytes(
                    kwargs["path"] if "path" in kwargs else args[0]
                )
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            nodes = self.var_nodes
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, parent, start, end, self.var_nodes - nodes)

        return traced

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if name == "symae" or name.startswith("symae.")
        ]
        for module_name, path, span in TRACED:
            owner = importlib.import_module(f"symae.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            if attr not in owner.__dict__:
                raise LookupError(f"traced name symae.{module_name}.{path} does not exist")
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, span)
            if classes:
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, binding, wrapper)

        var = importlib.import_module("symae.autodiff").Var
        var_init = var.__init__

        def counting_init(node, *args, **kwargs):
            self.var_nodes += 1
            var_init(node, *args, **kwargs)

        self._replace(var, "__init__", counting_init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        """Write the spans as JSON lines: id, parent, name, start, end, tape nodes."""
        with open(path, "w") as fh:
            for index, (name, parent, start, end, nodes) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "parent": parent, "name": name,
                    "start_s": start, "end_s": end, "tape_nodes": nodes,
                }) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer ``name -> (value, unit)`` aggregated over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        gradient_nodes = 0
        level_misses = set()
        for index, (name, parent, start, end, nodes) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[index]
            if name == "autodiff.gradient":
                gradient_nodes += nodes
            # A level call that computes a spectrum itself is a cache miss.
            if name == "linalg.covariance_spectrum" and parent >= 0:
                if self.spans[parent][0] == "initializers.EysCache.level":
                    level_misses.add(parent)

        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["activations.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith("activations.")), "s"
        )
        grads = calls["autodiff.gradient"]
        out["autodiff.tape_nodes_per_step"] = (gradient_nodes / grads if grads else 0.0, "count")
        levels = calls["initializers.EysCache.level"]
        out["initializers.eys_cache.hit_ratio"] = (
            1.0 - len(level_misses) / levels if levels else 0.0, "ratio"
        )
        out["data_io.bytes_read"] = (self.bytes_read, "B")
        return out
