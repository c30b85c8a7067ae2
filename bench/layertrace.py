"""Per-layer timings of robustmc, taken from outside the package.

`Tracer.install()` replaces functions in the package's module namespaces
with timing wrappers, under the names their callers look them up by (for
example `robustmc.solvers.shrink_singular_values`, which the solvers call,
rather than the definition in `robustmc.matcore`).  The package's code is
not changed.  Each wrapped call is a span; a span's self time is its
duration minus the durations of the spans it encloses, so the self times of
all spans add up to the time of the outermost spans, the CLI's `main`.

Spans are aggregated in memory per kind and turned into the per-layer
metrics by `Tracer.metrics()`.  A binding that the package no longer has
stops the traced run (`MissingBinding`): skipped, its time would move into
its caller's self time unseen and its metrics would read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from statistics import median

# (module, attribute, layer, kind)
BINDINGS = (
    ("robustmc.cli", "run_benchmark", "experiments", "runner"),
    ("robustmc.cli", "degrade_image", "experiments", "instance"),
    ("robustmc.cli", "training_error", "experiments", "score"),
    ("robustmc.cli", "test_error", "experiments", "score"),
    ("robustmc.cli", "default_gamma_path", "solvers", "gamma_path"),
    ("robustmc.cli", "robust_impute", "solvers", "path"),
    ("robustmc.cli", "soft_impute", "solvers", "path"),
    ("robustmc.cli", "read_matrix_csv", "matio", "read"),
    ("robustmc.cli", "read_pgm", "matio", "read"),
    ("robustmc.cli", "write_matrix_csv", "matio", "write"),
    ("robustmc.cli", "write_pgm", "matio", "write"),
    ("robustmc.cli", "atomic_write_text", "matio", "write"),
    ("robustmc.experiments", "generate_synthetic", "experiments", "instance"),
    ("robustmc.experiments", "training_error", "experiments", "score"),
    ("robustmc.experiments", "test_error", "experiments", "score"),
    ("robustmc.experiments", "default_gamma_path", "solvers", "gamma_path"),
    ("robustmc.experiments", "robust_impute", "solvers", "path"),
    ("robustmc.experiments", "soft_impute_path", "solvers", "path"),
    ("robustmc.solvers", "default_gamma_path", "solvers", "gamma_path"),
    ("robustmc.solvers", "soft_impute", "solvers", "path"),
    ("robustmc.solvers", "pseudo_data", "huber", "pseudo_data"),
    ("robustmc.solvers", "huber_norm_sq", "huber", "loss"),
    ("robustmc.solvers", "shrink_singular_values", "matcore", "shrink"),
    ("robustmc.solvers", "nuclear_norm", "matcore", "nuclear_norm"),
    ("robustmc.solvers", "svd", "matcore", "svd_factors"),
    ("robustmc.solvers", "_raw_svd", "matcore", "svd"),
    ("robustmc.matcore", "_raw_svd", "matcore", "svd"),
)


class MissingBinding(Exception):
    """A module no longer has a function that `BINDINGS` names."""


class _Kind:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


class Tracer:
    def __init__(self):
        self.kinds = {}
        self.layer_self = {}
        self._stack = []          # per open span: time spent in its child spans
        self._path_depth = 0
        self.path_s = 0.0         # outermost path-solver spans only
        self.stages = []          # (iterations, svd_count, converged) of returned stages
        self.shrink_times = []
        self.kept = 0
        self.computed = 0
        self.read_bytes = 0
        self.write_bytes = 0

    @classmethod
    def install(cls):
        tracer = cls()
        for module_name, attr, layer, kind in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                raise MissingBinding(f"{module_name}.{attr} is gone; update layertrace.BINDINGS")
            setattr(module, attr, tracer.wrap(fn, layer, kind))
        return tracer

    def wrap(self, fn, layer, kind):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(fn, layer, kind, args, kwargs)
        return traced

    def call(self, fn, layer, kind, args, kwargs):
        outer_path = kind == "path" and self._path_depth == 0
        if kind == "path":
            self._path_depth += 1
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
            if kind == "path":
                self._path_depth -= 1
            k = self.kinds.get(kind)
            if k is None:
                k = self.kinds[kind] = _Kind()
            k.calls += 1
            k.total += dur
            k.self_time += dur - frame[0]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + dur - frame[0]
        if outer_path:
            self.path_s += dur
            stages = getattr(result, "solutions", (result,))
            self.stages.extend((s.iterations, s.svd_count, s.converged) for s in stages)
        elif kind == "shrink":
            self.shrink_times.append(dur)
            if isinstance(result, tuple) and len(result) == 2:  # (matrix, shrunk values)
                self.kept += int((result[1] > 0.0).sum())
                self.computed += int(result[1].size)
        elif kind == "read":
            self.read_bytes += os.path.getsize(_path_arg(args, kwargs))
        elif kind == "write":
            self.write_bytes += os.path.getsize(_path_arg(args, kwargs))
        return result

    def _total(self, *kinds):
        return sum(self.kinds[k].total for k in kinds if k in self.kinds)

    def _calls(self, *kinds):
        return sum(self.kinds[k].calls for k in kinds if k in self.kinds)

    def metrics(self, wall_s):
        """Per-layer metrics, given the traced wall time of the CLI calls."""
        iterations = sum(s[0] for s in self.stages)
        svd_count = sum(s[1] for s in self.stages)
        svd_calls = self._calls("svd")
        return {
            "matcore.svd_calls": svd_calls,
            "matcore.svd_s": self._total("svd"),
            "matcore.self_s": self.layer_self.get("matcore", 0.0),
            "matcore.shrink_ms": 1e3 * median(self.shrink_times) if self.shrink_times else 0.0,
            "matcore.kept_sv_fraction": self.kept / self.computed if self.computed else 0.0,
            "matcore.uncounted_svd_calls": svd_calls - svd_count,
            "huber.pseudo_data_s": self._total("pseudo_data"),
            "huber.pseudo_data_calls": self._calls("pseudo_data"),
            "huber.loss_s": self._total("loss"),
            "huber.loss_calls": self._calls("loss"),
            "solvers.path_s": self.path_s,
            "solvers.self_s": self.layer_self.get("solvers", 0.0),
            "solvers.iteration_ms": 1e3 * self.path_s / iterations if iterations else 0.0,
            "solvers.iterations": iterations,
            "solvers.svd_count": svd_count,
            "solvers.nonconverged_stages": sum(1 for s in self.stages if not s[2]),
            "solvers.gamma_path_s": self._total("gamma_path"),
            "experiments.instance_s": self._total("instance"),
            "experiments.score_s": self._total("score"),
            "experiments.runner_self_s": self.kinds["runner"].self_time if "runner" in self.kinds else 0.0,
            "matio.read_s": self._total("read"),
            "matio.write_s": self._total("write"),
            "matio.read_bytes": self.read_bytes,
            "matio.write_bytes": self.write_bytes,
            "cli.self_s": self.layer_self.get("cli", 0.0),
            "trace.wall_s": wall_s,
        }


# Per-layer metrics whose sum is the self time of every span, hence the
# time of all `main` calls.
SELF_TIME_PARTS = (
    "cli.self_s", "experiments.instance_s", "experiments.score_s",
    "experiments.runner_self_s", "solvers.self_s", "huber.pseudo_data_s",
    "huber.loss_s", "matcore.self_s", "matio.read_s", "matio.write_s",
)
