"""Outside-in span tracer for the ``hmm_frontier`` layers.

The tracer replaces every binding of each listed public function in every
loaded ``hmm_frontier`` module with a timing wrapper, and restores the
original bindings on exit.  Rebinding everywhere matters because the
modules import one another's functions by name (``experiments.sample_paths``,
``filter_kl.sample_paths``, ``estimator.sample_phipsi``, ...): patching only
the defining module would miss those calls.  Nothing private is wrapped, so
refactors behind the public functions do not break the benchmark.

Spans (name, start, end, parent, attributes) are kept in memory; self time
is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

PACKAGE = "hmm_frontier"


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sample_paths_attrs(bound, result):
    return {"steps": int(bound["n"]) * int(bound["count"]), "rss_mb": _rss_mb()}


def _loglik_batch_attrs(bound, result):
    return {"steps": int(bound["observed"].size), "rss_mb": _rss_mb()}


def _triple_law_attrs(bound, result):
    return {"obs": len(bound["observed"])}


def _fit_attrs(bound, result):
    return {
        "converged": bool(result.converged),
        "init_fallback": bool(result.init_fallback),
        "starts": int(result.starts),
    }


# Span name -> function of (bound arguments, result) giving span attributes.
ATTRIBUTES = {
    "simulate.sample_paths": _sample_paths_attrs,
    "simulate.empirical_triple_law": _triple_law_attrs,
    "filter_kl.loglik_batch": _loglik_batch_attrs,
    "estimator.min_distance_fit": _fit_attrs,
}

# Every public function the traced run wraps, as "<module>.<qualified name>".
TRACED = (
    "cli.cli_main",
    "experiments.rate_sweep",
    "experiments.threshold_probe",
    "experiments.lower_bound_pair",
    "estimator.estimate_theta",
    "estimator.min_distance_fit",
    "estimator.moment_init",
    "simulate.sample_paths",
    "simulate.empirical_triple_law",
    "simulate.PathSample.to_csv",
    "filter_kl.loglik_batch",
    "filter_kl.kl_estimate",
    "params.sample_phipsi",
    "triple_law.triple_law_phipsi",
    "triple_law.rho",
    "triple_law.equivalence_ratio_probe",
)

# The untraced run still reads each FitResult: the sweep CSV has no
# ``converged`` column, and one wrapper call per fit costs nothing measurable.
RESULTS_ONLY = ("estimator.min_distance_fit",)


class Tracer:
    """Context manager that wraps the named functions and records spans."""

    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, attrs]
        self._stack = []
        self._restore = []

    def __enter__(self):
        for name in self.names:
            module_name, _, qualname = name.partition(".")
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if path:  # a method: its class holds the only binding
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _rebind(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attrs = ATTRIBUTES.get(name)
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if attrs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4] = attrs(bound.arguments, result)
            return result

        return wrapper

    def attributes(self, name):
        """Attribute dicts of the finished spans with this name, in call order."""
        return [s[4] for s in self.spans if s[0] == name and s[4] is not None]

    def summary(self):
        """Per span name: call count, durations (s), self time (s), attributes."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, parent, attrs) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "durations": [], "self_s": 0.0, "attrs": []}
            )
            entry["calls"] += 1
            entry["durations"].append((end - start) / 1e9)
            entry["self_s"] += (end - start - child_ns[i]) / 1e9
            if attrs is not None:
                entry["attrs"].append(attrs)
        return out

    def write(self, path):
        """Write the spans as CSV: index, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")
