"""Spans around the public calls of each contraprox layer, recorded from outside.

The traced run wraps the layer functions listed in ``SPAN_TARGETS`` without
touching the package's sources: class methods are replaced on the class that
defines them, and a module-level function is replaced under every name that
any ``contraprox`` module bound with ``from ... import``.  Each call records a
span (name, start, end, parent span, operation id and one small integer tag)
into flat arrays that stay in memory until the run ends.  Every
``OracleCounters`` created while the tracer is installed is kept, so span
counts can be reconciled exactly with the program's own oracle counters.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np


class TracingError(RuntimeError):
    """The traced run is inconsistent: a missed or leftover wrapper."""


def _order_tag(args, kwargs, result):
    return int(kwargs["order"] if "order" in kwargs else args[2])


def _identity_tag(args, kwargs, result):
    return int(args[0].is_identity)


def _hess_tag(args, kwargs, result):
    base = kwargs["base"] if "base" in kwargs else args[1]
    return int(base.hess is not None)


def _iters_tag(args, kwargs, result):
    return int(result[2])


# (module under contraprox, attribute path, tag).  A dotted path names a method
# on the class that defines it; a plain name is a module-level function.
SPAN_TARGETS = (
    ("objectives", "SmoothOracle.taylor_data", _order_tag),
    ("objectives", "QuadraticOracle.value", None),
    ("objectives", "QuadraticOracle.grad", None),
    ("objectives", "QuadraticOracle.value_and_grad", None),
    ("objectives", "QuadraticOracle.hess", None),
    ("objectives", "LogSumExpOracle.value", None),
    ("objectives", "LogSumExpOracle.grad", None),
    ("objectives", "LogSumExpOracle.value_and_grad", None),
    ("objectives", "LogSumExpOracle.hess", None),
    ("objectives", "LogSumExpOracle.taylor_data", _order_tag),
    ("objectives", "reference_optimum", None),
    ("metric", "Metric.apply", _identity_tag),
    ("metric", "Metric.norm", _identity_tag),
    ("metric", "Metric.solve", _identity_tag),
    ("metric", "Metric.dual_norm", _identity_tag),
    ("metric", "Metric.dewhiten_dual", _identity_tag),
    ("bregman", "ProxFunction.divergence", None),
    ("bregman", "PowerProx.value", None),
    ("bregman", "PowerProx.gradient", None),
    ("tensor_steps", "tensor_step", _hess_tag),
    ("tensor_steps", "inner_loop", None),
    ("tensor_steps", "cubic_step_single_center", None),
    ("tensor_steps", "minimize_model_newton", _iters_tag),
    ("contracting", "run_contracting_proximal", None),
    ("baselines", "gradient_method_ls", None),
    ("baselines", "accelerated_gradient", None),
    ("baselines", "classical_ppa", None),
    ("baselines", "cubic_newton", None),
    ("baselines", "accelerated_cubic_newton", None),
    ("trace", "RunTrace.write_csv", None),
    ("trace", "read_csv", None),
    ("validate", "validate_trace", None),
    ("validate", "validate_columns", None),
    ("bench", "build_instance", None),
    ("bench", "run_method", None),
    ("bench", "validate_trace_file", None),
)


class Spans:
    """Flat, append-only span storage (30 bytes per span)."""

    def __init__(self):
        self.names = []
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin_op(self):
        """Start a new operation; spans until the next call share its id."""
        self.op_id += 1

    def wrap(self, name, fn, tag=None):
        nid = self.name_id(name)
        names, parents, ops, tags = self.name, self.parent, self.op, self.tag
        starts, ends, stack = self.start, self.end, self.stack

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            tags.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if tag is not None:
                tags[idx] = tag(args, kwargs, result)
            return result

        span.perfbench_span = name
        span.__wrapped__ = fn
        return span

    def arrays(self):
        """Columns as numpy arrays, plus each span's self time."""
        cols = {key: np.frombuffer(getattr(self, key), dtype=dt) if len(getattr(self, key))
                else np.zeros(0, dtype=dt)
                for key, dt in (("name", np.uint16), ("parent", np.int32), ("op", np.int32),
                                ("tag", np.int32), ("start", np.float64), ("end", np.float64))}
        dur = cols["end"] - cols["start"]
        has = cols["parent"] >= 0
        covered = np.bincount(cols["parent"][has], weights=dur[has], minlength=dur.size)
        cols["self"] = dur - covered
        return cols

    def save(self, path):
        cols = self.arrays()
        del cols["self"]
        np.savez_compressed(path, names=np.array(self.names), **cols)


def _contraprox_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "contraprox" or name.startswith("contraprox."))]


class Tracer:
    """Installs span wrappers and the counter registry; ``uninstall`` undoes both."""

    def __init__(self):
        self.spans = Spans()
        self.counters = []
        self._patches = []

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self):
        if self._patches:
            raise TracingError("tracer is already installed")
        modules = _contraprox_modules()
        for modname, path, tag in SPAN_TARGETS:
            module = importlib.import_module("contraprox." + modname)
            cls_name, _, attr = path.rpartition(".")
            name = f"{modname}.{path}"
            if cls_name:
                cls = getattr(module, cls_name)
                original = vars(cls)[attr]
                self._patch(cls, attr, original, self.spans.wrap(name, original, tag))
                continue
            original = getattr(module, attr)
            wrapper = self.spans.wrap(name, original, tag)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, original, wrapper)
        counters_cls = importlib.import_module("contraprox.objectives").OracleCounters
        original_init = vars(counters_cls)["__init__"]
        registry = self.counters

        def registering_init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            registry.append(obj)

        self._patch(counters_cls, "__init__", original_init, registering_init)

    def uninstall(self):
        """Restore every patched attribute and check each one by identity."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        wrong = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._patches if vars(owner)[attr] is not original]
        self._patches = []
        for mod in _contraprox_modules():
            holders = [mod] + [v for v in vars(mod).values()
                               if isinstance(v, type) and v.__module__ == mod.__name__]
            for holder in holders:
                for attr, value in vars(holder).items():
                    if hasattr(value, "perfbench_span"):
                        wrong.append(f"{getattr(holder, '__name__', holder)}.{attr}")
        if wrong:
            raise TracingError(f"attributes not restored after tracing: {sorted(set(wrong))}")

    def counter_totals(self):
        return {key: sum(getattr(c, key) for c in self.counters)
                for key in ("value", "grad", "hess", "matvec")}


BASELINE_SPANS = {
    "gm": "baselines.gradient_method_ls",
    "agm": "baselines.accelerated_gradient",
    "ppa": "baselines.classical_ppa",
    "cn": "baselines.cubic_newton",
    "acn": "baselines.accelerated_cubic_newton",
}


class SpanTable:
    """Column view of recorded spans with per-name selections."""

    def __init__(self, spans):
        self.cols = spans.arrays()
        self.names = spans.names

    def select(self, *wanted, mask=None):
        ids = [self.names.index(n) for n in wanted if n in self.names]
        sel = np.isin(self.cols["name"], ids)
        return sel & mask if mask is not None else sel

    def calls(self, *wanted, mask=None):
        return int(self.select(*wanted, mask=mask).sum())

    def self_s(self, *wanted, mask=None):
        return float(self.cols["self"][self.select(*wanted, mask=mask)].sum())


def layer_metrics(table, counters, facts):
    """Per-layer metrics of one traced pass.

    ``counters`` are the summed ``OracleCounters`` of the pass and ``facts``
    holds what the benchmark read off the results (iterations, inner steps,
    check counts, rows and bytes written).
    """
    cols, sel, calls, self_s = table.cols, table.select, table.calls, table.self_s
    out = {}

    def pair(metric, *wanted, mask=None):
        out[metric + ".calls"] = (calls(*wanted, mask=mask), "count")
        out[metric + ".self_s"] = (self_s(*wanted, mask=mask), "s")

    taylor = ("objectives.SmoothOracle.taylor_data", "objectives.LogSumExpOracle.taylor_data")
    values = ("objectives.QuadraticOracle.value", "objectives.LogSumExpOracle.value")
    pair("objectives.taylor_data", *taylor)
    pair("objectives.value", *values)
    pair("objectives.value_and_grad", "objectives.QuadraticOracle.value_and_grad",
         "objectives.LogSumExpOracle.value_and_grad")
    pair("objectives.grad", "objectives.QuadraticOracle.grad", "objectives.LogSumExpOracle.grad")
    pair("objectives.hess", "objectives.QuadraticOracle.hess", "objectives.LogSumExpOracle.hess")
    outer = sel("contracting.run_contracting_proximal")
    has_parent = cols["parent"] >= 0
    under_outer = np.zeros(cols["name"].size, dtype=bool)
    under_outer[has_parent] = outer[cols["parent"][has_parent]]
    out["objectives.monitor.calls"] = (calls(*values, mask=under_outer), "count")
    for key, metric in (("value", "oracle_f"), ("grad", "oracle_g"), ("hess", "oracle_h"),
                        ("matvec", "matvec")):
        out["objectives." + metric] = (int(counters[key]), "count")
    hess_built = calls(*taylor, mask=cols["tag"] >= 2)
    hess_used = calls("tensor_steps.tensor_step", mask=cols["tag"] == 1)
    out["objectives.hess_used_frac"] = (hess_used / hess_built if hess_built else 0.0, "frac")
    pair("objectives.reference_optimum", "objectives.reference_optimum")

    solves = ("metric.Metric.solve", "metric.Metric.dual_norm", "metric.Metric.dewhiten_dual")
    pair("metric.trisolve", *solves, mask=cols["tag"] == 0)
    applies = sel("metric.Metric.apply", "metric.Metric.norm") | sel(*solves, mask=cols["tag"] == 1)
    out["metric.apply_norm.calls"] = (int(applies.sum()), "count")
    out["metric.apply_norm.self_s"] = (float(cols["self"][applies].sum()), "s")

    bregman = ("bregman.ProxFunction.divergence", "bregman.PowerProx.value",
               "bregman.PowerProx.gradient")
    out["bregman.calls"] = (calls(*bregman), "count")
    out["bregman.self_s"] = (self_s(*bregman), "s")

    pair("tensor_steps.tensor_step", "tensor_steps.tensor_step")
    pair("tensor_steps.inner_loop", "tensor_steps.inner_loop")
    out["tensor_steps.inner_steps"] = (facts["inner_steps"], "count")
    pair("tensor_steps.cubic_step", "tensor_steps.cubic_step_single_center")
    pair("tensor_steps.newton", "tensor_steps.minimize_model_newton")
    newton = sel("tensor_steps.minimize_model_newton")
    out["tensor_steps.newton.iters"] = (int(cols["tag"][newton].sum()), "count")

    pair("contracting.outer", "contracting.run_contracting_proximal")
    out["contracting.outer_iters"] = (facts["outer_iters"], "count")

    for method, fn in BASELINE_SPANS.items():
        out[f"baselines.{method}.self_s"] = (self_s(fn), "s")
        out[f"baselines.{method}.iters"] = (facts["baseline_iters"][method], "count")

    out["trace.write_csv.self_s"] = (self_s("trace.RunTrace.write_csv"), "s")
    out["trace.read_csv.self_s"] = (self_s("trace.read_csv"), "s")
    out["trace.rows"] = (facts["rows"], "count")
    out["trace.bytes"] = (facts["bytes"], "bytes")

    out["validate.memory.self_s"] = (self_s("validate.validate_trace"), "s")
    out["validate.file.self_s"] = (self_s("validate.validate_columns"), "s")
    out["validate.checks_memory"] = (facts["checks_memory"], "count")
    out["validate.checks_file"] = (facts["checks_file"], "count")
    out["validate.failed_checks"] = (facts["failed_checks"], "count")
    out["validate.file_replay_frac"] = (
        facts["checks_file"] / facts["checks_memory"] if facts["checks_memory"] else 0.0, "frac")

    out["bench.build_instance.self_s"] = (self_s("bench.build_instance"), "s")
    return out


def reconcile(table, counters, facts):
    """Span counts against the program's own counters; raises TracingError.

    A wrapper that misses a binding under-counts its span, so any missed
    rebinding of an oracle method, ``inner_loop``, ``tensor_step``, the outer
    loop or a baseline driver fails here.
    """
    cols, calls = table.cols, table.calls

    fused = calls("objectives.LogSumExpOracle.taylor_data")
    fused_h = calls("objectives.LogSumExpOracle.taylor_data", mask=cols["tag"] >= 2)
    pairs = calls("objectives.QuadraticOracle.value_and_grad",
                  "objectives.LogSumExpOracle.value_and_grad")
    expected = {
        "oracle_f value": (calls("objectives.QuadraticOracle.value",
                                 "objectives.LogSumExpOracle.value") + pairs + fused,
                           counters["value"]),
        "oracle_g grad": (calls("objectives.QuadraticOracle.grad",
                                "objectives.LogSumExpOracle.grad") + pairs + fused,
                          counters["grad"]),
        "oracle_h hess": (calls("objectives.QuadraticOracle.hess",
                                "objectives.LogSumExpOracle.hess") + fused_h,
                          counters["hess"]),
        "inner_loop vs cptm outer iterations": (calls("tensor_steps.inner_loop"),
                                                facts["outer_iters"]),
        "tensor_step vs inner steps + cn/acn iterations": (
            calls("tensor_steps.tensor_step"),
            facts["inner_steps"] + facts["baseline_iters"]["cn"] + facts["baseline_iters"]["acn"]),
        "outer loop vs cptm solves": (calls("contracting.run_contracting_proximal"),
                                      facts["cptm_solves"]),
    }
    for method, fn in BASELINE_SPANS.items():
        expected[f"{method} driver vs {method} solves"] = (
            calls(fn), facts["baseline_solves"][method])
    bad = [f"{what}: spans {got} != program {want}"
           for what, (got, want) in expected.items() if got != want]
    if bad:
        raise TracingError("span counts do not reconcile: " + "; ".join(bad))
