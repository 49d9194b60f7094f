"""Spans and counters around riskmix's layers, installed from outside.

`Tracer.install` wraps every public function of each layer module, and the
public methods of the frailty classes, and rebinds each wrapper wherever the
original is bound: riskmix modules import one another by name, so for
example `riskmix.mixing.log_bell_partial` and `riskmix.riskmeasures.survival`
are wrapped in the importing module too.  scipy's `quad`, `brentq` and
`logsumexp` are counted by the riskmix layer whose code called them.

A span records name, start, end, parent span and operation id.  Spans are
kept in flat arrays in memory and written out by `save`.  Only the main
thread records spans; simulate's worker threads call no wrapped function.
"""

import inspect
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from measure import self_times

LAYERS = ("specfun", "mixing", "aggregate", "riskmeasures", "dependence", "ruin",
          "asymptotics", "simulate", "cli")
_FRAILTY_METHODS = ("laplace", "laplace_derivative", "generator", "neg_moment",
                    "pos_moment", "pdf")
_X_FUNCTIONS = ("pdf", "pdf_closed", "pdf_generic", "survival", "cdf")
_SCIPY = (("scipy.integrate", "quad"), ("scipy.optimize", "brentq"),
          ("scipy.special", "logsumexp"))


def _size_of(name):
    """How a span's `size` is read from the call's arguments."""
    layer, fn = name.split(".")
    if layer == "aggregate" and fn in _X_FUNCTIONS:
        return lambda args, kwargs: int(np.size(args[1] if len(args) > 1 else kwargs["x"]))
    if name == "simulate.sample_vector":
        return lambda args, kwargs: args[0].samples
    return None


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.op_id = -1
        self.scipy_calls = Counter()        # (caller layer, function) -> calls
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ install

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        size_of = _size_of(name)
        start, end, names, parent, ops, size = (self.start, self.end, self.name,
                                                 self.parent, self.op, self.size)
        stack, main, get_ident = self._stack, threading.main_thread().ident, threading.get_ident

        def wrapper(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            i = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            size.append(size_of(args, kwargs) if size_of else 0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _count(self, fn, label):
        calls = self.scipy_calls

        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("riskmix."):
                calls[(caller[len("riskmix."):], label)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        from riskmix.mixing import MixingDistribution

        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"riskmix.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and issubclass(obj, MixingDistribution):
                    for meth in _FRAILTY_METHODS:
                        if inspect.isfunction(obj.__dict__.get(meth)):
                            self._set(obj, meth, self._wrap(obj.__dict__[meth], f"mixing.{meth}"))
        for modname, mod in list(sys.modules.items()):
            if modname == "riskmix" or modname.startswith("riskmix."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._set(mod, attr, wrapped[obj])
        for modname, fn in _SCIPY:
            mod = sys.modules[modname]
            self._set(mod, fn, self._count(getattr(mod, fn), fn))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent), op=np.asarray(self.op),
                            size=np.asarray(self.size))

    def summary(self, wall_s, cache_delta, cli_bytes):
        """Per-layer metrics of one traced pass that took `wall_s` seconds;
        `cache_delta` is the (hits, misses) the Bell caches gained in it."""
        n = len(self.start)
        selfs = self_times(self.start, self.end, self.parent)
        span_name = [self.names[self.name[i]] for i in range(n)]
        span_layer = [s.split(".")[0] for s in span_name]
        calls, fn_self, fn_total = Counter(), Counter(), Counter()
        layer_self = Counter({layer: 0.0 for layer in LAYERS})
        entries = points = var_survival = 0
        for i in range(n):
            name = span_name[i]
            calls[name] += 1
            fn_self[name] += selfs[i]
            fn_total[name] += self.end[i] - self.start[i]
            layer_self[span_layer[i]] += selfs[i]
            p = self.parent[i]
            if (span_layer[i] == "aggregate" and name.split(".")[1] in _X_FUNCTIONS
                    and (p < 0 or span_layer[p] != "aggregate")):
                entries += 1
                points += self.size[i]
            if name == "aggregate.survival" and p >= 0 and span_name[p] == "riskmeasures.value_at_risk":
                var_survival += 1
        rows = sum(self.size[i] for i in range(n) if span_name[i] == "simulate.sample_vector")
        hits, misses = cache_delta
        sample_s = fn_total["simulate.sample_vector"]
        m = {
            "specfun.log_bell_partial.calls": calls["specfun.log_bell_partial"],
            "specfun.log_bell_partial.self_s": fn_self["specfun.log_bell_partial"],
            "mixing.bell_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "mixing.bell_cache.misses": misses,
            "mixing.laplace_derivative.calls": calls["mixing.laplace_derivative"],
            "mixing.laplace_derivative.self_s": fn_self["mixing.laplace_derivative"],
            "mixing.laplace.calls": calls["mixing.laplace"],
            "mixing.logsumexp.calls": self.scipy_calls[("mixing", "logsumexp")],
            "aggregate.calls": entries,
            "aggregate.points": points,
            "aggregate.points_per_call": points / entries if entries else 0.0,
            "riskmeasures.value_at_risk.calls": calls["riskmeasures.value_at_risk"],
            "riskmeasures.survival_per_var": (var_survival / calls["riskmeasures.value_at_risk"]
                                              if calls["riskmeasures.value_at_risk"] else 0.0),
            "riskmeasures.quad_calls": self.scipy_calls[("riskmeasures", "quad")],
            "cli.write_table.s": fn_total["cli.write_table"],
            "cli.bytes_written": cli_bytes,
            "cli.commands": calls["cli.main"],
            "simulate.sample_vector.s": sample_s,
            "simulate.rows_per_s": rows / sample_s if sample_s else 0.0,
            "simulate.empirical_ks.s": fn_total["simulate.empirical_ks"],
            "simulate.quadrature_mixture_pdf.calls": calls["simulate.quadrature_mixture_pdf"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        m["trace.spans"] = n
        m["trace.unattributed_s"] = wall_s - sum(layer_self.values())
        return m
