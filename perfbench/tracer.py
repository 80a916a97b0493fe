"""Outside-in layer tracing for the benchmark.

Wraps the public functions of each puredist layer from outside the
package: every wrapper records a span (name, start, end, parent span, job
id) and a call count, and a few wrappers also read counts out of return
values. Nothing under ``src/`` is edited. ``Tracer.installed`` patches a
wrapper into every ``puredist`` module namespace that binds the function,
because ``protocols``, ``bounds`` and ``verify`` import some functions by
name, and restores the originals on exit.
"""

import contextlib
import functools
import sys
import time

# (module, attribute) pairs; a dotted attribute names a method on a class.
TARGETS = (
    ("linalg", "eig_hermitian"),
    ("linalg", "psd_power"),
    ("linalg", "trace_norm"),
    ("linalg", "partial_trace"),
    ("states", "control_state"),
    ("states", "PureState.apply"),
    ("entropy", "i_max_cq"),
    ("entropy", "d_h"),
    ("entropy", "h_h"),
    ("entropy", "h_h_cond_cq"),
    ("entropy", "h_min_cq_smoothed"),
    ("compression", "compress_measurement"),
    ("compression", "simulated_conditionals"),
    ("compression", "nice_sets"),
    ("compression", "per_k_errors"),
    ("compression", "find_good_k"),
    ("protocols", "run_kd_oneshot"),
    ("protocols", "run_fewqubits"),
    ("protocols", "plan_fewqubits"),
    ("protocols", "uhlmann_unitary"),
    ("bounds", "rate_report"),
    ("bounds", "distributed_upper_bound"),
    ("io", "load_state"),
    ("io", "dumps"),
    ("cli", "main"),
)

LAYERS = ("linalg", "states", "entropy", "compression", "protocols",
          "bounds", "io", "cli", "verify")

# the span the harness opens around each verify-suite chunk
VERIFY_CHECK = "verify.check"


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self):
        self.names = []          # span name table; spans store an index
        self._name_index = {}
        self.spans = []          # (span id, parent id, job id, name idx, start ns, end ns)
        self.calls = {}          # span name -> calls
        self.self_ns = {}        # span name -> summed self time
        self.values = {
            "entropy.i_max_cq.iterations": 0,
            "entropy.i_max_cq.iterations.max": 0,
            "entropy.i_max_cq.gap.max": 0.0,
            "entropy.d_h.eig_calls": 0,
            "compression.c_norm.min": None,
            "compression.bot_mass.sum": 0.0,
            "compression.nice_pairs": 0,
            "compression.table_pairs": 0,
            "protocols.no_good_k": 0,
        }
        self.job = -1
        self._stack = []         # [span id, name idx, start ns, child ns]
        self._next_id = 0
        self._dh_depth = 0

    def _index(self, name):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_ns[name] = 0
        return idx

    def enter(self, name):
        idx = self._index(name)
        self.calls[name] += 1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, idx, time.perf_counter_ns(), 0])

    def exit(self):
        end = time.perf_counter_ns()
        span_id, idx, start, child = self._stack.pop()
        dur = end - start
        self.self_ns[self.names[idx]] += dur - child
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent = top[0]
        self.spans.append((span_id, parent, self.job, idx, start, end))

    @contextlib.contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        is_dh = name == "entropy.d_h"
        is_eig = name == "linalg.eig_hermitian"
        # NoGoodK passes through several wrapped callers; count it where raised
        is_find_k = name == "compression.find_good_k"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_eig and self._dh_depth:
                self.values["entropy.d_h.eig_calls"] += 1
            if is_dh:
                self._dh_depth += 1
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if is_find_k and type(exc).__name__ == "NoGoodK":
                    self.values["protocols.no_good_k"] += 1
                raise
            finally:
                self.exit()
                if is_dh:
                    self._dh_depth -= 1
            if observe is not None:
                observe(self.values, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target in every loaded puredist module; restore on exit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "puredist" or n.startswith("puredist.")) and m is not None]
        undo = []
        try:
            for mod_name, attr in TARGETS:
                owner = sys.modules[f"puredist.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(f"{mod_name}.{attr}", orig))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(owner, attr)
                wrapper = self.wrap(f"{mod_name}.{attr}", orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e9
        return out

    def write_spans(self, path):
        """Write the spans as CSV: id,parent,job,name,start_ns,end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,job,name,start_ns,end_ns\n")
            for sid, parent, job, idx, start, end in self.spans:
                fh.write(f"{sid},{parent},{job},{self.names[idx]},{start},{end}\n")


def _observe_imax(values, args, result):
    values["entropy.i_max_cq.iterations"] += int(result.iterations)
    values["entropy.i_max_cq.iterations.max"] = max(
        values["entropy.i_max_cq.iterations.max"], int(result.iterations))
    values["entropy.i_max_cq.gap.max"] = max(
        values["entropy.i_max_cq.gap.max"], float(result.duality_gap))


def _observe_compress(values, args, result):
    c = float(result.c_norm)
    low = values["compression.c_norm.min"]
    values["compression.c_norm.min"] = c if low is None else min(low, c)
    values["compression.bot_mass.sum"] += float(result.q_kl[:, result.L].sum())


def _observe_nice(values, args, result):
    cm = args[0]
    _, nice = result
    values["compression.nice_pairs"] += sum(len(ls) for ls in nice.values())
    values["compression.table_pairs"] += cm.K * cm.L


_OBSERVERS = {
    "entropy.i_max_cq": _observe_imax,
    "compression.compress_measurement": _observe_compress,
    "compression.nice_sets": _observe_nice,
}
