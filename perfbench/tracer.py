"""Span recording around riskgap's public functions, from outside the package.

``Tracer.install`` rebinds each traced function in every ``riskgap`` module
that holds it, so calls made through any import path pass through a
recording wrapper; ``uninstall`` puts the originals back.  The program's
source is untouched.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time

# (module, function) -> counts read from the call's arguments and result
TRACED = {
    ("estimation", "rollout_returns"): lambda a, r: {
        "particle_steps": a["config"].num_rollouts_C * a["depth"]
        * a["b_bar"].states.size},
    ("estimation", "certify_uniform"): None,
    ("estimation", "certify_tight_lower"): lambda a, r: {"draws": int(a["n_delta"])},
    ("estimation", "estimate_epsilon"): None,
    ("estimation", "estimate_g"): None,
    ("estimation", "build_default_proposal"): lambda a, r: {
        "atoms": r.proposal_probs.size, "importance_bound": r.importance_bound},
    ("risk", "cvar_estimate_sorted"): lambda a, r: {"samples": len(a["sample"])},
    ("risk", "cvar_exact"): None,
    ("envelopes", "dominated_cdf"): None,
    ("pomdp", "tv_distance"): None,
    ("pomdp", "enumerate_return_distribution"): lambda a, r: {"atoms": r.values.size},
    ("pomdp", "enumerate_trajectory_expectations"): None,
    ("value_bounds", "bound_report"): None,
    ("value_bounds", "q_exact"): None,
    ("cli", "cmd_certify"): None,
    ("cli", "cmd_enumerate"): None,
    ("cli", "cmd_concentration"): None,
    ("cli", "render_report"): None,
}

OP = "op"  # name of the span the benchmark opens around each op


class Tracer:
    """Records spans as tuples (id, name, start, end, parent, op, thread, counts)."""

    def __init__(self):
        self.spans = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack = None   # stack of the thread that opened the current op
        self._op_id = None
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            # a worker thread started inside an op: its caller is the span
            # open on the op's own thread (the thread pool's owner)
            parent = self._op_stack[-1]
        else:
            parent = None
        stack.append(span_id)
        return span_id, parent, stack

    def _close(self, span_id, name, start, parent, stack, counts):
        end = time.perf_counter()
        stack.pop()
        self.spans.append((span_id, name, start, end, parent, self._op_id,
                           threading.get_ident(), counts))

    def op(self, index: int, fn, *args):
        """Run one op inside a root span and return its result."""
        span_id, parent, stack = self._open()
        self._op_stack, self._op_id = stack, index
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(span_id, OP, start, parent, stack, None)
            self._op_stack = None

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span_id, parent, stack = self._open()
            start = time.perf_counter()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = count(bound.arguments, result)
                return result
            finally:
                self._close(span_id, name, start, parent, stack, counts)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "riskgap" or n.startswith("riskgap.")]
        for (mod_name, fn_name), count in TRACED.items():
            home = importlib.import_module(f"riskgap.{mod_name}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, count)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._saved.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict:
    """Per span name: calls, busy_s, self_s, summed counts, child busy and wall.

    Self time is a span's duration minus the part of it that the union of
    its child spans covers, so it never goes negative, even when children
    run on several threads at once.
    """
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    out = {}
    for span_id, name, start, end, _, _, _, counts in spans:
        kids = children.get(span_id, [])
        covered = _union_length((max(s[2], start), min(s[3], end))
                                for s in kids if s[3] > start and s[2] < end)
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "child_busy_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += (end - start) - covered
        row["child_busy_s"] += sum(s[3] - s[2] for s in kids)
        for key, val in (counts or {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + val
    return out
