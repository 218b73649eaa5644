"""Spans around the public functions of every clusterkit layer.

A traced job installs wrappers by module attribute, from outside the
program, in the forked job process only.  Calls between modules go through
the module attribute (`lp.mul`), and so do calls inside a module, which read
the same module globals; both are therefore recorded.  Each span is kept in
memory as (id, parent id, name, start ns, end ns, a, b), where a and b are
counts taken from the arguments and the return value, and the list is
written out once when the job ends.  The parent process turns the spans of
each job into per-layer totals with `Totals`.
"""

from __future__ import annotations

import importlib
import pickle
import time
from typing import Callable, Dict, List, Tuple

LAYERS = ("cli", "laurent", "lattice", "seeds", "orbits", "quasihom",
          "patterns", "surfaces", "grassmann")

# Leaf helpers called once per term or per matrix entry.  Wrapping them would
# multiply the tracing cost without naming any new boundary.
UNWRAPPED = {
    "laurent": {"exp_add", "exp_sub", "exp_neg", "grlex_key", "trop_add"},
    "patterns": {"permute_btilde"},
}

ROOT = "cli.job"

Span = Tuple[int, int, str, int, int, int, int]


def _poly_size(args, result) -> Tuple[int, int]:
    return 0, len(result) if isinstance(result, dict) else 0


def _mul_counts(args, result) -> Tuple[int, int]:
    return len(args[0]) * len(args[1]), len(result)


def _div_counts(args, result) -> Tuple[int, int]:
    return len(result), len(result)


def _explore_counts(args, result) -> Tuple[int, int]:
    nodes = len(result.nodes)
    edges = sum(len(nbrs) for nbrs in result.adjacency)
    return nodes, edges - (nodes - 1)


def _hnf_counts(args, result) -> Tuple[int, int]:
    return max((abs(x).bit_length() for row in result[1] for x in row), default=0), 0


COUNTERS: Dict[str, Callable] = {
    "laurent.mul": _mul_counts,
    "laurent.exact_div": _div_counts,
    "patterns.explore": _explore_counts,
    "lattice.hermite_normal_form": _hnf_counts,
}


class Tracer:
    """Span recorder for one job process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack = [0]
        self._next = 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name, _poly_size if layer == "laurent" else None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                a = b = 0
                if counter is not None and result is not None:
                    a, b = counter(args, result)
                spans.append((sid, parent, name, t0, t1, a, b))

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, and Seed.__init__."""
        for layer in LAYERS[1:]:
            module = importlib.import_module(f"clusterkit.{layer}")
            skip = UNWRAPPED.get(layer, set())
            for attr, value in list(vars(module).items()):
                if (callable(value) and not isinstance(value, type)
                        and not attr.startswith("_") and attr not in skip
                        and getattr(value, "__module__", None) == module.__name__):
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", value))
        seeds = importlib.import_module("clusterkit.seeds")
        seeds.Seed.__init__ = self.wrap("seeds.seed_init", seeds.Seed.__init__)

    def root(self, fn: Callable) -> Callable:
        """The job span: everything the CLI does for one command line."""
        return self.wrap(ROOT, fn)

    def dump(self, path: str) -> None:
        with open(path, "wb") as handle:
            pickle.dump(self.spans, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_spans(path: str) -> List[Span]:
    """Spans written by a job process of this run."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


class Totals:
    """Per-name and per-layer sums over the spans of many jobs.

    A layer's self time is the time its spans cover minus the time covered
    by their child spans, so the layers' self times add up to the job spans.
    A function's `excl` time also keeps its same-layer callees and leaves out
    only the other layers it calls (for the Seed constructor this keeps the
    validation in `seeds`).
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.excl_ns: Dict[str, int] = {}
        self.a_sum: Dict[str, int] = {}
        self.b_sum: Dict[str, int] = {}
        self.a_max: Dict[str, int] = {}
        self.b_max: Dict[str, int] = {}
        self.layer_self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.jobs = 0

    def add_job(self, spans: List[Span]) -> None:
        self.jobs += 1
        layer_of = {span[0]: span[2].split(".", 1)[0] for span in spans}
        child_ns: Dict[int, int] = {}
        foreign_ns: Dict[int, int] = {}
        # a span is appended when it ends, so children come before parents
        for sid, parent, name, t0, t1, a, b in spans:
            dur = t1 - t0
            layer = layer_of[sid]
            foreign = foreign_ns.pop(sid, 0)
            self.layer_self_ns[layer] += dur - child_ns.pop(sid, 0)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.excl_ns[name] = self.excl_ns.get(name, 0) + dur - foreign
            self.a_sum[name] = self.a_sum.get(name, 0) + a
            self.b_sum[name] = self.b_sum.get(name, 0) + b
            self.a_max[name] = max(self.a_max.get(name, 0), a)
            self.b_max[name] = max(self.b_max.get(name, 0), b)
            if parent in layer_of:
                child_ns[parent] = child_ns.get(parent, 0) + dur
                crossed = dur if layer_of[parent] != layer else foreign
                foreign_ns[parent] = foreign_ns.get(parent, 0) + crossed
