"""Traced mode: timed spans around the program's public functions.

Only a traced worker imports this file.  `install()` wraps each function
named in LAYERS and rebinds every name under which a `witrees` module
holds it, so calls between modules, and recursion through the module
global, go through the wrapper.  A call of a function that is already
open (the recursion inside `hat`, `tilde`, `format_tree`) is not a new
span.  Each span records its name, start, end and parent; self time is the
span's duration minus the time its child spans cover.  Aggregates cover
every span; the span log kept in memory is capped and written out by
`dump()` when the worker ends.  A function the program no longer has is
skipped, and its metrics read zero.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# module -> functions traced as their own spans ("Class.method" for methods)
LAYERS = {
    "enumeration": ["iter_trees", "enumerate_trees", "iter_multisets"],
    "trees": ["stats", "parity_counts", "active_counts", "ee_oe_odd", "format_tree", "parse_tree"],
    "transforms": ["hat", "tilde", "psi", "theta", "rho", "rho_inv"],
    "binary": ["annotate", "bstats", "dynamic_sets", "swap_branches", "orbit", "format_btree", "parse_btree"],
    "gamma": ["gamma_expand", "gamma_expand_poly", "reduced_schett", "multiset_schett", "slice_poly_coeffs"],
    "mpoly": ["MPoly.__mul__", "MPoly.__add__", "MPoly.__sub__", "MPoly.__pow__"],
    "grammar": ["schett_poly", "four_var_poly", "schett_coeffs", "derive"],
    "series": ["plane_gf", "check_algebraic_eq", "lagrange_series", "TruncSeries.__mul__"],
    "realroots": ["real_rooted", "sturm_chain"],
    "jacobi": ["jacobi_taylor"],
    "verify": [
        "check_counting", "check_stat_invariants", "check_hat", "check_tilde", "check_symmetry",
        "check_psi_theta", "check_full_degree", "check_euler", "check_binary", "check_action",
        "check_gamma", "check_series", "check_closed_forms", "check_jacobi", "scan_real_rootedness",
        "_deg_od_el",
    ],
    "cli": ["main"],
}
# modules traced as one span per call of any of their public functions
MODULE_TOTALS = ["counts", "multiset"]
GENERATORS = {"enumeration.iter_trees", "verify.scan_real_rootedness"}
WALKERS = ["trees.stats", "trees.parity_counts", "trees.active_counts", "trees.ee_oe_odd", "verify._deg_od_el"]
SPAN_LOG_CAP = 50_000


class Tracer:
    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.open: set[str] = set()
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.next_id = 0
        self.trees_yielded = 0
        self.gamma_trees = 0
        self.multisets: set[tuple[int, ...]] = set()
        self.binary_seen: set[int] = set()

    # -- spans -------------------------------------------------------------
    def _enter(self, name: str) -> list:
        self.next_id += 1
        frame = [name, perf_counter(), 0.0, self.next_id]
        self.stack.append(frame)
        self.open.add(name)
        return frame

    def _exit(self, frame: list, t_in: float) -> None:
        """Close a span.  The parent is charged with everything from `t_in`,
        when the wrapper was entered, to now, so the wrapper's own
        bookkeeping never counts as the parent's self time."""
        end = perf_counter()
        name, start, child, span_id = frame
        self.stack.pop()
        self.open.discard(name)
        dur = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        parent = self.stack[-1] if self.stack else None
        if len(self.spans) < SPAN_LOG_CAP:
            self.spans.append((span_id, name, start, end, parent[3] if parent else 0))
        if parent is not None:
            parent[2] += perf_counter() - t_in

    def _count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer.open:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            tracer._count(name)
            tracer._on_call(name, args)
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, t_in)

        return traced

    def wrap_generator(self, name: str, fn):
        """Each next() is a span; the call itself only counts."""
        tracer = self

        def traced(*args, **kwargs):
            t_in = perf_counter()
            tracer._count(name)
            tracer._on_call(name, args)
            it = fn(*args, **kwargs)
            if tracer.stack:
                tracer.stack[-1][2] += perf_counter() - t_in
            return tracer._iterate(name, it)

        return traced

    def _iterate(self, name: str, it):
        enumerating = name == "enumeration.iter_trees"
        while True:
            t_in = perf_counter()
            frame = self._enter(name)
            caller = self.stack[-2][0] if len(self.stack) > 1 else ""
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(frame, t_in)
            if enumerating:
                self.trees_yielded += 1
                if caller.startswith("gamma."):
                    self.gamma_trees += 1
            yield item

    def _on_call(self, name: str, args) -> None:
        if name == "enumeration.iter_trees":
            self.multisets.add(tuple(args[0].multiplicities))
        elif name in ("binary.annotate", "binary.swap_branches") and args:
            self.binary_seen.add(hash(args[0]))

    # -- report ------------------------------------------------------------
    def report(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "trees_yielded": self.trees_yielded,
            "gamma_trees": self.gamma_trees,
            "multisets": sorted(self.multisets),
            "binary_distinct": len(self.binary_seen),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"workload": self.workload_id, "spans": self.next_id,
                                 "logged": len(self.spans)}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent, self.workload_id]) + "\n")


def _rebind(orig, wrapper) -> None:
    """Point every witrees module global (and class attribute) holding
    `orig` at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if modname != "witrees" and not modname.startswith("witrees."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
            elif isinstance(value, type) and value.__module__.startswith("witrees"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is orig:
                        setattr(value, cattr, wrapper)


def install(workload_id: str) -> Tracer:
    tracer = Tracer(workload_id)
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"witrees.{module}")
        for qual in names:
            owner, attr = mod, qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                continue
            span = f"{module}.{qual}"
            wrap = tracer.wrap_generator if span in GENERATORS else tracer.wrap
            _rebind(orig, wrap(span, orig))
    for module in MODULE_TOTALS:
        mod = importlib.import_module(f"witrees.{module}")
        for attr, value in list(vars(mod).items()):
            if callable(value) and not isinstance(value, type) and not attr.startswith("_") \
                    and getattr(value, "__module__", "") == mod.__name__:
                _rebind(value, tracer.wrap(module, value))
    return tracer
