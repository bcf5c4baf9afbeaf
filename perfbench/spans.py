"""Span tracing of splitbench's public functions, installed from outside.

Each traced function is replaced by a wrapper in every splitbench module
that holds it, so calls made through ``from .x import y`` copies are
traced too; a class is traced through its ``__init__``, and a generator
as the sum of its resumptions.  Spans are kept in memory as columns and
written out when the run ends.  Primitives called millions of times
(``bits``, ``popcount``, the ``leq`` methods and the algebra operation
methods) are left alone: their cost falls in their callers' self time.
"""

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = {
    "poset": ["enumerate_posets", "canonical_key", "enumerate_up_sets",
              "build_poset", "FinPoset"],
    "lattice": ["FinLattice", "all_splitting_pairs"],
    "duality": ["up_set_algebra", "dp_congruences", "varlet_report",
                "katrinak_arrow", "iter_morphisms", "classify_map",
                "dual_poset"],
    "residuated": ["validate_cirl", "monolith_info", "congruence_filters",
                   "quotient", "truncated_product", "is_isomorphic"],
    "expansion": ["ExpandedMonoid", "NuclearFrame", "gamma_closure",
                  "lp_algebra", "expand_to_depth"],
    "diagram": ["build_diagram", "eval_diagram", "si_structure",
                "search_hom", "embedding_by_diagram", "delta_power_witness",
                "in_hs", "witness_suite"],
    "hplus_witness": ["fence_for_target", "build_witness_algebra",
                      "diagram_final_check", "never_maps_onto_check"],
    "filtration": ["filtrate"],
    "cli": ["run", "algebra_from_json", "poset_from_json", "algebra_to_json",
            "upalgebra_to_json", "poset_to_json"],
}

TRACED = [f"{mod}.{name}" for mod, names in LAYERS.items() for name in names]
RATIOS = ["duality.iter_morphisms.yield_ratio",
          "diagram.delta_power_witness.evals_per_call"]

SETUP = "benchmark.setup"
OPERATION = "benchmark.operation"


class Tracer:
    """Records one span per traced call, with its parent and operation."""

    def __init__(self):
        self.names = [SETUP, OPERATION]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0, 0]
        self.self_ns = [0, 0]
        self.yields = {}
        self.stack = []
        self.op = -1
        self.active = True     # off while the checks' expectations are built

    def _name_id(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def enter(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        frame = [idx, 0]
        self.stack.append(frame)
        self.span_start.append(perf_counter_ns())
        return frame

    def leave(self, frame):
        end = perf_counter_ns()
        idx, child_ns = frame
        self.stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_ns[self.span_name[idx]] += dur - child_ns
        if self.stack:
            self.stack[-1][1] += dur

    def open_root(self, nid, op):
        """Open a set-up span (op -1) or an operation's root span."""
        self.op = op
        self.calls[nid] += 1
        return self.enter(nid)

    def close_root(self, frame):
        self.leave(frame)
        self.op = -1

    # -- wrapping ----------------------------------------------------------

    def _wrap_function(self, nid, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            self.yields[nid] = 0

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                tracer.calls[nid] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = tracer.enter(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.leave(frame)
                        tracer.yields[nid] += 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[nid] += 1
            frame = tracer.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame)

        return traced

    def install(self, package="splitbench"):
        """Wrap every function and class named in LAYERS."""
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for mod_name, names in LAYERS.items():
            home = sys.modules[f"{package}.{mod_name}"]
            for name in names:
                nid = self._name_id(f"{mod_name}.{name}")
                orig = getattr(home, name)
                if inspect.isclass(orig):
                    orig.__init__ = self._wrap_function(nid, orig.__init__)
                    continue
                wrapped = self._wrap_function(nid, orig)
                for mod in modules:
                    if mod.__dict__.get(name) is orig:
                        setattr(mod, name, wrapped)

    # -- results -----------------------------------------------------------

    def _children_of(self, parent_name, child_name):
        parent_id = self.names.index(parent_name)
        child_id = self.names.index(child_name)
        names, parents = self.span_name, self.span_parent
        return sum(1 for k in range(len(names))
                   if names[k] == child_id and parents[k] >= 0
                   and names[parents[k]] == parent_id)

    def metrics(self):
        """Self seconds and call counts per traced function, and ratios."""
        out = {}
        for nid, name in enumerate(self.names):
            if name in (SETUP, OPERATION):
                continue
            out[f"{name}.self_s"] = {"value": self.self_ns[nid] / 1e9,
                                     "unit": "s"}
            out[f"{name}.calls"] = {"value": self.calls[nid],
                                    "unit": "count"}
        it = self.names.index("duality.iter_morphisms")
        cm = self.calls[self.names.index("duality.classify_map")]
        out["duality.iter_morphisms.yield_ratio"] = {
            "value": self.yields[it] / cm if cm else 0.0, "unit": "ratio"}
        dpw = self.calls[self.names.index("diagram.delta_power_witness")]
        evals = self._children_of("diagram.delta_power_witness",
                                  "diagram.eval_diagram")
        out["diagram.delta_power_witness.evals_per_call"] = {
            "value": evals / dpw if dpw else 0.0, "unit": "ratio"}
        return out

    def op_shares(self):
        """Each function's self time as a share of all operation time."""
        names, ops = self.span_name, self.span_op
        op_id = self.names.index(OPERATION)
        total = 0
        per = [0] * len(self.names)
        for k in range(len(names)):
            if ops[k] < 0:
                continue
            dur = self.span_end[k] - self.span_start[k]
            if names[k] == op_id:
                total += dur
        # self time restricted to operations: duration minus children
        child = [0] * len(names)
        for k in range(len(names)):
            p = self.span_parent[k]
            if p >= 0:
                child[p] += self.span_end[k] - self.span_start[k]
        for k in range(len(names)):
            if ops[k] >= 0:
                per[names[k]] += (self.span_end[k] - self.span_start[k]
                                  - child[k])
        return {self.names[i]: per[i] / total
                for i in range(len(per)) if total and per[i]}

    def write(self, path, summary):
        """Write the spans as columns, with the run summary."""
        doc = {
            "summary": summary,
            "names": self.names,
            "spans": {"name": self.span_name.tolist(),
                      "parent": self.span_parent.tolist(),
                      "op": self.span_op.tolist(),
                      "start_ns": self.span_start.tolist(),
                      "end_ns": self.span_end.tolist()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
