"""Outside-in layer tracer for difflat.

`Tracer.install()` replaces each public function of a layer in every difflat
module namespace that holds it by name, and `SystemModel.shift` on the class,
with a wrapper that records a span (name, start, end, parent, unit id). It
also replaces a layer's functions inside their own module, so calls between
stages (those `analyze` makes) become spans too. The expr layer is the
exception: its functions are wrapped only where other modules call them,
because wrapping its own recursion would trace every node. `uninstall()`
puts every original back; nothing under `src/` changes.
"""

from __future__ import annotations

import importlib
import re
import sys
import time
from collections import defaultdict

LAYERS = ("expr", "solve", "numeric", "model", "analysis", "extension", "sysfile")
CONSTRUCTORS = ("add", "mul", "sub", "div", "neg", "pow_")
MARK = "_perfbench_original"

_PERMUTATION = re.compile(r"^\s*(?:- )?(forward|backward|combined) sigma_y=", re.M)


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "difflat" or name.startswith("difflat."))]


def installed_wrappers() -> list:
    """Names of tracer wrappers currently reachable from difflat."""
    found = [f"{ns.__name__}.{attr}" for ns in _namespaces()
             for attr, obj in vars(ns).items() if hasattr(obj, MARK)]
    model = sys.modules.get("difflat.model")
    if model is not None and hasattr(model.SystemModel.shift, MARK):
        found.append("difflat.model.SystemModel.shift")
    return found


def _differentiate_cache():
    """differentiate's cache_info(), where it has one."""
    info = getattr(importlib.import_module("difflat.expr").differentiate, "cache_info", None)
    return info() if info else None


def tree_nodes(exprs) -> tuple:
    """(tree size, DAG size) of a sequence of expressions, by a memoized walk."""
    from difflat.expr import Add, Fun, Mul, Pow
    memo = {}

    def size(e):
        hit = memo.get(id(e))
        if hit is not None:
            return hit[1]
        if isinstance(e, Add):
            kids = e.terms
        elif isinstance(e, Mul):
            kids = e.factors
        elif isinstance(e, Pow):
            kids = (e.base,)
        elif isinstance(e, Fun):
            kids = (e.arg,)
        else:
            kids = ()
        out = 1 + sum(size(k) for k in kids)
        memo[id(e)] = (e, out)  # keep e alive so its id is not reused
        return out

    return sum(size(e) for e in exprs), len(memo)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, unit id]
        self.unit = -1
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []     # (owner, attribute, original)
        self._cache0 = None

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _newton(self, fn):
        counters = self.counters

        def counted(residual_fn, jacobian_fn, *args, **kwargs):
            def residual(w):
                counters["numeric.newton.residual_evals"] += 1
                return residual_fn(w)

            def jacobian(w):
                counters["numeric.newton.iterations"] += 1
                return jacobian_fn(w)

            return fn(residual, jacobian, *args, **kwargs)

        return self._span("numeric.newton_solve", counted)

    def _solve(self, fn):
        inner = self._span("solve.solve_equations", fn)
        counters = self.counters

        def sized(*args, **kwargs):
            solution = inner(*args, **kwargs)
            counters["solve.solution_tree_nodes"] += tree_nodes(solution.values())[0]
            return solution

        return sized

    def _wrapper_for(self, layer, name, fn):
        if layer == "expr" and name in CONSTRUCTORS:
            return self._span("expr.construct", fn)
        if layer == "numeric" and name == "newton_solve":
            return self._newton(fn)
        if layer == "solve" and name == "solve_equations":
            return self._solve(fn)
        return self._span(f"{layer}.{name}", fn)

    # -- install / uninstall ----------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = _namespaces()
        for layer in LAYERS:
            module = importlib.import_module(f"difflat.{layer}")
            for name, fn in _public_functions(module):
                wrapper = self._wrapper_for(layer, name, fn)
                setattr(wrapper, MARK, fn)
                for ns in namespaces:
                    if layer == "expr" and ns is module:
                        continue
                    for attr, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        model_cls = importlib.import_module("difflat.model").SystemModel
        self._patches.append((model_cls, "shift", model_cls.shift))
        wrapper = self._span("model.shift", model_cls.shift)
        setattr(wrapper, MARK, model_cls.shift)
        model_cls.shift = wrapper
        self._cache0 = _differentiate_cache()

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters read from the program's outputs -------------------------
    def observe_report(self, report):
        """Node counts of the tower and F, and the permutation search."""
        param = report.parameterization
        f_tree = f_dag = 0
        if param.F_x is not None:
            f_tree, f_dag = tree_nodes(tuple(param.F_x) + tuple(param.F_u))
        self.counters["expr.F_tree_nodes"] += f_tree
        self.counters["expr.F_dag_nodes"] += f_dag
        self.counters["expr.tower_tree_nodes"] += tree_nodes(report.tower.row_exprs())[0]
        rejected = len(_PERMUTATION.findall("\n".join(report.tower.context.diagnostics)))
        self.counters["analysis.permutations_tried"] += rejected + 1
        self.counters["analysis.permutations_accepted"] += 1

    def observe_rejection(self, error):
        self.counters["analysis.permutations_tried"] += len(_PERMUTATION.findall(str(error)))

    # -- results ----------------------------------------------------------
    def compact_spans(self) -> dict:
        """Spans with name indices and microseconds from the first start."""
        names, rows = {}, []
        t0 = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent, unit in self.spans:
            rows.append([names.setdefault(name, len(names)),
                         round((start - t0) * 1e6), round((end - t0) * 1e6),
                         parent, unit])
        return {"columns": ["name", "start_us", "end_us", "parent", "unit"],
                "names": list(names), "rows": rows}

    def layer_stats(self) -> dict:
        """calls, total_s (outermost spans of a name) and self_s per span name,
        plus the counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                stats[f"{name}.total_s"] += end - start
        stats.update(self.counters)
        cache = _differentiate_cache()
        if cache is not None and self._cache0 is not None:
            hits = cache.hits - self._cache0.hits
            misses = cache.misses - self._cache0.misses
            stats["expr.differentiate.cache_hits"] = hits
            stats["expr.differentiate.cache_lookups"] = hits + misses
            stats["expr.differentiate.cache_entries"] = cache.currsize
        stats["trace.spans"] = len(spans)
        return dict(stats)
