"""Per-layer tracing, installed from outside the package.

Every public function and method of each ``clustertube`` module is wrapped.
A wrapper opens a span (name, start, parent = the span open below it) and a
call count; when the span closes, its duration and self time (duration minus
the time its child spans cover) are folded into per-name totals, so memory
stays flat however many calls a job makes.  A layer is a module, and its
self time is the sum of the self times of its spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

PACKAGE = "clustertube"
MODULES = ("linalg", "laurent", "cluster", "tube", "endo", "amod", "strings",
           "grassmann", "ccmap", "verify", "cli")
# Dunder methods that do real work; the rest (__eq__, __hash__, ...) are
# left alone, since wrapping them would mostly time dict lookups.
DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__matmul__", "__neg__", "__pow__")

# Metric prefix -> span name, where the metric's short name differs.
SPAN_OF = {
    "linalg.ExactMatrix": "linalg.ExactMatrix.__init__",
    "laurent.mul": "laurent.LaurentPoly.__mul__",
    "laurent.div_exact": "laurent.lp_div_exact",
    "laurent.canonical_text": "laurent.LaurentPoly.canonical_text",
    "tube.hom_basis": "tube.Tube.hom_basis",
    "tube.ext_space": "tube.Tube.ext_space",
    "ccmap.cc": "ccmap.CCMap.cc",
}


def _objects(x) -> tuple:
    """An object argument as a tuple of (position, length) summands; an
    ``Indec`` compares equal to its plain tuple."""
    if x is None:
        return ()
    if len(x) == 2 and all(isinstance(k, int) for k in x):
        return (tuple(x),)
    return tuple(tuple(s) for s in x)


# Spans whose distinct inputs are counted, for ``distinct_ratio``.  An input
# is keyed by value, as a memo on (T, argument) would key it: End(T) rebuilt
# for the same T counts as the same input.
KEY_OF: Dict[str, Callable] = {
    "tube.Tube.hom_basis": lambda tube, x, y: (tube.n, x, y),
    "endo.build_endomorphism_algebra": lambda t, check=True: t.summands,
    "amod.apply_F": lambda algebra, x: (algebra.t.summands, _objects(x)),
    "amod.projective": lambda algebra, i: (algebra.t.summands, i),
    "amod.injective": lambda algebra, i: (algebra.t.summands, i),
    "ccmap.CCMap.cc": lambda cm, x: (cm.t.summands, _objects(x)),
}

VERIFY_CHECKS = ("check_tube_invariants", "check_structure", "check_b_matrix_compatibility",
                 "check_bijection", "check_denominators", "check_exchange_relations",
                 "check_index_coindex", "check_long_summand_lemmas", "check_ar_recursion",
                 "check_chi_oracle")

# Every per-layer metric, in report order, with the workloads on which it
# must be non-zero: a wrapper that measures nothing there fails the run.
V, C, A, S = "verify", "characters", "atlas", "structure"
PER_LAYER: Dict[str, tuple] = {
    "linalg.rref.calls": (V, C, S),
    "linalg.rref.self_s": (V, C, S),
    "linalg.rref.max_cells": (V, C, S),
    "linalg.kernel_basis.calls": (V, C, S),
    "linalg.kernel_basis.self_s": (V, C, S),
    "linalg.ExactMatrix.calls": (V, C, S),
    "linalg.self_s": (V, C, S),
    "laurent.mul.calls": (V, A),
    "laurent.mul.self_s": (V, A),
    "laurent.div_exact.calls": (V, A),
    "laurent.div_exact.self_s": (V, A),
    "laurent.canonical_text.calls": (V, C, A),
    "laurent.canonical_text.self_s": (V, C, A),
    "laurent.self_s": (V, C, A),
    "cluster.enumerate_atlas.calls": (V, A),
    "cluster.mutate_seed.calls": (V, A),
    "cluster.mutate_seed.self_s": (V, A),
    "cluster.seeds": (V, A),
    "cluster.new_seed_ratio": (V, A),
    "cluster.self_s": (V, A),
    "tube.hom_basis.calls": (V, C, A, S),
    "tube.hom_basis.distinct_ratio": (V, C, A, S),
    "tube.ext_space.calls": (V, C, A, S),
    "tube.CHom.compose.calls": (V, C, S),
    "tube.CHom.compose.self_s": (V, C, S),
    "tube.mutate_rigid.calls": (V, S),
    "tube.mutate_rigid.self_s": (V, S),
    "tube.enumerate_maximal_rigid.self_s": (V, S),
    "tube.self_s": (V, C, A, S),
    "endo.build_endomorphism_algebra.calls": (V, C, S),
    "endo.build_endomorphism_algebra.distinct_ratio": (V, C, S),
    "endo.build_endomorphism_algebra.self_s": (V, C, S),
    "endo.self_s": (V, C, S),
    "amod.apply_F.calls": (V, C),
    "amod.apply_F.distinct_ratio": (V, C),
    "amod.apply_F.self_s": (V, C),
    "amod.coindex.calls": (V, C),
    "amod.coindex.self_s": (V, C),
    "amod.index.calls": (V,),
    "amod.projective.calls": (V, C),
    "amod.projective.distinct_ratio": (V, C),
    "amod.injective.calls": (V, C),
    "amod.injective.distinct_ratio": (V, C),
    "amod.hom_A_basis.calls": (V, C),
    "amod.hom_A_basis.self_s": (V, C),
    "amod.self_s": (V, C),
    "strings.string_normal_form.calls": (V, C),
    "strings.string_normal_form.self_s": (V, C),
    "strings.self_s": (V, C),
    "grassmann.chi_table.calls": (V, C),
    "grassmann.chi_table.self_s": (V, C),
    "grassmann.chi_lf_oracle_fq.calls": (V,),
    "grassmann.chi_lf_oracle_fq.self_s": (V,),
    "grassmann.self_s": (V, C),
    "ccmap.cc.calls": (V, C),
    "ccmap.cc.distinct_ratio": (V, C),
    "ccmap.cached_atlas.calls": (V,),
    "ccmap.self_s": (V, C),
    **{f"verify.{c}.s": ((V, S) if c in ("check_tube_invariants", "check_structure") else (V,))
       for c in VERIFY_CHECKS},
    "verify.self_s": (V, S),
    "cli.run.s": (V, C, A, S),
    "cli.run.cpu_s": (V, C, A, S),
    **{f"{m}.sloc": (V, C, A, S) for m in MODULES},
    # tracing cost; may read 0 or below, so it is exempt from the check
    "trace.job_s": (V, C, A, S),
    "trace.overhead_s": (),
}

# The layer split the workloads were chosen for.  A miss is reported, not
# fatal: it means the code moved, not that a wrapper is broken.  On atlas,
# ``b_matrix`` cross-checks its result through End(T) and the Euler form, so
# apply_F, projective and hom_A_basis run a few times there (< 0.01 s).
_AMOD_CALLS = [m for m in PER_LAYER if m.startswith("amod.") and m.endswith(".calls")]
PREDICTED_ZERO = {
    A: ["amod.coindex.calls", "amod.index.calls", "amod.injective.calls",
        "strings.string_normal_form.calls", "grassmann.chi_table.calls",
        "grassmann.chi_lf_oracle_fq.calls"],
    S: _AMOD_CALLS + ["cluster.mutate_seed.calls", "laurent.mul.calls",
                      "grassmann.chi_table.calls"],
    C: ["cluster.mutate_seed.calls", "cluster.enumerate_atlas.calls"],
}
LARGEST_LAYER = {A: "laurent"}


class Tracer:
    """Span totals for one job at a time; ``reset`` between jobs."""

    def __init__(self):
        self.stack: List[list] = []  # open spans: [start, seconds covered by children]
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        self.keys: Dict[str, set] = {name: set() for name in KEY_OF}
        self.max_cells = 0
        self.seeds_added = 0
        self.rebound = 0

    def reset(self) -> None:
        self.calls.clear()
        self.total.clear()
        self.own.clear()
        for s in self.keys.values():
            s.clear()
        self.max_cells = 0
        self.seeds_added = 0

    # -- wrappers -----------------------------------------------------------

    def _after(self, name: str) -> Optional[Callable]:
        if name == "linalg.rref":
            def after(args, result):
                self.max_cells = max(self.max_cells, args[0].nrows * args[0].ncols)
            return after
        if name == "cluster.enumerate_atlas":
            def after(args, result):
                self.seeds_added += len(result.seeds) - 1
            return after
        return None

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, calls, total, own = self.stack, self.calls, self.total, self.own
        keys, key_of = self.keys.get(name), KEY_OF.get(name)
        after = self._after(name)
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so lazy work lands in this layer
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    span = [clock(), 0.0]
                    stack.append(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - span[0]
                        stack.pop()
                        total[name] += dur
                        own[name] += dur - span[1]
                        if stack:
                            stack[-1][1] += dur
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(key_of(*args, **kwargs))
            span = [clock(), 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - span[0]
                stack.pop()
                calls[name] += 1
                total[name] += dur
                own[name] += dur - span[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of the layer modules, then
        rebind every module-level name and dict entry that held an original,
        since ``from .linalg import rref`` copies the function elsewhere."""
        replaced: Dict[int, tuple] = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(f"{mod_name}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(f"{mod_name}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self.rebound += 1
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        hit = replaced.get(id(v))
                        if hit is not None and hit[0] is v:
                            obj[k] = hit[1]
                            self.rebound += 1

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr, type(member)(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member))
            # properties and other descriptors stay as they are

    # -- per-job metrics ----------------------------------------------------

    def job_metrics(self, cpu_s: float) -> Dict[str, float]:
        """The per-layer metrics of the job since the last ``reset``."""
        out: Dict[str, float] = {}
        layer_own: Dict[str, float] = defaultdict(float)
        for name, secs in self.own.items():
            layer_own[name.split(".", 1)[0]] += secs
        for metric in PER_LAYER:
            prefix, kind = metric.rsplit(".", 1)
            span = SPAN_OF.get(prefix, prefix)
            if metric == "linalg.rref.max_cells":
                value = self.max_cells
            elif metric == "cluster.seeds":
                value = self.seeds_added + self.calls["cluster.enumerate_atlas"]
            elif metric == "cluster.new_seed_ratio":
                value = self.seeds_added / max(1, self.calls["cluster.mutate_seed"])
            elif metric == "cli.run.cpu_s":
                value = cpu_s
            elif kind == "sloc" or prefix == "trace":
                continue  # filled in by the caller
            elif prefix in MODULES and kind == "self_s":
                value = layer_own[prefix]
            elif kind == "calls":
                value = self.calls[span]
            elif kind == "self_s":
                value = self.own[span]
            elif kind == "s":
                value = self.total[span]
            elif kind == "distinct_ratio":
                value = len(self.keys[span]) / max(1, self.calls[span])
            else:
                raise KeyError(f"no rule for metric {metric}")
            out[metric] = value
        return out


def sloc(src: Path) -> Dict[str, int]:
    """Non-blank, non-comment source lines of each layer module."""
    out = {}
    for m in MODULES:
        lines = (src / PACKAGE / f"{m}.py").read_text().splitlines()
        out[f"{m}.sloc"] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    return out
