"""Per-layer tracing of ncgb from outside the package.

:class:`Tracer` replaces functions and methods of the ``ncgb`` modules with
timing wrappers, in every module namespace and class where they are looked
up, and puts the originals back on :meth:`Tracer.remove`.  Each wrapped call
pushes a frame on a stack; when it returns, its duration is added to its
parent's child coverage, and its self time is the duration minus its own
child coverage.  The self times of all wrapped calls therefore add up to the
duration of the outermost calls (the roots).

Calls of the outer functions (entry points, parsing, pair registration,
insertion, recombination) are also kept as spans ``(id, parent, name,
start, end)`` whose parent is the nearest recorded ancestor.  Calls of the
inner functions, some of which run more than 10**5 times in one workload,
are only aggregated into call count, total time and self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict

# (module, owner, attribute, recorded as spans).  ``owner`` is None for a
# module-level function, else the name of the class that defines the method.
TARGETS = [
    ("cli", None, "main", True),
    ("cli", None, "parse_job", True),
    ("cli", None, "render_basis", True),
    ("engine", None, "buchberger", True),
    ("engine", None, "verify_strong_basis", True),
    ("engine", None, "interreduce", True),
    ("engine", None, "normal_form", False),
    ("engine", "_Engine", "_register", True),
    ("engine", "_Engine", "_materialize", False),
    ("engine", "_Engine", "_product_ok", False),
    ("engine", "_Engine", "_chain_discard", False),
    ("engine", "_Engine", "_build_pair_poly", True),
    ("engine", "_Engine", "_insert", True),
    ("overlap", None, "overlaps", False),
    ("overlap", None, "spoly1", False),
    ("overlap", None, "spoly2", False),
    ("overlap", None, "s_cofactors", False),
    ("overlap", None, "g_cofactors", False),
    ("freealg", "FreeAlgebra", "add", False),
    ("freealg", "FreeAlgebra", "merge_terms", False),
    ("freealg", "FreeAlgebra", "scaled_translate", False),
    ("freealg", "FreeAlgebra", "scale", False),
    ("freealg", "FreeAlgebra", "multiply", False),
    ("freealg", "FreeAlgebra", "poly", False),
    ("freealg", "FreeAlgebra", "from_terms", False),
    ("freealg", "FreeAlgebra", "normalize_leading", False),
    ("freealg", "FreeAlgebra", "render", False),
    ("coeffring", "Domain", "coerce", False),
    ("coeffring", "Domain", "add", False),
    ("coeffring", "Domain", "neg", False),
    ("coeffring", "Domain", "mul", False),
    ("coeffring", "Domain", "divides", False),
    ("coeffring", "Domain", "exact_div", False),
    ("coeffring", "Domain", "reduce_quotient", False),
    ("coeffring", "Domain", "norm", False),
    ("coeffring", "Domain", "normalizing_unit", False),
    ("coeffring", "Domain", "coprime", False),
    ("coeffring", "Domain", "ext_gcd", False),
    ("coeffring", "Domain", "lcm", False),
    ("coeffring", "Domain", "render", False),
    ("coeffring", None, "residue_domain", True),
    ("modlift", None, "gb_zmod", True),
    ("modlift", None, "gb_mod_prime", True),
    ("modlift", None, "_combine", True),
    ("modlift", None, "_transfer", False),
    ("modlift", None, "plan_modulus", True),
]

LAYERS = ("cli", "engine", "overlap", "freealg", "coeffring", "modlift")

STAT_FIELDS = (
    "pairs_created",
    "pairs_discarded_product",
    "pairs_discarded_chain",
    "pairs_discarded_coeff",
    "reductions_to_zero",
    "basis_insertions",
)


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.lstrip('_')}"


class Tracer:
    """Wraps the ncgb functions in :data:`TARGETS` while installed."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name ("engine", ...) -> module object
        self.root = [0.0, None, None]  # child coverage, span id, name
        self.stack = [self.root]
        self.spans: list[tuple] = []
        self.agg: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_queue_size = 0
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, owner, attr, record in TARGETS:
            mod = self.modules[module]
            if owner is None:
                orig = getattr(mod, attr)
                wrapped = self._wrap(metric_name(module, attr), self._shim(attr, orig), record)
                for ns in self.modules.values():
                    for name, value in list(vars(ns).items()):
                        if value is orig:
                            self._patch(ns, name, wrapped)
            else:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(metric_name(module, attr), self._shim(attr, orig), record))

    def _patch(self, ns, name, value) -> None:
        self._undo.append((ns, name, getattr(ns, name)))
        setattr(ns, name, value)

    def remove(self) -> None:
        while self._undo:
            ns, name, value = self._undo.pop()
            setattr(ns, name, value)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, key: str, fn, record: bool):
        stack, spans = self.stack, self.spans
        agg = self.agg.setdefault(key, [0, 0.0, 0.0])
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids) if record else parent[1]
            frame = [0.0, sid, key]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if record:
                    spans.append((sid, parent[1], key, t0, t1))

        return wrapper

    def _shim(self, attr: str, fn):
        """Counting hooks for the few functions whose counts are metrics."""
        counts = self.counts
        if attr == "normal_form":
            def normal_form(f, basis, tail_reduce=False, trace=None):
                steps = [] if trace is None else trace
                start = len(steps)
                out = fn(f, basis, tail_reduce, steps)
                counts["normal_form.steps"] += len(steps) - start
                return out
            return normal_form
        if attr == "_chain_discard":
            def chain_discard(*args):
                hit = fn(*args)
                counts["chain_discard.hits"] += hit
                return hit
            return chain_discard
        if attr == "interreduce":
            stack = self.stack

            def interreduce(basis, *args, **kwargs):
                out = fn(basis, *args, **kwargs)
                # stack[-1] is interreduce itself, stack[-2] its caller
                if stack[-2][2] == "modlift.combine":
                    counts["combine.candidates"] += len(basis)
                    counts["combine.kept"] += len(out)
                return out
            return interreduce
        if attr == "buchberger":
            def buchberger(*args, **kwargs):
                res = fn(*args, **kwargs)
                st = res.stats
                for name in STAT_FIELDS:
                    counts[name] += getattr(st, name)
                self.peak_queue_size = max(self.peak_queue_size, st.peak_queue_size)
                return res
            return buchberger
        return fn

    # -- results -------------------------------------------------------------

    @property
    def wall(self) -> float:
        """Total duration of the outermost wrapped calls."""
        return self.root[0]

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, (_, _, self_s) in self.agg.items():
            out[key.split(".", 1)[0]] += self_s
        return out

    def calls(self, key: str) -> int:
        return self.agg[key][0]

    def self_s(self, key: str) -> float:
        return self.agg[key][2]

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"aggregates": self.agg}) + "\n")
