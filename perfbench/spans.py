"""Spans around the calls into each layer of `dimerdecay`, from outside it.

Tracing wraps every public function and dataclass constructor of the
layer modules (cli, excitons, rates, dynamics, analysis) and rebinds the
wrapper in every module namespace of the package that holds the original,
so calls between modules and within one module both pass through it.
Constructors are wrapped at `__init__`, which also catches the copies
`dataclasses.replace` makes.  `units` is too small to time apart and is
counted inside its callers.

A span is (name id, parent index, operation index, start, end).  Spans
stay in memory for one round; `Tracer.end_round` folds them into `totals`
and keeps the first traced round's spans, which the benchmark writes out
at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "dimerdecay"
LAYERS = ("cli", "excitons", "rates", "dynamics", "analysis")


def _steps(args, kwargs, result):
    # numeric_evolve(state, t, dt, p): the step count the RK4 loop takes
    t, dt = args[1], args[2]
    return {"fs": t, "steps": max(1, math.ceil(t / dt - 1e-9)) if t > 0.0 else 0}


# extra work counted per call, by span name
WORK = {
    "dynamics.numeric_evolve": _steps,
    "rates.frequency_renormalization": lambda a, k, r: {"modes": len(a[0] or ())},
    "rates.load_modes_csv": lambda a, k, r: {"modes": len(r) if r is not None else 0},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.work: dict[str, float] = defaultdict(float)
        self.op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self.first_spans: list | None = None
        self.totals: dict[str, float] = defaultdict(float)
        self.rounds = 0

    # --- installing ---------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, work = self.spans, self.stack, self.work
        count = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, parent, self.op, t0, t1)
                if count is not None:
                    for key, value in count(args, kwargs, result).items():
                        work[f"{name}.{key}"] += value

        return traced

    def install(self) -> None:
        """Bind the wrappers of the layers' public callables wherever the package binds them."""
        if not self._patches:
            self._build()
        for target, attr, _, new in self._patches:
            setattr(target, attr, new)

    def uninstall(self) -> None:
        for target, attr, old, _ in self._patches:
            setattr(target, attr, old)

    def _build(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    init = obj.__init__
                    self._patches.append((obj, "__init__", init, self._wrap(f"{layer}.{attr}", init)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj, wrappers[id(obj)]))

    # --- aggregating --------------------------------------------------

    def end_round(self) -> None:
        """Fold this round's spans into the totals and drop them."""
        names = self.names
        n = len(self.spans)
        child = [0.0] * n
        in_minimum = [False] * n
        for idx, (nid, parent, _, t0, t1) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_minimum[idx] = in_minimum[parent] or names[self.spans[parent][0]] == "analysis.find_alpha_minimum"
        tot = self.totals
        for idx, (nid, parent, _, t0, t1) in enumerate(self.spans):
            name = names[nid]
            dur = t1 - t0
            tot[f"{name}.calls"] += 1
            tot[f"{name}.incl_s"] += dur
            tot[f"{name.split('.')[0]}.self_s"] += dur - child[idx]
            if name == "rates.attenuation_factor" and in_minimum[idx]:
                tot["analysis.find_alpha_minimum.attenuation_evals"] += 1
        for key, value in self.work.items():
            tot[key] += value
        if self.first_spans is None:
            self.first_spans = [(names[s[0]],) + s[1:] for s in self.spans]
        self.rounds += 1
        self.spans.clear()
        self.work.clear()
