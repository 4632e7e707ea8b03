"""Spans around the calls into polylock's layers, recorded from outside.

`Tracer.install` swaps each traced function for a wrapper wherever a
polylock module binds it (for example both `polylock.search.sweep_collides`
and `polylock.separation.sweep_collides`). A span is [name, start, end,
parent index, query id, leaf totals, states]. Calls to the innermost kernel
(`sweep_collides`, hundreds of thousands per query) are too many to keep one
span each, so they are folded into the enclosing span as a call count and a
total time; self time subtracts them like any other child.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: (module, function) pairs that get a span per call.
SPANNED = (
    ("cli", "main"),
    ("formats", "parse_document"),
    ("separation", "blocking_graph"),
    ("separation", "plan_uto"),
    ("separation", "group_le5"),
    ("separation", "separate_le5"),
    ("separation", "simulate_plan"),
    ("search", "escape_search"),
    ("search", "key_piece_reachable"),
    ("search", "slide_dependency"),
    ("classify", "classify"),
    ("classify", "pockets"),
    ("grid", "enumerate_free"),
    ("svg", "render_svg"),
)

#: Kernel functions folded into the enclosing span.
FOLDED = (("grid", "sweep_collides"),)

#: Spans whose result carries a `states_explored` count.
SEARCHES = ("search.escape_search", "search.key_piece_reachable")

NAME, START, END, PARENT, QUERY, LEAF, STATES = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.open = []
        self.query = -1

    def _spanned(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self.open[-1] if self.open else -1, self.query, {}, 0]
            index = len(self.spans)
            self.spans.append(span)
            self.open.append(index)
            span[START] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.open.pop()
            if name in SEARCHES:
                span[STATES] = result.states_explored
            return result

        return wrapper

    def _folded(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                if self.open:
                    totals = self.spans[self.open[-1]][LEAF].setdefault(name, [0, 0.0])
                    totals[0] += 1
                    totals[1] += elapsed

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every loaded polylock module."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "polylock"]
        for kinds, make in ((SPANNED, self._spanned), (FOLDED, self._folded)):
            for module_name, func_name in kinds:
                original = getattr(sys.modules[f"polylock.{module_name}"], func_name)
                wrapper = make(f"{module_name}.{func_name}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            setattr(module, attr, wrapper)

    def totals(self):
        """Per name: [calls, inclusive seconds, self seconds, states]."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals = {}
        for span, children in zip(self.spans, child_time):
            duration = span[END] - span[START]
            folded = sum(total for _, total in span[LEAF].values())
            entry = totals.setdefault(span[NAME], [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - children - folded
            entry[3] += span[STATES]
            for leaf, (calls, total) in span[LEAF].items():
                entry = totals.setdefault(leaf, [0, 0.0, 0.0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += total
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "query", "folded", "states"],
                 "spans": self.spans},
                out,
            )
