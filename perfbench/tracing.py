"""Spans around calls into fibanyon's modules, recorded from outside the program.

``Tracer`` replaces each traced function in every ``fibanyon`` module
namespace that binds it (callers resolve those names at call time), and
``Observable.__init__`` on its class, for the duration of a ``with``
block only.  Each call becomes a span (name, start, end, parent, op);
per-name call counts, inclusive and self time are kept for every call,
while individual spans are kept up to ``MAX_SPANS`` so memory stays
bounded on workloads with millions of small calls.  Hooks add counts
that are taken from a call's arguments and result, where the work
happens.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

#: (span name, module, attribute).  A missing module or attribute is skipped,
#: so the benchmark keeps running when a later version deletes a function.
TARGETS = (
    ("cli.main", "fibanyon.cli", "main"),
    ("states.state_from_dict", "fibanyon.states", "state_from_dict"),
    ("states.from_grouped", "fibanyon.states", "from_grouped"),
    ("model.fusion_space_dim", "fibanyon.model", "fusion_space_dim"),
    ("multicopy.n_copy", "fibanyon.multicopy", "n_copy"),
    ("multicopy.copy_series", "fibanyon.multicopy", "copy_series"),
    ("multicopy.e_aree_ncopy", "fibanyon.multicopy", "e_aree_ncopy"),
    ("measures.measure_report", "fibanyon.measures", "measure_report"),
    ("measures.relative_entropy", "fibanyon.measures", "relative_entropy"),
    ("measures.minimality_gradient", "fibanyon.measures", "minimality_gradient"),
    ("measures.pythagorean_residual", "fibanyon.measures", "pythagorean_residual"),
    ("bell.optimize_chsh", "fibanyon.bell", "optimize_chsh"),
    ("bell.random_route", "fibanyon.bell", "_random_route"),
    ("bell.locality_certificate", "fibanyon.bell", "locality_certificate"),
    ("bell.random_involution_observable", "fibanyon.bell", "random_involution_observable"),
    ("bell.Observable", "fibanyon.bell", "Observable.__init__"),
    ("bell.chsh_value", "fibanyon.bell", "chsh_value"),
    ("verify.run_suite", "fibanyon.verify", "run_suite"),
)


MAX_SPANS = 100_000

#: Counts the hooks take at the call site.
COUNTS = (
    "states.groups_in",
    "states.groups_out",
    "multicopy.compositions",
    "multicopy.groups_out",
    "bell.optimize_chsh.joint_rank_max",
    "bell.random_route.ran",
    "bell.random_route.won",
)


def group_count(state) -> int:
    """(value, multiplicity) groups of a state, over both sectors."""
    return sum(len(state.grouped(c)[0]) for c in state.charges)


class Tracer:
    """Context manager that traces the ``TARGETS`` while active."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.span_count = 0
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.op: str | None = None
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._random_draws = None
        self._hooks = {
            "states.from_grouped": self._on_from_grouped,
            "multicopy.n_copy": self._on_n_copy,
            "bell.random_route": self._on_random_route,
            "bell.optimize_chsh": self._on_optimize_chsh,
        }

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> Tracer:
        modules = [m for name, m in sys.modules.items() if name.startswith("fibanyon")]
        for span, module_name, attr in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name, None)
                if owner is None:
                    continue
                self._patch(owner, attr, self._wrap(span, getattr(owner, attr)))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            traced = self._wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.span_count
            self.span_count += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if span_id < MAX_SPANS:
                    self.spans.append(
                        (span_id, name, start, end, parent[0] if parent else None, self.op)
                    )
            if hook is not None:
                bound = signature.bind(*args, **kwargs).arguments
                hook(bound, result, parent[1] if parent else None)
            return result

        return traced

    # -- counts taken at the call site ---------------------------------------

    def _on_from_grouped(self, args: dict, result, parent: str | None) -> None:
        self.counters["states.groups_in"] += sum(len(v) for v in args["grouped"].values())
        self.counters["states.groups_out"] += group_count(result)

    def _on_n_copy(self, args: dict, result, parent: str | None) -> None:
        n = args["n"]
        if n >= 2:
            letters = group_count(args["state"])
            self.counters["multicopy.compositions"] += math.comb(n + letters - 1, letters - 1)
            self.counters["multicopy.groups_out"] += group_count(result)
        if parent == "bell.optimize_chsh":
            rank = sum(result.ranks.values())
            key = "bell.optimize_chsh.joint_rank_max"
            self.counters[key] = max(self.counters[key], rank)

    def _on_random_route(self, args: dict, result, parent: str | None) -> None:
        if result is not None:
            self.counters["bell.random_route.ran"] += 1
            self._random_draws = result[1]

    def _on_optimize_chsh(self, args: dict, result, parent: str | None) -> None:
        # The random route won when its draws are the reported witnesses.
        if self._random_draws is not None and result.observables is self._random_draws:
            self.counters["bell.random_route.won"] += 1
        self._random_draws = None

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls / ms / self_ms per traced name, plus the hook counters."""
        out: dict[str, float] = {}
        for span, _, _ in TARGETS:
            calls, inclusive, own = self.stats.get(span, (0, 0.0, 0.0))
            out[f"{span}.calls"] = calls
            out[f"{span}.ms"] = inclusive * 1e3
            out[f"{span}.self_ms"] = own * 1e3
        out.update(self.counters)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                handle.write(json.dumps(record) + "\n")
