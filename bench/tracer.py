"""Span recorder for the traced benchmark run.

`Tracer.install` wraps the public functions of each syncwords layer by
rebinding every name that holds one in a syncwords module: the defining
module, so that calls from inside it are caught, and each module that
imported it with `from .x import ...` (cli, reduce and sampling).  The
program itself is not changed.

A span is (name, start, end, parent).  Spans stay in memory until
`dump`.  A span's self time is its duration minus the time its children
cover; each metric below sums the self time of one group of functions.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

ENGINE = ("shortest_reset", "shortest_careful_reset", "shortest_subset_reset",
          "directing_word", "composition_depth")
REJECTION_SAMPLERS = ("random_synchronizable_subset_dfa",
                      "random_careful_subset_pfa",
                      "random_carefully_synchronizing_pfa")

# module -> self-time metric -> functions whose self time it sums
LAYERS = {
    "syncwords.cli": {"cli.self_s": ("main",)},
    "syncwords.textio": {
        "textio.parse_s": ("parse", "load"),
        "textio.serialize_s": ("serialize", "save"),
    },
    "syncwords.families": {
        "families.build_s": ("debruijn_counter", "cerny", "counting_word",
                             "de_bruijn"),
    },
    "syncwords.automata": {
        "automata.self_s": ("run", "condensation", "is_strongly_connected",
                            "augmentation_connects", "augmenting_pairs",
                            "sink_states"),
    },
    "syncwords.search": {
        "search.engine_s": ENGINE,
        "search.verify_s": ("check_transversal_partition", "is_swap_congruence",
                            "count_shortest_reset_words", "relevant_part",
                            "replay"),
        "search.oracle_s": ("brute_force_oracle",),
    },
    "syncwords.reduce": {
        "reduce.self_s": ("run_reduction", "binary_chain",
                          "add_sink_determinization", "add_link_letters",
                          "swap_doubling", "add_restart_letter", "binarize"),
    },
    "syncwords.sampling": {
        "sampling.generate_s": ("random_dfa", "random_pfa", "random_nfa",
                                "random_subset") + REJECTION_SAMPLERS
                               + ("random_connectable_pairs",),
    },
}
SELF_TIME_METRICS = tuple(metric for groups in LAYERS.values() for metric in groups)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._metric: dict[str, str] = {}

    # --- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        for module_name, groups in LAYERS.items():
            home = sys.modules[module_name]
            for metric, names in groups.items():
                for name in names:
                    self._metric[name] = metric
                    original = getattr(home, name)
                    wrapper = self._wrap(name, original)
                    for mod_name, mod in list(sys.modules.items()):
                        if (mod_name.partition(".")[0] == "syncwords"
                                and getattr(mod, name, None) is original):
                            self._undo.append((mod, name, original))
                            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, self._count
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            count(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- counts read from arguments and results -------------------------------

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name in ENGINE:
            c["search.calls"] += 1
            c["search.explored"] += result.explored
            c["search.levels"] += result.length or 0
            c["search.budget_stops"] += result.status == "budget_exceeded"
            if any(self.spans[i][0] in REJECTION_SAMPLERS for i in self._stack):
                c["sampling.engine_calls"] += 1
        elif name == "brute_force_oracle":
            c["search.oracle_words"] += result.explored
        elif name == "parse":
            c["textio.bytes"] += len(args[0])
        elif name == "serialize":
            c["textio.bytes"] += len(result)
        elif name == "run_reduction":
            c["reduce.states_out"] += result.output.automaton.n
        elif name in REJECTION_SAMPLERS:
            c["sampling.accepted"] += 1

    # --- results ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time summed per metric of LAYERS."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[self._metric[name]] += end - start - child
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        out: dict[str, float] = self.self_times()
        c = self.counts
        for key in ("search.explored", "search.levels", "search.calls",
                    "search.budget_stops", "search.oracle_words", "textio.bytes",
                    "reduce.states_out"):
            out[key] = c[key]
        out["search.nodes_per_s"] = _ratio(c["search.explored"], out["search.engine_s"])
        out["search.oracle_words_per_s"] = _ratio(c["search.oracle_words"],
                                                  out["search.oracle_s"])
        out["sampling.accept_ratio"] = _ratio(c["sampling.accepted"],
                                              c["sampling.engine_calls"])
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
