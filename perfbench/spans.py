"""Outside-in tracing of dcjsort's public functions, for the traced run.

`Tracer.install` replaces each traced name with a wrapper in every loaded
``dcjsort*`` module that holds it (and in module-level dicts such as the
CLI's reader/writer tables); a traced class has its method patched on the
class itself, so ``isinstance`` keeps working.  `Tracer.restore` puts every
original back.  Each call records one span ``[name, start, end, parent,
op, error]`` in memory; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: Public names traced per module; ``Class`` traces its constructor.
TRACED = {
    "cli": ["main"],
    "genome": ["Genome", "apply_dcj", "read_genomes", "make_dcj", "signed_pair", "serialize_genome"],
    "adjacency_graph": [
        "AdjacencyGraph",
        "build_adjacency_graph",
        "dcj_distance",
        "CycleTracker",
        "CycleTracker.fission_to_dcj",
        "CycleTracker.members",
        "CycleTracker.partner",
        "realize_scenario",
    ],
    "enumeration": ["count_scenarios", "sample_scenario", "interleave", "multinomial"],
    "trees": [
        "LabeledTree",
        "prufer_decode",
        "tree_to_scenario",
        "scenario_to_tree",
        "parse_tree",
        "format_tree",
        "tree_to_dot",
    ],
    "parking": [
        "parking_to_scenario",
        "scenario_to_parking",
        "is_parking_function",
        "parse_parking",
        "format_parking",
    ],
    "fissions": [
        "validate_scenario",
        "require_valid",
        "apply_fission",
        "scenario_partners",
        "partner_in",
        "chain_top",
        "parse_scenario",
        "format_scenario",
    ],
}

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self):
        loaded = [m for key, m in sys.modules.items() if key == "dcjsort" or key.startswith("dcjsort.")]
        for module, names in TRACED.items():
            home = sys.modules[f"dcjsort.{module}"]
            for qualname in names:
                name = f"{module}.{qualname}"
                owner_name, _, method = qualname.partition(".")
                target = getattr(home, owner_name)
                if isinstance(target, type):
                    method = method or "__init__"
                    self._set(target, method, self._wrap(name, getattr(target, method)))
                    continue
                wrapper = self._wrap(name, target)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._set(mod, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, entry in list(value.items()):
                                if entry is target:
                                    self._set(value, key, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per name: calls, errors and total self seconds."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span[NAME], {"calls": 0, "errors": 0, "self_s": 0.0})
        row["calls"] += 1
        row["errors"] += span[ERROR]
        row["self_s"] += span[END] - span[START] - child[i]
    return out


def write_spans(spans, path) -> None:
    """One tab-separated line per span: id, parent, op, name, start, end (us), error."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\top\tname\tstart_us\tend_us\terror\n")
        for i, s in enumerate(spans):
            fh.write(
                f"{i}\t{s[PARENT]}\t{s[OP]}\t{s[NAME]}\t"
                f"{s[START] * 1e6:.1f}\t{s[END] * 1e6:.1f}\t{int(s[ERROR])}\n"
            )
