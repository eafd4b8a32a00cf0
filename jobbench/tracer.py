"""Span tracing of regulus from the outside.

``install()`` replaces the public functions listed in ``WRAPPED`` with
wrappers that record one span per call: name, start, end and the span
that was open when the call began.  A module-level function is patched in
every regulus module that holds a reference to it (``criteria`` imports
``triangular_divide`` from ``poly``, for example), because that is where
callers look it up; methods are patched on their class.  ``remove()``
puts every original back and returns the spans.

Spans stay in memory; the job process hands them to the benchmark, which
writes them out at the end of the run.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, metric name); the metric is <module>.<name>
WRAPPED = [
    ("jobfile", "parse_job", "parse_job"),
    ("jobfile", "run_job", "run_job"),
    ("cli", "serialize", "serialize"),
    ("poly", "parse_poly", "parse_poly"),
    ("poly", "triangular_divide", "triangular_divide"),
    ("poly", "membership_certificate", "membership_certificate"),
    ("tower", "residue_field", "residue_field"),
    ("tower", "tower_reduce", "tower_reduce"),
    ("tower", "ResidueTower.inv", "inv"),
    ("tower", "TowerElem.__mul__", "mul"),
    ("tower", "ResidueTower.elem_str", "elem_str"),
    ("tower", "ResidueTower.describe", "describe"),
    ("linalg", "FieldMatrix.rank", "rank"),
    ("linalg", "FieldMatrix.solve", "solve"),
    ("criteria", "check_point", "check_point"),
    ("criteria", "base_change_verdict", "base_change_verdict"),
    ("criteria", "special_fiber_verdict", "special_fiber_verdict"),
    ("criteria", "default_dimension", "default_dimension"),
    ("groebner", "ideal_dimension", "ideal_dimension"),
    ("groebner", "groebner_basis", "groebner_basis"),
    ("groebner", "normal_form", "normal_form"),
    ("oracle", "cotangent_dimension", "cotangent_dimension"),
]

LAYER_NAMES = ["%s.%s" % (module, name) for module, _, name in WRAPPED]


class Tracer:
    """Records spans as (id, parent id, name index, start, end) tuples."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, func, index):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, index, start, end)

        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "regulus" or name.startswith("regulus."))
        ]
        for index, (module_name, path, _) in enumerate(WRAPPED):
            module = sys.modules["regulus." + module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, index))
                self._patches.append((cls, attr, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, index)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patches.append((holder, attr, original))

    def remove(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)
        return self.spans


def aggregate(spans):
    """Per layer name: [self seconds, calls].  Self time is a span's
    duration minus the durations of its direct children."""
    child_time = {}
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {name: [0.0, 0] for name in LAYER_NAMES}
    for span_id, _, index, start, end in spans:
        entry = out[LAYER_NAMES[index]]
        entry[0] += (end - start) - child_time.get(span_id, 0.0)
        entry[1] += 1
    return out
