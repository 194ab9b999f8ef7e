"""Span tracing for the benchmark, applied from outside the package.

Each traced function is wrapped once and the wrapper is put in place of
every module attribute of the package that refers to the original, so a
call is caught under whatever name its caller looks it up by (for
example ``zsadjust.trainer.solve_weights`` and
``zsadjust.mapping.assemble_system``). Spans are kept in memory; only
calls made while an operation is open (see :meth:`Tracer.operation`) are
recorded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # (span id, name, start, end, parent span id, operation id);
        # roots have parent None.
        self.spans = []
        self.counts = defaultdict(float)   # (operation id, metric) -> value
        # Computed counts whose counter raised: they are reported as
        # missing, not as 0.
        self.failed_counts = {}            # traced target -> error
        self._stack = []
        self._op = None

    @contextmanager
    def operation(self, name, op_id):
        """Open a root span: the calls inside it form one operation."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        span_id = len(self.spans)
        self.spans.append(None)
        self._op = op_id
        self._stack.append(span_id)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self._op = None
            self.spans[span_id] = (span_id, name, start, end, None, op_id)

    def wrap(self, name, fn, counter=None):
        """``fn`` recording a span named ``name`` per call, plus the
        computed counts ``counter(args, kwargs, result)`` returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            op_id = self._op
            self._stack.append(span_id)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, op_id)
            if counter is not None:
                try:
                    found = counter(args, kwargs, result)
                except Exception as exc:
                    # The package's internal signatures change between
                    # versions; a count that no longer applies is reported
                    # as missing.
                    self.failed_counts[name] = f"{type(exc).__name__}: {exc}"
                    found = {}
                for key, value in found.items():
                    self.counts[(op_id, key)] += value
            return result

        return wrapper

    @contextmanager
    def installed(self, package, targets):
        """Wrap ``targets`` ({"module.fn": counter or None}) in every
        loaded module of ``package`` for the duration of the block.

        Yields the set of targets that exist in this version of the
        package.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        patched = []
        present = set()
        for target, counter in targets.items():
            mod_name, fn_name = target.rsplit(".", 1)
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                continue
            present.add(target)
            wrapper = self.wrap(target, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        try:
            yield present
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append(span)
    out = {}
    for span_id, _name, start, end, _parent, _op in spans:
        covered = 0.0
        cursor = start
        for child in sorted(children[span_id], key=lambda s: s[2]):
            lo = max(child[2], cursor)
            hi = min(child[3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def check_accounting(spans, selfs, rtol=1e-9):
    """Problems found when the self times under each root do not sum to
    the root's duration (an empty list when they all do)."""
    by_op = defaultdict(float)
    for span in spans:
        by_op[span[5]] += selfs[span[0]]
    problems = []
    for span_id, name, start, end, parent, op_id in spans:
        if parent is not None:
            continue
        total = end - start
        if abs(by_op[op_id] - total) > rtol * total + 1e-12:
            problems.append(f"operation {op_id} ({name}): self times sum to "
                            f"{by_op[op_id]:.9f} s, root lasted {total:.9f} s")
    return problems
