"""Spans around the cross-layer calls that ``maskdispatch.protocol`` makes.

The tracer replaces module and class attributes at run time (nothing under
``src/`` is edited) with wrappers that record one span per call: name,
start, end, parent span and round id.  Spans stay in memory and are written
out once, when the run ends.  ``uninstall`` puts every original back.

Every wrapped call is a direct child of the round span that the benchmark
opens around ``run_market_round``; a wrapped call nested inside another one
would be counted in its parent's layer.  A round's self time is its span
minus its children's spans: message building, the private-row hash set, the
leak scan and the shape checks.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (object holding the attribute, attribute, layer metric the span feeds)
TARGETS = [
    ("maskdispatch.protocol", "build_ed_blocks", "market.build_blocks_s"),
    ("maskdispatch.protocol", "assemble_ed_lp", "market.assemble_clear_s"),
    ("maskdispatch.protocol", "extract_cleared", "market.extract_s"),
    ("maskdispatch.protocol", "line_flows", "market.extract_s"),
    ("maskdispatch.protocol", "solve_lp", "lp.solve_s"),
    ("maskdispatch.protocol", "build_transformed_ed", "masking.assemble_s"),
    ("maskdispatch.protocol", "recover_lmp", "masking.recover_s"),
    ("maskdispatch.masking", "entity_keys", "masking.keygen_s"),
    ("maskdispatch.masking", "iso_keys", "masking.keygen_s"),
    ("maskdispatch.masking", "mask_entity", "masking.mask_entity_s"),
    ("maskdispatch.masking", "mask_iso", "masking.mask_iso_s"),
    ("maskdispatch.protocol:EntityParty", "recover", "masking.recover_s"),
    ("maskdispatch.protocol:IsoParty", "recover_angles", "masking.recover_s"),
]

ROUND = "run_market_round"


def _holder(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "round", "mode",
                 "result", "args", "ok")

    def __init__(self, name, layer, parent, round_id, mode):
        self.name, self.layer = name, layer
        self.parent, self.round, self.mode = parent, round_id, mode
        self.start = self.end = 0.0
        self.result = self.args = None
        self.ok = False

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped calls; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._keep = set()          # round ids whose call results are kept
        self._round = None
        self._mode = None

    def install(self):
        for path, attr, layer in TARGETS:
            holder = _holder(path)
            original = holder.__dict__[attr]
            self._saved.append((holder, attr, original))
            setattr(holder, attr, self._wrap(original, f"{path}.{attr}", layer))

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent, self._round, self._mode)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if self._round in self._keep:
                span.args, span.result = args, out
            return out
        return traced

    @contextmanager
    def round(self, round_id, mode, keep_results=False):
        """Open the root span of one market round."""
        self._round, self._mode = round_id, mode
        if keep_results:
            self._keep.add(round_id)
        span = self._open(ROUND, "protocol.round_s")
        try:
            yield span
            span.ok = True
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._round = self._mode = None

    def rounds(self, mode):
        """Per completed round of ``mode``: (root span, {layer: seconds}),
        the layer times summed over the root's direct children."""
        roots = {}
        for i, s in enumerate(self.spans):
            if s.parent is None and s.mode == mode and s.ok:
                roots[i] = (s, {})
        for s in self.spans:
            if s.parent in roots:
                layers = roots[s.parent][1]
                layers[s.layer] = layers.get(s.layer, 0.0) + s.seconds
        return list(roots.values())

    def spans_of(self, round_id):
        return [s for s in self.spans if s.round == round_id]

    def write(self, path):
        """Write every span as one JSON row: name, start, end, parent (row
        number of the parent span), round id and mode; times in seconds
        from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start - t0, s.end - t0,
                                     s.parent, s.round, s.mode]) + "\n")
