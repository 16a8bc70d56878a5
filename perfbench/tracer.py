"""In-memory spans recorded around calls into the package.

The tracer never edits the package: it replaces module and class attributes
with timing wrappers and puts the originals back on ``restore``. A wrap
target that does not exist is recorded as absent, so a later change that
removes a function leaves the benchmark running.

Work the benchmark itself adds while tracing (counting contributors, the
side ``project`` call) runs inside ``probe`` blocks. Probe time is subtracted
from every span that encloses it, so it never shows up as the package's
time.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        # Each span: name, parent index (or None), start, end, probe seconds
        # spent inside it, and free-form JSON-able attrs.
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._probe_total = 0.0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        probe0 = self._probe_total
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            rec["probe"] = self._probe_total - probe0
            self._stack.pop()

    @contextmanager
    def probe(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self._probe_total += perf_counter() - t0

    def wrap(self, fn, name: str, after=None):
        """``fn`` recorded as span ``name``; ``after(rec, args, result)`` runs as a probe."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if after is not None:
                with self.probe():
                    after(rec, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = vars(owner).get(attr)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if original is None:
            if label not in self.absent:
                self.absent.append(label)
            return
        setattr(owner, attr, self.wrap(original, name, after))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"] - rec["probe"]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [self.duration(s) for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= self.duration(s)
        return out

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["absent"] = self.absent
        doc["spans"] = [
            {
                "name": s["name"],
                "parent": s["parent"],
                "start": s["start"],
                "end": s["end"],
                "probe": s["probe"],
                **({"attrs": s["attrs"]} if s["attrs"] else {}),
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(doc, f)
