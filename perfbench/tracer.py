"""Outside-in tracer: spans recorded around calls into the program's layers.

The benchmark never edits the program.  It replaces a public function or
method with a wrapper that records a span (name, start, end, parent) and
then calls the original.  A function is patched in every loaded
``repro`` module that holds it, so ``from ... import`` bindings (such as
``repro.fleet.runner.run_group_batch``) are traced as well as the
defining module's name.

Spans stay in memory until the run ends.  :func:`layer_self_times`
turns them into per-layer self time: a span's duration minus the part of
its interval that its child spans cover.  Time inside the traced window
that no root span covers is the unattributed remainder, so the layer
self times plus the unattributed time equal the traced wall.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    key: Optional[Tuple[Any, ...]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Probe:
    """What to wrap and how to account for it.

    ``owner`` is a class or module, ``attr`` the attribute to replace.
    ``count`` maps ``(args, kwargs, result)`` to a work count added to
    ``counter``; ``before`` may rewrite ``(args, kwargs)`` before the
    call; ``after`` sees every finished call (with its span).
    """

    owner: Any
    attr: str
    layer: str
    counter: Optional[str] = None
    count: Optional[Callable[..., float]] = None
    before: Optional[Callable[..., Tuple[tuple, dict]]] = None
    after: Optional[Callable[..., None]] = None


@dataclass
class Tracer:
    """Spans and counters of one traced run (single thread)."""

    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    _stack: List[int] = field(default_factory=list)
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def add(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name, layer=layer, start=time.perf_counter(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable[..., Any], name: str, probe: Probe) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if probe.before is not None:
                args, kwargs = probe.before(args, kwargs)
            span = tracer._open(name, probe.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if probe.count is not None:
                tracer.add(probe.counter, probe.count(args, kwargs, result))
            if probe.after is not None:
                probe.after(args, kwargs, result, span)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self, probes: Sequence[Probe]) -> None:
        """Wrap every probe's target, and every binding of a module function."""
        for probe in probes:
            owner, attr = probe.owner, probe.attr
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement: Any = classmethod(self.wrap(raw.__func__, name, probe))
                elif isinstance(raw, staticmethod):
                    replacement = staticmethod(self.wrap(raw.__func__, name, probe))
                else:
                    replacement = self.wrap(raw, name, probe)
                self._set(owner, attr, raw, replacement)
                continue
            original = getattr(owner, attr)
            replacement = self.wrap(original, name, probe)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if not module_name.startswith("repro"):
                    continue
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, original, replacement)

    def _set(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = lo
    for start, end in clipped:
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """``{layer: summed self time}`` over every span of that layer."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def layer_inclusive_times(spans: Sequence[Span], name: str) -> float:
    """Total duration of the outermost spans called ``name``.

    A span nested inside another span of the same name is skipped so
    recursion is not counted twice.
    """
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        nested = False
        while parent >= 0:
            if spans[parent].name == name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            total += span.duration
    return total


def unattributed(spans: Sequence[Span], lo: float, hi: float) -> float:
    """Time inside ``[lo, hi]`` that no root span covers."""
    roots = [(span.start, span.end) for span in spans if span.parent < 0]
    return (hi - lo) - covered(roots, lo, hi)
