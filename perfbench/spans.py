"""In-memory spans around calls into the blockfriends modules.

The package is never edited: `Tracer.install` replaces public functions by
timing wrappers at every module attribute that holds them, which is where
callers look them up (`from .classify import classify_level` in cli.py binds
its own attribute, so that one is replaced too).  `Tracer.uninstall` puts
the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from math import comb
from statistics import median, median_low

PACKAGE = "blockfriends"


def package_modules() -> dict:
    """The package and its submodules that are loaded now, by name."""
    return {n: m for n, m in sys.modules.items()
            if n == PACKAGE or n.startswith(PACKAGE + ".")}


def _args(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _classify_level_info(fn):
    bind = _args(fn)

    def info(args, kwargs, result):
        a = bind(args, kwargs)
        cells = comb(a["parent"].v, a["n"])
        return {"subsets": cells, "classes": len(result),
                "inter_bytes": cells * a["parent"].b}
    return info


def _classify_all_info(fn):
    return lambda args, kwargs, result: {
        "classes": sum(len(level) for level in result.levels),
        "levels": len(result.levels),
    }


def _detect_design_info(fn):
    bind = _args(fn)

    def info(args, kwargs, result):
        blocks = bind(args, kwargs)["blocks"]
        # a one-shot iterator is not counted: consuming it would change the call
        return {"blocks": len(blocks) if hasattr(blocks, "__len__") else 0}
    return info


def _are_friends_info(fn):
    bind = _args(fn)

    def info(args, kwargs, result):
        a = bind(args, kwargs)
        return {"cells": a["d1"].b * a["d2"].b, "friends": int(result.friends)}
    return info


def _order_preservation_info(fn):
    bind = _args(fn)

    def info(args, kwargs, result):
        v = bind(args, kwargs)["f"].v
        return {"pairs": 3 ** v - 2 ** v}  # (y, x) with x a proper subset of y
    return info


def _load_info(fn):
    bind = _args(fn)
    return lambda args, kwargs, result: {
        "bytes": len(bind(args, kwargs)["text"].encode("utf-8"))
    }


def _save_info(fn):
    return lambda args, kwargs, result: {"bytes": len(result.encode("utf-8"))}


# (module, function) -> builder of the function that reads counts off a call.
# check_alpha_hypotheses has no metric; wrapping it keeps it out of cli.main.self_s.
TARGETS = {
    ("classify", "classify_level"): _classify_level_info,
    ("classify", "classify_all"): _classify_all_info,
    ("classify", "analyze"): None,
    ("designs", "detect_design"): _detect_design_info,
    ("friendship", "are_friends"): _are_friends_info,
    ("families", "build_family"): None,
    ("families", "order_relation"): None,
    ("families", "transitive_reduction"): None,
    ("families", "check_alpha_hypotheses"): None,
    ("families", "check_order_preservation"): _order_preservation_info,
    ("families", "export_hasse"): None,
    ("files", "load_design"): _load_info,
    ("files", "load_family"): _load_info,
    ("files", "save_design"): _save_info,
    ("cli", "main"): None,
    ("planes", "projective_plane"): None,
}


class Span:
    __slots__ = ("name", "start", "end", "cpu", "thread", "parent", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.info = {}
        self.cpu = time.thread_time()  # the thread's CPU clock until the span ends
        self.start = time.perf_counter()


class Tracer:
    """Records one span per wrapped call: name, start, end, thread, parent.

    A span's parent is the innermost span open on its own thread.  Spans
    opened on a library pool thread have none there, so they take the
    innermost span open on the main thread, which submitted the work.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is None and stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            span = Span(name, parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - span.cpu
                stack.pop()
                self.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = package_modules().values()
        for (mod_name, fn_name), info in TARGETS.items():
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(mod, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original,
                                 info(original) if info else None)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > max(start, reach):
            total += end - max(start, reach)
            reach = end
    return total


class SpanSet:
    """Per-name aggregates over the spans of one pass."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(id(s.parent), []).append(s)

    def named(self, *names) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def seconds(self, *names) -> float:
        """Wall time during which at least one span of these names is open."""
        return _covered((s.start, s.end) for s in self.named(*names))

    def calls(self, name) -> int:
        return len(self.named(name))

    def total(self, name, key) -> int:
        return sum(s.info.get(key, 0) for s in self.named(name))

    def self_seconds(self, name) -> float:
        """Span durations minus the part of each that its children cover."""
        out = 0.0
        for s in self.named(name):
            kids = self.children.get(id(s), [])
            out += (s.end - s.start) - _covered(
                (max(k.start, s.start), min(k.end, s.end)) for k in kids
            )
        return out

    def busy_over_wall(self, name) -> float:
        """CPU time of the spans opened under these spans, on any thread,
        over their wall time; above 1 only when the children ran in parallel."""
        spans = self.named(name)
        wall = sum(s.end - s.start for s in spans)
        busy = sum(k.cpu for s in spans for k in self.children.get(id(s), []))
        return busy / wall if wall else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    t = SpanSet(spans)
    levels = t.named("classify.classify_level")
    in_sweep = [s for s in levels
                if s.parent is not None and s.parent.name == "classify.classify_all"]
    alone = [s for s in levels if s not in in_sweep]
    friends = t.calls("friendship.are_friends")
    return {
        "classify.classify_level.s": t.seconds("classify.classify_level"),
        "classify.classify_level.calls": len(levels),
        "classify.classify_all.self_s": t.self_seconds("classify.classify_all"),
        "classify.classify_all.busy_over_wall": t.busy_over_wall("classify.classify_all"),
        "classify.analyze.busy_over_wall": t.busy_over_wall("classify.analyze"),
        "classify.analyze.self_s": t.self_seconds("classify.analyze"),
        "classify.subsets": sum(s.info.get("subsets", 0) for s in levels),
        "classify.classes": t.total("classify.classify_all", "classes")
        + sum(s.info.get("classes", 0) for s in alone),
        "classify.complement_levels": t.total("classify.classify_all", "levels")
        - len(in_sweep),
        "classify.inter_bytes_max": max(
            (s.info.get("inter_bytes", 0) for s in levels), default=0),
        "designs.detect_design.s": t.seconds("designs.detect_design"),
        "designs.detect_design.calls": t.calls("designs.detect_design"),
        "designs.detect_design.blocks": t.total("designs.detect_design", "blocks"),
        "friendship.are_friends.s": t.seconds("friendship.are_friends"),
        "friendship.are_friends.calls": friends,
        "friendship.cells": t.total("friendship.are_friends", "cells"),
        "friendship.friends_ratio": (
            t.total("friendship.are_friends", "friends") / friends if friends else 0.0
        ),
        "families.build_family.self_s": t.self_seconds("families.build_family"),
        "families.order_relation.s": t.seconds("families.order_relation"),
        "families.transitive_reduction.s": t.seconds("families.transitive_reduction"),
        "families.check_order_preservation.s": t.seconds("families.check_order_preservation"),
        "families.export_hasse.s": t.seconds("families.export_hasse"),
        "families.order_preservation.pairs": t.total(
            "families.check_order_preservation", "pairs"),
        "files.save_design.s": t.seconds("files.save_design"),
        "files.bytes_written": t.total("files.save_design", "bytes"),
        "files.load.s": t.seconds("files.load_design", "files.load_family"),
        "files.bytes_read": t.total("files.load_design", "bytes")
        + t.total("files.load_family", "bytes"),
        "cli.main.s": t.seconds("cli.main"),
        "cli.main.self_s": t.self_seconds("cli.main"),
        "cli.commands": t.calls("cli.main"),
    }


def unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(("_ratio", "over_wall")):
        return "ratio"
    if name == "classify.inter_bytes_max":
        return "bytes-computed"  # C(v,n) * b, from the arguments, not measured
    if name.startswith("files.bytes"):
        return "B"
    return "count"


# Counts that must repeat exactly from one pass, and one run, to the next.
EXACT = (
    "classify.subsets",
    "classify.classes",
    "friendship.cells",
    "friendship.friends_ratio",
    "families.order_preservation.pairs",
)


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    out = {}
    for k in passes[0]:
        values = [p[k] for p in passes]
        ints = all(isinstance(v, int) for v in values)
        out[k] = median_low(values) if ints else median(values)
    return out
