"""Spans around the calls the benchmark makes into each nakarep module.

Queries call the library through ``tracer.call(module, function, fn, *args)``.
The untraced ``Tracer`` just calls ``fn``; ``SpanTracer`` times each call and
keeps per-(module, function) totals in memory.  A span may name a parent
span whose work it repeats on the same inputs: the parent's self time is
its time minus those children.  Push-forward is repeated as its invert,
two compose and validate calls, which are timed as repeats of their own.
Its self time is not reported: push-forward does little beyond those
calls, so its time minus theirs would be the difference of two timed runs
of the same compose work, which is mostly timing noise and can be
negative.  No module waits on another in this single-threaded library, so
wait time is not recorded.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

MODULES = ("pwmap", "interval", "kupisch", "repcat", "discrete", "cli")


class Tracer:
    enabled = False

    def call(self, module: str, name: str, fn, *args, size=None, parent=None, repeat=False):
        return fn(*args)

    def count(self, name: str, value) -> None:
        pass

    def peak(self, name: str, value) -> None:
        pass


class _Span:
    __slots__ = ("calls", "total", "children", "points")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.children = 0.0
        self.points: List[Tuple[float, float]] = []  # (size, seconds)

    @property
    def self_s(self) -> float:
        return self.total - self.children


class SpanTracer(Tracer):
    enabled = True

    def __init__(self):
        self.spans: Dict[Tuple[str, str], _Span] = defaultdict(_Span)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: Dict[str, float] = {}
        self.repeat_s = 0.0  # time in spans that repeat work done elsewhere

    def call(self, module, name, fn, *args, size=None, parent=None, repeat=False):
        """Time fn(*args) as a span of module.name.  ``parent`` names the
        span whose work this call repeats and whose self time it reduces;
        ``repeat`` marks a repeat that reduces no span's self time."""
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.errors[module] += 1
            raise
        dt = time.perf_counter() - t0
        s = self.spans[(module, name)]
        s.calls += 1
        s.total += dt
        if size is not None:
            s.points.append((size, dt))
        if parent is not None:
            self.spans[parent].children += dt
        if parent is not None or repeat:
            self.repeat_s += dt
        return result

    def count(self, name, value):
        self.counts[name] += value

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def span(self, module: str, name: str) -> _Span:
        return self.spans.get((module, name), _Span())


def growth_exp(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds per call) against log(size): 1 for
    linear growth, 2 for quadratic.  0 when fewer than two sizes occur."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def per_layer(tr: SpanTracer, extra: Optional[dict] = None) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit).  Functions the workload
    did not call report 0 calls and 0 time; their growth exponents are 0."""
    m: Dict[str, Tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    compose, inv = tr.span("pwmap", "compose"), tr.span("pwmap", "invert")
    put("pwmap.compose.calls", compose.calls, "count")
    put("pwmap.compose.self_s", compose.self_s, "s")
    put("pwmap.compose.pieces_in", tr.counts["compose.pieces_in"], "count")
    put("pwmap.compose.pieces_out", tr.counts["compose.pieces_out"], "count")
    put("pwmap.compose.growth_exp", growth_exp(compose.points), "slope")
    pieces_out = tr.counts["compose.pieces_out"]
    put("pwmap.compose.us_per_piece", 1e6 * compose.self_s / pieces_out if pieces_out else 0, "us")
    put("pwmap.invert.calls", inv.calls, "count")
    put("pwmap.invert.self_s", inv.self_s, "s")
    put("pwmap.coeff_bits_max", tr.peaks.get("coeff_bits", 0), "bits")
    ev = tr.span("pwmap", "eval")
    put("pwmap.eval.calls", ev.calls, "count")
    put("pwmap.eval.us_per_call", 1e6 * ev.total / ev.calls if ev.calls else 0, "us")
    put("pwmap.eval.growth_exp", growth_exp(ev.points), "slope")
    construct = tr.span("pwmap", "construct")
    put("pwmap.construct.self_s", construct.self_s, "s")

    for name in ("validate_profile", "separation_points", "components"):
        put(f"kupisch.{name}.self_s", tr.span("kupisch", name).self_s, "s")
    put("kupisch.separation_points.growth_exp",
        growth_exp(tr.span("kupisch", "separation_points").points), "slope")

    hom = tr.span("repcat", "hom_dim")
    put("repcat.hom_dim.calls", hom.calls, "count")
    put("repcat.hom_dim.self_s", hom.self_s, "s")
    put("repcat.hom_dim.growth_exp", growth_exp(hom.points), "slope")
    res = tr.span("repcat", "projective_resolution")
    steps = tr.counts["resolution.steps"]
    put("repcat.projective_resolution.calls", res.calls, "count")
    put("repcat.projective_resolution.self_s", res.self_s, "s")
    put("repcat.projective_resolution.steps", steps, "count")
    put("repcat.projective_resolution.us_per_step", 1e6 * res.total / steps if steps else 0, "us")
    put("repcat.projective_resolution.cap_frac",
        tr.counts["resolution.capped"] / res.calls if res.calls else 0, "fraction")
    for name in ("morphism_analyze", "component_of", "projective_cover"):
        put(f"repcat.{name}.self_s", tr.span("repcat", name).self_s, "s")

    iv = [s for (mod, _), s in tr.spans.items() if mod == "interval"]
    put("interval.calls", sum(s.calls for s in iv), "count")
    put("interval.self_s", sum(s.self_s for s in iv), "s")

    alg = tr.span("discrete", "algebra_dim_check")
    put("discrete.algebra_dim_check.calls", alg.calls, "count")
    put("discrete.algebra_dim_check.self_s", alg.self_s, "s")
    put("discrete.algebra_dim_check.growth_exp", growth_exp(alg.points), "slope")
    put("discrete.embed_extract.self_s", tr.span("discrete", "embed_extract").self_s, "s")

    parse = tr.span("cli", "parse")
    put("cli.parse_ms", 1e3 * parse.self_s, "ms")
    for module in MODULES:
        put(f"{module}.errors", tr.errors[module], "count")
    for name, (value, unit) in (extra or {}).items():
        put(name, value, unit)
    return m
