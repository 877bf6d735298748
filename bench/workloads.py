"""The three workloads: seeded inputs, query rounds, and their checks.

A workload writes its inputs as text files (``write_inputs``), receives
them parsed (``prepare``), and then yields rounds of queries.  Every round
has the same composition, fixed below; the seed chooses only the values
inside it, so runs with different seeds do comparable work.  A query runs
through the tracer, and its check, which runs outside the timed region,
returns None or a message saying why the answer is wrong.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, List

import checks
import inputs

from nakarep import (
    CIRCLE,
    CLOSED,
    OPEN,
    Interval,
    PiecewiseMap,
    ScalarMorphism,
    associated_kupisch,
    component_of,
    components,
    compose,
    end_dim,
    hom_dim,
    invert,
    is_brick,
    is_compatible,
    is_projective,
    kappa_at,
    morphism_analyze,
    next_separation,
    normalize_profile,
    orbit,
    projective_cover,
    projective_resolution,
    push_forward,
    separation_points,
    validate_profile,
    verify_conjugacy,
)
from nakarep.discrete import (
    DiscreteModule,
    KupischSeries,
    algebra_dim_check,
    discrete_hom_dim,
    embed_module,
    extract_module,
)
from nakarep.pwmap import fmt_bound, fmt_rational

KINDS = {"open": OPEN, "closed": CLOSED}


@dataclass
class Query:
    kind: str
    run: Callable  # (tracer) -> answer
    check: Callable  # (answer) -> Optional[str]


def coeff_bits(pm: PiecewiseMap) -> int:
    return max(
        max(abs(q.numerator).bit_length(), q.denominator.bit_length())
        for p in pm.pieces
        for q in (p.fn.a, p.fn.b, p.fn.c, p.fn.d)
    )


class Workload:
    name = ""
    TAIL = 90  # latency_tail_ms percentile; fixed so runs compare like with like
    child_cpu = 0.0  # CPU seconds of child processes, for workloads that start them
    child_rss_kb = 0

    def __init__(self, seed: int, directory: str, root: str):
        self.seed = seed
        self.dir = directory
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def write(self, name: str, text: str) -> None:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def round_rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")


# ----- transport ---------------------------------------------------------------


class Transport(Workload):
    """push_forward, then separation_points and components of the result.

    Sized pushes sweep n in {16, 32, 64, 128} with an m = n piece
    homeomorphism; each size cycles through circle/line x affine/Moebius.
    Chained pushes move the (3, 2, 2) series profile along one fixed
    two-piece homeomorphism, 12 links before restarting, so coefficient
    height grows by about 2 bits a link while the piece count stays put.
    A round is 18 chained pushes and seven sized ones: one each at n = 16,
    32 and 64, and four at n = 128, one per combination.  The median falls
    among the chained pushes.  The n = 128
    pushes cost, from the top, circle Moebius, circle affine, line Moebius
    and line affine, each over 1.15 times the next; the tail percentile
    leaves 2.5 queries a round beyond it, so it falls in the middle of the
    line Moebius pushes.  Each combination plants a fixed number of
    separation points, so every round does the same mix of work.
    """

    name = "transport"
    TAIL = 90  # 2.5 of the 25 queries of a round lie beyond it
    SIZES = (16, 32, 64, 128, 128, 128, 128)
    CHAINED = 18
    CHAIN_LINKS = 12
    CHAIN_PLANTED = {"seps": [], "components": 1}  # series profiles have no separation points
    # (space, Moebius pieces?, separation points planted)
    COMBOS = (("circle", False, 2), ("line", False, 3), ("circle", True, 3), ("line", True, 2))
    VARIANTS = 2  # profiles and homeomorphisms per (size, combination)

    def write_inputs(self) -> None:
        self.planted = {}
        for n in sorted(set(self.SIZES)):
            for space, mobius, seps in self.COMBOS:
                make = inputs.circle_profile if space == "circle" else inputs.line_profile
                make_f = inputs.circle_homeo if space == "circle" else inputs.line_homeo
                for v in range(self.VARIANTS):
                    key = f"{space}{int(mobius)}_{n}_{v}"
                    text, planted = make(self.rng, n, mobius, seps)
                    self.write(key + ".profile", text)
                    self.planted[key] = planted
                    self.write(key + ".homeo", make_f(self.rng, n, mobius))
        self.write("chain.profile", inputs.series_profile((3, 2, 2)))
        third, half = F(1, 3), F(1, 2)
        self.write("chain.homeo", "homeo circle\n" + "\n".join([
            inputs.piece_line(F(0), third, F(0), half, F(2)),
            inputs.piece_line(third, F(1), half, F(1), F(1)),
        ]) + "\n")

    def prepare(self, objs: dict) -> None:
        self.objs = objs
        self.chain_base = objs["chain.profile"]
        self.chain = self.chain_base
        self.links = 0

    def round(self, r: int) -> List[Query]:
        rng = self.round_rng(r)
        out = []
        for j, n in enumerate(self.SIZES):
            i = r * self.SIZES.count(n) + self.SIZES[:j].count(n)
            space, mobius, _ = self.COMBOS[i % len(self.COMBOS)]
            pv = (i // len(self.COMBOS)) % self.VARIANTS
            hv = (i // (len(self.COMBOS) * self.VARIANTS)) % self.VARIANTS
            key = f"{space}{int(mobius)}_{n}_{pv}"
            f = self.objs[f"{space}{int(mobius)}_{n}_{hv}.homeo"]
            kind = f"push_forward/{space}/{'mobius' if mobius else 'affine'}/n{n}"
            out.append(self._push(rng, self.objs[key + ".profile"], f, self.planted[key], n, kind))
        for _ in range(self.CHAINED):
            out.append(self._chained(rng))
        return out

    def _points(self, rng, profile):
        if profile.successor.periodic:
            return [F(rng.randrange(0, 997), 997) + rng.randrange(-2, 3) for _ in range(8)]
        return [F(rng.randrange(0, 3 * 997), 997) for _ in range(8)]

    def _push(self, rng, profile, f, planted, n, kind) -> Query:
        points = self._points(rng, profile)

        def run(tr):
            pushed = tr.call("kupisch", "push_forward", push_forward, profile, f, size=n)
            if tr.enabled:
                self._parts(tr, profile, f, pushed, n)
            return self._invariants(tr, pushed)

        return Query(kind, run, lambda ans: checks.push(profile, f, points, planted, ans))

    def _chained(self, rng) -> Query:
        f = self.objs["chain.homeo"]
        points = [F(rng.randrange(0, 997), 997) for _ in range(8)]
        source = {}

        def run(tr):
            if self.links == self.CHAIN_LINKS:
                self.chain, self.links = self.chain_base, 0
            source["profile"] = self.chain
            pushed = tr.call("kupisch", "push_forward", push_forward, self.chain, f)
            if tr.enabled:
                self._parts(tr, self.chain, f, pushed, None)
                tr.peak("coeff_bits", coeff_bits(pushed.successor))
            self.chain, self.links = pushed, self.links + 1
            return self._invariants(tr, pushed)

        def check(ans):
            return checks.push(source["profile"], f, points, self.CHAIN_PLANTED, ans)

        return Query("chained_push", run, check)

    def _invariants(self, tr, pushed):
        n = len(pushed.successor.pieces)
        seps = tr.call("kupisch", "separation_points", separation_points, pushed, size=n)
        comps = tr.call("kupisch", "components", components, pushed)
        return pushed, seps, comps

    def _parts(self, tr, profile, f, pushed, n) -> None:
        """Repeat the push as its invert and compose calls and the
        validation it ends with, on the same inputs, so its time can be
        split between pwmap and kupisch."""
        k = profile.successor
        f_inv = tr.call("pwmap", "invert", invert, f, repeat=True)
        inner = tr.call("pwmap", "compose", compose, k, f_inv, size=n, repeat=True)
        outer = tr.call("pwmap", "compose", compose, f, inner, size=n, repeat=True)
        tr.call("kupisch", "validate_profile", validate_profile, pushed, repeat=True)
        tr.count("compose.pieces_in", len(k.pieces) + len(f_inv.pieces) + len(f.pieces) + len(inner.pieces))
        tr.count("compose.pieces_out", len(inner.pieces) + len(outer.pieces))


# ----- modules -------------------------------------------------------------------


class Modules(Workload):
    """The representation calculus on profiles built once in set-up.

    A round of 89 queries: 44 hom_dim and 11 end_dim queries on circle
    strings of length L = 2^(k + u), four hom_dim and one end_dim per
    k = 0..10 (log-uniform in [1, 2048], one stratum per octave);
    2 morphism_analyze and 2 embed/extract round trips; is_compatible and
    projective_cover once on each of the four profiles; 4 component_of,
    two on the circle profile of 256 pieces, one on that of 32 and one on
    the 64-piece line profile; 5 resolutions (2 Finite on the truncated
    staircase, 2 InfinitePeriodic on a constant circle shift, 1
    ExceededCap on K(t) = t + 1/2 over R); 4 algebra_dim_check, with
    series of n = 8 * 6^((i + u)/4) for i = 0..3 (log-uniform in [8, 48));
    and 9 K lookups, 3 each on the profiles of 32, 256 and 2048 pieces.

    Hom and End cost grows about linearly in L, from 0.16 ms to 110 ms,
    so the 55 strings spread their latencies evenly over three decades.
    The counts place both percentiles inside that spread, away from any
    narrow cluster of like queries: the 21 lookups, covers, compatibility
    tests, morphisms and round trips (under 0.2 ms) and 6 resolutions and
    components under 2 ms lie below the median, 7 heavier queries above
    it, so it falls near L = 10.  The tail percentile leaves 8.9 queries
    a round beyond it: the strings with L > 1024, the two largest
    algebra_dim_check calls and the ExceededCap resolution, so it falls
    among strings of L near 1000.  A host that runs slow for part of a run
    then moves each percentile by a share of the slowdown, as it moves the
    mean, instead of making it jump between two kinds (``--out`` records
    the median latency of each kind, and the kinds the median and the
    tail fall on).
    """

    name = "modules"
    TAIL = 90  # 8.9 of the 89 queries of a round lie beyond it
    EVAL_SIZES = {"small": 32, "mid": 256, "big": 2048}
    EVALS = 3  # lookups per profile size and round
    HOM_PER_OCTAVE = 4
    COMPONENT_KEYS = ("mid", "mid", "small", "line")  # the largest profile would be the slowest query
    ALGDIM_STRATA = 4  # series lengths n = 8 * 6^((i + u)/4), one per stratum i
    HOM_VERTICES = 4
    HOM_LENGTH = 4 * 2048  # projective length of every vertex: strings up to 2048

    def write_inputs(self) -> None:
        rng = self.rng
        self.planted = {}
        for key, n in self.EVAL_SIZES.items():
            text, self.planted[key] = inputs.circle_profile(rng, n, True, {"small": 0, "mid": 2, "big": 3}[key])
            self.write(key + ".profile", text)
        text, self.planted["line"] = inputs.line_profile(rng, 64, True, 2)
        self.write("line.profile", text)
        self.deepest = rng.randrange(12, 17)
        self.write("stair.profile", inputs.staircase_profile(self.deepest))
        q = rng.randrange(5, 10)
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        self.write("shift.profile", f"space circle\npiece [0/1, 1/1) affine 1/1 {p}/{q}\n")
        self.write("drift.profile", "space line (-inf, +inf)\npiece (-inf, +inf) affine 1/1 1/2\n")
        self.write("hom.series", ",".join([str(self.HOM_LENGTH)] * self.HOM_VERTICES) + "\n")
        self.write("embed.series", "\n".join(
            ",".join(map(str, inputs.random_series(rng, rng.randrange(3, 13)))) for _ in range(8)
        ) + "\n")

    def prepare(self, objs: dict) -> None:
        self.objs = objs
        self.hom_series = objs["hom.series"][0]
        self.embed_series = objs["embed.series"]

    def round(self, r: int) -> List[Query]:
        rng = self.round_rng(r)
        qs = [self._hom(rng, 2 ** (k + rng.random())) for k in range(11) for _ in range(self.HOM_PER_OCTAVE)]
        qs += [self._end(rng, 2 ** (k + rng.random())) for k in range(11)]
        qs += [self._morphism(rng) for _ in range(2)]
        for key in ("big", "mid", "small", "line"):
            qs.append(self._compat(rng, key))
            qs.append(self._cover(rng, key))
        for key in self.COMPONENT_KEYS:
            qs.append(self._component(rng, key))
        qs += [self._stair(rng) for _ in range(2)]
        qs += [self._shift(rng) for _ in range(2)]
        qs.append(self._drift(rng))
        qs += [self._algdim(rng, i) for i in range(self.ALGDIM_STRATA)]
        qs += [self._embed(rng) for _ in range(2)]
        for key in self.EVAL_SIZES:
            qs += [self._eval(rng, key) for _ in range(self.EVALS)]
        return qs

    @staticmethod
    def _interval(tr, lo, hi, lo_kind, hi_kind):
        return tr.call("interval", "Interval", Interval, lo, hi, lo_kind, hi_kind)

    def _hom(self, rng, length) -> Query:
        nv, top = self.HOM_VERTICES, self.HOM_LENGTH
        l1 = min(top, max(1, round(nv * length)))
        l2 = rng.randrange((l1 + 1) // 2, l1 + 1)
        a, b = rng.randrange(nv), rng.randrange(nv)
        shift = rng.randrange(-3, 4)

        def run(tr):
            u = self._interval(tr, F(a, nv) + shift, F(a + l1, nv) + shift, OPEN, CLOSED)
            v = self._interval(tr, F(b, nv), F(b + l2, nv), OPEN, CLOSED)
            return tr.call("repcat", "hom_dim", hom_dim, CIRCLE, u, v, size=F(l1 + l2, nv))

        def check(ans):
            expected = discrete_hom_dim(self.hom_series, DiscreteModule(a, l1), DiscreteModule(b, l2))
            return checks.equal(expected, ans)

        return Query("hom_dim", run, check)

    def _end(self, rng, length) -> Query:
        s = F(rng.randrange(-64, 64), 8)
        length = F(max(1, round(8 * length)), 8)

        def run(tr):
            u = self._interval(tr, s, s + length, CLOSED, CLOSED)
            return tr.call("repcat", "end_dim", end_dim, CIRCLE, u)

        return Query("end_dim", run, lambda ans: checks.equal(math.floor(length) + 1, ans))

    def _morphism(self, rng) -> Query:
        a, b, c, d = (F(x, 8) for x in sorted(rng.sample(range(-40, 40), 4)))
        kinds = [rng.choice(("open", "closed")) for _ in range(4)]
        coefficient = F(rng.choice((-3, -1, 1, 2, 5)), rng.randrange(1, 4))

        def run(tr):
            source = self._interval(tr, b, d, KINDS[kinds[0]], KINDS[kinds[1]])
            target = self._interval(tr, a, c, KINDS[kinds[2]], KINDS[kinds[3]])
            m = ScalarMorphism(source, target, 0, coefficient)
            return tr.call("repcat", "morphism_analyze", morphism_analyze, m)

        return Query("morphism_analyze", run, lambda ans: checks.morphism((a, b, c, d), kinds, ans))

    def _point(self, rng, key):
        """A left end inside the profile's domain; circle ends in [0, 1)."""
        return F(rng.randrange(0, 4096 * (1 if key != "line" else 3)), 4096)

    def _fitting(self, rng, key, lo, allow_over: bool):
        k = self.objs[key + ".profile"].successor
        top = checks.scan_eval(k, lo)
        if allow_over and rng.random() < 0.5:
            return top + F(rng.randrange(1, 9), 64)
        return lo + (top - lo) * F(rng.randrange(1, 9), 8)

    def _compat(self, rng, key) -> Query:
        profile = self.objs[key + ".profile"]
        lo = self._point(rng, key)
        hi = self._fitting(rng, key, lo, allow_over=True)
        lo_kind = rng.choice(("open", "closed"))
        shift = rng.randrange(-2, 3) if key != "line" else 0

        def run(tr):
            u = self._interval(tr, lo + shift, hi + shift, KINDS[lo_kind], CLOSED)
            return tr.call("repcat", "is_compatible", is_compatible, profile, u)

        probe = Interval(lo, hi, KINDS[lo_kind], CLOSED)
        return Query("is_compatible", run,
                     lambda ans: checks.equal(checks.compatible(profile.successor, probe), ans))

    def _cover(self, rng, key) -> Query:
        profile = self.objs[key + ".profile"]
        lo = self._point(rng, key)
        hi = self._fitting(rng, key, lo, allow_over=False)
        lo_kind = KINDS[rng.choice(("open", "closed"))]

        def run(tr):
            u = self._interval(tr, lo, hi, lo_kind, CLOSED)
            return tr.call("repcat", "projective_cover", projective_cover, profile, u)

        probe = Interval(lo, hi, lo_kind, CLOSED)
        return Query("projective_cover", run, lambda ans: checks.cover(profile.successor, probe, ans))

    def _component(self, rng, key) -> Query:
        profile = self.objs[key + ".profile"]
        lo = self._point(rng, key)
        hi = self._fitting(rng, key, lo, allow_over=False)
        shift = rng.randrange(-2, 3) if key != "line" else 0

        def run(tr):
            u = self._interval(tr, lo + shift, hi + shift, CLOSED, CLOSED)
            return tr.call("repcat", "component_of", component_of, profile, u)

        planted = self.planted[key]["seps"]
        return Query("component_of", run,
                     lambda ans: checks.component(planted, key != "line", lo, ans))

    def _resolve(self, key, u_args, expected) -> Query:
        profile = self.objs[key + ".profile"]
        on_circle = key != "drift"

        def run(tr):
            u = self._interval(tr, *u_args)
            report = tr.call("repcat", "projective_resolution", projective_resolution, profile, u, checks.CAP)
            tr.count("resolution.steps", len(report.covers))
            tr.count("resolution.capped", type(report.verdict).__name__ == "ExceededCap")
            return report

        probe = Interval(*u_args)
        return Query("projective_resolution", run,
                     lambda ans: checks.resolution(profile.successor, on_circle, probe, expected, ans))

    def _stair(self, rng) -> Query:
        j = rng.randrange(1, self.deepest // 2)
        return self._resolve("stair", (F(1, 2 * j + 1), F(1, 2 * j), OPEN, CLOSED), ("Finite", 2 * j - 1))

    def _shift(self, rng) -> Query:
        kappa = self.objs["shift.profile"].successor.pieces[0].fn.b
        lo = F(rng.randrange(0, 64), 64)
        length = kappa * F(rng.randrange(1, 8), 8)
        return self._resolve("shift", (lo, lo + length, KINDS[rng.choice(("open", "closed"))], CLOSED), None)

    def _drift(self, rng) -> Query:
        lo = F(rng.randrange(-64, 64), 16)
        length = F(rng.randrange(1, 8), 16)  # shorter than kappa = 1/2: not projective
        return self._resolve("drift", (lo, lo + length, CLOSED, CLOSED), ("ExceededCap", checks.CAP))

    def _algdim(self, rng, stratum) -> Query:
        n = int(8 * 6 ** ((stratum + rng.random()) / self.ALGDIM_STRATA))
        series = KupischSeries(tuple(inputs.random_series(rng, n)))

        def run(tr):
            return tr.call("discrete", "algebra_dim_check", algebra_dim_check, series, size=series.n)

        return Query(f"algebra_dim_check/stratum{stratum}", run,
                     lambda ans: checks.equal(sum(series.lengths), ans))

    def _embed(self, rng) -> Query:
        series = rng.choice(self.embed_series)
        top = rng.randrange(series.n)
        length = rng.randrange(1, series.lengths[top] + 1)

        def round_trip(m):
            u = embed_module(series, m)
            return u, extract_module(series, u)

        def run(tr):
            return tr.call("discrete", "embed_extract", round_trip, DiscreteModule(top, length))

        return Query("embed_extract", run, lambda ans: checks.embed_extract(series.n, top, length, ans))

    def _eval(self, rng, key) -> Query:
        k = self.objs[key + ".profile"].successor
        t = F(rng.randrange(0, 10**6), 10**6) + rng.randrange(-3, 4)

        def run(tr):
            return tr.call("pwmap", "eval", k.eval, t, size=len(k.pieces))

        return Query(f"eval/n{self.EVAL_SIZES[key]}", run, lambda ans: checks.equal(checks.scan_eval(k, t), ans))


# ----- cli -----------------------------------------------------------------------


class Cli(Workload):
    """One ``python -m nakarep.cli --json ...`` process per query, one at a
    time.  A round runs each of the 18 subcommands once on small seeded
    inputs, alternating a circle and a line profile; the answer must exit 0
    with a payload equal to the library's answer computed in this process."""

    name = "cli"
    TIMEOUT_S = 60

    def write_inputs(self) -> None:
        from nakarep.cli import format_profile, parse_homeo_text, parse_profile_text

        rng = self.rng
        for key, make, make_f in (("circ", inputs.circle_profile, inputs.circle_homeo),
                                  ("line", inputs.line_profile, inputs.line_homeo)):
            text, _ = make(rng, 6, rng.random() < 0.5, 2)
            self.write(key + ".profile", text)
            self.write(key + ".homeo", make_f(rng, 3, True))
        self.write("stair.profile", inputs.staircase_profile(12))
        h = rng.randrange(1, 4)
        self.write("bounded.profile", f"space line [0/1, {h}/1)\npiece [0/1, {h}/1) affine 1/2 {h}/2\n")
        self.write("all.series", "\n".join(
            ",".join(map(str, inputs.random_series(rng, rng.randrange(2, 7)))) for _ in range(8)
        ) + "\n")
        with open(self.path("circ.profile"), encoding="utf-8") as fh:
            circ = parse_profile_text(fh.read())
        with open(self.path("circ.homeo"), encoding="utf-8") as fh:
            f = parse_homeo_text(fh.read())
        self.write("target.profile", format_profile(push_forward(circ, f)))

    def prepare(self, objs: dict) -> None:
        self.objs = objs
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

    def round(self, r: int) -> List[Query]:
        return [self._query(argv, expect) for argv, expect in self.commands(r)]

    def commands(self, r: int) -> list:
        """Round r as (argv, expected payload entries) pairs."""
        from nakarep.cli import format_profile, parse_interval

        rng = self.round_rng(r)
        space = ("circ", "line")[r % 2]
        prof, f = self.objs[space + ".profile"], self.objs[space + ".homeo"]
        k = prof.successor
        p_path, h_path = self.path(space + ".profile"), self.path(space + ".homeo")
        circ, circ_path = self.objs["circ.profile"], self.path("circ.profile")
        t = F(rng.randrange(0, 4 * 64), 64) if space == "line" else F(rng.randrange(-64, 64), 64)
        lo = F(rng.randrange(0, 64), 64)
        fit = lo + (checks.scan_eval(k, lo) - lo) * F(rng.randrange(1, 9), 8)
        fit_txt = f"[{fmt_rational(lo)}, {fmt_rational(fit)}]"
        s1 = F(rng.randrange(-32, 32), 8)
        u_txt = f"({fmt_rational(s1)}, {fmt_rational(s1 + F(rng.randrange(1, 40), 8))}]"
        v_txt = f"[{fmt_rational(s1)}, {fmt_rational(s1 + F(rng.randrange(1, 40), 8))}]"
        a, b, c, d = (fmt_rational(F(x, 8)) for x in sorted(rng.sample(range(-40, 40), 4)))
        source_txt, target_txt = f"[{b}, {d}]", f"[{a}, {c}]"
        series_txt = ",".join(map(str, rng.choice(self.objs["all.series"]).lengths))
        series = KupischSeries(tuple(int(x) for x in series_txt.split(",")))
        m1, m2 = (DiscreteModule(top, rng.randrange(1, series.lengths[top] + 1))
                  for top in (rng.randrange(series.n), rng.randrange(series.n)))
        j = rng.randrange(1, 6)
        stair_txt = f"({fmt_rational(F(1, 2 * j + 1))}, {fmt_rational(F(1, 2 * j))}]"
        grid_txt = str(embed_module(series, m1))
        samples = rng.randrange(2, 9)

        def morphism_payload():
            analysis = morphism_analyze(ScalarMorphism(parse_interval(source_txt), parse_interval(target_txt)))
            return {key: None if v is None else str(v) for key, v in vars(analysis).items()}

        return [
            (["validate", p_path], lambda: {"valid": not validate_profile(prof)}),
            (["info", p_path, f"--at={fmt_rational(t)}", "--orbit", "3"], lambda: {
                "K": fmt_rational(k.eval(t)), "kappa": fmt_rational(kappa_at(prof, t)),
                "orbit": [fmt_rational(x) for x in orbit(prof, t, 3)]}),
            (["seps", p_path, f"--after={fmt_rational(t)}"], lambda: {
                "points": [fmt_rational(x) for x in separation_points(prof)],
                "next_after": fmt_bound(next_separation(prof, t))}),
            (["components", p_path, "--of", fit_txt], lambda: {
                "count": len(components(prof)), "component_of": component_of(prof, parse_interval(fit_txt))}),
            (["hom", "circle", u_txt, v_txt], lambda: {
                "dim": hom_dim(CIRCLE, parse_interval(u_txt), parse_interval(v_txt))}),
            (["end", "circle", v_txt], lambda: {"dim": end_dim(CIRCLE, parse_interval(v_txt))}),
            (["brick", "circle", u_txt], lambda: {"brick": is_brick(CIRCLE, parse_interval(u_txt))}),
            (["compat", p_path, fit_txt, "--projective"], lambda: {
                "compatible": is_compatible(prof, parse_interval(fit_txt)),
                "projective": is_projective(prof, parse_interval(fit_txt))}),
            (["morphism", source_txt, target_txt], morphism_payload),
            (["resolve", self.path("stair.profile"), stair_txt], lambda: {
                "verdict": str(projective_resolution(self.objs["stair.profile"], parse_interval(stair_txt)).verdict)}),
            (["pushforward", p_path, h_path], lambda: {"profile": format_profile(push_forward(prof, f))}),
            (["conjugate", self.path("circ.homeo"), circ_path, self.path("target.profile")], lambda: {
                "conjugate": verify_conjugacy(self.objs["circ.homeo"], circ, self.objs["target.profile"])}),
            (["normalize", self.path("bounded.profile")], lambda: {
                "profile": format_profile(normalize_profile(self.objs["bounded.profile"])[0])}),
            (["series-profile", series_txt], lambda: {
                "valid": True, "profile": format_profile(associated_kupisch(series))}),
            (["embed", series_txt, f"{m1.top},{m1.length}", "--hom-to", f"{m2.top},{m2.length}"], lambda: {
                "interval": str(embed_module(series, m1)), "discrete_hom": discrete_hom_dim(series, m1, m2),
                "continuous_hom": hom_dim(CIRCLE, embed_module(series, m1), embed_module(series, m2))}),
            (["extract", series_txt, grid_txt], lambda: {
                "top": extract_module(series, parse_interval(grid_txt)).top,
                "length": extract_module(series, parse_interval(grid_txt)).length}),
            (["algdim", series_txt], lambda: {
                "dim": algebra_dim_check(series), "sum_of_lengths": sum(series.lengths)}),
            (["export-plot", circ_path, "--samples", str(samples)], lambda: {"samples": [
                {"t": fmt_rational(x), "K": fmt_rational(circ.successor.eval(x)),
                 "kappa": fmt_rational(kappa_at(circ, x))}
                for x in (F(i, samples) for i in range(samples))]}),
        ]

    def _query(self, argv: List[str], expect: Callable[[], dict]) -> Query:
        full = [sys.executable, "-m", "nakarep.cli", "--json", *argv]

        def run(tr):
            return tr.call("cli", "process", self._spawn, full)

        def check(answer):
            code, out = answer
            if code != 0:
                return f"exit code {code}"
            try:
                envelope = json.loads(out)
            except ValueError:
                return "stdout is not JSON"
            if envelope.get("status") != "ok" or envelope.get("command") != argv[0]:
                return f"envelope {envelope}"
            payload = envelope["payload"]
            for key, value in expect().items():
                if payload.get(key) != value:
                    return f"{key}: got {payload.get(key)!r}, expected {value!r}"
            return None

        return Query(argv[0], run, check)

    def _spawn(self, argv: List[str]):
        """Run one child to completion and return (exit code, stdout); a
        child still running after TIMEOUT_S is killed and fails its check."""
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                cwd=self.root, env=self.env)
        timer = threading.Timer(self.TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_cpu += usage.ru_utime + usage.ru_stime
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode("utf-8", "replace")


WORKLOADS = {w.name: w for w in (Transport, Modules, Cli)}
