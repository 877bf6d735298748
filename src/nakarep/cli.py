"""Command-line front end and the file/literal grammars.

Profiles and homeomorphisms come from line-oriented files (``#`` comments):

    space circle                      # or: space line [0/1, +inf)
    piece [0/1, 1/3) affine 1/1 1/1   # K(t) = 1*t + 1
    piece [1/3, 1/1) mobius 1 1 0 1   # K(t) = (a t + b)/(c t + d)

    homeo [0/1, 1/1) -> [0/1, +inf)   # or: homeo circle
    piece [0/1, 1/1) mobius 1 0 -1 1

Intervals are quoted literals like ``"(1/3, 4/3]"``; integers may stand in
for integral rationals.  Series are comma lists ``3,3,2`` and discrete
modules are ``top,length`` pairs.  Machine output (``--json``) is
deterministic: keys sorted, rationals always printed as ``p/q``, intervals
ordered by (lo, lo kind, hi, hi kind).  Exit codes: 0 success, 1 validation
failure, 2 parse error, 3 domain or math error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DomainError, NakarepError, ParseError
from .interval import CLOSED, OPEN, Interval
from .kupisch import (
    CIRCLE,
    Circle,
    KupischProfile,
    Line,
    components,
    kappa_at,
    next_separation,
    normalize_profile,
    orbit,
    push_forward,
    separation_points,
    validate_profile,
    verify_conjugacy,
)
from .discrete import (
    DiscreteModule,
    KupischSeries,
    algebra_dim_check,
    associated_kupisch,
    discrete_hom_dim,
    embed_module,
    extract_module,
    validate_series,
)
from .pwmap import (
    NEG_INF,
    POS_INF,
    Bound,
    Dom,
    FracLinear,
    Piece,
    PiecewiseMap,
    fmt_bound,
    fmt_rational,
    is_finite,
)
from .repcat import (
    DEFAULT_RESOLUTION_CAP,
    ScalarMorphism,
    component_of,
    end_dim,
    hom_dim,
    is_brick,
    is_compatible,
    is_projective,
    map_module,
    morphism_analyze,
    projective_resolution,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_MATH = 3


# ----- literals -------------------------------------------------------------


_RATIONAL_RE = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
# digits per integer: CPython's default int/str conversion limit, enforced
# here so that it holds on every supported version
_MAX_DIGITS = 4300
# export-plot builds its samples as one list; this bounds its memory
_MAX_SAMPLES = 10000


def parse_rational(text: str) -> Fraction:
    """An integer or ``p/q`` literal.  The grammar and the digit bound are
    checked before any arithmetic, so decimals and exponents (``1e400``)
    are parse errors rather than huge integers."""
    t = text.strip()
    m = _RATIONAL_RE.fullmatch(t)
    if not m:
        raise ParseError(f"bad rational {text!r}: Invalid literal for Fraction: {t!r}")
    sign, num, den = m.groups()
    if len(num) > _MAX_DIGITS or len(den or "") > _MAX_DIGITS:
        raise ParseError(f"bad rational {text!r}: more than {_MAX_DIGITS} digits")
    try:
        return Fraction(int(sign + num), int(den or 1))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {text!r}: {e}") from e


def _parse_integer(
    text: str, context: str = "", nonnegative: bool = False, at_most: Optional[int] = None
) -> int:
    """An integer literal: the grammar of :func:`parse_rational` without
    ``/q``, under the same digit bound, checked before any arithmetic; the
    error message starts with ``context``."""
    t = text.strip()
    if not _INTEGER_RE.fullmatch(t):
        problem = f"invalid literal for int() with base 10: {text!r}"
    elif len(t.lstrip("+-")) > _MAX_DIGITS:
        problem = f"integer literal with more than {_MAX_DIGITS} digits"
    elif nonnegative and int(t) < 0:
        problem = f"expected a non-negative integer, got {int(t)}"
    elif at_most is not None and int(t) > at_most:
        problem = f"expected at most {at_most}, got {int(t)}"
    else:
        return int(t)
    raise ParseError(f"{context}: {problem}" if context else problem)


def parse_bound(text: str) -> Bound:
    t = text.strip()
    if t in ("+inf", "inf"):
        return POS_INF
    if t == "-inf":
        return NEG_INF
    return parse_rational(t)


_INTERVAL_RE = re.compile(r"^\s*([\[\(])([^,]+),([^\]\)]+)([\]\)])\s*$")


def parse_interval(text: str) -> Interval:
    m = _INTERVAL_RE.match(text)
    if not m:
        raise ParseError(f"bad interval literal {text!r}")
    lo = parse_rational(m.group(2))
    hi = parse_rational(m.group(3))
    try:
        return Interval(
            lo, hi, CLOSED if m.group(1) == "[" else OPEN, CLOSED if m.group(4) == "]" else OPEN
        )
    except ValueError as e:
        raise ParseError(f"bad interval {text!r}: {e}") from e


def parse_dom(text: str) -> Dom:
    m = _INTERVAL_RE.match(text)
    if not m:
        raise ParseError(f"bad domain literal {text!r}")
    lo = parse_bound(m.group(2))
    hi = parse_bound(m.group(3))
    try:
        return Dom(lo, hi, m.group(1) == "[", m.group(4) == "]")
    except ValueError as e:
        raise ParseError(f"bad domain {text!r}: {e}") from e


def parse_series(text: str) -> KupischSeries:
    context = f"bad series literal {text!r}"
    return KupischSeries(tuple(_parse_integer(part, context) for part in text.split(",")))


def parse_discrete_module(text: str) -> DiscreteModule:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"bad module literal {text!r}; expected top,length")
    top, length = (_parse_integer(part, f"bad module literal {text!r}") for part in parts)
    return DiscreteModule(top, length)


# ----- profile and homeomorphism files ---------------------------------------


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_piece_line(line: str, filename: str, lineno: int) -> Piece:
    m = re.match(r"^piece\s+(\S+\s*,\s*\S+)\s+(affine|mobius)\s+(.*)$", line)
    if not m:
        raise ParseError(f"{filename}:{lineno}: bad piece line {line!r}")
    dom = parse_dom(m.group(1))
    coeffs = m.group(3).split()
    try:
        if m.group(2) == "affine":
            if len(coeffs) != 2:
                raise ParseError("affine pieces take 2 coefficients (slope intercept)")
            fn = FracLinear.affine(parse_rational(coeffs[0]), parse_rational(coeffs[1]))
        else:
            if len(coeffs) != 4:
                raise ParseError("mobius pieces take 4 coefficients (a b c d)")
            fn = FracLinear(*(parse_rational(c) for c in coeffs))
    except (ValueError, ParseError) as e:
        raise ParseError(f"{filename}:{lineno}: {e}") from e
    if (is_finite(dom.lo) and not dom.lo_closed) or dom.hi_closed:
        raise ParseError(f"{filename}:{lineno}: piece domains are of the form [lo, hi)")
    return Piece(dom.lo, dom.hi, fn)


def parse_profile_text(text: str, filename: str = "<profile>") -> KupischProfile:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(f"{filename}: empty profile")
    lineno, header = lines[0]
    pieces = [_parse_piece_line(line, filename, no) for no, line in lines[1:]]
    m = re.match(r"^space\s+(circle|line)\s*(.*)$", header)
    if not m:
        raise ParseError(f"{filename}:{lineno}: expected 'space circle' or 'space line <domain>'")
    try:
        if m.group(1) == "circle":
            successor = PiecewiseMap(Dom(Fraction(0), Fraction(1), True), tuple(pieces), True)
            return KupischProfile(CIRCLE, successor)
        dom = parse_dom(m.group(2))
        successor = PiecewiseMap(dom.open_right(), tuple(pieces), False)
        return KupischProfile(Line(dom), successor)
    except ValueError as e:
        raise ParseError(f"{filename}: {e}") from e


def parse_homeo_text(text: str, filename: str = "<homeo>") -> PiecewiseMap:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(f"{filename}: empty homeomorphism")
    lineno, header = lines[0]
    pieces = [_parse_piece_line(line, filename, no) for no, line in lines[1:]]
    try:
        if re.match(r"^homeo\s+circle\s*$", header):
            return PiecewiseMap(Dom(Fraction(0), Fraction(1), True), tuple(pieces), True)
        m = re.match(r"^homeo\s+(.+?)\s*->\s*(.+)$", header)
        if not m:
            raise ParseError(
                f"{filename}:{lineno}: expected 'homeo circle' or 'homeo <domain> -> <domain>'"
            )
        dom = parse_dom(m.group(1))
        parse_dom(m.group(2))  # the target domain is derived; reject garbage early
        return PiecewiseMap(dom.open_right(), tuple(pieces), False)
    except ValueError as e:
        raise ParseError(f"{filename}: {e}") from e


def _fmt_piece(p: Piece) -> str:
    left = "[" if is_finite(p.lo) else "("
    dom = f"{left}{fmt_bound(p.lo)}, {fmt_bound(p.hi)})"
    if p.fn.is_affine:
        return f"piece {dom} affine {fmt_rational(p.fn.a)} {fmt_rational(p.fn.b)}"
    return (
        f"piece {dom} mobius {fmt_rational(p.fn.a)} {fmt_rational(p.fn.b)} "
        f"{fmt_rational(p.fn.c)} {fmt_rational(p.fn.d)}"
    )


def format_profile(profile: KupischProfile) -> str:
    if isinstance(profile.space, Circle):
        head = "space circle"
    else:
        head = f"space line {profile.space.domain}"
    return "\n".join([head] + [_fmt_piece(p) for p in profile.successor.pieces]) + "\n"


def format_homeo(f: PiecewiseMap, target: Optional[Dom] = None) -> str:
    if f.periodic:
        head = "homeo circle"
    else:
        if target is None:
            lo, lo_att, hi, _ = f.range_info()
            target = Dom(lo, hi, bool(lo_att))
        head = f"homeo {f.dom} -> {target}"
    return "\n".join([head] + [_fmt_piece(p) for p in f.pieces]) + "\n"


def _load(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def load_profile(path: str) -> KupischProfile:
    return parse_profile_text(_load(path), path)


def load_homeo(path: str) -> PiecewiseMap:
    return parse_homeo_text(_load(path), path)


# ----- output ----------------------------------------------------------------


def fraction_to_decimal(q: Fraction, digits: int) -> str:
    """Exact decimal rendering (round half to even), display only."""
    scaled = q * 10**digits
    n = round(scaled)
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


def _write_envelope(command: str, status: str, **body) -> None:
    """One JSON line on stdout; success and error envelopes share its keys."""
    envelope = {"status": status, "command": command, **body}
    sys.stdout.write(json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n")


class _Emitter:
    def __init__(self, command: str, as_json: bool):
        self.command = command
        self.as_json = as_json
        self.human_lines: List[str] = []

    def human(self, text: str) -> None:
        """Queue human output: one line, or a block of lines."""
        self.human_lines.append(text.rstrip("\n"))

    def finish(self, payload, status: str = "ok") -> None:
        if self.as_json:
            _write_envelope(self.command, status, payload=payload)
        else:
            for line in self.human_lines:
                sys.stdout.write(line + "\n")


def _opt_interval(u: Optional[Interval]) -> Optional[str]:
    return None if u is None else str(u)


# ----- command handlers -------------------------------------------------------


def _cmd_validate(args, out: _Emitter) -> int:
    profile = load_profile(args.profile)
    violations = validate_profile(profile)
    for v in violations:
        out.human(v)
    out.human("valid" if not violations else "invalid")
    out.finish({"valid": not violations, "violations": violations})
    return EXIT_OK if not violations else EXIT_INVALID


def _cmd_info(args, out: _Emitter) -> int:
    profile = load_profile(args.profile)
    k = profile.successor
    payload = {
        "space": "circle" if isinstance(profile.space, Circle) else "line",
        "domain": str(k.dom) if not k.periodic else "circle lift [0/1, 1/1)",
        "pieces": len(k.pieces),
        "valid": not validate_profile(profile),
    }
    out.human(f"space:  {payload['space']}")
    out.human(f"domain: {payload['domain']}")
    out.human(f"pieces: {payload['pieces']}")
    out.human(f"valid:  {str(payload['valid']).lower()}")
    if args.at is not None:
        t = parse_rational(args.at)
        payload["at"] = fmt_rational(t)
        payload["K"] = fmt_rational(k.eval(t))
        payload["kappa"] = fmt_rational(kappa_at(profile, t))
        payload["K_left_limit"] = fmt_bound(k.left_limit(t)) if _has_left(k, t) else None
        out.human(f"K({payload['at']}) = {payload['K']}, kappa = {payload['kappa']}")
        if payload["K_left_limit"] is not None:
            out.human(f"left limit of K: {payload['K_left_limit']}")
        if args.orbit:
            pts = orbit(profile, t, args.orbit)
            payload["orbit"] = [fmt_rational(p) for p in pts]
            out.human("orbit: " + ", ".join(payload["orbit"]))
    out.finish(payload)
    return EXIT_OK


def _has_left(k: PiecewiseMap, t: Fraction) -> bool:
    return k.periodic or t > k.dom.lo


def _cmd_seps(args, out: _Emitter) -> int:
    profile = load_profile(args.profile)
    seps = separation_points(profile)
    payload = {
        "points": [fmt_rational(p) for p in seps.points],
        "periodic": seps.periodic,
    }
    out.human(", ".join(payload["points"]) if payload["points"] else "(none)")
    if args.after is not None:
        nxt = next_separation(profile, parse_rational(args.after))
        payload["next_after"] = fmt_bound(nxt)
        out.human(f"next after {args.after}: {payload['next_after']}")
    out.finish(payload)
    return EXIT_OK


def _cmd_components(args, out: _Emitter) -> int:
    profile = load_profile(args.profile)
    comps = components(profile)
    payload = {
        "count": len(comps),
        "components": [
            {
                "index": c.index,
                "left": fmt_bound(c.left),
                "right": fmt_bound(c.right),
                "shape": c.shape.value,
                "periodic": c.periodic,
            }
            for c in comps
        ],
    }
    for c in comps:
        tag = " (repeats by Z)" if c.periodic else ""
        out.human(f"{c.index}: [{fmt_bound(c.left)}, {fmt_bound(c.right)}) {c.shape.value}{tag}")
    if args.of is not None:
        idx = component_of(profile, parse_interval(args.of))
        payload["component_of"] = idx
        out.human(f"component of {args.of}: {idx}")
    out.finish(payload)
    return EXIT_OK


def _space_arg(text: str):
    if text == "circle":
        return CIRCLE
    if text == "line":
        return Line(Dom(NEG_INF, POS_INF, False))
    raise ParseError(f"space must be 'line' or 'circle', not {text!r}")


def _cmd_hom(args, out: _Emitter) -> int:
    space = _space_arg(args.space)
    dim = hom_dim(space, parse_interval(args.source), parse_interval(args.target))
    out.human(str(dim))
    out.finish({"dim": dim})
    return EXIT_OK


def _cmd_end(args, out: _Emitter) -> int:
    dim = end_dim(_space_arg(args.space), parse_interval(args.interval))
    out.human(str(dim))
    out.finish({"dim": dim})
    return EXIT_OK


def _cmd_brick(args, out: _Emitter) -> int:
    res = is_brick(_space_arg(args.space), parse_interval(args.interval))
    out.human(str(res).lower())
    out.finish({"brick": res})
    return EXIT_OK


def _cmd_compat(args, out: _Emitter) -> int:
    profile = load_profile(args.profile)
    u = parse_interval(args.interval)
    res = is_compatible(profile, u)
    payload = {"compatible": res}
    out.human(str(res).lower())
    if args.projective:
        payload["projective"] = is_projective(profile, u)
        out.human(f"projective: {str(payload['projective']).lower()}")
    out.finish(payload)
    return EXIT_OK


def _cmd_morphism(args, out: _Emitter) -> int:
    m = ScalarMorphism(
        source=parse_interval(args.source),
        target=parse_interval(args.target),
        shift=args.shift,
        coefficient=parse_rational(args.coefficient),
    )
    analysis = morphism_analyze(m)
    payload = {
        "image": _opt_interval(analysis.image),
        "kernel": _opt_interval(analysis.kernel),
        "cokernel": _opt_interval(analysis.cokernel),
    }
    out.human(f"image:    {payload['image']}")
    out.human(f"kernel:   {payload['kernel']}")
    out.human(f"cokernel: {payload['cokernel']}")
    out.finish(payload)
    return EXIT_OK


def _cmd_resolve(args, out: _Emitter) -> int:
    profile = load_profile(args.profile)
    u = parse_interval(args.interval)
    cap = args.cap
    if cap is None:
        env = os.environ.get("NAKAREP_CAP", str(DEFAULT_RESOLUTION_CAP))
        cap = _parse_integer(env, "NAKAREP_CAP", nonnegative=True)
    report = projective_resolution(profile, u, cap=cap)
    payload = {
        "verdict": str(report.verdict),
        "covers": [str(c) for c in report.covers],
        "syzygies": [str(s) for s in report.syzygies],
    }
    out.human(str(report.verdict))
    out.human("covers:   " + ", ".join(payload["covers"]))
    if payload["syzygies"]:
        out.human("syzygies: " + ", ".join(payload["syzygies"]))
    out.finish(payload)
    return EXIT_OK


def _cmd_pushforward(args, out: _Emitter) -> int:
    profile = load_profile(args.profile)
    f = load_homeo(args.homeo)
    pushed = push_forward(profile, f)
    payload = {"profile": format_profile(pushed)}
    out.human(payload["profile"])
    if args.module is not None:
        moved = map_module(f, parse_interval(args.module))
        payload["module"] = str(moved)
        out.human(f"module image: {payload['module']}")
    out.finish(payload)
    return EXIT_OK


def _cmd_conjugate(args, out: _Emitter) -> int:
    f = load_homeo(args.homeo)
    source = load_profile(args.source)
    target = load_profile(args.target)
    res = verify_conjugacy(f, source, target)
    out.human(str(res).lower())
    out.finish({"conjugate": res})
    return EXIT_OK


def _cmd_normalize(args, out: _Emitter) -> int:
    profile = load_profile(args.profile)
    normalized, witness = normalize_profile(profile)
    payload = {
        "profile": format_profile(normalized),
        "witness": format_homeo(witness),
    }
    out.human(payload["profile"])
    out.human(payload["witness"])
    out.finish(payload)
    return EXIT_OK


def _cmd_series_profile(args, out: _Emitter) -> int:
    series = parse_series(args.series)
    violations = validate_series(series)
    if violations:
        payload = {"valid": False, "violations": violations}
        for v in violations:
            out.human(v)
        out.finish(payload, status="error")
        return EXIT_INVALID
    profile = associated_kupisch(series)
    payload = {"valid": True, "profile": format_profile(profile)}
    out.human(payload["profile"])
    out.finish(payload)
    return EXIT_OK


def _cmd_embed(args, out: _Emitter) -> int:
    series = parse_series(args.series)
    m = parse_discrete_module(args.module)
    u = embed_module(series, m)
    payload = {"interval": str(u)}
    out.human(payload["interval"])
    if args.hom_to is not None:
        m2 = parse_discrete_module(args.hom_to)
        v = embed_module(series, m2)
        payload["discrete_hom"] = discrete_hom_dim(series, m, m2)
        payload["continuous_hom"] = hom_dim(CIRCLE, u, v)
        out.human(f"discrete hom:   {payload['discrete_hom']}")
        out.human(f"continuous hom: {payload['continuous_hom']}")
    out.finish(payload)
    return EXIT_OK


def _cmd_extract(args, out: _Emitter) -> int:
    series = parse_series(args.series)
    m = extract_module(series, parse_interval(args.interval))
    payload = {"top": m.top, "length": m.length}
    out.human(f"{m.top},{m.length}")
    out.finish(payload)
    return EXIT_OK


def _cmd_algdim(args, out: _Emitter) -> int:
    series = parse_series(args.series)
    dim = algebra_dim_check(series)
    payload = {"dim": dim, "sum_of_lengths": sum(series.lengths)}
    out.human(str(dim))
    out.finish(payload)
    return EXIT_OK


def export_plot(profile: KupischProfile, samples: int) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """Exact (t, K(t), kappa(t)) at equally spaced rational sample points
    (one period on the circle)."""
    if samples < 2:
        raise DomainError("need at least 2 samples")
    k = profile.successor
    if k.periodic:
        ts = [Fraction(i, samples) for i in range(samples)]
    else:
        dom = k.dom
        if not (is_finite(dom.lo) and is_finite(dom.hi)):
            raise DomainError("plot export needs a bounded domain (or a circle profile)")
        width = dom.hi - dom.lo
        if dom.lo_closed:
            ts = [dom.lo + Fraction(i, samples) * width for i in range(samples)]
        else:
            ts = [dom.lo + Fraction(i + 1, samples + 1) * width for i in range(samples)]
    out = []
    for t in ts:
        kt = k.eval(t)
        out.append((t, kt, kt - t))
    return out


def _cmd_export_plot(args, out: _Emitter) -> int:
    samples = export_plot(load_profile(args.profile), args.samples)
    # CSV rows display decimals; machine output carries the exact rationals
    out.human("t,K,kappa")
    for triple in samples:
        out.human(",".join(fraction_to_decimal(v, args.digits) for v in triple))
    out.finish({"samples": [dict(zip(("t", "K", "kappa"), map(fmt_rational, v))) for v in samples]})
    return EXIT_OK


# ----- dispatch ----------------------------------------------------------------

# command -> (handler, library operations reachable through it)
DISPATCH = {
    "validate": (_cmd_validate, ("validate_profile",)),
    "info": (_cmd_info, ("kappa_at", "eval", "left_limit", "orbit")),
    "seps": (_cmd_seps, ("separation_points", "next_separation")),
    "components": (_cmd_components, ("components", "component_of")),
    "hom": (_cmd_hom, ("hom_dim", "left_intersect", "translate")),
    "end": (_cmd_end, ("end_dim",)),
    "brick": (_cmd_brick, ("is_brick",)),
    "compat": (_cmd_compat, ("is_compatible", "contains", "is_projective")),
    "morphism": (_cmd_morphism, ("morphism_analyze",)),
    "resolve": (_cmd_resolve, ("projective_resolution", "projective_cover", "projective_at")),
    "pushforward": (_cmd_pushforward, ("push_forward", "compose", "invert", "map_module")),
    "conjugate": (_cmd_conjugate, ("verify_conjugacy",)),
    "normalize": (_cmd_normalize, ("normalize_profile",)),
    "series-profile": (_cmd_series_profile, ("associated_kupisch", "validate_series")),
    "embed": (_cmd_embed, ("embed_module", "discrete_hom_dim")),
    "extract": (_cmd_extract, ("extract_module", "canonical_lift")),
    "algdim": (_cmd_algdim, ("algebra_dim_check",)),
    "export-plot": (_cmd_export_plot, ("export_plot",)),
}

LIBRARY_OPERATIONS = frozenset(
    op for _, ops in DISPATCH.values() for op in ops
)


def _option(**bounds):
    """argparse type of an integer option: a bad value is a parse error
    (exit 2) before any command runs."""

    def convert(text: str) -> int:
        try:
            return _parse_integer(text, **bounds)
        except ParseError as e:
            raise argparse.ArgumentTypeError(f"parse error: {e}") from None

    return convert


_count = _option(nonnegative=True)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nakarep",
        description="Exact computations with interval and string modules under length profiles.",
    )
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a profile file")
    p.add_argument("profile")

    p = sub.add_parser("info", help="summarize a profile; -t also evaluates K")
    p.add_argument("profile")
    p.add_argument("--at", metavar="T", help="evaluate K, kappa and the left limit at T")
    p.add_argument("--orbit", type=_count, metavar="N", help="with --at: print t, K(t), ..., K^N(t)")

    p = sub.add_parser("seps", help="separation points of a profile")
    p.add_argument("profile")
    p.add_argument("--after", metavar="C", help="also print the next separation point after C")

    p = sub.add_parser("components", help="orthogonal components of a profile")
    p.add_argument("profile")
    p.add_argument("--of", metavar="U", help="also print the component index of the interval U")

    p = sub.add_parser("hom", help="Hom dimension between interval/string modules")
    p.add_argument("space", choices=["line", "circle"])
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser("end", help="endomorphism dimension of a module")
    p.add_argument("space", choices=["line", "circle"])
    p.add_argument("interval")

    p = sub.add_parser("brick", help="whether a module is a brick")
    p.add_argument("space", choices=["line", "circle"])
    p.add_argument("interval")

    p = sub.add_parser("compat", help="compatibility of an interval with a profile")
    p.add_argument("profile")
    p.add_argument("interval")
    p.add_argument("--projective", action="store_true", help="also report projectivity")

    p = sub.add_parser("morphism", help="image, kernel, cokernel of a scalar morphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--shift", type=_option(), default=0, help="translation component (circle)")
    p.add_argument("--coefficient", default="1", help="nonzero scalar (default 1)")

    p = sub.add_parser("resolve", help="projective resolution of a module")
    p.add_argument("profile")
    p.add_argument("interval")
    p.add_argument("--cap", type=_count, default=None, help="step cap (default NAKAREP_CAP or 512)")

    p = sub.add_parser("pushforward", help="transport a profile along a homeomorphism")
    p.add_argument("profile")
    p.add_argument("homeo")
    p.add_argument("--module", metavar="U", help="also map the interval U")

    p = sub.add_parser("conjugate", help="verify f pushes one profile onto another")
    p.add_argument("homeo")
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser("normalize", help="equivalent profile on [0,+inf) or the full line")
    p.add_argument("profile")

    p = sub.add_parser("series-profile", help="circle profile of a projective-length series")
    p.add_argument("series")

    p = sub.add_parser("embed", help="circle string of a discrete module")
    p.add_argument("series")
    p.add_argument("module")
    p.add_argument("--hom-to", metavar="M2", help="also compare Hom dimensions to module M2")

    p = sub.add_parser("extract", help="discrete module of a grid-aligned string")
    p.add_argument("series")
    p.add_argument("interval")

    p = sub.add_parser("algdim", help="dim End of the sum of embedded projectives")
    p.add_argument("series")

    p = sub.add_parser("export-plot", help="CSV samples of t, K(t), kappa(t)")
    p.add_argument("profile")
    p.add_argument(
        "--samples", type=_option(at_most=_MAX_SAMPLES), default=16,
        help=f"number of sample points, at most {_MAX_SAMPLES} (default 16)",
    )
    p.add_argument("--digits", type=_count, default=6)

    return top


def run(argv: Optional[List[str]] = None) -> int:
    """Parse, dispatch, print; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK
    out = _Emitter(args.command, args.json)
    handler = DISPATCH[args.command][0]
    try:
        return handler(args, out)
    except ParseError as e:
        _fail(args, "parse error", str(e))
        return EXIT_PARSE
    except NakarepError as e:
        _fail(args, type(e).__name__, str(e))
        return EXIT_MATH


def _fail(args, kind: str, message: str) -> None:
    if args.json:
        _write_envelope(args.command, "error", error={"kind": kind, "message": message})
    sys.stderr.write(f"nakarep: {kind}: {message}\n")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
