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

Each subcommand is one row of ``_COMMANDS``: its name and help, its
positionals with their converters, its options as argparse keyword
arguments, its handler and the library operations it reaches; the parser,
``DISPATCH`` and ``LIBRARY_OPERATIONS`` derive from the rows.  ``run``
converts the positionals in row order, so a bad file or literal is a parse
error with its ``--json`` envelope, and calls the handler with the parsed
options and the converted values.  A handler returns ``(payload, human
lines)`` or ``(payload, human lines, exit code, status)``; ``run`` alone
writes stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

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
# export-plot builds its samples as one list and renders each of the three
# columns to this many decimal places; together they bound its memory
_MAX_SAMPLES = 10000
_MAX_PLOT_DIGITS = 100
# info --orbit and resolve --cap (or NAKAREP_CAP) take one step of K per
# orbit point or syzygy and print every step; on a Moebius profile the
# heights of the points grow with each step, so the output grows
# quadratically in the count
_MAX_STEPS = 4096


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


# ----- command handlers -------------------------------------------------------


def _cmd_validate(args, profile):
    violations = validate_profile(profile)
    lines = violations + ["valid" if not violations else "invalid"]
    code = EXIT_OK if not violations else EXIT_INVALID
    return {"valid": not violations, "violations": violations}, lines, code, "ok"


def _cmd_info(args, profile):
    k = profile.successor
    payload = {
        "space": "circle" if isinstance(profile.space, Circle) else "line",
        "domain": str(k.dom) if not k.periodic else "circle lift [0/1, 1/1)",
        "pieces": len(k.pieces),
        "valid": not validate_profile(profile),
    }
    lines = [f"{key + ':':<8}{str(value).lower()}" for key, value in payload.items()]
    if args.at is not None:
        t = parse_rational(args.at)
        payload["at"] = fmt_rational(t)
        payload["K"] = fmt_rational(k.eval(t))
        payload["kappa"] = fmt_rational(kappa_at(profile, t))
        has_left = k.periodic or t > k.dom.lo  # a line domain has no left limit at its start
        payload["K_left_limit"] = fmt_bound(k.left_limit(t)) if has_left else None
        lines.append(f"K({payload['at']}) = {payload['K']}, kappa = {payload['kappa']}")
        if payload["K_left_limit"] is not None:
            lines.append(f"left limit of K: {payload['K_left_limit']}")
        if args.orbit:
            payload["orbit"] = [fmt_rational(p) for p in orbit(profile, t, args.orbit)]
            lines.append("orbit: " + ", ".join(payload["orbit"]))
    return payload, lines


def _cmd_seps(args, profile):
    seps = separation_points(profile)
    payload = {"points": [fmt_rational(p) for p in seps.points], "periodic": seps.periodic}
    lines = [", ".join(payload["points"]) if payload["points"] else "(none)"]
    if args.after is not None:
        payload["next_after"] = fmt_bound(next_separation(profile, parse_rational(args.after)))
        lines.append(f"next after {args.after}: {payload['next_after']}")
    return payload, lines


def _cmd_components(args, profile):
    rows = [
        {"index": c.index, "left": fmt_bound(c.left), "right": fmt_bound(c.right),
         "shape": c.shape.value, "periodic": c.periodic}
        for c in components(profile)
    ]
    payload = {"count": len(rows), "components": rows}
    lines = [
        f"{r['index']}: [{r['left']}, {r['right']}) {r['shape']}"
        + (" (repeats by Z)" if r["periodic"] else "")
        for r in rows
    ]
    if args.of is not None:
        payload["component_of"] = component_of(profile, parse_interval(args.of))
        lines.append(f"component of {args.of}: {payload['component_of']}")
    return payload, lines


def _cmd_hom(args, space, source, target):
    dim = hom_dim(space, source, target)
    return {"dim": dim}, [str(dim)]


def _cmd_end(args, space, u):
    dim = end_dim(space, u)
    return {"dim": dim}, [str(dim)]


def _cmd_brick(args, space, u):
    res = is_brick(space, u)
    return {"brick": res}, [str(res).lower()]


def _cmd_compat(args, profile, u):
    payload = {"compatible": is_compatible(profile, u)}
    lines = [str(payload["compatible"]).lower()]
    if args.projective:
        payload["projective"] = is_projective(profile, u)
        lines.append(f"projective: {str(payload['projective']).lower()}")
    return payload, lines


def _cmd_morphism(args, source, target):
    m = ScalarMorphism(source, target, args.shift, parse_rational(args.coefficient))
    payload = {key: None if u is None else str(u) for key, u in vars(morphism_analyze(m)).items()}
    return payload, [f"{key + ':':<10}{u}" for key, u in payload.items()]


def _cmd_resolve(args, profile, u):
    cap = args.cap
    if cap is None:
        env = os.environ.get("NAKAREP_CAP", str(DEFAULT_RESOLUTION_CAP))
        cap = _parse_integer(env, "NAKAREP_CAP", nonnegative=True, at_most=_MAX_STEPS)
    report = projective_resolution(profile, u, cap=cap)
    payload = {
        "verdict": str(report.verdict),
        "covers": [str(c) for c in report.covers],
        "syzygies": [str(s) for s in report.syzygies],
    }
    lines = [str(report.verdict), "covers:   " + ", ".join(payload["covers"])]
    if payload["syzygies"]:
        lines.append("syzygies: " + ", ".join(payload["syzygies"]))
    return payload, lines


def _cmd_pushforward(args, profile, f):
    payload = {"profile": format_profile(push_forward(profile, f))}
    lines = [payload["profile"]]
    if args.module is not None:
        payload["module"] = str(map_module(f, parse_interval(args.module)))
        lines.append(f"module image: {payload['module']}")
    return payload, lines


def _cmd_conjugate(args, f, source, target):
    res = verify_conjugacy(f, source, target)
    return {"conjugate": res}, [str(res).lower()]


def _cmd_normalize(args, profile):
    normalized, witness = normalize_profile(profile)
    payload = {"profile": format_profile(normalized), "witness": format_homeo(witness)}
    return payload, [payload["profile"], payload["witness"]]


def _cmd_series_profile(args, series):
    violations = validate_series(series)
    if violations:
        return {"valid": False, "violations": violations}, violations, EXIT_INVALID, "error"
    payload = {"valid": True, "profile": format_profile(associated_kupisch(series))}
    return payload, [payload["profile"]]


def _cmd_embed(args, series, m):
    u = embed_module(series, m)
    payload = {"interval": str(u)}
    lines = [payload["interval"]]
    if args.hom_to is not None:
        m2 = parse_discrete_module(args.hom_to)
        v = embed_module(series, m2)
        payload["discrete_hom"] = discrete_hom_dim(series, m, m2)
        payload["continuous_hom"] = hom_dim(CIRCLE, u, v)
        lines.append(f"discrete hom:   {payload['discrete_hom']}")
        lines.append(f"continuous hom: {payload['continuous_hom']}")
    return payload, lines


def _cmd_extract(args, series, u):
    m = extract_module(series, u)
    return {"top": m.top, "length": m.length}, [f"{m.top},{m.length}"]


def _cmd_algdim(args, series):
    dim = algebra_dim_check(series)
    return {"dim": dim, "sum_of_lengths": sum(series.lengths)}, [str(dim)]


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


def _cmd_export_plot(args, profile):
    samples = export_plot(profile, args.samples)
    # machine output carries the exact rationals, CSV rows display decimals;
    # only the one that is printed is rendered
    if args.json:
        exact = [dict(zip(("t", "K", "kappa"), map(fmt_rational, v))) for v in samples]
        return {"samples": exact}, []
    rows = [",".join(fraction_to_decimal(v, args.digits) for v in triple) for triple in samples]
    return {}, ["t,K,kappa"] + rows


# ----- the command table --------------------------------------------------------


def _option(**bounds):
    """argparse type of an integer option: a bad value is a parse error
    (exit 2) before any command runs."""

    def convert(text: str) -> int:
        try:
            return _parse_integer(text, **bounds)
        except ParseError as e:
            raise argparse.ArgumentTypeError(f"parse error: {e}") from None

    return convert


_steps = _option(nonnegative=True, at_most=_MAX_STEPS)


class _Command(NamedTuple):
    name: str
    help: str
    positionals: Tuple[Tuple[str, Any], ...]  # (name, converter or {word: value})
    options: Dict[str, dict]  # flag -> argparse keyword arguments
    handler: Callable
    operations: Tuple[str, ...]  # library operations the command reaches


_PROFILE = ("profile", load_profile)
_INTERVAL = ("interval", parse_interval)
_SERIES = ("series", parse_series)
_HOMEO = ("homeo", load_homeo)
_SPACE = ("space", {"line": Line(Dom(NEG_INF, POS_INF, False)), "circle": CIRCLE})

_COMMANDS = (
    _Command(
        "validate", "check a profile file", (_PROFILE,), {}, _cmd_validate, ("validate_profile",)
    ),
    _Command(
        "info", "summarize a profile; --at also evaluates K", (_PROFILE,),
        {
            "--at": dict(metavar="T", help="evaluate K, kappa and the left limit at T"),
            "--orbit": dict(type=_steps, metavar="N",
                            help=f"with --at: print t, K(t), ..., K^N(t); N at most {_MAX_STEPS}"),
        },
        _cmd_info, ("kappa_at", "eval", "left_limit", "orbit"),
    ),
    _Command(
        "seps", "separation points of a profile", (_PROFILE,),
        {"--after": dict(metavar="C", help="also print the next separation point after C")},
        _cmd_seps, ("separation_points", "next_separation"),
    ),
    _Command(
        "components", "orthogonal components of a profile", (_PROFILE,),
        {"--of": dict(metavar="U", help="also print the component index of the interval U")},
        _cmd_components, ("components", "component_of"),
    ),
    _Command(
        "hom", "Hom dimension between interval/string modules",
        (_SPACE, ("source", parse_interval), ("target", parse_interval)), {},
        _cmd_hom, ("hom_dim", "left_intersect", "translate"),
    ),
    _Command(
        "end", "endomorphism dimension of a module", (_SPACE, _INTERVAL), {}, _cmd_end, ("end_dim",)
    ),
    _Command(
        "brick", "whether a module is a brick", (_SPACE, _INTERVAL), {}, _cmd_brick, ("is_brick",)
    ),
    _Command(
        "compat", "compatibility of an interval with a profile", (_PROFILE, _INTERVAL),
        {"--projective": dict(action="store_true", help="also report projectivity")},
        _cmd_compat, ("is_compatible", "is_projective"),
    ),
    _Command(
        "morphism", "image, kernel, cokernel of a scalar morphism",
        (("source", parse_interval), ("target", parse_interval)),
        {
            "--shift": dict(type=_option(), default=0, help="translation component (circle)"),
            "--coefficient": dict(default="1", help="nonzero scalar (default 1)"),
        },
        _cmd_morphism, ("morphism_analyze",),
    ),
    _Command(
        "resolve", "projective resolution of a module", (_PROFILE, _INTERVAL),
        {"--cap": dict(type=_steps, default=None,
                       help=f"step cap, at most {_MAX_STEPS} (default NAKAREP_CAP or 512)")},
        _cmd_resolve, ("projective_resolution", "projective_cover", "projective_at"),
    ),
    _Command(
        "pushforward", "transport a profile along a homeomorphism", (_PROFILE, _HOMEO),
        {"--module": dict(metavar="U", help="also map the interval U")},
        _cmd_pushforward, ("push_forward", "compose", "invert", "map_module"),
    ),
    _Command(
        "conjugate", "verify f pushes one profile onto another",
        (_HOMEO, ("source", load_profile), ("target", load_profile)), {},
        _cmd_conjugate, ("verify_conjugacy",),
    ),
    _Command(
        "normalize", "equivalent profile on [0,+inf) or the full line", (_PROFILE,), {},
        _cmd_normalize, ("normalize_profile",),
    ),
    _Command(
        "series-profile", "circle profile of a projective-length series", (_SERIES,), {},
        _cmd_series_profile, ("associated_kupisch", "validate_series"),
    ),
    _Command(
        "embed", "circle string of a discrete module", (_SERIES, ("module", parse_discrete_module)),
        {"--hom-to": dict(metavar="M2", help="also compare Hom dimensions to module M2")},
        _cmd_embed, ("embed_module", "discrete_hom_dim"),
    ),
    _Command(
        "extract", "discrete module of a grid-aligned string", (_SERIES, _INTERVAL), {},
        _cmd_extract, ("extract_module", "canonical_lift"),
    ),
    _Command(
        "algdim", "dim End of the sum of embedded projectives", (_SERIES,), {},
        _cmd_algdim, ("algebra_dim_check",),
    ),
    _Command(
        "export-plot", "CSV samples of t, K(t), kappa(t)", (_PROFILE,),
        {
            "--samples": dict(type=_option(at_most=_MAX_SAMPLES), default=16,
                              help=f"number of sample points, at most {_MAX_SAMPLES} (default 16)"),
            "--digits": dict(type=_option(nonnegative=True, at_most=_MAX_PLOT_DIGITS), default=6,
                             help=f"decimal places, at most {_MAX_PLOT_DIGITS} (default 6)"),
        },
        _cmd_export_plot, ("export_plot",),
    ),
)

# command -> (handler, library operations reachable through it)
DISPATCH = {c.name: (c.handler, c.operations) for c in _COMMANDS}
LIBRARY_OPERATIONS = frozenset(op for c in _COMMANDS for op in c.operations)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nakarep",
        description="Exact computations with interval and string modules under length profiles.",
    )
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)
    for c in _COMMANDS:
        p = sub.add_parser(c.name, help=c.help)
        p.set_defaults(row=c)
        for name, convert in c.positionals:
            p.add_argument(name, choices=list(convert) if isinstance(convert, dict) else None)
        for flag, kwargs in c.options.items():
            p.add_argument(flag, **kwargs)
    return top


def run(argv: Optional[List[str]] = None) -> int:
    """Parse, convert the positionals, dispatch, print; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK
    try:
        values = []
        for name, convert in args.row.positionals:
            text = getattr(args, name)
            values.append(convert[text] if isinstance(convert, dict) else convert(text))
        result = args.row.handler(args, *values)
    except NakarepError as e:
        kind = "parse error" if isinstance(e, ParseError) else type(e).__name__
        if args.json:
            _write_envelope(args.command, "error", error={"kind": kind, "message": str(e)})
        sys.stderr.write(f"nakarep: {kind}: {e}\n")
        return EXIT_PARSE if isinstance(e, ParseError) else EXIT_MATH
    payload, lines, code, status = result if len(result) == 4 else (*result, EXIT_OK, "ok")
    if args.json:
        _write_envelope(args.command, status, payload=payload)
    else:
        sys.stdout.write("".join(line.rstrip("\n") + "\n" for line in lines))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
