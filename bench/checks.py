"""Independent routes to the answers the workloads ask for.

Each check returns None when the answer is right and a short message when
it is wrong.  The checks read map data (pieces and their coefficients)
directly and never call the operation under test: pointwise values come
from a linear scan over the pieces instead of the library's lookup, Hom
dimensions from the discrete counter, resolution ends from the recurrence
x_{n+2} = K(x_n), and component indices from the separation points the
generator planted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

CAP = 512  # resolution cap the workloads pass, the library's default


def scan_eval(pm, t: Fraction) -> Fraction:
    """K(t) by a linear scan over the pieces, unfolding periodic maps."""
    shift = 0
    if pm.periodic:
        shift = math.floor(t)
        t = t - shift
    for p in pm.pieces:
        if p.lo <= t < p.hi:
            fn = p.fn
            return (fn.a * t + fn.b) / (fn.c * t + fn.d) + shift
    raise ValueError(f"{t} is not covered by any piece")


def span(u):
    """An interval as plain data: (lo, hi, lo kind, hi kind)."""
    return (u.lo, u.hi, u.lo_kind.value, u.hi_kind.value)


def push(profile, f, points: Sequence[Fraction], planted: dict, answer) -> Optional[str]:
    """The pushed profile conjugates K by f at every sample point, and the
    separation points and components keep their planted counts."""
    pushed, seps, comps = answer
    k, k2 = profile.successor, pushed.successor
    for t in points:
        if scan_eval(k2, scan_eval(f, t)) != scan_eval(f, scan_eval(k, t)):
            return f"K'(f(t)) != f(K(t)) at t = {t}"
    if len(seps) != len(planted["seps"]):
        return f"{len(seps)} separation points, expected {len(planted['seps'])}"
    if len(comps) != planted["components"]:
        return f"{len(comps)} components, expected {planted['components']}"
    return None


def equal(expected, answer) -> Optional[str]:
    return None if answer == expected else f"got {answer!r}, expected {expected!r}"


def compatible(k, u) -> bool:
    """u fits under the projective at its left end (u.lo in the domain)."""
    return u.hi <= scan_eval(k, u.lo)


def cover(k, u, answer) -> Optional[str]:
    """Projective cover [lo, K(lo)] with u's left kind, and the syzygy
    (hi, K(lo)] unless u reaches K(lo); u has a closed right end."""
    top = scan_eval(k, u.lo)
    expected = (
        (u.lo, top, u.lo_kind.value, "closed"),
        None if u.hi == top else (u.hi, top, "open", "closed"),
    )
    got = (span(answer[0]), None if answer[1] is None else span(answer[1]))
    return equal(expected, got)


def component(planted: Sequence[Fraction], on_circle: bool, x: Fraction, answer) -> Optional[str]:
    """Component index from the planted separation points: on the line the
    count of points at or left of x; on the circle the arc [c_j, c_{j+1})
    holding the canonical lift of x, the last arc wrapping round."""
    if on_circle:
        x = x - math.floor(x)
        if len(planted) <= 1:
            expected = 0
        else:
            below = sum(1 for c in planted if c <= x)
            expected = below - 1 if below else len(planted) - 1
    else:
        expected = sum(1 for c in planted if c <= x)
    return equal(expected, answer)


def resolution(k, on_circle: bool, u, expected_verdict, report) -> Optional[str]:
    """Syzygy ends and the verdict against the recurrence x_{n+2} = K(x_n)
    with x_0, x_1 the ends of u (right end closed): the n-th syzygy is
    (x_n, x_{n+1}], up to an integer translation on the circle.  It is
    absent once x_{n+1} == x_n; on the circle a repeat of (x_n mod 1,
    x_{n+1} - x_n) proves a periodic tail."""
    xs = [u.lo, u.hi]
    seen = {(u.lo - math.floor(u.lo), u.hi - u.lo, u.lo_kind.value): 0} if on_circle else {}
    verdict = ("ExceededCap", CAP)
    for step in range(1, CAP + 1):
        xs.append(scan_eval(k, xs[-2]))
        if xs[-1] == xs[-2]:
            verdict = ("Finite", step - 1)
            break
        if on_circle:
            key = (xs[-2] - math.floor(xs[-2]), xs[-1] - xs[-2], "open")
            if key in seen:
                verdict = ("InfinitePeriodic", step - seen[key])
                break
            seen[key] = step
    got = type(report.verdict).__name__, next(iter(vars(report.verdict).values()))
    if got != verdict:
        return f"verdict {got}, recurrence gives {verdict}"
    if expected_verdict is not None and verdict != expected_verdict:
        return f"verdict {verdict}, the input was built for {expected_verdict}"
    if len(report.syzygies) != len(report.covers) - (verdict[0] == "Finite"):
        return "syzygy count does not match the verdict"
    for n, s in enumerate(report.syzygies, start=1):
        lo, hi = xs[n], xs[n + 1]
        shift = s.lo - lo
        if shift.denominator != 1 or (shift and not on_circle) or s.hi - s.lo != hi - lo:
            return f"syzygy {n} is {s}, recurrence gives ({lo}, {hi}]"
        if (s.lo_kind.value, s.hi_kind.value) != ("open", "closed"):
            return f"syzygy {n} has kinds {s.lo_kind.value}, {s.hi_kind.value}"
    return None


def morphism(points, kinds, answer) -> Optional[str]:
    """source = <b, d>, target = <a, c> with a < b < c < d: the image is
    <b, c> with the source's left kind and the target's right kind, the
    kernel the source right of c, the cokernel the target left of b, each
    with the kind flipped at the split point."""
    a, b, c, d = points
    src_lo, src_hi, tgt_lo, tgt_hi = kinds
    flip = {"open": "closed", "closed": "open"}
    expected = (
        (b, c, src_lo, tgt_hi),
        (c, d, flip[tgt_hi], src_hi),
        (a, b, tgt_lo, flip[src_lo]),
    )
    got = tuple(None if v is None else span(v) for v in (answer.image, answer.kernel, answer.cokernel))
    return equal(expected, got)


def embed_extract(n: int, top: int, length: int, answer) -> Optional[str]:
    """embed gives (top/n, (top + length)/n] and extract reads it back."""
    u, back = answer
    expected = ((Fraction(top, n), Fraction(top + length, n), "open", "closed"), (top, length))
    return equal(expected, (span(u), (back.top, back.length)))
