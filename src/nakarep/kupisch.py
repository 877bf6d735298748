"""Length profiles on the line and the circle.

A profile is a space together with its successor map K; the length function
is the derived quantity kappa(t) = K(t) - t.  K is stored rather than kappa
because K stays piecewise fractional-linear under conjugation by a
homeomorphism, while kappa does not.

Validity of a profile means: kappa > 0 everywhere, K non-decreasing (already
structural for :class:`~nakarep.pwmap.PiecewiseMap`), the closed interval
[t, K(t)] never leaves the domain, and the domain itself admits a profile
(no right-closed ends).  Validation reports violations as data instead of
raising.  Profiles are immutable and every operation is pure.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .errors import DegreeError, DomainError
from .pwmap import (
    NEG_INF,
    POS_INF,
    Bound,
    Dom,
    FracLinear,
    Piece,
    PiecewiseMap,
    as_rational,
    compose,
    fmt_bound,
    invert,
    is_finite,
)


@dataclass(frozen=True)
class Line:
    domain: Dom


@dataclass(frozen=True)
class Circle:
    pass


CIRCLE = Circle()
Space = Union[Line, Circle]


@dataclass(frozen=True)
class KupischProfile:
    space: Space
    successor: PiecewiseMap

    @property
    def periodic(self) -> bool:
        return self.successor.periodic


@dataclass(frozen=True)
class SeparationSet:
    """Separation points; for periodic profiles the representatives in
    [0, 1), the full set being points + Z."""

    points: Tuple[Fraction, ...]
    periodic: bool

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


class Shape(Enum):
    HALF_LINE_LIKE = "half-line"
    LINE_LIKE = "line"
    CIRCLE_WHOLE = "circle"


@dataclass(frozen=True)
class ComponentDescriptor:
    index: int
    left: Bound
    right: Bound
    shape: Shape
    periodic: bool = False


# ----- profile constructors ----------------------------------------------


def line_profile(dom: Dom, successor: PiecewiseMap) -> KupischProfile:
    return KupischProfile(Line(dom), successor)


def circle_profile(successor: PiecewiseMap) -> KupischProfile:
    return KupischProfile(CIRCLE, successor)


# ----- validation ---------------------------------------------------------


def validate_profile(profile: KupischProfile) -> List[str]:
    """All invariant violations, empty iff the profile is valid."""
    out: List[str] = []
    k = profile.successor
    if isinstance(profile.space, Line):
        d = profile.space.domain
        if d.hi_closed:
            out.append(f"domain {d}: right-closed domain inadmissible")
        if k.periodic:
            if is_finite(d.lo) or is_finite(d.hi):
                out.append("periodic successor requires the domain (-inf, +inf)")
        elif k.dom != d.open_right():
            out.append(f"successor domain {k.dom} differs from the space domain {d}")
    else:
        if not k.periodic:
            out.append("circle profile requires a periodic successor on [0/1, 1/1)")
    for piece in k.pieces:
        msg = _kappa_violation(piece, k)
        if msg:
            out.append(msg)
    if isinstance(profile.space, Line) and not k.periodic and is_finite(k.dom.hi):
        out.extend(_containment_violations(k))
    return out


def _kappa_violation(piece: Piece, k: PiecewiseMap) -> Optional[str]:
    """Check K(t) - t > 0 on the piece by exact sign analysis of the rational
    function (a t + b)/(c t + d) - t, whose numerator is a quadratic."""
    a, b, c, d = piece.fn.m
    # sign of the denominator c t + d is constant on the piece
    if c == 0:
        s = 1  # d > 0 in FracLinear's normal form
    else:
        pole = piece.fn.pole
        if is_finite(piece.lo) and piece.lo != pole:
            t_s = piece.lo
        elif is_finite(piece.hi) and piece.hi != pole:
            t_s = piece.hi
        elif is_finite(piece.lo):
            t_s = piece.lo + 1
        else:
            t_s = piece.hi - 1
        s = 1 if c * t_s.numerator + d * t_s.denominator > 0 else -1
    qa = -s * c
    qb = s * (a - d)
    qc = s * b
    lo_included = not (piece.lo == k.dom.lo and not k.dom.lo_closed and not k.periodic)
    if _positive_on(qa, qb, qc, piece.lo, piece.hi, lo_included):
        return None
    return f"piece {piece}: kappa <= 0 somewhere on the piece"


def _quad(qa: int, qb: int, qc: int, t: Fraction) -> int:
    """q^2 times the quadratic at t = p/q: the sign of its value, in integers."""
    p, q = t.numerator, t.denominator
    return (qa * p + qb * q) * p + qc * q * q


def _positive_on(qa, qb, qc, lo: Bound, hi: Bound, lo_included: bool) -> bool:
    """Whether the quadratic is strictly positive on [lo, hi) (or (lo, hi)
    when the left end is excluded), with exact rational comparisons only."""
    if qa == 0 and qb == 0:
        return qc > 0
    if is_finite(lo):
        v = _quad(qa, qb, qc, lo)
        if lo_included:
            if v <= 0:
                return False
        else:
            if v < 0:
                return False
            if v == 0:
                slope = 2 * qa * lo + qb
                if slope < 0 or (slope == 0 and qa <= 0):
                    return False
    else:
        if qa < 0 or (qa == 0 and qb > 0):
            return False
    if is_finite(hi):
        if _quad(qa, qb, qc, hi) < 0:
            return False
    else:
        if qa < 0 or (qa == 0 and qb < 0):
            return False
    if qa > 0:
        vertex = Fraction(-qb, 2 * qa)
        if lo < vertex < hi and _quad(qa, qb, qc, vertex) <= 0:
            return False
    return True


def _containment_violations(k: PiecewiseMap) -> List[str]:
    """[t, K(t)] must stay inside the (right-open, bounded) domain."""
    out = []
    hi = k.dom.hi
    for piece in k.pieces:
        if piece.fn.pole == piece.hi:
            out.append(f"piece {piece}: K escapes to +inf inside the domain")
            continue
        limit = piece.fn(piece.hi)
        if limit > hi or (limit == hi and piece.fn.is_constant):
            out.append(f"piece {piece}: [t, K(t)] leaves the domain {k.dom}")
    return out


# ----- pointwise data ------------------------------------------------------


def kappa_at(profile: KupischProfile, t) -> Fraction:
    """The length kappa(t) = K(t) - t."""
    t = as_rational(t)
    return profile.successor.eval(t) - t


def orbit(profile: KupischProfile, t, n: int) -> List[Fraction]:
    """[t, K(t), ..., K^n(t)], strictly increasing for valid profiles.
    Circle orbits are computed on the line lift."""
    t = as_rational(t)
    out = [t]
    for _ in range(n):
        t = profile.successor.eval(t)
        out.append(t)
    return out


# ----- separation points ---------------------------------------------------


def separation_points(profile: KupischProfile) -> SeparationSet:
    """Interior points where the length vanishes from the left and no earlier
    point reaches them: left_limit(K, c) == c with K not constantly c on a
    left neighbourhood.  Since kappa is positive inside every piece, the only
    candidates are breakpoints, which keeps the search finite and exact:
    one pass over the pairs of adjacent pieces, O(n) for n pieces, made
    once per profile.  The points come in increasing order."""
    seps = profile.__dict__.get("_separation")
    if seps is not None:
        return seps
    k = profile.successor
    # (formula left of c, breakpoint c) for each pair of adjacent pieces; on
    # the circle the last piece, moved down one period, meets the first at 0
    pairs = [(prev.fn, cur.lo) for prev, cur in zip(k.pieces, k.pieces[1:])]
    if k.periodic:
        pairs.insert(0, (k.pieces[-1].fn.shifted(-1), Fraction(0)))
    found = [c for left_fn, c in pairs if left_fn(c) == c and not left_fn.is_constant]
    seps = SeparationSet(tuple(found), k.periodic)
    # kept on the profile for later calls; not a field, so == and hash ignore it
    object.__setattr__(profile, "_separation", seps)
    return seps


def next_separation(profile: KupischProfile, c) -> Bound:
    """min { s in the separation set : s > c }, or the domain's supremum
    (+inf when unbounded) when there is none.  One bisection, O(log n)."""
    c = as_rational(c)
    k = profile.successor
    if not k.periodic and not k.dom.contains(c):
        raise DomainError(f"{fmt_bound(c)} outside domain {k.dom}")
    pts = separation_points(profile).points
    if not k.periodic:
        i = bisect_right(pts, c)
        return pts[i] if i < len(pts) else k.dom.hi
    if not pts:
        return POS_INF
    # the representatives lie in [0, 1); c lies in the period [n, n + 1)
    n = math.floor(c)
    i = bisect_right(pts, c - n)
    return n + pts[i] if i < len(pts) else n + 1 + pts[0]


# ----- orthogonal components -----------------------------------------------


def components(profile: KupischProfile) -> List[ComponentDescriptor]:
    """The orthogonal components cut out by the separation points.

    Circle: one whole-circle component when at most one separation point
    lies in a period, else one half-line-like component per consecutive
    pair.  Line: the strip between consecutive separation points, plus the
    part left of the first one; a periodic line profile reports one period,
    flagged periodic.
    """
    k = profile.successor
    pts = list(separation_points(profile).points)
    on_circle = isinstance(profile.space, Circle)
    if on_circle and len(pts) <= 1:
        left = pts[0] if pts else Fraction(0)
        return [ComponentDescriptor(0, left, left + 1, Shape.CIRCLE_WHOLE)]
    if on_circle or (k.periodic and pts):
        # consecutive pairs around one period, the last closing at pts[0] + 1
        return [
            ComponentDescriptor(j, c, right, Shape.HALF_LINE_LIKE, periodic=not on_circle)
            for j, (c, right) in enumerate(zip(pts, pts[1:] + [pts[0] + 1]))
        ]
    dom = k.dom if not k.periodic else Dom(NEG_INF, POS_INF, False)
    whole_shape = Shape.HALF_LINE_LIKE if dom.lo_closed else Shape.LINE_LIKE
    ends = [dom.lo] + pts + [dom.hi]
    return [
        ComponentDescriptor(j, lo, hi, whole_shape if j == 0 else Shape.HALF_LINE_LIKE)
        for j, (lo, hi) in enumerate(zip(ends, ends[1:]))
    ]


# ----- push-forward and conjugacy ------------------------------------------


def push_forward(profile: KupischProfile, f: PiecewiseMap) -> KupischProfile:
    """Transport the profile along an orientation-preserving homeomorphism:
    the new successor is the exact composite f o K o f^{-1}.

    f must be a strictly increasing bijection off the profile's domain; on
    the circle it must be given as a degree-one lift (periodic pieces).
    """
    k = profile.successor
    if isinstance(profile.space, Circle):
        if not f.periodic:
            raise DegreeError("circle homeomorphisms are given by periodic degree-1 lifts")
        new_k = compose(f, compose(k, invert(f)))
        result = KupischProfile(CIRCLE, new_k)
    else:
        if f.periodic != k.periodic:
            raise DomainError("homeomorphism and successor must both be periodic or both not")
        if not f.periodic and f.dom != k.dom:
            raise DomainError(
                f"homeomorphism domain {f.dom} differs from profile domain {k.dom}"
            )
        f_inv = invert(f)
        new_k = compose(f, compose(k, f_inv))
        new_dom = Dom(NEG_INF, POS_INF, False) if f.periodic else f_inv.dom
        result = KupischProfile(Line(new_dom), new_k)
    bad = validate_profile(result)
    if bad:
        raise DomainError("push-forward produced an invalid profile: " + "; ".join(bad))
    return result


def verify_conjugacy(
    f: PiecewiseMap, source: KupischProfile, target: KupischProfile
) -> bool:
    """True iff pushing the source along f lands exactly on the target."""
    pushed = push_forward(source, f)
    if pushed.space != target.space:
        return False
    return pushed.successor == target.successor


# ----- normal form of the underlying space ----------------------------------


def normalize_profile(profile: KupischProfile) -> Tuple[KupischProfile, PiecewiseMap]:
    """An equivalent profile on [0, +inf) (half-open domains) or on
    (-inf, +inf) (open domains), together with the fractional-linear
    homeomorphism used as witness.

    The witness choices are fixed: [a, b) maps by t -> (t - a)/(b - t);
    [a, +inf) by t -> t - a; open bounded (a, b) uses the two-piece map
    t -> (t - m)/(t - a) then t -> (t - m)/(b - t) around the midpoint m;
    half-infinite open domains combine one such piece with an affine tail.
    """
    if isinstance(profile.space, Circle):
        raise DomainError("only line profiles have a normal form on the line")
    dom = profile.successor.dom if not profile.periodic else Dom(NEG_INF, POS_INF, False)
    if dom == Dom(NEG_INF, POS_INF, False) or dom == Dom(Fraction(0), POS_INF, True):
        if profile.periodic:
            witness = PiecewiseMap.single(
                Dom(Fraction(0), Fraction(1), True), FracLinear.identity(), periodic=True
            )
        else:
            witness = PiecewiseMap.identity(dom)
        return profile, witness
    lo, hi = dom.lo, dom.hi
    if dom.lo_closed:
        if is_finite(hi):
            fn = FracLinear(1, -lo, -1, hi)
            witness = PiecewiseMap.single(dom, fn)
        else:
            witness = PiecewiseMap.single(dom, FracLinear.affine(1, -lo))
    else:
        if is_finite(lo) and is_finite(hi):
            m = (lo + hi) / 2
            witness = PiecewiseMap.from_pieces(
                dom,
                [
                    (lo, m, FracLinear(1, -m, 1, -lo)),
                    (m, hi, FracLinear(1, -m, -1, hi)),
                ],
            )
        elif is_finite(lo):
            m = lo + 1
            witness = PiecewiseMap.from_pieces(
                dom,
                [
                    (lo, m, FracLinear(1, -m, 1, -lo)),
                    (m, POS_INF, FracLinear.affine(1, -m)),
                ],
            )
        else:
            m = hi - 1
            witness = PiecewiseMap.from_pieces(
                dom,
                [
                    (NEG_INF, m, FracLinear.affine(1, -m)),
                    (m, hi, FracLinear(1, -m, -1, hi)),
                ],
            )
    return push_forward(profile, witness), witness
