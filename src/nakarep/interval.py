"""Bounded endpoint-kinded intervals and their left-intersection calculus.

These intervals are the supports of indecomposable modules: always nonempty,
with rational ends, each end either closed or open.  The empty set is never
an ``Interval``; operations that can produce it return ``None`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .pwmap import as_rational, fmt_rational


class EndpointKind(Enum):
    CLOSED = "closed"
    OPEN = "open"


CLOSED = EndpointKind.CLOSED
OPEN = EndpointKind.OPEN


def _flip(kind: EndpointKind) -> EndpointKind:
    return OPEN if kind is CLOSED else CLOSED


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_kind: EndpointKind
    hi_kind: EndpointKind

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval ends out of order")
        if self.lo == self.hi and (self.lo_kind is OPEN or self.hi_kind is OPEN):
            raise ValueError("a degenerate interval must be closed on both sides")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains_point(self, t) -> bool:
        t = as_rational(t)
        if t < self.lo or (t == self.lo and self.lo_kind is OPEN):
            return False
        if t > self.hi or (t == self.hi and self.hi_kind is OPEN):
            return False
        return True

    def __str__(self) -> str:
        left = "[" if self.lo_kind is CLOSED else "("
        right = "]" if self.hi_kind is CLOSED else ")"
        return f"{left}{fmt_rational(self.lo)}, {fmt_rational(self.hi)}{right}"


def closed(lo, hi) -> Interval:
    return Interval(as_rational(lo), as_rational(hi), CLOSED, CLOSED)


def interval(lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> Interval:
    return Interval(
        as_rational(lo),
        as_rational(hi),
        CLOSED if lo_closed else OPEN,
        CLOSED if hi_closed else OPEN,
    )


def left_intersect(u: Interval, v: Interval) -> Optional[Interval]:
    """U left-intersect V: the overlap when V only overhangs U on the right
    and U only overhangs V on the left; otherwise None.

    A nonempty result is exactly the support of the image of the (unique up
    to scalar) nonzero morphism from the module on V to the module on U.
    The bound contributed by U keeps U's kind and likewise for V; a shared
    bound is open as soon as either side is open.
    """
    # V must not reach strictly left of U ...
    if v.lo < u.lo or (v.lo == u.lo and v.lo_kind is CLOSED and u.lo_kind is OPEN):
        return None
    # ... and U must not reach strictly right of V.
    if u.hi > v.hi or (u.hi == v.hi and u.hi_kind is CLOSED and v.hi_kind is OPEN):
        return None
    if u.lo > v.lo:
        lo, lo_kind = u.lo, u.lo_kind
    elif v.lo > u.lo:
        lo, lo_kind = v.lo, v.lo_kind
    else:
        lo = u.lo
        lo_kind = OPEN if (u.lo_kind is OPEN or v.lo_kind is OPEN) else CLOSED
    if u.hi < v.hi:
        hi, hi_kind = u.hi, u.hi_kind
    elif v.hi < u.hi:
        hi, hi_kind = v.hi, v.hi_kind
    else:
        hi = u.hi
        hi_kind = OPEN if (u.hi_kind is OPEN or v.hi_kind is OPEN) else CLOSED
    if lo > hi or (lo == hi and (lo_kind is OPEN or hi_kind is OPEN)):
        return None
    return Interval(lo, hi, lo_kind, hi_kind)


def translate(u: Interval, i: int) -> Interval:
    """Shift both ends by the integer i, preserving kinds."""
    return Interval(u.lo + i, u.hi + i, u.lo_kind, u.hi_kind)


def contains(u: Interval, v: Interval) -> bool:
    """Every point of v lies in u, respecting endpoint kinds."""
    if v.lo < u.lo or (v.lo == u.lo and u.lo_kind is OPEN and v.lo_kind is CLOSED):
        return False
    if v.hi > u.hi or (v.hi == u.hi and u.hi_kind is OPEN and v.hi_kind is CLOSED):
        return False
    return True


def canonical_lift(u: Interval) -> Interval:
    """The unique integer translate with left end in [0, 1)."""
    return translate(u, -math.floor(u.lo))


def right_remainder(whole: Interval, prefix: Interval) -> Optional[Interval]:
    """The part of ``whole`` strictly right of ``prefix``; the kind flips at
    the split point.  None when the prefix exhausts the right end."""
    lo, lo_kind = prefix.hi, _flip(prefix.hi_kind)
    hi, hi_kind = whole.hi, whole.hi_kind
    if lo > hi or (lo == hi and (lo_kind is OPEN or hi_kind is OPEN)):
        return None
    return Interval(lo, hi, lo_kind, hi_kind)


def left_remainder(whole: Interval, suffix: Interval) -> Optional[Interval]:
    """The part of ``whole`` strictly left of ``suffix``."""
    lo, lo_kind = whole.lo, whole.lo_kind
    hi, hi_kind = suffix.lo, _flip(suffix.lo_kind)
    if lo > hi or (lo == hi and (lo_kind is OPEN or hi_kind is OPEN)):
        return None
    return Interval(lo, hi, lo_kind, hi_kind)
