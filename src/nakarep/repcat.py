"""The representation calculus over a length profile.

Everything here manipulates interval supports only.  A module over the line
is the interval module on its support; over the circle it is the push-down
of an interval module, handled throughout via the canonical lift of its
support (left end in [0, 1)).  Hom spaces, kernels, cokernels, projective
covers and syzygies are all exact interval computations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .errors import DomainError, IncompatibleModule, InvalidMorphism
from .interval import (
    CLOSED,
    EndpointKind,
    Interval,
    canonical_lift,
    left_intersect,
    left_remainder,
    right_remainder,
    translate,
)
from .kupisch import Circle, KupischProfile, Line, Space, separation_points
from .pwmap import PiecewiseMap, as_rational, is_finite


@dataclass(frozen=True)
class ScalarMorphism:
    """The morphism acting by a scalar between two interval modules; on the
    circle a single translation component, selected by ``shift``."""

    source: Interval
    target: Interval
    shift: int = 0
    coefficient: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "coefficient", as_rational(self.coefficient))
        if self.coefficient == 0:
            raise InvalidMorphism("the zero scalar is not a morphism")


@dataclass(frozen=True)
class MorphismAnalysis:
    image: Optional[Interval]
    kernel: Optional[Interval]
    cokernel: Optional[Interval]


@dataclass(frozen=True)
class Finite:
    n: int

    def __str__(self):
        return f"Finite({self.n})"


@dataclass(frozen=True)
class InfinitePeriodic:
    period: int

    def __str__(self):
        return f"InfinitePeriodic({self.period})"


@dataclass(frozen=True)
class ExceededCap:
    cap: int

    def __str__(self):
        return f"ExceededCap({self.cap})"


Verdict = Union[Finite, InfinitePeriodic, ExceededCap]

DEFAULT_RESOLUTION_CAP = 512


@dataclass(frozen=True)
class ResolutionReport:
    covers: Tuple[Interval, ...]
    syzygies: Tuple[Interval, ...]
    verdict: Verdict


# ----- compatibility and projectives ----------------------------------------


def _fit(profile: KupischProfile, u: Interval) -> Optional[Interval]:
    """u, lifted to [0, 1) on the circle, when it lies in [lo, K(lo)] for its
    own left end lo; None when it does not.  Since K is non-decreasing that
    left end is the optimal witness, and when it sits on an open domain edge
    no witness exists at all.  Raises DomainError when u leaves the domain."""
    k = profile.successor
    if k.periodic:
        if isinstance(profile.space, Circle):
            u = canonical_lift(u)
    else:
        dom = k.dom
        if (
            u.lo < dom.lo
            or (u.lo == dom.lo and not dom.lo_closed and u.lo_kind is CLOSED)
            or u.hi > dom.hi
            or (u.hi == dom.hi and u.hi_kind is CLOSED)
        ):
            raise DomainError(f"{u} exits the profile domain {dom}")
        if not dom.contains(u.lo):
            return None
    return u if u.hi <= k.eval(u.lo) else None


def _fit_or_raise(profile: KupischProfile, u: Interval) -> Interval:
    """_fit for operations defined only on compatible modules."""
    try:
        fitted = _fit(profile, u)
    except DomainError as e:
        raise IncompatibleModule(str(e)) from e
    if fitted is None:
        raise IncompatibleModule(f"{u} is not compatible with the profile")
    return fitted


def is_compatible(profile: KupischProfile, u: Interval) -> bool:
    """Whether the interval fits under some projective, i.e. u is contained
    in [t, K(t)] for some domain point t."""
    return _fit(profile, u) is not None


def projective_at(profile: KupischProfile, t, left_kind: EndpointKind) -> Interval:
    """The support of the indecomposable projective at t: [t, K(t)] or
    (t, K(t)] by left kind; the right end is always closed."""
    t = as_rational(t)
    return Interval(t, profile.successor.eval(t), left_kind, CLOSED)


def is_projective(profile: KupischProfile, u: Interval) -> bool:
    if u.hi_kind is not CLOSED:
        return False
    fitted = _fit(profile, u)
    return fitted is not None and profile.successor.eval(fitted.lo) == fitted.hi


# ----- Hom spaces ------------------------------------------------------------


def hom_dim(space: Space, source: Interval, target: Interval) -> int:
    """Dimension of the morphism space from the module on ``source`` to the
    module on ``target``.

    On the line a nonzero morphism exists iff the left intersection of the
    target with the source is nonempty, and it is then unique up to scalar.
    On the circle each integer translate of the source contributes one
    dimension under the same test; only finitely many translates can meet
    the target, so a window of width len(source) + len(target) + 1 exhausts
    them."""
    if isinstance(space, Line):
        return 1 if left_intersect(target, source) is not None else 0
    source = canonical_lift(source)
    target = canonical_lift(target)
    window = math.ceil(source.length + target.length) + 1
    count = 0
    for i in range(-window, window + 1):
        if left_intersect(target, translate(source, i)) is not None:
            count += 1
    return count


def end_dim(space: Space, u: Interval) -> int:
    """dim End of the module on u; on the circle a closed-closed interval
    has floor(length) + 1 self-maps."""
    return hom_dim(space, u, u)


def is_brick(space: Space, u: Interval) -> bool:
    """One-dimensional endomorphism algebra.  Line modules always are; a
    circle string is a brick iff all pairs of support points are at distance
    strictly less than one."""
    if isinstance(space, Line):
        return True
    if u.lo_kind is CLOSED and u.hi_kind is CLOSED:
        return u.length < 1
    return u.length <= 1


# ----- kernels, images, cokernels -------------------------------------------


def morphism_analyze(m: ScalarMorphism) -> MorphismAnalysis:
    """Support-level exact sequence data of a scalar morphism.

    The image is the left intersection of the (shifted) target with the
    source; the kernel is the tail of the source right of the image and the
    cokernel the head of the target left of it, with the endpoint kind
    flipping at each split point.
    """
    target_shifted = translate(m.target, m.shift)
    image = left_intersect(target_shifted, m.source)
    if image is None:
        raise InvalidMorphism(
            f"no nonzero morphism from {m.source} to {target_shifted}"
        )
    kernel = right_remainder(m.source, image)
    cokernel = left_remainder(target_shifted, image)
    return MorphismAnalysis(image=image, kernel=kernel, cokernel=cokernel)


# ----- projective covers, syzygies, resolutions ------------------------------


def projective_cover(
    profile: KupischProfile, u: Interval
) -> Tuple[Interval, Optional[Interval]]:
    """The projective cover of the module on u and the kernel of the cover
    epimorphism (the first syzygy), absent when u is already projective.

    The cover starts where u starts, with the same left kind, and reaches
    K(lo(u)); the syzygy is the remaining right part of the cover."""
    u = _fit_or_raise(profile, u)
    cover = projective_at(profile, u.lo, u.lo_kind)
    return cover, right_remainder(cover, u)


def projective_resolution(
    profile: KupischProfile, u: Interval, cap: int = DEFAULT_RESOLUTION_CAP
) -> ResolutionReport:
    """Iterated projective covers.

    Finite(n) when the n-th syzygy vanishes.  On the circle the resolution
    is computed on line lifts with the periodic successor; when a syzygy
    repeats an earlier one up to integer translation the whole tail repeats
    shifted, so the verdict is InfinitePeriodic with that period.  On the
    line syzygies move strictly right and never recur, so failing to finish
    within the cap yields ExceededCap."""
    on_circle = isinstance(profile.space, Circle)
    covers: List[Interval] = []
    syzygies: List[Interval] = []
    current = canonical_lift(u) if on_circle else u
    seen = {current: 0}
    while len(covers) < cap:
        cover, syzygy = projective_cover(profile, current)
        covers.append(cover)
        if syzygy is None:
            return ResolutionReport(tuple(covers), tuple(syzygies), Finite(len(covers) - 1))
        syzygies.append(syzygy)
        current = canonical_lift(syzygy) if on_circle else syzygy
        if on_circle:
            if current in seen:
                period = len(syzygies) - seen[current]
                return ResolutionReport(
                    tuple(covers), tuple(syzygies), InfinitePeriodic(period)
                )
            seen[current] = len(syzygies)
    return ResolutionReport(tuple(covers), tuple(syzygies), ExceededCap(cap))


# ----- transport along homeomorphisms ---------------------------------------


def map_module(f: PiecewiseMap, u: Interval) -> Interval:
    """The support of the transported module: endpoints through f, kinds
    preserved.  Open endpoints map by the one-sided limit, which matters
    only when they sit on an open domain edge of f."""
    if u.lo_kind is CLOSED:
        lo = f.eval(u.lo)
    else:
        lo = f.right_limit(u.lo)
        if not is_finite(lo):
            raise DomainError(f"image of {u} is unbounded below")
    if u.hi_kind is CLOSED:
        hi = f.eval(u.hi)
    else:
        hi = f.left_limit(u.hi)
        if not is_finite(hi):
            raise DomainError(f"image of {u} is unbounded above")
    return Interval(lo, hi, u.lo_kind, u.hi_kind)


# ----- orthogonal component lookup -------------------------------------------


def component_of(profile: KupischProfile, u: Interval) -> int:
    """Index of the orthogonal component containing the module on u.

    For circle profiles this indexes the one-period component list; for
    periodic line profiles the component of the k-th translate of the j-th
    representative gets index j + k * (representatives per period), which
    may be negative on the left half of the line.  The components start at
    the separation points (and at the domain's start on a flat line), so
    this is one bisection of the profile's separation points, O(log n).
    """
    x = _fit_or_raise(profile, u).lo
    pts = separation_points(profile).points
    on_circle = isinstance(profile.space, Circle)
    if not (pts and (on_circle or profile.periodic)):
        return bisect_right(pts, x)
    # x = y + k with y in the period [pts[0], pts[0] + 1)
    k = math.floor(x - pts[0])
    j = bisect_right(pts, x - k) - 1
    return j if on_circle else j + k * len(pts)
