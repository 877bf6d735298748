"""Exact arithmetic for increasing piecewise fractional-linear maps.

Points and piece ends are arbitrary-precision rationals
(``fractions.Fraction``); domain ends may be ``+-math.inf``.  Comparisons
between ``Fraction`` and the infinities are exact, and no arithmetic is ever
performed on an infinite bound, so nothing in this module rounds.

A :class:`PiecewiseMap` is a finite list of left-closed right-open pieces,
each carrying a fractional-linear formula ``t -> (a*t + b)/(c*t + d)``,
stored as one gcd-reduced integer 4-tuple.  Periodic maps store one period
of pieces on ``[0, 1)`` and extend by ``F(t + 1) = F(t) + 1``.  All values
are immutable and all operations are pure, so concurrent use needs no
synchronization.

Costs, counted in integer operations whose own cost grows with the bit
height of the coefficients: a formula is applied or solved with four
products and one gcd, and composed with eight products and one gcd.  For
maps of n (outer) and m (inner) pieces, ``eval`` bisects the piece starts
cached at construction, O(log n); ``compose`` walks the inner pieces and
the outer starts forward together and solves one preimage per cut it
makes, O(m + k) comparisons for k cuts when the inner map is continuous
and O(m log n + k) at worst, with k + m bounding the output; ``invert``
is O(n), a periodic inverse included.

Invariants are checked where maps come from outside: the public
constructor ``PiecewiseMap(...)``, which the parsers, ``single`` and
``from_pieces`` build through, checks every piece and breakpoint with O(n)
formula evaluations.  The maps that ``compose`` and ``invert`` build are
valid by construction, because their inputs are valid maps and their own
preconditions are checked (the inner image inside the outer domain; no
constant piece and no jump to invert).  So they take a trusted path that
only merges equal neighbours and caches the piece starts, O(n) comparisons
of integer tuples.  The property tests rebuild those outputs through the
public constructor and compare.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import DomainError, NotBijective

Bound = Union[Fraction, float]  # the float is only ever +-math.inf

NEG_INF: Bound = -math.inf
POS_INF: Bound = math.inf


def is_finite(b: Bound) -> bool:
    return isinstance(b, Fraction)


def as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {x!r}")


def as_bound(x) -> Bound:
    if isinstance(x, float):
        if x == POS_INF or x == NEG_INF:
            return x
        raise TypeError("finite bounds must be exact rationals, not floats")
    return as_rational(x)


def fmt_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def fmt_bound(b: Bound) -> str:
    if is_finite(b):
        return fmt_rational(b)
    return "+inf" if b > 0 else "-inf"


@dataclass(frozen=True, slots=True, init=False)
class FracLinear:
    """The map ``t -> (a*t + b)/(c*t + d)``, stored as one integer 4-tuple.

    ``m = (a, b, c, d)`` has coprime entries, ``c > 0`` for a Moebius map,
    ``c = 0 < d`` for an affine map and is ``(0, p, 0, q)`` for the
    constant p/q.  Decreasing maps are rejected, so equal maps have equal
    ``m`` and compare equal structurally.  The properties ``a``, ``b``,
    ``c``, ``d`` read the rational normal form: ``m`` scaled to ``c = 1``
    for a Moebius map and to ``d = 1`` otherwise.
    """

    m: tuple

    def __init__(self, a, b, c, d):
        qs = [as_rational(v) for v in (a, b, c, d)]
        den = math.lcm(*(q.denominator for q in qs))
        ints = (q.numerator * (den // q.denominator) for q in qs)
        object.__setattr__(self, "m", _normal(*ints).m)

    a = property(lambda self: Fraction(self.m[0], self.m[2] or self.m[3]))
    b = property(lambda self: Fraction(self.m[1], self.m[2] or self.m[3]))
    c = property(lambda self: Fraction(self.m[2], self.m[2] or self.m[3]))
    d = property(lambda self: Fraction(self.m[3], self.m[2] or self.m[3]))

    @classmethod
    def affine(cls, slope, intercept) -> "FracLinear":
        return cls(as_rational(slope), as_rational(intercept), Fraction(0), Fraction(1))

    @classmethod
    def const(cls, value) -> "FracLinear":
        return cls(Fraction(0), as_rational(value), Fraction(0), Fraction(1))

    @classmethod
    def identity(cls) -> "FracLinear":
        return cls.affine(1, 0)

    @property
    def is_affine(self) -> bool:
        return self.m[2] == 0

    @property
    def is_constant(self) -> bool:
        return self.m[2] == 0 and self.m[0] == 0

    @property
    def pole(self) -> Optional[Fraction]:
        _, _, c, d = self.m
        return None if c == 0 else Fraction(-d, c)

    def __call__(self, t) -> Fraction:
        t = as_rational(t)
        a, b, c, d = self.m
        p, q = t.numerator, t.denominator
        return Fraction(a * p + b * q, c * p + d * q)

    def compose(self, other: "FracLinear") -> "FracLinear":
        """self after other, as the matrix product of the coefficient matrices."""
        a, b, c, d = self.m
        e, f, g, h = other.m
        return _normal(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "FracLinear":
        if self.is_constant:
            raise NotBijective("constant formula has no inverse")
        a, b, c, d = self.m
        return _normal(d, -b, -c, a)

    def shifted(self, n: int) -> "FracLinear":
        """The conjugate ``t -> self(t - n) + n`` by the integer translation,
        in closed form; the determinant is unchanged."""
        if n == 0:
            return self
        a, b, c, d = self.m
        return _normal(a + n * c, b - n * a + n * d - n * n * c, c, d - n * c)

    def preimage(self, w: Fraction) -> Optional[Fraction]:
        """Solve ``self(t) == w`` exactly; None when w is the unattained limit."""
        a, b, c, d = self.m
        p, q = w.numerator, w.denominator
        den = q * a - p * c
        if den == 0:
            return None
        return Fraction(p * d - q * b, den)


def _normal(a: int, b: int, c: int, d: int) -> FracLinear:
    """The FracLinear of the integer matrix ``(a, b, c, d)``, normalized."""
    if c == 0 and d == 0:
        raise ValueError("fractional-linear map with zero denominator")
    det = a * d - b * c
    if det < 0:
        raise ValueError("decreasing fractional-linear map")
    if det == 0:
        # rows are proportional: the map is constant away from the pole
        a, b, c, d = (0, a, 0, c) if c != 0 else (0, b, 0, d)
    g = math.gcd(a, b, c, d)
    if (c or d) < 0:
        g = -g
    fn = object.__new__(FracLinear)
    object.__setattr__(fn, "m", (a // g, b // g, c // g, d // g))
    return fn


@dataclass(frozen=True)
class Dom:
    """An interval of definition.  The right end is closed only for spaces
    that validation must be able to reject; maps never carry a closed right
    end."""

    lo: Bound
    hi: Bound
    lo_closed: bool
    hi_closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", as_bound(self.lo))
        object.__setattr__(self, "hi", as_bound(self.hi))
        if not self.lo < self.hi:
            raise ValueError("empty domain")
        if self.lo_closed and not is_finite(self.lo):
            raise ValueError("infinite end cannot be closed")
        if self.hi_closed and not is_finite(self.hi):
            raise ValueError("infinite end cannot be closed")

    def contains(self, t: Fraction) -> bool:
        if t < self.lo or (t == self.lo and not self.lo_closed):
            return False
        if t > self.hi or (t == self.hi and not self.hi_closed):
            return False
        return True

    def open_right(self) -> "Dom":
        return Dom(self.lo, self.hi, self.lo_closed, False)

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{fmt_bound(self.lo)}, {fmt_bound(self.hi)}{right}"


UNIT = Dom(Fraction(0), Fraction(1), True)


@dataclass(frozen=True)
class Piece:
    lo: Bound
    hi: Bound
    fn: FracLinear

    def __post_init__(self):
        object.__setattr__(self, "lo", as_bound(self.lo))
        object.__setattr__(self, "hi", as_bound(self.hi))

    def __str__(self) -> str:
        return f"[{fmt_bound(self.lo)}, {fmt_bound(self.hi)})"


def _piece(lo: Bound, hi: Bound, fn: FracLinear) -> Piece:
    """A Piece whose ends are already Fractions or +-inf, uncoerced."""
    p = object.__new__(Piece)
    p.__dict__.update(lo=lo, hi=hi, fn=fn)
    return p


def _merged(pieces) -> tuple:
    """Canonical form: neighbours sharing one formula become one piece."""
    merged = [pieces[0]]
    for p in pieces[1:]:
        if p.fn == merged[-1].fn:
            merged[-1] = _piece(merged[-1].lo, p.hi, p.fn)
        else:
            merged.append(p)
    return tuple(merged)


@dataclass(frozen=True)
class PiecewiseMap:
    """A non-decreasing piecewise fractional-linear map in canonical form.

    Pieces are contiguous, cover exactly ``dom`` (read right-open), and
    adjacent pieces with the same formula are merged on construction.
    Within a piece the formula is strictly increasing or constant; across a
    breakpoint the left limit never exceeds the value, so jumps only go up.
    A pole may sit at a piece end only where the domain itself ends there.

    The constructor checks all of this; the results of ``compose`` and
    ``invert`` skip the checks (see the module docstring) but are merged
    into the same canonical form, so ``==`` does not depend on the path.
    """

    dom: Dom
    pieces: tuple
    periodic: bool = False

    def __post_init__(self):
        pieces = tuple(self.pieces)
        if not pieces:
            raise ValueError("a map needs at least one piece")
        if self.dom.hi_closed:
            raise ValueError("map domains are always right-open")
        if self.periodic and self.dom != UNIT:
            raise ValueError("periodic maps carry their pieces on [0/1, 1/1)")
        if pieces[0].lo != self.dom.lo or pieces[-1].hi != self.dom.hi:
            raise ValueError("pieces do not cover the domain")
        for prev, cur in zip(pieces, pieces[1:]):
            if prev.hi != cur.lo:
                raise ValueError("pieces are not contiguous")
        for p in pieces:
            if not p.lo < p.hi:
                raise ValueError("empty piece")
        pieces = _merged(pieces)
        for p in pieces:
            self._check_piece(p)
        for prev, cur in zip(pieces, pieces[1:]):
            u = cur.lo
            if prev.fn(u) > cur.fn(u):
                raise ValueError(f"map decreases across the breakpoint {fmt_bound(u)}")
        if self.periodic:
            last, first = pieces[-1], pieces[0]
            if last.fn(Fraction(1)) > first.fn(Fraction(0)) + 1:
                raise ValueError("map decreases across the period wrap")
        object.__setattr__(self, "pieces", pieces)
        # piece starts for bisection; not a field, so == and hash ignore it
        object.__setattr__(self, "_starts", [p.lo for p in pieces])

    @classmethod
    def _trusted(cls, dom: Dom, pieces, periodic: bool = False) -> "PiecewiseMap":
        """The map of pieces known to satisfy every invariant except
        canonical form, which is restored here; ``__post_init__`` does not
        run, so nothing is checked."""
        self = object.__new__(cls)
        pieces = _merged(pieces)
        starts = [p.lo for p in pieces]
        self.__dict__.update(dom=dom, pieces=pieces, periodic=periodic, _starts=starts)
        return self

    def _check_piece(self, p: Piece) -> None:
        pole = p.fn.pole
        if pole is None:
            return
        if p.lo < pole < p.hi:
            raise ValueError(f"pole {fmt_rational(pole)} inside piece {p}")
        if pole == p.lo and not (p.lo == self.dom.lo and not self.dom.lo_closed):
            raise ValueError(f"pole at the left end of piece {p}")
        if pole == p.hi and not (p.hi == self.dom.hi and not self.periodic):
            raise ValueError(f"pole at the right end of piece {p}")

    # ----- constructors -------------------------------------------------

    @classmethod
    def single(cls, dom: Dom, fn: FracLinear, periodic: bool = False) -> "PiecewiseMap":
        return cls(dom, (Piece(dom.lo, dom.hi, fn),), periodic)

    @classmethod
    def identity(cls, dom: Dom) -> "PiecewiseMap":
        return cls.single(dom, FracLinear.identity())

    @classmethod
    def from_pieces(cls, dom: Dom, triples, periodic: bool = False) -> "PiecewiseMap":
        return cls(dom, tuple(Piece(lo, hi, fn) for lo, hi, fn in triples), periodic)

    # ----- lookup -------------------------------------------------------

    def _locate(self, t: Fraction) -> int:
        idx = bisect_right(self._starts, t) - 1
        if idx < 0 or not (self.pieces[idx].lo <= t < self.pieces[idx].hi):
            raise DomainError(f"{fmt_rational(t)} is not covered by any piece")
        return idx

    def eval(self, t) -> Fraction:
        """Exact value at t; periodic maps unfold by F(t + n) = F(t) + n.
        Costs O(log n) for n pieces: one bisection and one formula."""
        t = as_rational(t)
        if self.periodic:
            n = math.floor(t)
            return self.pieces[self._locate(t - n)].fn(t - n) + n
        if not self.dom.contains(t):
            raise DomainError(f"{fmt_rational(t)} outside domain {self.dom}")
        return self.pieces[self._locate(t)].fn(t)

    def left_limit(self, t) -> Bound:
        """Limit from the left at t, as the continuous extension of the piece
        left of t.  For in-domain t the result is rational; at a right domain
        end whose formula has its pole there the limit is +inf."""
        t = as_rational(t)
        if self.periodic:
            n = math.floor(t)
            tau = t - n
            if tau == 0:
                return self.pieces[-1].fn(Fraction(1)) + (n - 1)
            idx = self._locate(tau)
            if tau == self.pieces[idx].lo:
                idx -= 1
            return self.pieces[idx].fn(tau) + n
        if t <= self.dom.lo:
            raise DomainError("no points to the left of the domain's left end")
        if t > self.dom.hi:
            raise DomainError(f"{fmt_rational(t)} outside domain {self.dom}")
        if t == self.dom.hi:
            last = self.pieces[-1]
            if last.fn.pole == t:
                return POS_INF
            return last.fn(t)
        idx = self._locate(t)
        if t == self.pieces[idx].lo:
            idx -= 1
        return self.pieces[idx].fn(t)

    def right_limit(self, t) -> Bound:
        """Limit from the right; equals eval inside the domain, and extends
        to an open left end (where it may be -inf at a pole)."""
        t = as_rational(t)
        if self.periodic:
            return self.eval(t)
        if t == self.dom.lo and not self.dom.lo_closed:
            first = self.pieces[0]
            if first.fn.pole == t:
                return NEG_INF
            return first.fn(t)
        return self.eval(t)

    # ----- range --------------------------------------------------------

    def range_info(self):
        """(lo, lo_attained, hi, hi_attained) of the image, for flat maps."""
        if self.periodic:
            raise ValueError("range_info is for non-periodic maps")
        first, last = self.pieces[0], self.pieces[-1]
        # an end is attained on a closed domain end or by a constant piece
        return (
            _image_left(first),
            self.dom.lo_closed or first.fn.is_constant,
            _image_right(last),
            last.fn.is_constant,
        )

    def _range_within(self, dom: Dom) -> bool:
        lo, lo_att, hi, hi_att = self.range_info()
        if lo < dom.lo or (lo == dom.lo and lo_att and not dom.lo_closed):
            return False
        if hi > dom.hi or (hi == dom.hi and hi_att):
            return False
        return True


# ----- operations -------------------------------------------------------


def compose(f: PiecewiseMap, g: PiecewiseMap) -> PiecewiseMap:
    """The composite f(g(t)) on g's domain, in canonical form.

    Breakpoints of the result are g's breakpoints together with the
    g-preimages of f's breakpoints.  Both maps must be periodic or both
    flat; the image of g must stay inside f's domain.

    Cost for f of n and g of m pieces: the images of g's pieces move right
    and f's piece starts increase, so one forward walk over both finds
    every cut, solving one preimage per cut.  It makes about two order
    comparisons per piece of g and one per cut, and bisects only where a
    jump of g skips starts of f, so O(m + k) for k cuts when g is
    continuous and O(m log n + k) at worst, plus O(k + m) to build the
    result.  A periodic f is read over the two periods g's image lies in
    by index arithmetic on its own n starts, and only the formulas the
    walk lands on are shifted.
    """
    if f.periodic != g.periodic:
        raise DomainError("cannot compose a periodic with a non-periodic map")
    if f.periodic:
        base = math.floor(g.eval(Fraction(0)))
        dom = Dom(Fraction(base), Fraction(base + 2), True)
        inner = PiecewiseMap._trusted(UNIT, g.pieces)  # one period of g, read flat
        outer = _Window(f, base)
        starts, formula = outer, outer.formula
    else:
        dom, inner, starts = f.dom, g, f._starts
        formula = lambda j: f.pieces[j].fn  # noqa: E731
    if not inner._range_within(dom):
        raise DomainError("image of the inner map leaves the outer map's domain")
    end = len(starts)
    out = []
    # j is the first start of f that may still cut a piece of g, and cut
    # its value (+inf past the last); each start is read once
    j, cut = 1, starts[1] if end > 1 else POS_INF
    for piece in g.pieces:
        gp = piece.fn
        if gp.is_constant:
            out.append(_piece(piece.lo, piece.hi, FracLinear.const(f.eval(gp.b))))
            continue
        # gp maps the piece onto its open image window, so only the starts
        # strictly inside it cut the piece, and the cuts come in order; the
        # sub-interval ending at starts[j] lies under f's piece j - 1
        left = _image_left(piece)
        if cut <= left:  # the image starts on this start of f, or past it
            j += 1
            if j < end and starts[j] <= left:  # a jump of g skipped starts
                j = bisect_right(starts, left, j + 1)
            cut = starts[j] if j < end else POS_INF
        right = _image_right(piece)
        s0 = piece.lo
        while cut < right:
            s1 = gp.preimage(cut)
            out.append(_piece(s0, s1, formula(j - 1).compose(gp)))
            s0 = s1
            j += 1
            cut = starts[j] if j < end else POS_INF
        out.append(_piece(s0, piece.hi, formula(j - 1).compose(gp)))
    return PiecewiseMap._trusted(g.dom, out, g.periodic)


class _Window:
    """The piece starts of a periodic map's extension over the two periods
    [base, base + 2) as a sequence indexed 0 .. 2n - 1, each computed on
    access, and the formulas of those pieces (``formula``), shifted on
    demand; the last one is kept, since neighbouring cuts share it."""

    def __init__(self, f: PiecewiseMap, base: int):
        self.f, self.base, self.n = f, base, len(f.pieces)
        self._last = (None, None)

    def __len__(self) -> int:
        return 2 * self.n

    def __getitem__(self, j: int) -> Fraction:
        k, i = divmod(j, self.n)
        return self.f._starts[i] + (self.base + k)

    def formula(self, j: int) -> FracLinear:
        if self._last[0] != j:
            k, i = divmod(j, self.n)
            self._last = (j, self.f.pieces[i].fn.shifted(self.base + k))
        return self._last[1]


def invert(f: PiecewiseMap) -> PiecewiseMap:
    """Exact inverse of a strictly increasing continuous surjection.

    Costs O(n) for n pieces: one inverse formula per piece.  A periodic
    inverse is moved onto [0, 1) by one rotation, which splits at most one
    piece.
    """
    for p in f.pieces:
        if p.fn.is_constant:
            raise NotBijective(f"constant piece {p} has no inverse")
    for prev, cur in zip(f.pieces, f.pieces[1:]):
        if prev.fn(cur.lo) != cur.fn(cur.lo):
            raise NotBijective(f"jump at {fmt_bound(cur.lo)} leaves a gap in the range")
    if f.periodic:
        if f.pieces[-1].fn(Fraction(1)) != f.pieces[0].fn(Fraction(0)) + 1:
            raise NotBijective("lift is not continuous across the period wrap")
        return _invert_periodic(f)
    lo, lo_att, hi, _hi_att = f.range_info()
    raw = []
    for p in f.pieces:
        raw.append(_piece(_image_left(p), _image_right(p), p.fn.inverse()))
    dom = Dom(lo, hi, lo_closed=bool(lo_att))
    return PiecewiseMap._trusted(dom, raw)


def _image_left(p: Piece) -> Bound:
    if not is_finite(p.lo):
        if p.fn.is_constant:
            return p.fn.b
        return NEG_INF if p.fn.is_affine else p.fn.a
    return _image_at(p.fn, p.lo, NEG_INF)


def _image_right(p: Piece) -> Bound:
    if not is_finite(p.hi):
        if p.fn.is_constant:
            return p.fn.b
        return POS_INF if p.fn.is_affine else p.fn.a
    return _image_at(p.fn, p.hi, POS_INF)


def _image_at(fn: FracLinear, t: Fraction, at_pole: Bound) -> Bound:
    """fn(t) for a finite piece end t, or ``at_pole`` when fn's pole sits
    there (``c*p + d*q == 0`` for t = p/q; never for an affine map)."""
    a, b, c, d = fn.m
    p, q = t.numerator, t.denominator
    den = c * p + d * q
    return at_pole if den == 0 else Fraction(a * p + b * q, den)


def _invert_periodic(f: PiecewiseMap) -> PiecewiseMap:
    # the inverse pieces tile [h, h + 1) in order, h = f(0), and meet end
    # to start (invert checked that); moved down by floor(h) they tile
    # [h', h' + 1) with 0 <= h' < 1, and the part at or above 1, one period
    # down, goes in front: a rotation that splits at most one piece
    n = math.floor(f.pieces[0].fn(Fraction(0)))
    ends = [p.fn(p.lo) - n for p in f.pieces]
    ends.append(ends[0] + 1)
    below, above = [], []
    for p, lo, hi in zip(f.pieces, ends, ends[1:]):
        inv = p.fn.inverse()
        if hi <= 1:
            below.append(_piece(lo, hi, inv.shifted(-n)))
        elif lo >= 1:
            above.append(_piece(lo - 1, hi - 1, inv.shifted(-n - 1)))
        else:  # straddles 1
            below.append(_piece(lo, Fraction(1), inv.shifted(-n)))
            above.append(_piece(Fraction(0), hi - 1, inv.shifted(-n - 1)))
    return PiecewiseMap._trusted(UNIT, above + below, periodic=True)
