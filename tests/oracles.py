"""Brute-force oracles and random generators shared by the test suite.

The Hom oracles materialize the quiver of sample points (a path for the
line, a cycle for the circle), build the actual basis vectors of the string
modules on it, write out the commuting-square equations, and count the
solution space.  Every equation relates at most two unknowns with unit
coefficients, so the count reduces to a union-find with a "pinned to zero"
flag; this stays exact while being computed along a route completely
independent of the interval calculus under test.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

from hypothesis import assume, strategies as st

from nakarep import (
    CLOSED,
    Line,
    NEG_INF,
    OPEN,
    Dom,
    FracLinear,
    Interval,
    KupischProfile,
    POS_INF,
    Piece,
    PiecewiseMap,
    canonical_lift,
    circle_profile,
    interval,
    line_profile,
    validate_profile,
)
from nakarep.pwmap import UNIT, is_finite

F = Fraction


# ----- uniform sample grids --------------------------------------------------


def sample_grid(intervals, pad=1):
    """Uniform rational grid covering all endpoints with interior points
    between any two of them (step = 1 / (2 * lcm of denominators))."""
    ends = [e for u in intervals for e in (u.lo, u.hi)]
    den = 1
    for e in ends:
        den = den * e.denominator // math.gcd(den, e.denominator)
    step = F(1, 2 * den)
    lo = min(ends) - pad
    hi = max(ends) + pad
    n = int((hi - lo) / step)
    return [lo + k * step for k in range(n + 1)]


# ----- union-find over morphism unknowns -------------------------------------


class _Solver:
    """Unknowns with equations x == y and x == 0; counts free dimensions."""

    def __init__(self):
        self.zero = ("__zero__",)
        self.parent = {self.zero: self.zero}

    def add(self, v):
        self.parent.setdefault(v, v)

    def _find(self, v):
        while self.parent[v] is not v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a, b):
        self.add(a)
        self.add(b)
        ra, rb = self._find(a), self._find(b)
        if ra is not rb:
            if rb is self.zero:
                ra, rb = rb, ra
            if ra is self.zero:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb

    def pin_zero(self, v):
        self.union(v, self.zero)

    def dimension(self):
        roots = set()
        zero_root = self._find(self.zero)
        for v in list(self.parent):
            if v == self.zero:
                continue
            r = self._find(v)
            if r is not zero_root:
                roots.add(r)
        return len(roots)


# ----- line Hom oracle --------------------------------------------------------


def brute_hom_line(source: Interval, target: Interval) -> int:
    """dim Hom between interval modules, from the commuting squares of the
    path quiver on a uniform sample grid."""
    grid = sample_grid([source, target])
    solver = _Solver()
    for t in grid:
        if source.contains_point(t) and target.contains_point(t):
            solver.add(t)
    for a, b in zip(grid, grid[1:]):
        if not source.contains_point(a):
            continue
        lhs = b if (source.contains_point(b) and target.contains_point(b)) else None
        rhs = a if (target.contains_point(a) and target.contains_point(b)) else None
        if lhs is None and rhs is None:
            continue
        if lhs is None:
            solver.pin_zero(rhs)
        elif rhs is None:
            solver.pin_zero(lhs)
        else:
            solver.union(lhs, rhs)
    return solver.dimension()


# ----- circle Hom oracle ------------------------------------------------------


def _string_basis(u: Interval, den: int):
    """Lift points of the circle string on the 1/den grid."""
    lo_k = math.floor(u.lo * den) - 1
    hi_k = math.ceil(u.hi * den) + 1
    return [F(k, den) for k in range(lo_k, hi_k + 1) if u.contains_point(F(k, den))]


def brute_hom_circle(source: Interval, target: Interval, den: int) -> int:
    """dim Hom between circle strings via the cyclic quiver on den vertices.

    Both supports must have endpoints on the 1/den grid.  Basis vectors are
    the lift points of each string; a morphism component pairs a source lift
    point with a target lift point an integer apart (same circle vertex),
    and each arrow contributes one two-term equation per such pair.
    """
    source = canonical_lift(source)
    target = canonical_lift(target)
    sb = _string_basis(source, den)
    sb_set = set(sb)
    tb = set(_string_basis(target, den))
    step = F(1, den)
    window = math.ceil(source.length + target.length) + 2
    solver = _Solver()
    for bm in sb:
        for j in range(-window, window + 1):
            if bm + j in tb:
                solver.add((bm, bm + j))
    for bm in sb:
        bm_next = bm + step if bm + step in sb_set else None
        for j in range(-window, window + 1):
            # one equation per target basis vector at the arrow's head vertex
            bt_head = bm + step + j
            if bt_head not in tb:
                continue
            lhs = (bm_next, bt_head) if bm_next is not None else None
            bt_tail = bt_head - step
            rhs = (bm, bt_tail) if bt_tail in tb else None
            if lhs is None and rhs is None:
                continue
            if lhs is None:
                solver.pin_zero(rhs)
            elif rhs is None:
                solver.pin_zero(lhs)
            else:
                solver.union(lhs, rhs)
    return solver.dimension()


# ----- definitional left-intersection oracle ----------------------------------


def brute_left_intersect_members(u: Interval, v: Interval):
    """(conditions hold, grid, membership list) for the left intersection,
    checked literally on the sample grid: every point of V - U strictly
    right of all of U, and every point of U - V strictly left of all of V."""
    grid = sample_grid([u, v])
    in_u = [u.contains_point(t) for t in grid]
    in_v = [v.contains_point(t) for t in grid]
    cond = True
    for i, x in enumerate(grid):
        if cond and in_v[i] and not in_u[i]:
            if any(in_u[j] and grid[j] >= x for j in range(len(grid))):
                cond = False
    for i, x in enumerate(grid):
        if cond and in_u[i] and not in_v[i]:
            if any(in_v[j] and grid[j] <= x for j in range(len(grid))):
                cond = False
    members = [cond and a and b for a, b in zip(in_u, in_v)]
    return cond, grid, members


# ----- scalar morphism oracle ---------------------------------------------------


def brute_morphism_check(source: Interval, target_shifted: Interval, analysis):
    """Failures of the analysis against the explicit scalar natural
    transformation on the sample grid (naturality plus pointwise ranks)."""
    grid = sample_grid([source, target_shifted])
    failures = []
    phi = {
        t: 1 if (source.contains_point(t) and target_shifted.contains_point(t)) else 0
        for t in grid
    }
    for a, b in zip(grid, grid[1:]):
        lhs = phi[b] if source.contains_point(a) and source.contains_point(b) else 0
        rhs = phi[a] if target_shifted.contains_point(a) and target_shifted.contains_point(b) else 0
        if lhs != rhs:
            failures.append(f"not natural at {a} -> {b}")
    for t in grid:
        in_img = analysis.image is not None and analysis.image.contains_point(t)
        in_ker = analysis.kernel is not None and analysis.kernel.contains_point(t)
        in_cok = analysis.cokernel is not None and analysis.cokernel.contains_point(t)
        expect_img = source.contains_point(t) and target_shifted.contains_point(t)
        if in_img != expect_img:
            failures.append(f"image wrong at {t}")
        if in_ker != (source.contains_point(t) and not expect_img):
            failures.append(f"kernel wrong at {t}")
        if in_cok != (target_shifted.contains_point(t) and not expect_img):
            failures.append(f"cokernel wrong at {t}")
    return failures


def brute_component_of(profile: KupischProfile, u: Interval) -> int:
    """component_of by a linear scan: the component [left, right) holding
    the left end of u, found among the integer translates of the listed
    components on periodic profiles (the translate index k scaled by the
    number of components per period on the line, dropped on the circle)."""
    from nakarep import Circle, components

    comps = components(profile)
    x = u.lo
    on_circle = isinstance(profile.space, Circle)
    if not (on_circle or comps[0].periodic):
        hits = [c.index for c in comps if c.left <= x < c.right]
        assert len(hits) == 1, hits
        return hits[0]
    ks = range(math.floor(x) - 2, math.floor(x) + 3)
    hits = [(c.index, k) for c in comps for k in ks if c.left + k <= x < c.right + k]
    assert len(hits) == 1, hits
    index, k = hits[0]
    return index if on_circle else index + k * len(comps)


def brute_next_separation(profile: KupischProfile, c):
    """next_separation by a linear scan: the least separation point above c,
    every representative tried in its next translate on periodic profiles."""
    from nakarep import separation_points

    seps = separation_points(profile)
    k = profile.successor
    if seps.periodic:
        return min((r + math.floor(c - r) + 1 for r in seps.points), default=POS_INF)
    return min((s for s in seps.points if s > c), default=k.dom.hi)


# ----- the public constructor as a check ----------------------------------------


def assert_rebuilds(m: PiecewiseMap) -> None:
    """m, built by a path that skips the invariant checks, passes the public
    constructor and comes out unchanged: the same canonical pieces and the
    same cached piece starts."""
    again = PiecewiseMap(m.dom, m.pieces, m.periodic)
    assert again == m, (m, again)
    assert m._starts == again._starts


def assert_same_map(m: PiecewiseMap, ref: PiecewiseMap) -> None:
    """m equals the reference map and caches the same piece starts."""
    assert m == ref, (m, ref)
    assert m._starts == ref._starts


# ----- compose and invert by bisection, unfolding and sorting ---------------------
#
# The algorithms the library used before its forward cut walk, kept as
# references: each increasing inner piece bisects the outer starts twice, a
# periodic outer map is unfolded into a two-period map first, and a periodic
# inverse tries three translates of every piece and sorts what lands on
# [0, 1).  Every map is built through the public constructor.


def _ref_image_left(p: Piece):
    if p.fn.is_constant:
        return p.fn.b
    if not is_finite(p.lo):
        return NEG_INF if p.fn.is_affine else p.fn.a
    if p.fn.pole == p.lo:
        return NEG_INF
    return p.fn(p.lo)


def _ref_image_right(p: Piece):
    if p.fn.is_constant:
        return p.fn.b
    if not is_finite(p.hi):
        return POS_INF if p.fn.is_affine else p.fn.a
    if p.fn.pole == p.hi:
        return POS_INF
    return p.fn(p.hi)


def _ref_compose_flat(f: PiecewiseMap, g: PiecewiseMap) -> PiecewiseMap:
    starts = [p.lo for p in f.pieces]
    out = []
    for piece in g.pieces:
        gp = piece.fn
        if gp.is_constant:
            out.append(Piece(piece.lo, piece.hi, FracLinear.const(f.eval(gp.b))))
            continue
        first = bisect_right(starts, _ref_image_left(piece), 1)
        last = bisect_left(starts, _ref_image_right(piece), first)
        s0 = piece.lo
        for j in range(first, last):
            s1 = gp.preimage(starts[j])
            out.append(Piece(s0, s1, f.pieces[j - 1].fn.compose(gp)))
            s0 = s1
        out.append(Piece(s0, piece.hi, f.pieces[last - 1].fn.compose(gp)))
    return PiecewiseMap(g.dom, tuple(out))


def ref_compose(f: PiecewiseMap, g: PiecewiseMap) -> PiecewiseMap:
    """compose(f, g) for maps that compose: bisecting, and unfolding a
    periodic f over the two periods [b, b + 2) with b = floor(g(0))."""
    if not f.periodic:
        return _ref_compose_flat(f, g)
    base = math.floor(g.eval(F(0)))
    unfolded = tuple(
        Piece(p.lo + n, p.hi + n, p.fn.shifted(n)) for n in (base, base + 1) for p in f.pieces
    )
    window = PiecewiseMap(Dom(F(base), F(base + 2), True), unfolded)
    comp = _ref_compose_flat(window, PiecewiseMap(UNIT, g.pieces))
    return PiecewiseMap(UNIT, comp.pieces, periodic=True)


def ref_invert_periodic(f: PiecewiseMap) -> PiecewiseMap:
    """invert(f) for the lift f of a circle homeomorphism: the inverse
    pieces tile [f(0), f(0) + 1); three translates of each are cut to
    [0, 1) and the parts sorted."""
    h = f.pieces[0].fn(F(0))
    out = []
    for p in f.pieces:
        lo, hi, fn = p.fn(p.lo), p.fn(p.hi), p.fn.inverse()
        for n in range(-math.floor(h) - 1, -math.floor(h) + 2):
            clo, chi = max(lo + n, F(0)), min(hi + n, F(1))
            if clo < chi:
                out.append(Piece(clo, chi, fn.shifted(n)))
    out.sort(key=lambda p: p.lo)
    return PiecewiseMap(UNIT, tuple(out), periodic=True)


# ----- FracLinear in Fractions ------------------------------------------------


def ref_normal_form(a, b, c, d):
    """The rational normal form of t -> (a t + b)/(c t + d), computed in
    Fractions: constants are (0, v, 0, 1), affine maps (m, q, 0, 1) with
    m > 0, everything else has c = 1 and a d - b c > 0.  Raises ValueError
    for a zero denominator or a decreasing map."""
    a, b, c, d = (F(v) for v in (a, b, c, d))
    if c == 0 and d == 0:
        raise ValueError("fractional-linear map with zero denominator")
    det = a * d - b * c
    if det < 0:
        raise ValueError("decreasing fractional-linear map")
    if det == 0:
        return (F(0), a / c if c != 0 else b / d, F(0), F(1))
    if c == 0:
        return (a / d, b / d, F(0), F(1))
    return (a / c, b / c, F(1), d / c)


def ref_integer_form(coeffs):
    """A rational normal form scaled to coprime integers (c > 0 for a
    Moebius map, else d > 0), by the lcm of its denominators."""
    den = math.lcm(*(q.denominator for q in coeffs))
    return tuple(int(q * den) for q in coeffs)


def ref_apply(coeffs, t: Fraction) -> Fraction:
    a, b, c, d = coeffs
    return (a * t + b) / (c * t + d)


def ref_profile_violations(k: PiecewiseMap, coeffs) -> list:
    """validate_profile's messages for a one-piece line profile with the
    successor k, whose formula has the rational normal form coeffs: kappa
    checked by a Fraction sign analysis of the quadratic numerator of
    K(t) - t, containment by evaluating at the right end."""
    (piece,) = k.pieces
    a, b, c, d = coeffs
    out = []
    if not _ref_kappa_positive(coeffs, piece, k.dom):
        out.append(f"piece {piece}: kappa <= 0 somewhere on the piece")
    if is_finite(k.dom.hi):
        if c != 0 and -d / c == piece.hi:
            out.append(f"piece {piece}: K escapes to +inf inside the domain")
        else:
            limit = ref_apply(coeffs, piece.hi)
            if limit > k.dom.hi or (limit == k.dom.hi and a == 0 and c == 0):
                out.append(f"piece {piece}: [t, K(t)] leaves the domain {k.dom}")
    return out


def _ref_kappa_positive(coeffs, piece: Piece, dom: Dom) -> bool:
    a, b, c, d = coeffs
    lo, hi = piece.lo, piece.hi
    if c == 0:
        s = 1
    else:
        pole = -d / c
        if is_finite(lo) and lo != pole:
            t_s = lo
        elif is_finite(hi) and hi != pole:
            t_s = hi
        elif is_finite(lo):
            t_s = lo + 1
        else:
            t_s = hi - 1
        s = 1 if c * t_s + d > 0 else -1
    qa, qb, qc = -s * c, s * (a - d), s * b
    lo_included = not (lo == dom.lo and not dom.lo_closed)

    def quad(t):
        return qa * t * t + qb * t + qc

    if qa == 0 and qb == 0:
        return qc > 0
    if is_finite(lo):
        v = quad(lo)
        if v < 0 or (v == 0 and lo_included):
            return False
        if v == 0:
            slope = 2 * qa * lo + qb
            if slope < 0 or (slope == 0 and qa <= 0):
                return False
    elif qa < 0 or (qa == 0 and qb > 0):
        return False
    if is_finite(hi):
        if quad(hi) < 0:
            return False
    elif qa < 0 or (qa == 0 and qb < 0):
        return False
    if qa > 0:
        vertex = -qb / (2 * qa)
        if lo < vertex < hi and quad(vertex) <= 0:
            return False
    return True


# ----- random FracLinear coefficients (hypothesis strategies) ------------------

HEIGHT = 2**200
RATIONALS = st.builds(F, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT))
NONZERO = RATIONALS.filter(lambda q: q != 0)


@st.composite
def coefficients(draw, det=None):
    """Rational (a, b, c, d) of mixed signs and heights up to 2^200, with
    a d - b c > 0 (det "+"), = 0 (det "0") or of either sign (det None);
    about half of them affine (c = 0)."""
    c = draw(st.one_of(st.just(F(0)), RATIONALS))
    d = draw(RATIONALS if c != 0 else NONZERO)
    if det == "0":
        # rows proportional; with c = 0 the map is the constant b / d
        lam = draw(RATIONALS)
        return (lam * c, lam * d if c != 0 else draw(RATIONALS), c, d)
    a, b = draw(RATIONALS), draw(RATIONALS)
    if det == "+":
        if a * d - b * c < 0:
            a, b = -a, -b
        assume(a * d - b * c > 0)
    return (a, b, c, d)


# ----- worked example profiles -----------------------------------------------


def translation_profile(c=1) -> KupischProfile:
    """K(t) = t + c on the whole line."""
    dom = Dom(NEG_INF, POS_INF, False)
    return line_profile(dom, PiecewiseMap.single(dom, FracLinear.affine(1, c)))


def constant_circle_profile(c) -> KupischProfile:
    """Constant length c on the circle: K(t) = t + c."""
    return circle_profile(
        PiecewiseMap.single(Dom(F(0), F(1), True), FracLinear.affine(1, c), True)
    )


def kappa_n_profile(n: int) -> KupischProfile:
    """Circle profile with successor (k+1)/(2n) + t/2 on [k/n, (k+1)/n)."""
    pieces = [
        Piece(F(k, n), F(k + 1, n), FracLinear.affine(F(1, 2), F(k + 1, 2 * n)))
        for k in range(n)
    ]
    return circle_profile(PiecewiseMap(Dom(F(0), F(1), True), tuple(pieces), True))


def nu_profile() -> KupischProfile:
    """Periodic line profile with K(t) = (n + 1 + t)/2 on [n, n+1)."""
    dom = Dom(NEG_INF, POS_INF, False)
    k = PiecewiseMap.single(Dom(F(0), F(1), True), FracLinear.affine(F(1, 2), F(1, 2)), True)
    return KupischProfile(Line(dom), k)


def nu_restriction_profile() -> KupischProfile:
    """The [0, 1) piece of the periodic line profile above, as its own space."""
    dom = Dom(F(0), F(1), True)
    return line_profile(dom, PiecewiseMap.single(dom, FracLinear.affine(F(1, 2), F(1, 2))))


def findim_profile(deepest=12) -> KupischProfile:
    """Circle profile with the staircase of successor values 1/(n-1) + 1 on
    [1/(n+1), 1/n), truncated at n = deepest, constant filler below."""
    pieces = [Piece(F(0), F(1, deepest + 1), FracLinear.const(F(1, 2)))]
    for n in range(deepest, 3, -1):
        pieces.append(Piece(F(1, n + 1), F(1, n), FracLinear.const(F(1, n - 1) + 1)))
    pieces.append(Piece(F(1, 4), F(1), FracLinear.const(F(3, 2))))
    return circle_profile(PiecewiseMap(Dom(F(0), F(1), True), tuple(pieces), True))


# ----- random data ---------------------------------------------------------------


def rand_fraction(rng: random.Random, lo=-3, hi=3, den=8) -> Fraction:
    return F(rng.randrange(lo * den, hi * den + 1), den)


def rand_interval(rng: random.Random, lo=-3, hi=3, den=8, allow_point=True) -> Interval:
    a = rand_fraction(rng, lo, hi, den)
    b = rand_fraction(rng, lo, hi, den)
    if a > b:
        a, b = b, a
    if a == b:
        if allow_point and rng.random() < 0.3:
            return interval(a, b)
        b = a + F(1, den)
    return Interval(a, b, rng.choice([CLOSED, OPEN]), rng.choice([CLOSED, OPEN]))


def rand_profile_half_line(rng: random.Random, max_pieces=4, sep_chance=0.25) -> KupischProfile:
    """Random valid piecewise-affine profile on [0, +inf); separation points
    appear where a piece's successor reaches the next breakpoint exactly."""
    for _ in range(100):
        k = rng.randrange(1, max_pieces + 1)
        cuts = sorted({F(rng.randrange(1, 17), 4) for _ in range(k - 1)})
        us = [F(0)] + list(cuts)
        pieces = []
        prev_end = F(0)
        for i in range(len(us) - 1):
            u0, u1 = us[i], us[i + 1]
            w = max(prev_end, u0) + F(rng.randrange(1, 9), 8)
            if rng.random() < sep_chance:
                z = max(w, u1)
            else:
                z = max(w, u1) + F(rng.randrange(1, 9), 8)
            slope = (z - w) / (u1 - u0)
            pieces.append(Piece(u0, u1, FracLinear.affine(slope, w - slope * u0)))
            prev_end = z
        u_last = us[-1]
        w = max(prev_end, u_last) + F(rng.randrange(1, 9), 8)
        pieces.append(Piece(u_last, POS_INF, FracLinear.affine(1, w - u_last)))
        try:
            prof = line_profile(
                Dom(F(0), POS_INF, True), PiecewiseMap(Dom(F(0), POS_INF, True), tuple(pieces))
            )
        except ValueError:
            continue
        if not validate_profile(prof):
            return prof
    raise RuntimeError("could not generate a valid profile")


def rand_profile_circle(rng: random.Random, max_pieces=4, sep_chance=0.25) -> KupischProfile:
    """Random valid piecewise-affine circle profile."""
    for _ in range(200):
        k = rng.randrange(1, max_pieces + 1)
        cuts = sorted({F(rng.randrange(1, 8), 8) for _ in range(k - 1)})
        us = [F(0)] + list(cuts) + [F(1)]
        w0 = F(rng.randrange(1, 9), 8)
        ceiling = w0 + 1
        pieces = []
        prev_end = w0
        feasible = True
        for i in range(len(us) - 1):
            u0, u1 = us[i], us[i + 1]
            if i == 0:
                w = w0
            else:
                w = prev_end + F(rng.randrange(0, 3), 16)
                if w == u0:
                    w += F(1, 16)
            lo_z = max(w, u1)
            if lo_z > ceiling:
                feasible = False
                break
            if rng.random() < sep_chance or lo_z == ceiling:
                z = lo_z
            else:
                z = lo_z + (ceiling - lo_z) * F(rng.randrange(0, 3), 4)
            slope = (z - w) / (u1 - u0)
            pieces.append(Piece(u0, u1, FracLinear.affine(slope, w - slope * u0)))
            prev_end = z
        if not feasible:
            continue
        try:
            prof = circle_profile(PiecewiseMap(Dom(F(0), F(1), True), tuple(pieces), True))
        except ValueError:
            continue
        if not validate_profile(prof):
            return prof
    raise RuntimeError("could not generate a valid circle profile")


def rand_homeo_half_line(rng: random.Random, max_pieces=3, lo=F(0), y0=None) -> PiecewiseMap:
    """Random strictly increasing piecewise-affine bijection on [lo, +inf)."""
    k = rng.randrange(1, max_pieces + 1)
    cuts = sorted({lo + F(rng.randrange(1, 17), 4) for _ in range(k - 1)})
    us = [lo] + list(cuts)
    y = F(rng.randrange(0, 9), 8) if y0 is None else y0
    pieces = []
    for i in range(len(us) - 1):
        slope = F(rng.randrange(1, 9), 4)
        u0, u1 = us[i], us[i + 1]
        pieces.append(Piece(u0, u1, FracLinear.affine(slope, y - slope * u0)))
        y = y + slope * (u1 - u0)
    slope = F(rng.randrange(1, 9), 4)
    pieces.append(Piece(us[-1], POS_INF, FracLinear.affine(slope, y - slope * us[-1])))
    return PiecewiseMap(Dom(lo, POS_INF, True), tuple(pieces))


def rand_homeo_full_line(rng: random.Random, max_pieces=3) -> PiecewiseMap:
    """Random strictly increasing piecewise-affine bijection of the line."""
    k = rng.randrange(1, max_pieces + 1)
    cuts = sorted({F(rng.randrange(-12, 13), 4) for _ in range(k)})
    if not cuts:
        cuts = [F(0)]
    y = F(rng.randrange(-8, 9), 8)
    pieces = []
    slope = F(rng.randrange(1, 9), 4)
    pieces.append(Piece(NEG_INF, cuts[0], FracLinear.affine(slope, y - slope * cuts[0])))
    for u0, u1 in zip(cuts, cuts[1:]):
        slope = F(rng.randrange(1, 9), 4)
        pieces.append(Piece(u0, u1, FracLinear.affine(slope, y - slope * u0)))
        y = y + slope * (u1 - u0)
    slope = F(rng.randrange(1, 9), 4)
    pieces.append(Piece(cuts[-1], POS_INF, FracLinear.affine(slope, y - slope * cuts[-1])))
    return PiecewiseMap(Dom(NEG_INF, POS_INF, False), tuple(pieces))


def rand_series(rng: random.Random, max_n=5, max_l=5):
    """Random admissible projective-length series."""
    from nakarep import KupischSeries, validate_series

    while True:
        n = rng.randrange(1, max_n + 1)
        lengths = tuple(rng.randrange(1, max_l + 1) for _ in range(n))
        series = KupischSeries(lengths)
        if not validate_series(series):
            return series


def rand_homeo_circle(rng: random.Random, max_pieces=3) -> PiecewiseMap:
    """Random degree-one lift: strictly increasing, continuous, f(1) = f(0) + 1."""
    k = rng.randrange(1, max_pieces + 1)
    cuts = sorted({F(rng.randrange(1, 8), 8) for _ in range(k - 1)})
    us = [F(0)] + list(cuts) + [F(1)]
    h = F(rng.randrange(-8, 9), 8)
    weights = [F(rng.randrange(1, 5)) for _ in range(len(us) - 1)]
    total = sum(weights)
    ys = [h]
    for wgt in weights:
        ys.append(ys[-1] + wgt / total)
    pieces = []
    for i in range(len(us) - 1):
        slope = (ys[i + 1] - ys[i]) / (us[i + 1] - us[i])
        pieces.append(Piece(us[i], us[i + 1], FracLinear.affine(slope, ys[i] - slope * us[i])))
    return PiecewiseMap(Dom(F(0), F(1), True), tuple(pieces), True)


def rand_compatible_interval(rng: random.Random, profile: KupischProfile, t_hi=4) -> Interval:
    """A random interval fitting under some projective of the profile."""
    k = profile.successor
    if k.periodic:
        t = F(rng.randrange(0, 16), 16)
    else:
        t = k.dom.lo + F(rng.randrange(0, 4 * t_hi), 4)
        if not k.dom.lo_closed and t == k.dom.lo:
            t = t + F(1, 8)
    kt = k.eval(t)
    a = t + (kt - t) * F(rng.randrange(0, 4), 8)
    b = a + (kt - a) * F(rng.randrange(1, 9), 8)
    lo_kind = rng.choice([CLOSED, OPEN])
    hi_kind = rng.choice([CLOSED, OPEN])
    if a == b:
        lo_kind = hi_kind = CLOSED
    return Interval(a, b, lo_kind, hi_kind)
