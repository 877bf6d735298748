import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nakarep import (
    Dom,
    DomainError,
    FracLinear,
    NEG_INF,
    NotBijective,
    POS_INF,
    Piece,
    PiecewiseMap,
    compose,
    invert,
)
from nakarep.pwmap import as_rational, is_finite
from oracles import (
    NONZERO,
    RATIONALS,
    assert_rebuilds,
    assert_same_map,
    coefficients,
    rand_homeo_circle,
    rand_homeo_full_line,
    rand_homeo_half_line,
    ref_compose,
    ref_integer_form,
    ref_invert_periodic,
    ref_normal_form,
)

REALS = Dom(NEG_INF, POS_INF, False)
UNIT = Dom(F(0), F(1), True)


def affine_map(dom, slope, intercept, periodic=False):
    return PiecewiseMap.single(dom, FracLinear.affine(slope, intercept), periodic)


def kappa_n_successor(n):
    pieces = [
        Piece(F(k, n), F(k + 1, n), FracLinear.affine(F(1, 2), F(k + 1, 2 * n)))
        for k in range(n)
    ]
    return PiecewiseMap(UNIT, tuple(pieces), periodic=True)


class TestFracLinear:
    def test_normal_forms(self):
        assert FracLinear(2, 4, 0, 2) == FracLinear.affine(1, 2)
        assert FracLinear(2, 2, 1, 1) == FracLinear.const(2)  # det 0, constant
        # scaled mobius coefficients normalize identically
        assert FracLinear(2, 0, 2, 2) == FracLinear(1, 0, 1, 1)

    def test_text_is_not_a_rational(self):
        # text becomes a rational only through the cli's literal grammar
        with pytest.raises(TypeError):
            as_rational("1/2")
        with pytest.raises(TypeError):
            FracLinear.affine("1e400", 0)

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            FracLinear.affine(-1, 0)
        with pytest.raises(ValueError):
            FracLinear(0, 1, 1, 0)  # 1/t

    def test_inverse_swaps_coefficients(self):
        f = FracLinear(1, 0, -1, 1)  # t / (1 - t)
        g = f.inverse()
        assert g == FracLinear(1, 0, 1, 1)  # t / (1 + t)
        assert g.compose(f) == FracLinear.identity()

    def test_constant_has_no_inverse(self):
        with pytest.raises(NotBijective):
            FracLinear.const(3).inverse()

    def test_compose_is_matrix_product(self):
        f = FracLinear.affine(2, 1)
        g = FracLinear.affine(3, -1)
        h = f.compose(g)
        for t in (F(0), F(1, 3), F(-7, 5)):
            assert h(t) == f(g(t))


class TestEval:
    def test_affine_translation(self):
        k = affine_map(REALS, 1, 1)
        assert k.eval(0) == 1

    def test_two_piece_profile_of_series(self):
        # constant successor values 1 and 4/3 on [0,1/3) and [1/3,1)
        k = PiecewiseMap(
            UNIT,
            (
                Piece(F(0), F(1, 3), FracLinear.const(1)),
                Piece(F(1, 3), F(1), FracLinear.const(F(4, 3))),
            ),
            periodic=True,
        )
        assert k.eval(F(1, 2)) == F(4, 3)

    def test_periodic_unfolding(self):
        k = kappa_n_successor(2)
        assert k.eval(F(5, 4)) == F(11, 8)

    def test_outside_domain(self):
        k = affine_map(Dom(F(0), POS_INF, True), 1, 1)
        with pytest.raises(DomainError):
            k.eval(-1)


class TestLeftLimit:
    def test_jump(self):
        k = PiecewiseMap(
            REALS,
            (
                Piece(NEG_INF, F(0), FracLinear.affine(1, 1)),
                Piece(F(0), POS_INF, FracLinear.affine(1, 2)),
            ),
        )
        assert k.left_limit(0) == 1
        assert k.eval(0) == 2

    def test_continuity_point(self):
        k = affine_map(REALS, 2, 0)
        assert k.left_limit(F(1, 3)) == k.eval(F(1, 3))

    def test_periodic_wrap_limit(self):
        k = kappa_n_successor(2)
        assert k.left_limit(F(1, 2)) == F(1, 2)
        assert k.left_limit(0) == 0

    def test_left_end_has_no_left_limit(self):
        k = affine_map(Dom(F(0), POS_INF, True), 1, 1)
        with pytest.raises(DomainError):
            k.left_limit(0)


class TestCompose:
    def test_identity_laws(self):
        g = affine_map(UNIT, F(1, 2), F(1, 2))
        ident = PiecewiseMap.identity(UNIT)
        assert compose(ident, g) == g

    def test_mobius_composite(self):
        f = PiecewiseMap.single(UNIT, FracLinear(1, 0, -1, 1))
        g = affine_map(UNIT, F(1, 2), F(1, 2))
        comp = compose(f, g)
        assert len(comp.pieces) == 1
        assert comp.pieces[0].fn == FracLinear(1, 1, -1, 1)  # (1+t)/(1-t)

    def test_inverse_law(self):
        f = PiecewiseMap.single(UNIT, FracLinear(1, 0, -1, 1))
        fi = invert(f)
        assert compose(f, fi) == PiecewiseMap.identity(fi.dom)
        assert compose(fi, f) == PiecewiseMap.identity(UNIT)

    def test_range_mismatch(self):
        f = affine_map(UNIT, 1, 0)
        g = affine_map(UNIT, 1, 2)  # image [2,3) misses [0,1)
        with pytest.raises(DomainError):
            compose(f, g)

    def test_breakpoints_are_preimages(self):
        f = PiecewiseMap(
            Dom(F(0), POS_INF, True),
            (
                Piece(F(0), F(2), FracLinear.affine(1, 0)),
                Piece(F(2), POS_INF, FracLinear.affine(3, -4)),
            ),
        )
        g = affine_map(Dom(F(0), POS_INF, True), 4, 0)
        comp = compose(f, g)
        assert [p.lo for p in comp.pieces] == [F(0), F(1, 2)]


class TestInvert:
    def test_affine(self):
        assert invert(affine_map(REALS, 1, 1)) == affine_map(REALS, 1, -1)

    def test_mobius_on_unit(self):
        f = PiecewiseMap.single(UNIT, FracLinear(1, 0, -1, 1))
        fi = invert(f)
        assert fi.dom == Dom(F(0), POS_INF, True)
        assert fi.pieces[0].fn == FracLinear(1, 0, 1, 1)

    def test_constant_piece_rejected(self):
        f = PiecewiseMap(
            Dom(F(0), POS_INF, True),
            (
                Piece(F(0), F(1), FracLinear.const(1)),
                Piece(F(1), POS_INF, FracLinear.affine(1, 0)),
            ),
        )
        with pytest.raises(NotBijective):
            invert(f)

    def test_jump_rejected(self):
        f = PiecewiseMap(
            REALS,
            (
                Piece(NEG_INF, F(0), FracLinear.affine(1, 0)),
                Piece(F(0), POS_INF, FracLinear.affine(1, 1)),
            ),
        )
        with pytest.raises(NotBijective):
            invert(f)

    def test_periodic_round_trip(self):
        rng = random.Random(11)
        for _ in range(25):
            f = rand_homeo_circle(rng)
            fi = invert(f)
            assert compose(f, fi) == PiecewiseMap.single(UNIT, FracLinear.identity(), True)


class TestEquals:
    def test_resplit_is_canonicalized(self):
        one = affine_map(REALS, 1, 1)
        split = PiecewiseMap(
            REALS,
            (
                Piece(NEG_INF, F(5), FracLinear.affine(1, 1)),
                Piece(F(5), POS_INF, FracLinear.affine(1, 1)),
            ),
        )
        assert one == split
        assert len(split.pieces) == 1

    def test_different_slopes(self):
        assert affine_map(REALS, 1, 1) != affine_map(REALS, 2, 1)

    def test_pushed_translation_is_first_family_piece(self):
        # conjugating 2t+1 by t -> t/(1+t) gives the map with length 1/2 - t/2
        half = Dom(F(0), POS_INF, True)
        lam = affine_map(half, 2, 1)
        f = PiecewiseMap.single(half, FracLinear(1, 0, 1, 1))
        pushed = compose(f, compose(lam, invert(f)))
        assert pushed == affine_map(Dom(F(0), F(1), True), F(1, 2), F(1, 2))


class TestProperties:
    def test_left_limit_below_eval(self):
        rng = random.Random(5)
        for _ in range(40):
            f = rand_homeo_half_line(rng)
            for _ in range(10):
                t = F(rng.randrange(1, 64), 8)
                assert f.left_limit(t) <= f.eval(t)

    def test_compose_associative(self):
        rng = random.Random(6)
        for _ in range(30):
            f = rand_homeo_full_line(rng)
            g = rand_homeo_full_line(rng)
            h = rand_homeo_full_line(rng)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_double_invert(self):
        rng = random.Random(7)
        for _ in range(30):
            f = rand_homeo_full_line(rng)
            assert invert(invert(f)) == f
        for _ in range(30):
            f = rand_homeo_circle(rng)
            assert invert(invert(f)) == f

    def test_periodic_eval_translation(self):
        rng = random.Random(8)
        k = kappa_n_successor(3)
        for _ in range(1000):
            t = F(rng.randrange(-400, 400), rng.randrange(1, 40))
            assert k.eval(t + 1) == k.eval(t) + 1

    def test_canonicalization_idempotent(self):
        rng = random.Random(9)
        for _ in range(30):
            f = rand_homeo_half_line(rng)
            again = PiecewiseMap(f.dom, f.pieces, f.periodic)
            assert f == again
            assert again == PiecewiseMap(again.dom, again.pieces, again.periodic)


# ----- random maps for the property tests ---------------------------------------
#
# Breakpoints and node values are drawn from small grids of quarters and
# eighths, so that the image end of an inner piece often lands exactly on a
# breakpoint of the outer map.

BENDS = (F(1), F(1, 3), F(1, 2), F(2), F(3))  # 1 gives an affine piece
QUARTERS = st.integers(-12, 12).map(lambda k: F(k, 4))
STEPS = st.integers(1, 6).map(lambda k: F(k, 4))


def bend_piece(x0, x1, y0, y1, bend) -> FracLinear:
    """Increasing map of [x0, x1] onto [y0, y1]; its pole lies outside."""
    into = FracLinear.affine(1 / (x1 - x0), -x0 / (x1 - x0))
    back = FracLinear.affine(y1 - y0, y0)
    return back.compose(FracLinear(1, 0, 1 - bend, bend).compose(into))


def left_tail(u, y, gap) -> FracLinear:
    """On (-inf, u]: affine ending at y (gap None), or rising from the
    horizontal asymptote y - gap at -inf."""
    if gap is None:
        return FracLinear.affine(1, y - u)
    a = y - gap
    return FracLinear(-a, a * u + y, -1, 1 + u)


def right_tail(u, y, gap) -> FracLinear:
    """On [u, +inf): affine from y (gap None), or rising to y + gap."""
    if gap is None:
        return FracLinear.affine(1, y - u)
    b = y + gap
    return FracLinear(b, y - b * u, 1, 1 - u)


def pole_left(lo, u, y) -> FracLinear:
    """On (lo, u]: from -inf at the pole lo up to y."""
    return FracLinear(y + 1, lo - u - (y + 1) * lo, 1, -lo)


def pole_right(u, hi, y) -> FracLinear:
    """On [u, hi): from y up to +inf at the pole hi."""
    return FracLinear(1 - y, (y - 1) * hi + hi - u, -1, hi)


DOMAINS = {
    "reals": Dom(NEG_INF, POS_INF, False),
    "half": Dom(F(-1), POS_INF, True),
    "bounded": Dom(F(-1), F(2), True),
    "poles": Dom(F(-1), F(2), False),  # poles at both open ends
}


@st.composite
def line_maps(draw, kind, homeo=False):
    """A non-decreasing map on DOMAINS[kind], strictly increasing and
    continuous when homeo, with Moebius, affine and (unless homeo) constant
    pieces and upward jumps."""
    dom = DOMAINS[kind]
    grid = [u for u in (F(k, 4) for k in range(-12, 13)) if dom.lo < u < dom.hi]
    cuts = sorted(draw(st.sets(st.sampled_from(grid), min_size=1, max_size=5)))
    y = draw(QUARTERS)
    pieces = []
    ends = [dom.lo] + cuts + [dom.hi]
    for i, (u0, u1) in enumerate(zip(ends, ends[1:])):
        if i > 0 and not homeo:
            y += draw(st.sampled_from((F(0), F(0), F(1, 4), F(1, 2))))
        if not is_finite(u0):
            fn = left_tail(u1, y, draw(st.sampled_from((None, F(1, 2), F(2)))))
        elif i == 0 and kind == "poles":
            fn = pole_left(u0, u1, y)
        elif not is_finite(u1):
            fn = right_tail(u0, y, draw(st.sampled_from((None, F(1, 2), F(2)))))
        elif i == len(ends) - 2 and kind == "poles":
            fn = pole_right(u0, u1, y)
        else:
            rise = draw(STEPS) if homeo else draw(st.sampled_from((F(0), F(1, 4), F(1))))
            fn = bend_piece(u0, u1, y, y + rise, draw(st.sampled_from(BENDS)))
            y += rise
        pieces.append(Piece(u0, u1, fn))
    return PiecewiseMap(dom, tuple(pieces))


@st.composite
def circle_maps(draw, homeo=False):
    """A degree-one periodic map, a lift of a circle homeomorphism when
    homeo; otherwise constant pieces and upward jumps (the wrap included)
    may occur."""
    cuts = sorted(draw(st.sets(st.integers(1, 7).map(lambda k: F(k, 8)), max_size=5)))
    ends = [F(0)] + cuts + [F(1)]
    n = len(ends) - 1
    lows = 1 if homeo else 0
    rises = draw(st.lists(st.integers(lows, 3), min_size=n, max_size=n))
    jumps = [0] * n if homeo else draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    total = sum(rises) + sum(jumps) or 1  # an all-constant map jumps by 1 at the wrap
    y = draw(QUARTERS)
    pieces = []
    for u0, u1, rise, jump in zip(ends, ends[1:], rises, jumps):
        pieces.append(Piece(u0, u1, bend_piece(u0, u1, y, y + F(rise, total), draw(st.sampled_from(BENDS)))))
        y += F(rise + jump, total)
    return PiecewiseMap(UNIT, tuple(pieces), periodic=True)


def sample_points(f: PiecewiseMap):
    """Points of f's domain: an eighths grid and f's own breakpoints."""
    breakpoints = [p.lo for p in f.pieces[1:]]
    if f.periodic:
        return [F(k, 8) for k in range(-12, 21)] + [u + 1 for u in breakpoints]
    grid = [F(k, 8) for k in range(-40, 41)] + breakpoints
    return [t for t in grid if f.dom.contains(t)]


PROPERTY = settings(max_examples=60, deadline=None)


class TestComposeProperties:
    @PROPERTY
    @given(st.data(), st.sampled_from(sorted(DOMAINS)))
    def test_compose_agrees_with_eval_line(self, data, kind):
        f = data.draw(line_maps("reals"))
        g = data.draw(line_maps(kind))
        comp = compose(f, g)
        assert_rebuilds(comp)
        assert_same_map(comp, ref_compose(f, g))
        for t in sample_points(g):
            assert comp.eval(t) == f.eval(g.eval(t))

    @PROPERTY
    @given(st.data(), st.sampled_from(sorted(DOMAINS)))
    def test_compose_into_outer_domain(self, data, kind):
        # the inner map is an inverse, so its image is exactly f's domain:
        # open ends at poles, asymptotic tails, attained closed left end
        f = data.draw(line_maps(kind))
        g = invert(data.draw(line_maps(kind, homeo=True)))
        comp = compose(f, g)
        assert_rebuilds(g)
        assert_rebuilds(comp)
        assert_same_map(comp, ref_compose(f, g))
        for t in sample_points(g):
            assert comp.eval(t) == f.eval(g.eval(t))

    @PROPERTY
    @given(circle_maps(), circle_maps())
    def test_compose_agrees_with_eval_circle(self, f, g):
        comp = compose(f, g)
        assert_rebuilds(comp)
        assert_same_map(comp, ref_compose(f, g))
        for t in sample_points(g):
            assert comp.eval(t) == f.eval(g.eval(t))

    @PROPERTY
    @given(st.sampled_from(sorted(DOMAINS)).flatmap(lambda kind: line_maps(kind, homeo=True)))
    def test_invert_line(self, f):
        fi = invert(f)
        assert_rebuilds(fi)
        for t in sample_points(f):
            assert fi.eval(f.eval(t)) == t

    @PROPERTY
    @given(circle_maps(homeo=True))
    def test_invert_circle(self, f):
        fi = invert(f)
        assert_rebuilds(fi)
        assert_same_map(fi, ref_invert_periodic(f))
        for t in sample_points(f):
            assert fi.eval(f.eval(t)) == t

    def test_image_ends_on_outer_breakpoints(self):
        # every inner piece maps onto [k, k + 1), so its image ends are f's
        # breakpoints, and no piece is cut inside
        g = PiecewiseMap(
            REALS,
            (
                Piece(NEG_INF, F(0), FracLinear.affine(1, 0)),
                Piece(F(0), F(1, 2), FracLinear(2, 0, -1, 2)),  # 0 -> 0, 1/2 -> 1/1
                Piece(F(1, 2), POS_INF, FracLinear.affine(2, 0)),
            ),
        )
        f = PiecewiseMap(
            REALS,
            (
                Piece(NEG_INF, F(0), FracLinear.affine(1, 0)),
                Piece(F(0), F(1), FracLinear.affine(2, 1)),
                Piece(F(1), F(2), FracLinear.affine(3, 2)),
                Piece(F(2), POS_INF, FracLinear.affine(4, 0)),
            ),
        )
        comp = compose(f, g)
        assert_rebuilds(comp)
        assert [p.lo for p in comp.pieces] == [NEG_INF, F(0), F(1, 2), F(1)]
        for t in (F(-1), F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(5)):
            assert comp.eval(t) == f.eval(g.eval(t))


def circle(*pieces) -> PiecewiseMap:
    return PiecewiseMap(UNIT, tuple(Piece(lo, hi, fn) for lo, hi, fn in pieces), periodic=True)


def half_slopes(h):
    """Slope 1/2 on [0, 1/2) and 3/2 on [1/2, 1), from f(0) = h."""
    return circle(
        (F(0), F(1, 2), FracLinear.affine(F(1, 2), h)),
        (F(1, 2), F(1), FracLinear.affine(F(3, 2), h - F(1, 2))),
    )


class TestInvertPeriodic:
    # the inverse pieces tile [f(0), f(0) + 1); each case pins the piece
    # starts of the inverse on [0, 1)
    @pytest.mark.parametrize(
        "f, starts",
        [
            (half_slopes(F(0)), [F(0), F(1, 4)]),  # f(0) = 0: nothing to rotate
            (half_slopes(F(-2)), [F(0), F(1, 4)]),  # f(0) = -2: moved up two periods
            (half_slopes(F(5, 2)), [F(0), F(1, 2), F(3, 4)]),  # [3/4, 3/2) straddles 1
            (  # the first inverse piece ends exactly on the wrap: [1/2, 1), [1, 3/2)
                circle(
                    (F(0), F(1, 4), FracLinear.affine(2, F(1, 2))),
                    (F(1, 4), F(1), FracLinear.affine(F(2, 3), F(5, 6))),
                ),
                [F(0), F(1, 2)],
            ),
            (  # three pieces with f(0) = 3/4: the middle one straddles
                circle(
                    (F(0), F(1, 8), bend_piece(F(0), F(1, 8), F(3, 4), F(7, 8), F(2))),
                    (F(1, 8), F(1, 2), bend_piece(F(1, 8), F(1, 2), F(7, 8), F(3, 2), F(1, 3))),
                    (F(1, 2), F(1), FracLinear.affine(F(1, 2), F(5, 4))),
                ),
                [F(0), F(1, 2), F(3, 4), F(7, 8)],
            ),
            (circle((F(0), F(1), bend_piece(F(0), F(1), F(1, 3), F(4, 3), F(2)))), [F(0), F(1, 3)]),
            (circle((F(0), F(1), FracLinear.affine(1, F(7, 3)))), [F(0)]),  # both parts t - 7/3
        ],
        ids=["at_0", "at_-2", "at_5/2", "end_on_wrap", "middle_straddles", "one_piece", "translation"],
    )
    def test_rotation(self, f, starts):
        fi = invert(f)
        assert fi._starts == starts
        assert_same_map(fi, ref_invert_periodic(f))
        assert_rebuilds(fi)
        for t in sample_points(f):
            assert fi.eval(f.eval(t)) == t
            assert f.eval(fi.eval(t)) == t


def line_homeo(n, offset):
    """A homeomorphism of the line with n pieces, breakpoints at offset/4 +
    k for k < n - 1, bends on the bounded pieces, affine tails."""
    cuts = [F(4 * i + offset, 4) for i in range(n - 1)]
    y, pieces = F(0), [Piece(NEG_INF, cuts[0], FracLinear.affine(1, -cuts[0]))]
    for i, (u0, u1) in enumerate(zip(cuts, cuts[1:])):
        fn = bend_piece(u0, u1, y, y + 1, BENDS[i % len(BENDS)])
        pieces.append(Piece(u0, u1, fn))
        y = fn(u1)
    pieces.append(Piece(cuts[-1], POS_INF, FracLinear.affine(1, y - cuts[-1])))
    return PiecewiseMap(REALS, tuple(pieces))


def circle_homeo(n, offset):
    """The lift of a circle homeomorphism with n pieces, breakpoints at
    (4k + offset)/(4n), near t + offset/7."""
    ends = [F(0)] + [F(4 * i + offset, 4 * n) for i in range(1, n)] + [F(1)]
    shift = F(offset, 7)
    return circle(
        *(
            (u0, u1, bend_piece(u0, u1, u0 + shift, u1 + shift, BENDS[i % len(BENDS)]))
            for i, (u0, u1) in enumerate(zip(ends, ends[1:]))
        )
    )


class TestComposeCost:
    def test_preimage_solves_are_linear(self, monkeypatch):
        # two 64-piece homeomorphisms of the line; the outer breakpoints
        # interleave with the images of the inner ones
        f, g = line_homeo(64, 1), line_homeo(64, 2)
        calls = []
        solve = FracLinear.preimage

        def counted(self, w):
            calls.append(w)
            return solve(self, w)

        monkeypatch.setattr(FracLinear, "preimage", counted)
        comp = compose(f, g)
        assert len(calls) <= len(comp.pieces) + len(g.pieces)

    @pytest.mark.parametrize("homeo", [line_homeo, circle_homeo])
    def test_order_comparisons_are_linear(self, monkeypatch, homeo):
        # one walk over the inner pieces and the outer starts compares about
        # twice per inner piece and once per cut; bisecting the 256 starts
        # (512 over a circle's two-period window) twice per inner piece
        # would take about 2 log2(n) each
        f, g = homeo(256, 1), homeo(256, 2)
        count = [0]
        with monkeypatch.context() as m:
            for name in ("__lt__", "__le__", "__gt__", "__ge__"):
                def counted(a, b, _op=getattr(F, name)):
                    count[0] += 1
                    return _op(a, b)

                m.setattr(F, name, counted)
            comp = compose(f, g)
        assert comp == ref_compose(f, g)
        assert count[0] <= 2 * (len(f.pieces) + len(g.pieces) + len(comp.pieces))


# ----- the integer form against Fraction arithmetic ----------------------------

MAPS = st.one_of(coefficients("+"), coefficients("0")).map(lambda q: FracLinear(*q))
INT_PROPERTY = settings(max_examples=150, deadline=None)


def assert_normal_form(fn: FracLinear, ref) -> None:
    """fn reads as the Fraction normal form ref and stores it as coprime ints."""
    assert (fn.a, fn.b, fn.c, fn.d) == ref
    assert fn.m == ref_integer_form(ref)


class TestIntegerForm:
    @INT_PROPERTY
    @given(st.one_of(coefficients(), coefficients("+"), coefficients("0")))
    def test_accessors_are_the_reference_normal_form(self, raw):
        try:
            ref = ref_normal_form(*raw)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                FracLinear(*raw)
            return
        assert_normal_form(FracLinear(*raw), ref)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator"):
            FracLinear(1, 2, 0, 0)

    @INT_PROPERTY
    @given(st.one_of(coefficients("+"), coefficients("0")), coefficients("+"), NONZERO)
    def test_equality_and_hash(self, raw, other, lam):
        fn, fo = FracLinear(*raw), FracLinear(*other)
        assert (fn == fo) == (ref_normal_form(*raw) == ref_normal_form(*other))
        # the same map from scaled coefficients, negative scales included
        scaled = FracLinear(*(lam * q for q in raw))
        assert scaled == fn and hash(scaled) == hash(fn)

    @INT_PROPERTY
    @given(MAPS, RATIONALS)
    def test_call(self, fn, t):
        a, b, c, d = fn.a, fn.b, fn.c, fn.d
        if c * t + d == 0:
            with pytest.raises(ZeroDivisionError):
                fn(t)
        else:
            assert fn(t) == (a * t + b) / (c * t + d)
        if c != 0:
            assert fn.pole == -d / c
            with pytest.raises(ZeroDivisionError):
                fn(fn.pole)

    @INT_PROPERTY
    @given(MAPS, MAPS)
    def test_compose(self, f, g):
        a, b, c, d = f.a, f.b, f.c, f.d
        e, ff, gg, h = g.a, g.b, g.c, g.d
        product = (a * e + b * gg, a * ff + b * h, c * e + d * gg, c * ff + d * h)
        try:
            ref = ref_normal_form(*product)
        except ValueError as e:  # g is constant at f's pole
            with pytest.raises(ValueError, match=str(e)):
                f.compose(g)
            return
        assert_normal_form(f.compose(g), ref)

    @INT_PROPERTY
    @given(MAPS)
    def test_inverse(self, fn):
        if fn.a == 0 and fn.c == 0:
            with pytest.raises(NotBijective, match="constant formula has no inverse"):
                fn.inverse()
            return
        assert_normal_form(fn.inverse(), ref_normal_form(fn.d, -fn.b, -fn.c, fn.a))

    @INT_PROPERTY
    @given(MAPS, st.integers(-(2**70), 2**70))
    def test_shifted(self, fn, n):
        a, b, c, d = fn.a, fn.b, fn.c, fn.d
        ref = ref_normal_form(a + n * c, b - n * a + n * d - n * n * c, c, d - n * c)
        assert_normal_form(fn.shifted(n), ref)

    @INT_PROPERTY
    @given(MAPS, RATIONALS, st.booleans())
    def test_preimage(self, fn, w, at_limit):
        a, b, c, d = fn.a, fn.b, fn.c, fn.d
        if at_limit and c != 0:
            w = a / c  # the value a Moebius map never attains
        den = a - w * c
        assert fn.preimage(w) == (None if den == 0 else (w * d - b) / den)
