import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nakarep import (
    CIRCLE,
    DegreeError,
    Dom,
    DomainError,
    FracLinear,
    KupischProfile,
    Line,
    NEG_INF,
    POS_INF,
    Piece,
    PiecewiseMap,
    Shape,
    canonical_lift,
    compose,
    components,
    interval,
    kappa_at,
    line_profile,
    next_separation,
    normalize_profile,
    orbit,
    push_forward,
    separation_points,
    validate_profile,
    verify_conjugacy,
)
from nakarep.discrete import KupischSeries, associated_kupisch
from oracles import (
    RATIONALS,
    assert_rebuilds,
    brute_next_separation,
    coefficients,
    constant_circle_profile,
    ref_normal_form,
    ref_profile_violations,
    findim_profile,
    kappa_n_profile,
    nu_profile,
    nu_restriction_profile,
    rand_homeo_circle,
    rand_homeo_half_line,
    rand_profile_circle,
    rand_fraction,
    rand_profile_half_line,
    translation_profile,
)

REALS = Dom(NEG_INF, POS_INF, False)


def jump_profile():
    # length 1 left of zero, length 2 from zero on: a jump but no separation
    k = PiecewiseMap(
        REALS,
        (
            Piece(NEG_INF, F(0), FracLinear.affine(1, 1)),
            Piece(F(0), POS_INF, FracLinear.affine(1, 2)),
        ),
    )
    return line_profile(REALS, k)


class TestValidate:
    def test_translation_is_valid(self):
        assert validate_profile(translation_profile(1)) == []

    def test_negative_length(self):
        assert any("kappa" in v for v in validate_profile(translation_profile(-1)))

    def test_right_closed_domain(self):
        dom = Dom(F(0), F(1), True, True)
        k = PiecewiseMap.single(dom.open_right(), FracLinear.affine(1, 1))
        bad = validate_profile(KupischProfile(Line(dom), k))
        assert any("right-closed" in v for v in bad)

    def test_containment_failure_reported(self):
        # K = t + 1 cannot stay inside [0, 1)
        dom = Dom(F(0), F(1), True)
        k = PiecewiseMap.single(dom, FracLinear.affine(1, 1))
        bad = validate_profile(line_profile(dom, k))
        assert any("leaves the domain" in v for v in bad)

    def test_mobius_unbounded_piece_fails_length_check(self):
        dom = Dom(F(0), POS_INF, True)
        k = PiecewiseMap.single(dom, FracLinear(2, 1, 1, 1))
        assert any("kappa" in v for v in validate_profile(line_profile(dom, k)))

    def test_mobius_piece_with_positive_length_everywhere(self):
        # K(t) = (2t + 2)/(2 - t) on [0, 1), then t + 3: exact quadratic sign
        # analysis must accept this even though kappa is not monotone on it
        dom = Dom(F(0), POS_INF, True)
        k = PiecewiseMap(
            dom,
            (
                Piece(F(0), F(1), FracLinear(2, 2, -1, 2)),
                Piece(F(1), POS_INF, FracLinear.affine(1, 3)),
            ),
        )
        assert validate_profile(line_profile(dom, k)) == []


class TestKappaAt:
    def test_series_profile_at_zero(self):
        prof = associated_kupisch(KupischSeries((3, 3, 2)))
        assert kappa_at(prof, 0) == 1

    def test_series_profile_mid(self):
        prof = associated_kupisch(KupischSeries((3, 3, 2)))
        assert kappa_at(prof, F(1, 2)) == F(5, 6)

    def test_family_piece(self):
        assert kappa_at(kappa_n_profile(2), 0) == F(1, 4)


class TestOrbit:
    def test_translation(self):
        assert orbit(translation_profile(1), 0, 3) == [0, 1, 2, 3]

    def test_contracting_family(self):
        got = orbit(kappa_n_profile(1), 0, 3)
        assert got == [0, F(1, 2), F(3, 4), F(7, 8)]

    def test_staircase(self):
        assert orbit(findim_profile(), F(1, 5), 2) == [F(1, 5), F(4, 3), F(5, 2)]


class TestSeparationPoints:
    def test_jump_is_not_separation(self):
        assert separation_points(jump_profile()).points == ()

    def test_family_representatives(self):
        s = separation_points(kappa_n_profile(2))
        assert s.periodic and s.points == (F(0), F(1, 2))

    def test_periodic_line_profile(self):
        s = separation_points(nu_profile())
        assert s.periodic and s.points == (F(0),)

    def test_constant_run_rejected(self):
        # K constantly equal to the breakpoint on its left: not a separation
        dom = Dom(F(0), POS_INF, True)
        k = PiecewiseMap(
            dom,
            (
                Piece(F(0), F(1), FracLinear.const(1)),
                Piece(F(1), POS_INF, FracLinear.affine(1, 1)),
            ),
        )
        prof = line_profile(dom, k)
        assert validate_profile(prof) == []
        assert separation_points(prof).points == ()

    def test_derived_once_and_not_compared(self):
        prof = kappa_n_profile(3)
        fresh = KupischProfile(prof.space, prof.successor)
        seps = separation_points(prof)
        assert separation_points(prof) is seps
        assert prof == fresh and hash(prof) == hash(fresh)
        assert separation_points(fresh) == seps

    def test_half_line_separation(self):
        # K rises to exactly 1 at the breakpoint, strictly below before it
        dom = Dom(F(0), POS_INF, True)
        k = PiecewiseMap(
            dom,
            (
                Piece(F(0), F(1), FracLinear.affine(F(1, 2), F(1, 2))),
                Piece(F(1), POS_INF, FracLinear.affine(1, 1)),
            ),
        )
        prof = line_profile(dom, k)
        assert separation_points(prof).points == (F(1),)


class TestNextSeparation:
    def test_periodic_family(self):
        assert next_separation(kappa_n_profile(1), 0) == 1
        assert next_separation(kappa_n_profile(3), F(1, 4)) == F(1, 3)

    def test_no_separation_points(self):
        assert next_separation(translation_profile(1), F(17, 3)) == POS_INF

    def test_bounded_domain_sup(self):
        assert next_separation(nu_restriction_profile(), F(1, 2)) == 1

    def test_matches_orbit_limit(self):
        prof = kappa_n_profile(2)
        pts = orbit(prof, F(1, 8), 40)
        target = next_separation(prof, F(1, 8))
        assert pts[-1] < target
        assert target - pts[-1] < F(1, 10**6)

    def test_matches_linear_scan(self):
        # circle, periodic line and half-line profiles; c on, just below and
        # just above every separation point (and its translates), and random
        rng = random.Random(29)
        profiles = [nu_profile(), nu_restriction_profile(), kappa_n_profile(3)]
        profiles.append(translation_profile(1))
        for _ in range(40):
            circ = rand_profile_circle(rng, max_pieces=5, sep_chance=0.6)
            profiles += [
                circ,
                KupischProfile(Line(REALS), circ.successor),
                rand_profile_half_line(rng, max_pieces=5, sep_chance=0.6),
            ]
        checked = 0
        for prof in profiles:
            k = prof.successor
            shifts = (-3, -1, 0, 1, 2) if k.periodic else (0,)
            near = (F(-1, 64), 0, F(1, 64))
            cs = [s + n + e for s in separation_points(prof) for n in shifts for e in near]
            cs += [rand_fraction(rng, -3, 6) for _ in range(8)]
            for c in cs:
                if k.periodic or k.dom.contains(c):
                    assert next_separation(prof, c) == brute_next_separation(prof, c), (prof, c)
                    checked += 1
        assert checked > 1000


class TestComponents:
    def test_family_counts(self):
        for n in (1, 2, 3):
            comps = components(kappa_n_profile(n))
            assert len(comps) == n

    def test_long_projectives_connect_the_circle(self):
        comps = components(constant_circle_profile(F(3, 2)))
        assert len(comps) == 1 and comps[0].shape is Shape.CIRCLE_WHOLE

    def test_periodic_line_components(self):
        comps = components(nu_profile())
        assert len(comps) == 1
        assert comps[0].periodic
        assert (comps[0].left, comps[0].right) == (F(0), F(1))

    def test_line_with_left_part(self):
        dom = Dom(F(0), POS_INF, True)
        k = PiecewiseMap(
            dom,
            (
                Piece(F(0), F(1), FracLinear.affine(F(1, 2), F(1, 2))),
                Piece(F(1), POS_INF, FracLinear.affine(1, 1)),
            ),
        )
        comps = components(line_profile(dom, k))
        assert [(c.left, c.right) for c in comps] == [(F(0), F(1)), (F(1), POS_INF)]
        assert [c.shape for c in comps] == [Shape.HALF_LINE_LIKE, Shape.HALF_LINE_LIKE]


class TestPushForward:
    def test_identity(self):
        prof = translation_profile(1)
        ident = PiecewiseMap.identity(REALS)
        pushed = push_forward(prof, ident)
        assert pushed.successor == prof.successor

    def test_family_reproduction(self):
        half = Dom(F(0), POS_INF, True)
        base = line_profile(half, PiecewiseMap.single(half, FracLinear.affine(2, 1)))
        for n in (1, 2, 3):
            f = PiecewiseMap.single(half, FracLinear(1, 0, n, n))
            pushed = push_forward(base, f)
            expect = PiecewiseMap.single(
                Dom(F(0), F(1, n), True), FracLinear.affine(F(1, 2), F(1, 2 * n))
            )
            assert pushed.successor == expect

    def test_restriction_to_half_line(self):
        prof = nu_restriction_profile()
        f = PiecewiseMap.single(prof.successor.dom, FracLinear(1, 0, -1, 1))
        pushed = push_forward(prof, f)
        expect = PiecewiseMap.single(Dom(F(0), POS_INF, True), FracLinear.affine(2, 1))
        assert pushed.successor == expect

    def test_circle_requires_periodic_lift(self):
        with pytest.raises(DegreeError):
            push_forward(
                constant_circle_profile(F(1, 2)),
                PiecewiseMap.identity(REALS),
            )

    def test_periodic_line_profile_rotates(self):
        prof = nu_profile()
        rot = PiecewiseMap.single(Dom(F(0), F(1), True), FracLinear.affine(1, F(1, 4)), True)
        pushed = push_forward(prof, rot)
        assert isinstance(pushed.space, Line) and pushed.periodic
        assert separation_points(pushed).points == (F(1, 4),)
        for t in (F(0), F(1, 2), F(9, 8)):
            assert pushed.successor.eval(t) == prof.successor.eval(t - F(1, 4)) + F(1, 4)


class TestVerifyConjugacy:
    def test_identity(self):
        prof = constant_circle_profile(F(1, 2))
        ident = PiecewiseMap.single(Dom(F(0), F(1), True), FracLinear.identity(), True)
        assert verify_conjugacy(ident, prof, prof)

    def test_rotation_shifts_profile(self):
        prof = kappa_n_profile(2)
        c = F(1, 8)
        rot = PiecewiseMap.single(Dom(F(0), F(1), True), FracLinear.affine(1, c), True)
        shifted = push_forward(prof, rot)
        assert verify_conjugacy(rot, prof, shifted)
        # the shifted successor is the original conjugated by the rotation
        for t in (F(0), F(3, 16), F(1, 2), F(7, 8)):
            assert shifted.successor.eval(t) == prof.successor.eval(t - c) + c

    def test_distinct_constants_never_conjugate(self):
        a = constant_circle_profile(F(1, 2))
        b = constant_circle_profile(F(1, 3))
        rng = random.Random(3)
        for _ in range(10):
            f = rand_homeo_circle(rng)
            assert not verify_conjugacy(f, a, b)


class TestNormalize:
    def test_half_line_unchanged(self):
        prof = line_profile(
            Dom(F(0), POS_INF, True),
            PiecewiseMap.single(Dom(F(0), POS_INF, True), FracLinear.affine(1, 1)),
        )
        normalized, witness = normalize_profile(prof)
        assert normalized == prof
        assert witness == PiecewiseMap.identity(prof.successor.dom)

    def test_unit_interval_to_half_line(self):
        prof = nu_restriction_profile()
        normalized, witness = normalize_profile(prof)
        assert normalized.space == Line(Dom(F(0), POS_INF, True))
        assert normalized.successor == PiecewiseMap.single(
            Dom(F(0), POS_INF, True), FracLinear.affine(2, 1)
        )
        assert witness.pieces[0].fn == FracLinear(1, 0, -1, 1)
        assert verify_conjugacy(witness, prof, normalized)

    def test_open_bounded_to_line(self):
        dom = Dom(F(0), F(1), False)
        prof = line_profile(dom, PiecewiseMap.single(dom, FracLinear.affine(F(1, 2), F(1, 2))))
        assert validate_profile(prof) == []
        normalized, witness = normalize_profile(prof)
        assert normalized.space == Line(REALS)
        assert validate_profile(normalized) == []
        assert verify_conjugacy(witness, prof, normalized)

    def test_open_half_infinite(self):
        dom = Dom(F(0), POS_INF, False)
        prof = line_profile(dom, PiecewiseMap.single(dom, FracLinear.affine(1, 1)))
        normalized, witness = normalize_profile(prof)
        assert normalized.space == Line(REALS)
        assert verify_conjugacy(witness, prof, normalized)

    def test_circle_rejected(self):
        with pytest.raises(DomainError):
            normalize_profile(constant_circle_profile(1))

    def test_periodic_line_is_already_normal(self):
        prof = nu_profile()
        normalized, witness = normalize_profile(prof)
        assert normalized == prof
        assert witness.periodic
        assert verify_conjugacy(witness, prof, normalized)


class TestProperties:
    def test_no_separation_point_inside_projectives(self):
        rng = random.Random(4)
        for prof in [kappa_n_profile(3), nu_profile(), findim_profile()]:
            k = prof.successor
            seps = separation_points(prof)
            for _ in range(200):
                t = F(rng.randrange(0, 64), 32)
                kt = k.eval(t)
                for s in seps.points:
                    cand = s
                    while cand <= t:
                        cand += 1
                    # first representative above t must clear K(t)
                    assert not (t < cand <= kt)

    def test_pushforward_functorial_on_circle(self):
        rng = random.Random(5)
        for _ in range(20):
            prof = rand_profile_circle(rng)
            f = rand_homeo_circle(rng)
            g = rand_homeo_circle(rng)
            once = push_forward(prof, compose(f, g))
            twice = push_forward(push_forward(prof, g), f)
            assert once.successor == twice.successor
            assert_rebuilds(once.successor)
            assert_rebuilds(twice.successor)

    def test_pushforward_functorial_on_half_line(self):
        rng = random.Random(6)
        for _ in range(20):
            prof = rand_profile_half_line(rng)
            g = rand_homeo_half_line(rng)
            g_start = g.eval(0)
            f = rand_homeo_half_line(rng, lo=g_start)
            once = push_forward(prof, compose(f, g))
            twice = push_forward(push_forward(prof, g), f)
            assert once.successor == twice.successor
            assert_rebuilds(once.successor)
            assert_rebuilds(twice.successor)

    def test_orbits_escape_when_no_separation(self):
        prof = translation_profile(F(1, 3))
        bound = 50
        pts = orbit(prof, 0, 3 * bound)
        assert pts[-1] >= bound

    def test_circle_component_count_law(self):
        rng = random.Random(7)
        for _ in range(30):
            prof = rand_profile_circle(rng)
            m = len(separation_points(prof).points)
            comps = components(prof)
            assert len(comps) == (m if m >= 2 else 1)


# ----- validation against a Fraction sign analysis -------------------------------

POSITIVE = RATIONALS.map(abs).filter(lambda q: q > 0)


@st.composite
def one_piece_domains(draw, pole):
    """A line domain on which a formula with this pole (None when affine) is
    a one-piece map: right of the pole, where it may sit at an open left
    end, or left of it, where it may sit at the right end."""
    x = draw(RATIONALS) if pole is None else pole
    if pole is not None and draw(st.booleans()):
        hi = draw(st.sampled_from((x, x - draw(POSITIVE))))
        lo = draw(st.sampled_from((NEG_INF, hi - draw(POSITIVE))))
    else:
        lo = draw(st.sampled_from((x, x + draw(POSITIVE))))
        hi = draw(st.sampled_from((POS_INF, lo + draw(POSITIVE))))
    closed = lo not in (NEG_INF, pole) and draw(st.booleans())
    return Dom(lo, hi, closed)


class TestValidateIntegerForm:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_verdicts_match_fraction_reference(self, data):
        # affine, Moebius and constant pieces of heights up to 2^200
        raw = data.draw(st.one_of(coefficients("+"), coefficients("0")))
        fn = FracLinear(*raw)
        k = PiecewiseMap.single(data.draw(one_piece_domains(fn.pole)), fn)
        violations = validate_profile(line_profile(k.dom, k))
        assert violations == ref_profile_violations(k, ref_normal_form(*raw))

