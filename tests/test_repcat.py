import math
import random
from fractions import Fraction as F

import pytest

from nakarep import (
    CIRCLE,
    CLOSED,
    Dom,
    DomainError,
    ExceededCap,
    FracLinear,
    Finite,
    IncompatibleModule,
    KupischProfile,
    InfinitePeriodic,
    Interval,
    InvalidMorphism,
    Line,
    NEG_INF,
    OPEN,
    POS_INF,
    PiecewiseMap,
    ScalarMorphism,
    canonical_lift,
    component_of,
    components,
    end_dim,
    hom_dim,
    interval,
    invert,
    is_brick,
    is_compatible,
    is_projective,
    line_profile,
    map_module,
    morphism_analyze,
    projective_at,
    projective_cover,
    projective_resolution,
    push_forward,
    translate,
)
from nakarep.discrete import KupischSeries, associated_kupisch
from oracles import (
    brute_component_of,
    brute_hom_circle,
    brute_hom_line,
    brute_morphism_check,
    constant_circle_profile,
    findim_profile,
    kappa_n_profile,
    nu_profile,
    rand_compatible_interval,
    rand_homeo_circle,
    rand_homeo_half_line,
    rand_interval,
    rand_profile_circle,
    rand_profile_half_line,
    translation_profile,
)

LINE = Line(Dom(NEG_INF, POS_INF, False))


class TestCompatibility:
    def test_exact_projective_fits(self):
        assert is_compatible(translation_profile(1), interval(0, 1))

    def test_too_long(self):
        assert not is_compatible(translation_profile(1), interval(0, F(3, 2)))

    def test_series_projective(self):
        prof = associated_kupisch(KupischSeries((3, 3, 2)))
        assert is_compatible(prof, Interval(F(1, 3), F(4, 3), OPEN, CLOSED))

    def test_open_domain_edge_incompatible(self):
        dom = Dom(F(0), POS_INF, False)
        prof = line_profile(dom, PiecewiseMap.single(dom, FracLinear.affine(1, 1)))
        assert not is_compatible(prof, Interval(F(0), F(1, 2), OPEN, CLOSED))

    def test_exits_domain(self):
        dom = Dom(F(0), POS_INF, True)
        prof = line_profile(dom, PiecewiseMap.single(dom, FracLinear.affine(1, 1)))
        with pytest.raises(DomainError):
            is_compatible(prof, interval(-1, 0))


class TestProjectives:
    def test_translation_projective(self):
        assert projective_at(translation_profile(1), 0, CLOSED) == interval(0, 1)

    def test_series_projective_open(self):
        prof = associated_kupisch(KupischSeries((3, 3, 2)))
        assert projective_at(prof, 0, OPEN) == Interval(F(0), F(1), OPEN, CLOSED)

    def test_staircase_projective(self):
        assert projective_at(findim_profile(), F(1, 2), OPEN) == Interval(
            F(1, 2), F(3, 2), OPEN, CLOSED
        )

    def test_is_projective(self):
        prof = translation_profile(1)
        assert is_projective(prof, interval(0, 1))
        assert not is_projective(prof, interval(0, 1, True, False))
        assert is_projective(findim_profile(), Interval(F(1, 2), F(3, 2), OPEN, CLOSED))


class TestHomDim:
    def test_line_example(self):
        assert hom_dim(LINE, interval(1, 3), interval(0, 2)) == 1

    def test_line_reverse_is_zero(self):
        assert hom_dim(LINE, interval(0, 2), interval(1, 3)) == 0

    def test_circle_wrapping_end(self):
        assert hom_dim(CIRCLE, interval(0, F(3, 2)), interval(0, F(3, 2))) == 2

    def test_line_oracle(self):
        rng = random.Random(10)
        for _ in range(200):
            s = rand_interval(rng)
            t = rand_interval(rng)
            assert hom_dim(LINE, s, t) == brute_hom_line(s, t), (s, t)

    def test_circle_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            s = rand_interval(rng, lo=0, hi=2, den=4)
            t = rand_interval(rng, lo=0, hi=2, den=4)
            den = 1
            for e in (s.lo, s.hi, t.lo, t.hi):
                den = den * e.denominator // math.gcd(den, e.denominator)
            assert hom_dim(CIRCLE, s, t) == brute_hom_circle(s, t, 2 * den), (s, t)


class TestEndDim:
    def test_line_modules_are_bricks(self):
        rng = random.Random(12)
        for _ in range(30):
            assert end_dim(LINE, rand_interval(rng)) == 1

    def test_circle_values(self):
        assert end_dim(CIRCLE, interval(0, F(3, 2))) == 2
        assert end_dim(CIRCLE, interval(0, F(5, 2))) == 3

    def test_floor_law_and_brick(self):
        rng = random.Random(13)
        for _ in range(100):
            s = F(rng.randrange(0, 32), 16)
            t = s + F(rng.randrange(0, 47), 16)
            u = interval(s, t)
            assert end_dim(CIRCLE, u) == math.floor(t - s) + 1
            assert is_brick(CIRCLE, u) == (end_dim(CIRCLE, u) == 1)


class TestBrick:
    def test_half_open_length_one(self):
        assert is_brick(CIRCLE, interval(0, 1, True, False))

    def test_closed_length_one(self):
        assert not is_brick(CIRCLE, interval(0, 1))

    def test_point(self):
        assert is_brick(CIRCLE, interval(F(1, 2), F(1, 2)))


class TestMorphismAnalyze:
    def test_golden_example(self):
        an = morphism_analyze(ScalarMorphism(source=interval(1, 3), target=interval(0, 2)))
        assert an.image == interval(1, 2)
        assert an.kernel == Interval(F(2), F(3), OPEN, CLOSED)
        assert an.cokernel == Interval(F(0), F(1), CLOSED, OPEN)

    def test_identity(self):
        u = interval(0, 1)
        an = morphism_analyze(ScalarMorphism(source=u, target=u))
        assert an.image == u and an.kernel is None and an.cokernel is None

    def test_circle_shift(self):
        an = morphism_analyze(
            ScalarMorphism(source=interval(0, F(1, 4)), target=interval(F(3, 4), 1), shift=-1)
        )
        assert an.image == interval(0, 0)
        assert an.kernel == Interval(F(0), F(1, 4), OPEN, CLOSED)
        assert an.cokernel == Interval(F(-1, 4), F(0), CLOSED, OPEN)

    def test_zero_morphism_rejected(self):
        with pytest.raises(InvalidMorphism):
            morphism_analyze(ScalarMorphism(source=interval(0, 2), target=interval(1, 3)))

    def test_zero_scalar_rejected(self):
        with pytest.raises(InvalidMorphism):
            ScalarMorphism(source=interval(0, 1), target=interval(0, 1), coefficient=0)

    def test_oracle_and_exactness(self):
        rng = random.Random(14)
        done = 0
        while done < 150:
            s = rand_interval(rng)
            t = rand_interval(rng)
            shift = rng.randrange(-1, 2)
            try:
                an = morphism_analyze(ScalarMorphism(source=s, target=t, shift=shift))
            except InvalidMorphism:
                continue
            done += 1
            assert brute_morphism_check(s, translate(t, shift), an) == []


class TestProjectiveCover:
    def test_point_module(self):
        cover, syz = projective_cover(translation_profile(1), interval(0, 0))
        assert cover == interval(0, 1)
        assert syz == Interval(F(0), F(1), OPEN, CLOSED)
        assert is_projective(translation_profile(1), syz)

    def test_staircase_cover(self):
        cover, syz = projective_cover(
            findim_profile(), Interval(F(1, 3), F(1, 2), OPEN, CLOSED)
        )
        assert cover == Interval(F(1, 3), F(3, 2), OPEN, CLOSED)
        assert syz == Interval(F(1, 2), F(3, 2), OPEN, CLOSED)

    def test_projective_has_no_syzygy(self):
        u = interval(0, 1)
        cover, syz = projective_cover(translation_profile(1), u)
        assert cover == u and syz is None

    def test_incompatible_rejected(self):
        with pytest.raises(IncompatibleModule):
            projective_cover(translation_profile(1), interval(0, 2))


class TestDomainErrors:
    """An interval leaving a line profile's domain: the predicates raise
    DomainError, the operations defined on compatible modules only raise
    IncompatibleModule."""

    @staticmethod
    def _cases():
        half = Dom(F(0), POS_INF, True)
        unit = Dom(F(0), F(1), True)
        open_half = Dom(F(0), POS_INF, False)
        return [
            (line_profile(half, PiecewiseMap.single(half, FracLinear.affine(1, 1))),
             interval(-1, 0)),
            (line_profile(unit, PiecewiseMap.single(unit, FracLinear.affine(F(1, 2), F(1, 2)))),
             interval(F(1, 2), 1)),
            (line_profile(open_half, PiecewiseMap.single(open_half, FracLinear.affine(1, 1))),
             interval(0, F(1, 2))),
        ]

    def test_predicates_raise_domain_error(self):
        for prof, u in self._cases():
            with pytest.raises(DomainError):
                is_compatible(prof, u)
            with pytest.raises(DomainError):
                is_projective(prof, u)

    def test_operations_raise_incompatible_module(self):
        for prof, u in self._cases():
            with pytest.raises(IncompatibleModule):
                projective_cover(prof, u)
            with pytest.raises(IncompatibleModule):
                component_of(prof, u)
            with pytest.raises(IncompatibleModule):
                projective_resolution(prof, u)

    def test_right_open_interval_is_not_projective_before_domain_check(self):
        prof, u = self._cases()[0]
        assert is_projective(prof, Interval(u.lo, u.hi, u.lo_kind, OPEN)) is False


class TestResolutions:
    def test_staircase_finite(self):
        prof = findim_profile()
        for k in (1, 2, 3):
            u = Interval(F(1, 2 * k + 1), F(1, 2 * k), OPEN, CLOSED)
            report = projective_resolution(prof, u, cap=64)
            assert report.verdict == Finite(2 * k - 1)
            assert len(report.covers) == 2 * k
            assert len(report.syzygies) == 2 * k - 1

    def test_point_on_half_length_circle(self):
        prof = constant_circle_profile(F(1, 2))
        report = projective_resolution(prof, interval(0, 0), cap=64)
        assert report.verdict == Finite(1)
        assert report.covers == (interval(0, F(1, 2)), Interval(F(0), F(1, 2), OPEN, CLOSED))

    def test_recurrence_detected(self):
        prof = constant_circle_profile(F(1, 2))
        report = projective_resolution(
            prof, Interval(F(0), F(1, 4), OPEN, CLOSED), cap=64
        )
        assert report.verdict == InfinitePeriodic(4)

    def test_line_never_recurs(self):
        # on the line the comparable resolution walks right forever
        dom = Dom(NEG_INF, POS_INF, False)
        prof = line_profile(dom, PiecewiseMap.single(dom, FracLinear.affine(1, F(1, 2))))
        report = projective_resolution(
            prof, Interval(F(0), F(1, 4), OPEN, CLOSED), cap=24
        )
        assert report.verdict == ExceededCap(24)

    def test_cap_respected(self):
        prof = constant_circle_profile(F(1, 2))
        report = projective_resolution(prof, Interval(F(0), F(1, 4), OPEN, CLOSED), cap=2)
        assert report.verdict == ExceededCap(2)


class TestMapModule:
    def test_identity(self):
        u = interval(0, 1)
        ident = PiecewiseMap.identity(Dom(NEG_INF, POS_INF, False))
        assert map_module(ident, u) == u

    def test_mobius_stretch(self):
        f = PiecewiseMap.single(Dom(F(0), F(1), True), FracLinear(1, 0, -1, 1))
        assert map_module(f, interval(0, F(1, 2))) == interval(0, 1)

    def test_affine_scaling_keeps_kinds(self):
        f = PiecewiseMap.single(Dom(NEG_INF, POS_INF, False), FracLinear.affine(2, 0))
        u = Interval(F(1, 4), F(1, 2), OPEN, CLOSED)
        assert map_module(f, u) == Interval(F(1, 2), F(1), OPEN, CLOSED)

    def test_open_end_at_asymptote(self):
        f = PiecewiseMap.single(Dom(F(0), F(1), True), FracLinear(1, 0, -1, 1))
        with pytest.raises(DomainError):
            map_module(f, Interval(F(0), F(1), CLOSED, OPEN))


class TestComponentOf:
    def test_two_piece_family(self):
        prof = kappa_n_profile(2)
        assert component_of(prof, interval(F(1, 8), F(1, 4))) == 0
        assert component_of(prof, interval(F(5, 8), F(3, 4))) == 1

    def test_connected_profile(self):
        assert component_of(translation_profile(1), interval(5, F(11, 2))) == 0

    def test_periodic_line_translates_are_distinct(self):
        prof = nu_profile()
        assert component_of(prof, interval(F(3, 2), F(7, 4))) == 1
        assert component_of(prof, interval(F(1, 2), F(3, 4))) == 0
        assert component_of(prof, interval(F(-3, 4), F(-5, 8))) == -1

    @staticmethod
    def _planted(prof, rng):
        """Compatible intervals with left ends on every component's left
        end (separation points and the domain's left end), their integer
        translates on periodic profiles, and random compatible intervals."""
        k = prof.successor
        lefts = [c.left for c in components(prof)] + [F(0)]
        shifts = (-3, -1, 0, 1, 2) if k.periodic else (0,)
        out = [rand_compatible_interval(rng, prof) for _ in range(6)]
        for left in lefts:
            for n in shifts:
                x = left + n
                if not (isinstance(x, F) and (k.periodic or k.dom.contains(x))):
                    continue
                half = x + (k.eval(x) - x) / 2
                out += [interval(x, half), Interval(x, half, OPEN, CLOSED), interval(x, x)]
        return out

    def test_matches_linear_scan(self):
        rng = random.Random(23)
        profiles = [nu_profile(), kappa_n_profile(3)]
        for _ in range(40):
            circ = rand_profile_circle(rng, max_pieces=5, sep_chance=0.6)
            profiles += [
                circ,
                KupischProfile(LINE, circ.successor),  # the periodic line
                rand_profile_half_line(rng, max_pieces=5, sep_chance=0.6),
            ]
        checked = 0
        for prof in profiles:
            for u in self._planted(prof, rng):
                assert component_of(prof, u) == brute_component_of(prof, u), (prof, u)
                checked += 1
        assert checked > 1000

    def test_periodic_line_translate_index(self):
        prof = nu_profile()
        for k in (-5, -2, -1, 1, 3, 7):
            assert component_of(prof, interval(k, k)) == k
            assert component_of(prof, interval(k + F(1, 3), k + F(1, 2))) == k
            assert component_of(prof, Interval(F(k), k + F(1, 4), OPEN, CLOSED)) == k


class TestTransportProperties:
    def test_hom_preserved_under_pushforward(self):
        rng = random.Random(15)
        checked = 0
        while checked < 500:
            if checked % 2 == 0:
                prof = rand_profile_half_line(rng)
                f = rand_homeo_half_line(rng)
                space = Line(prof.successor.dom)
                new_space = Line(invert(f).dom)
            else:
                prof = rand_profile_circle(rng)
                f = rand_homeo_circle(rng)
                space = CIRCLE
                new_space = CIRCLE
            u = rand_compatible_interval(rng, prof)
            v = rand_compatible_interval(rng, prof)
            before = hom_dim(space, u, v)
            after = hom_dim(new_space, map_module(f, u), map_module(f, v))
            assert before == after, (prof, f, u, v)
            checked += 1

    def test_resolution_verdicts_preserved(self):
        rng = random.Random(16)
        for i in range(40):
            if i % 2 == 0:
                prof = rand_profile_half_line(rng)
                f = rand_homeo_half_line(rng)
            else:
                prof = rand_profile_circle(rng)
                f = rand_homeo_circle(rng)
            pushed = push_forward(prof, f)
            u = rand_compatible_interval(rng, prof)
            r1 = projective_resolution(prof, u, cap=20)
            r2 = projective_resolution(pushed, map_module(f, u), cap=20)
            assert r1.verdict == r2.verdict, (prof, f, u)

    def test_orthogonality(self):
        rng = random.Random(17)
        checked = 0
        while checked < 200:
            prof = rand_profile_circle(rng, sep_chance=0.6) if checked % 2 else rand_profile_half_line(
                rng, sep_chance=0.6
            )
            space = CIRCLE if checked % 2 else Line(prof.successor.dom)
            from nakarep import components as comps_fn

            if len(comps_fn(prof)) < 2:
                continue
            u = rand_compatible_interval(rng, prof)
            v = rand_compatible_interval(rng, prof)
            if component_of(prof, u) == component_of(prof, v):
                continue
            assert hom_dim(space, u, v) == 0
            assert hom_dim(space, v, u) == 0
            checked += 1
