"""Acceptance suite: one test per release criterion, exact comparisons.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything here is pinned: no tolerances, no calibration.
"""

import functools
import math
import random
from fractions import Fraction as F

from nakarep import (
    CIRCLE,
    CLOSED,
    Dom,
    ExceededCap,
    Finite,
    FracLinear,
    InfinitePeriodic,
    Interval,
    Line,
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
    is_projective,
    line_profile,
    map_module,
    morphism_analyze,
    projective_resolution,
    push_forward,
    separation_points,
    validate_profile,
    verify_conjugacy,
)
from nakarep.discrete import (
    DiscreteModule,
    KupischSeries,
    algebra_dim_check,
    all_modules,
    associated_kupisch,
    discrete_hom_dim,
    embed_module,
)
from oracles import (
    constant_circle_profile,
    findim_profile,
    kappa_n_profile,
    rand_compatible_interval,
    rand_homeo_circle,
    rand_homeo_half_line,
    rand_profile_circle,
    rand_profile_half_line,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {title}: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} {title}: PASS")

        return wrapper

    return decorate


@criterion(1, "morphism golden test")
def test_criterion_1():
    analysis = morphism_analyze(
        ScalarMorphism(source=interval(1, 3), target=interval(0, 2))
    )
    assert analysis.image == Interval(F(1), F(2), CLOSED, CLOSED)
    assert analysis.kernel == Interval(F(2), F(3), OPEN, CLOSED)
    assert analysis.cokernel == Interval(F(0), F(1), CLOSED, OPEN)


@criterion(2, "associated profile golden test")
def test_criterion_2():
    prof = associated_kupisch(KupischSeries((3, 3, 2)))
    expected = PiecewiseMap.from_pieces(
        Dom(F(0), F(1), True),
        [
            (F(0), F(1, 3), FracLinear.const(F(1))),
            (F(1, 3), F(1), FracLinear.const(F(4, 3))),
        ],
        periodic=True,
    )
    assert prof.successor == expected
    assert validate_profile(prof) == []


@criterion(3, "push-forward reproduces the contracted family")
def test_criterion_3():
    half = Dom(F(0), POS_INF, True)
    base = line_profile(half, PiecewiseMap.single(half, FracLinear.affine(2, 1)))
    for n in (1, 2, 3):
        f = PiecewiseMap.single(half, FracLinear(1, 0, n, n))
        pushed = push_forward(base, f)
        # the k = 0 member of the family: K(t) = t/2 + (k+1)/(2n) on [k/n, (k+1)/n)
        expected = PiecewiseMap.single(
            Dom(F(0), F(1, n), True), FracLinear.affine(F(1, 2), F(1, 2 * n))
        )
        assert pushed.successor == expected
        # and the full circle family restricted to each piece matches symbolically
        family = kappa_n_profile(n)
        for k in range(n):
            piece = family.successor.pieces[k]
            assert piece.fn == FracLinear.affine(F(1, 2), F(k + 1, 2 * n))


@criterion(4, "separation points and component counts of the family")
def test_criterion_4():
    for n in (1, 2, 3):
        prof = kappa_n_profile(n)
        seps = separation_points(prof)
        assert seps.periodic
        assert seps.points == tuple(F(k, n) for k in range(n))
        assert len(components(prof)) == n


@criterion(5, "projective dimensions on the truncated staircase")
def test_criterion_5():
    prof = findim_profile(deepest=12)
    assert validate_profile(prof) == []
    for k in (1, 2, 3):
        u = Interval(F(1, 2 * k + 1), F(1, 2 * k), OPEN, CLOSED)
        report = projective_resolution(prof, u, cap=64)
        assert report.verdict == Finite(2 * k - 1), (k, report.verdict)


@criterion(6, "endomorphism dimension law on the circle")
def test_criterion_6():
    prof = constant_circle_profile(3)
    assert validate_profile(prof) == []
    rng = random.Random(106)
    for _ in range(100):
        s = F(rng.randrange(-640, 640), 32)
        t = s + F(rng.randrange(1, 96), 32)
        assert t - s < 3
        u = interval(s, t)
        assert hom_dim(CIRCLE, u, u) == math.floor(t - s) + 1
        assert end_dim(CIRCLE, u) == math.floor(t - s) + 1
        assert is_brick(CIRCLE, u) == (end_dim(CIRCLE, u) == 1)


@criterion(7, "embedding faithfulness over random series")
def test_criterion_7():
    rng = random.Random(107)
    seen = set()
    trials = 0
    while trials < 50:
        n = rng.randrange(1, 6)
        lengths = tuple(rng.randrange(1, 6) for _ in range(n))
        series = KupischSeries(lengths)
        from nakarep.discrete import validate_series

        if validate_series(series):
            continue
        trials += 1
        seen.add(lengths)
        prof = associated_kupisch(series)
        mods = all_modules(series)
        embedded = {m: embed_module(series, m) for m in mods}
        for m1 in mods:
            for m2 in mods:
                assert discrete_hom_dim(series, m1, m2) == hom_dim(
                    CIRCLE, embedded[m1], embedded[m2]
                ), (series, m1, m2)
        for i, l in enumerate(series.lengths):
            assert is_projective(prof, embedded[DiscreteModule(i, l)])
        assert algebra_dim_check(series) == sum(series.lengths)
    assert len(seen) > 10  # genuinely distinct series were exercised


@criterion(8, "transport along homeomorphisms")
def test_criterion_8():
    rng = random.Random(108)
    for case in range(50):
        on_circle = case % 2 == 1
        if on_circle:
            prof = rand_profile_circle(rng)
            f = rand_homeo_circle(rng)
            space = CIRCLE
            new_space = CIRCLE
        else:
            prof = rand_profile_half_line(rng)
            f = rand_homeo_half_line(rng)
            space = Line(prof.successor.dom)
            new_space = Line(invert(f).dom)
        pushed = push_forward(prof, f)
        # (a) separation points transport equivariantly
        before = separation_points(prof)
        after = separation_points(pushed)
        if on_circle:
            moved = sorted(
                canonical_lift(interval(f.eval(c), f.eval(c))).lo for c in before.points
            )
            assert tuple(moved) == after.points
        else:
            assert tuple(f.eval(c) for c in before.points) == after.points
        # (b) Hom dimensions are preserved under the object map
        for _ in range(6):
            u = rand_compatible_interval(rng, prof)
            v = rand_compatible_interval(rng, prof)
            assert hom_dim(space, u, v) == hom_dim(
                new_space, map_module(f, u), map_module(f, v)
            )
        # (c) resolution verdicts are preserved
        u = rand_compatible_interval(rng, prof)
        r1 = projective_resolution(prof, u, cap=24)
        r2 = projective_resolution(pushed, map_module(f, u), cap=24)
        assert r1.verdict == r2.verdict
        # (d) conjugacy verification round-trips
        assert verify_conjugacy(f, prof, pushed)
        assert verify_conjugacy(invert(f), pushed, prof)


@criterion(9, "orthogonality across components")
def test_criterion_9():
    rng = random.Random(109)
    checked = 0
    while checked < 200:
        if checked % 2 == 0:
            prof = rand_profile_half_line(rng, sep_chance=0.7)
            space = Line(prof.successor.dom)
        else:
            prof = rand_profile_circle(rng, sep_chance=0.7)
            space = CIRCLE
        if len(components(prof)) < 2:
            continue
        u = rand_compatible_interval(rng, prof)
        v = rand_compatible_interval(rng, prof)
        if component_of(prof, u) == component_of(prof, v):
            continue
        assert hom_dim(space, u, v) == 0
        assert hom_dim(space, v, u) == 0
        checked += 1


@criterion(10, "finite and provably infinite projective dimension")
def test_criterion_10():
    prof = constant_circle_profile(F(1, 2))
    point = projective_resolution(prof, interval(0, 0), cap=64)
    assert point.verdict == Finite(1)
    tail = projective_resolution(prof, Interval(F(0), F(1, 4), OPEN, CLOSED), cap=64)
    assert isinstance(tail.verdict, InfinitePeriodic)
    assert tail.verdict.period == 4
    for cap in (8, 16, 32, 63):
        r1 = projective_resolution(prof, interval(0, 0), cap=cap)
        r2 = projective_resolution(prof, Interval(F(0), F(1, 4), OPEN, CLOSED), cap=cap)
        assert not isinstance(r1.verdict, ExceededCap)
        assert not isinstance(r2.verdict, ExceededCap)
