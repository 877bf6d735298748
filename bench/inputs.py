"""Seeded input generators, written in the text form the nakarep CLI reads.

Everything here is plain ``fractions.Fraction`` arithmetic; nothing imports
nakarep, so generating inputs costs the library nothing and the text is
what set-up must parse.  Each generator also returns the facts it planted
(separation points, component counts), which the checks use as an
independent route to the answer.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from typing import List, Sequence, Tuple

BENDS = (F(1, 2), F(2, 3), F(3, 2), F(2))


def fmt(q: F) -> str:
    return f"{q.numerator}/{q.denominator}"


def piece_line(x0: F, x1, y0: F, y1, bend: F) -> str:
    """The piece on [x0, x1) mapping x0 -> y0 and x1 -> y1.

    bend == 1 gives the affine map; any other positive bend gives the
    increasing Moebius map through the same ends, whose pole lies outside
    the closed piece.  ``x1 = None`` marks an infinite last piece, which is
    affine with slope one from y0.
    """
    if x1 is None:
        return f"piece [{fmt(x0)}, +inf) affine 1/1 {fmt(y0 - x0)}"
    length, rise = x1 - x0, y1 - y0
    if bend == 1:
        slope = rise / length
        return f"piece [{fmt(x0)}, {fmt(x1)}) affine {fmt(slope)} {fmt(y0 - slope * x0)}"
    lam = bend
    a = y0 * (1 - lam) + rise
    d = lam * length - (1 - lam) * x0
    b = y0 * d - rise * x0
    c = 1 - lam
    return f"piece [{fmt(x0)}, {fmt(x1)}) mobius {fmt(a)} {fmt(b)} {fmt(c)} {fmt(d)}"


def _breakpoints(rng: random.Random, n: int) -> List[F]:
    """0 = u_0 < ... < u_n = 1, each u_i within 1/(4n) of i/n."""
    return [F(0)] + [F(4 * i + rng.choice((-1, 0, 1)), 4 * n) for i in range(1, n)] + [F(1)]


def _segment(values: dict, at, start: int, stop: int) -> None:
    """Pieces start .. stop-1 end at the separation point at(stop): each
    maps onto the span from the midpoint of the next piece, and the last one
    is affine and reaches at(stop) from the left."""
    last, c = stop - 1, at(stop)
    values[last] = (at(last) + 3 * (c - at(last)) / 4, c, True)
    for k in range(last - 1, start - 1, -1):
        values[k] = ((at(k + 1) + at(k + 2)) / 2, values[k + 1][0], False)


def circle_profile(rng: random.Random, n: int, mobius: bool, seps: int) -> Tuple[str, dict]:
    """A circle profile with n pieces and exactly ``seps`` separation points.

    Between consecutive separation points K maps each piece onto the span
    from the midpoint of the next piece on, so kappa > 0; the last piece
    before a separation point c is affine and reaches c from the left, and K
    jumps up at c.  Without separation points the same rule runs round the
    circle and K is continuous.
    """
    u = _breakpoints(rng, n)

    def at(k):  # the periodic extension of the breakpoints
        q, r = divmod(k, n)
        return u[r] + q

    cuts = sorted(rng.sample(range(1, n), seps))
    values = {}  # k -> (K(at(k)), left limit of K at at(k + 1), forced affine)
    if cuts:
        ends = cuts + [cuts[0] + n]
        for start, stop in zip(ends, ends[1:]):
            _segment(values, at, start, stop)
    else:
        for k in range(n):
            values[k] = ((at(k + 1) + at(k + 2)) / 2, (at(k + 2) + at(k + 3)) / 2, False)
    pieces = []
    for k, (y0, y1, affine) in values.items():
        q = k // n
        bend = F(1) if (affine or not mobius) else rng.choice(BENDS)
        pieces.append((at(k) - q, at(k + 1) - q, y0 - q, y1 - q, bend))
    lines = ["space circle"] + [piece_line(*p) for p in sorted(pieces)]
    return "\n".join(lines) + "\n", {
        "seps": [u[c] for c in cuts],
        "components": 1 if seps <= 1 else seps,
    }


def line_profile(rng: random.Random, n: int, mobius: bool, seps: int) -> Tuple[str, dict]:
    """A profile on [0, +inf) with n pieces, the last one infinite, and
    exactly ``seps`` separation points, built by the circle rule; past the
    last one K(t) = t + 3/(4n)."""
    u = _breakpoints(rng, n - 1)  # u_0 .. u_{n-1} = 1; the last piece is [1, +inf)
    w = F(1, n)

    def at(k):  # breakpoints, continued past the infinite piece at spacing w
        return u[k] if k < n else u[-1] + (k - n + 1) * w

    cuts = sorted(rng.sample(range(1, n - 1), seps))
    values = {n - 1: (u[-1] + 3 * w / 4, None, True)}
    for start, stop in zip([0] + cuts, cuts):
        _segment(values, at, start, stop)
    for k in range(n - 2, cuts[-1] - 1 if cuts else -1, -1):
        values[k] = ((at(k + 1) + at(k + 2)) / 2, values[k + 1][0], False)
    lines = ["space line [0/1, +inf)"]
    for k in range(n - 1):
        y0, y1, affine = values[k]
        bend = F(1) if (affine or not mobius) else rng.choice(BENDS)
        lines.append(piece_line(u[k], u[k + 1], y0, y1, bend))
    lines.append(piece_line(u[-1], None, values[n - 1][0], None, F(1)))
    return "\n".join(lines) + "\n", {
        "seps": [u[c] for c in cuts],
        "components": seps + 1,
    }


def circle_homeo(rng: random.Random, m: int, mobius: bool) -> str:
    """A degree-one circle lift with m pieces, continuous and increasing."""
    x = _breakpoints(rng, m)
    weights = [rng.randrange(1, 4) for _ in range(m)]
    total = sum(weights)
    y = [F(rng.randrange(-4, 5), 8)]
    for wgt in weights:
        y.append(y[-1] + F(wgt, total))
    lines = ["homeo circle"]
    for i in range(m):
        bend = rng.choice(BENDS) if mobius else F(1)
        lines.append(piece_line(x[i], x[i + 1], y[i], y[i + 1], bend))
    return "\n".join(lines) + "\n"


def line_homeo(rng: random.Random, m: int, mobius: bool) -> str:
    """An increasing bijection [0, +inf) -> [y0, +inf) with m pieces."""
    x = _breakpoints(rng, m - 1)[:m]
    y = [F(rng.randrange(0, 5), 8)]
    for i in range(m - 1):
        y.append(y[-1] + (x[i + 1] - x[i]) * F(rng.randrange(1, 9), 4))
    lines = ["homeo [0/1, +inf) -> [0/1, +inf)"]
    for i in range(m - 1):
        bend = rng.choice(BENDS) if mobius else F(1)
        lines.append(piece_line(x[i], x[i + 1], y[i], y[i + 1], bend))
    lines.append(piece_line(x[m - 1], None, y[m - 1], None, F(1)))
    return "\n".join(lines) + "\n"


def series_profile(lengths: Sequence[int]) -> str:
    """The circle profile of a length series: constant (i + l_i)/n on
    [i/n, (i+1)/n)."""
    n = len(lengths)
    lines = ["space circle"]
    for i, l in enumerate(lengths):
        lines.append(f"piece [{fmt(F(i, n))}, {fmt(F(i + 1, n))}) affine 0/1 {fmt(F(i + l, n))}")
    return "\n".join(lines) + "\n"


def staircase_profile(deepest: int) -> str:
    """The truncated staircase: successor 1/(k-1) + 1 on [1/(k+1), 1/k) for
    k = deepest .. 4, with constant filler; the module (1/(2j+1), 1/(2j)]
    has projective dimension 2j - 1."""
    lines = ["space circle", f"piece [0/1, {fmt(F(1, deepest + 1))}) affine 0/1 1/2"]
    for k in range(deepest, 3, -1):
        lines.append(f"piece [{fmt(F(1, k + 1))}, {fmt(F(1, k))}) affine 0/1 {fmt(F(1, k - 1) + 1)}")
    lines.append("piece [1/4, 1/1) affine 0/1 3/2")
    return "\n".join(lines) + "\n"


def random_series(rng: random.Random, n: int, top: int = 5) -> List[int]:
    """An admissible series: lengths >= 1 dropping by at most one per step,
    cyclically."""
    while True:
        lengths = [rng.randrange(1, top + 1)]
        for _ in range(n - 1):
            lengths.append(max(1, lengths[-1] + rng.choice((-1, 0, 1))))
        if lengths[0] >= lengths[-1] - 1:
            return lengths
