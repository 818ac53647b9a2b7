"""Deliberately naive recomputations used in tests and in --verify mode.

Each oracle is implemented independently of the engine path it checks;
only the data types and big-integer arithmetic are shared.  Render draws
index_lattice_points, so nothing here may import monogenity.ore.
"""

from __future__ import annotations

import itertools
import math

from . import zpoly
from .errors import ValidationError
from .polygon import NewtonPolygon, Side, ValuedPoint


def brute_hull(points) -> NewtonPolygon:
    """Lower envelope by gift wrapping: from each vertex, walk to the point
    of minimal slope (farthest on ties)."""
    best: dict[int, int] = {}
    for i, v in points:
        if i not in best or v < best[i]:
            best[i] = v
    pts = [ValuedPoint(i, v) for i, v in sorted(best.items())]
    if not pts:
        raise ValidationError("hull of an empty point set")
    vertices = [pts[0]]
    while vertices[-1] != pts[-1]:
        cur = vertices[-1]
        chosen = None
        for cand in pts:
            if cand.i <= cur.i:
                continue
            if chosen is None:
                chosen = cand
                continue
            # slope(cur, cand) vs slope(cur, chosen), exact cross product
            lhs = (cand.v - cur.v) * (chosen.i - cur.i)
            rhs = (chosen.v - cur.v) * (cand.i - cur.i)
            if lhs < rhs or (lhs == rhs and cand.i > chosen.i):
                chosen = cand
        vertices.append(chosen)
    sides = tuple(Side(a, b) for a, b in zip(vertices, vertices[1:]))
    return NewtonPolygon(sides)


def index_lattice_points(principal: NewtonPolygon) -> list[tuple[int, int]]:
    """The lattice points that phi_index counts (with deg_phi = 1) and render
    draws: x, y >= 1 on or under the polygon, column by column."""
    out = []
    if principal.is_empty:
        return out
    first = principal.sides[0].start.i
    for side in principal.sides:
        lo = side.start.i if side.start.i == first else side.start.i + 1
        for x in range(max(1, lo), side.end.i + 1):
            # y <= v0 - (x - x0) h/e without fractions
            top = (side.start.v * side.e - (x - side.start.i) * side.h) // side.e
            for y in range(1, top + 1):
                out.append((x, y))
    return out


def brute_phi_index(polygon: NewtonPolygon) -> int:
    """The number of index_lattice_points, one by one."""
    return len(index_lattice_points(polygon))


def brute_binomial_valuation(p: int, n: int, k: int) -> int:
    """Compute C(n, k) exactly, then strip factors of p by repeated division."""
    return _valuation(p, math.comb(n, k))


def factorial_valuation_table(p: int, n: int) -> list[int]:
    """table[j] = v_p(j!) for j = 0..n, by prefix sums of v_p(t)."""
    table = [0] * (n + 1)
    for t in range(1, n + 1):
        tt = t
        v = 0
        while tt % p == 0:
            tt //= p
            v += 1
        table[t] = table[t - 1] + v
    return table


def pure_valued_points(n: int, m: int, t: int, phi) -> list[tuple[int, int]]:
    """The valued points (i, v_t(a_i)) of x**n - m expanded at phi = x - c,
    from its exact coefficients: a_0 = c**n - m, and for 0 < i <= n
    a_i = binomial(n, i) * c**(n - i), whose valuation is
    T[n] - T[i] - T[n - i] + (n - i) * v_t(c) with T from
    factorial_valuation_table.  At c = 0 (phi = x) only a_0 = -m and
    a_n = 1 are nonzero."""
    if len(phi) != 2 or phi[1] != 1:
        raise ValidationError(f"the point oracle takes a base x - c, got {phi}")
    c = -phi[0]
    points = [(0, _valuation(t, c**n - m))]
    if c:
        table = factorial_valuation_table(t, n)
        vc = _valuation(t, c)
        points += [(i, table[n] - table[i] - table[n - i] + (n - i) * vc) for i in range(1, n)]
    points.append((n, 0))
    return points


def _valuation(q: int, value: int) -> int:
    """v_q(value) for a nonzero value, by repeated division."""
    if value == 0:
        raise ValidationError("the valuation of 0 is infinite")
    count = 0
    while value % q == 0:
        value //= q
        count += 1
    return count


def _content(f) -> int:
    return math.gcd(*f) if len(f) > 1 else abs(f[0])


def _prem(a, b):
    """Pseudo-remainder: lc(b)**(deg a - deg b + 1) * a mod b over Z."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        c = a[shift + db]
        for j in range(len(a)):
            a[j] *= lead
        for j, cb in enumerate(b):
            a[shift + j] -= c * cb
    return zpoly.poly(a[:db])


def resultant(f, g) -> int:
    """Resultant over Z by the subresultant polynomial remainder sequence."""
    a = zpoly.poly(f)
    b = zpoly.poly(g)
    if not a or not b:
        return 0
    sign = 1
    if zpoly.degree(a) < zpoly.degree(b):
        if zpoly.degree(a) % 2 and zpoly.degree(b) % 2:
            sign = -sign
        a, b = b, a
    if zpoly.degree(b) == 0:
        return sign * b[0] ** zpoly.degree(a)
    ca, cb = _content(a), _content(b)
    a = tuple(c // ca for c in a)
    b = tuple(c // cb for c in b)
    scale = ca ** zpoly.degree(b) * cb ** zpoly.degree(a) * sign
    g_val, h_val = 1, 1
    while True:
        da, db = zpoly.degree(a), zpoly.degree(b)
        delta = da - db
        if da % 2 and db % 2:
            scale = -scale
        rem = _prem(a, b)
        a = b
        divisor = g_val * h_val**delta
        b = tuple(c // divisor for c in rem)
        if not b:
            return 0
        g_val = a[-1]
        if delta == 1:
            h_val = g_val
        elif delta >= 2:
            h_val = g_val**delta // h_val ** (delta - 1)
        if zpoly.degree(b) == 0:
            da = zpoly.degree(a)
            return scale * (b[0] ** da // h_val ** (da - 1))


def resultant_discriminant_valuation(f, q: int) -> int:
    """v_q(Res(f, f')) by the subresultant PRS; guarded to degree 64."""
    f = zpoly.poly(f)
    if zpoly.degree(f) > 64:
        raise ValidationError("resultant oracle is guarded to degree <= 64")
    value = resultant(f, zpoly.derivative(f))
    if value == 0:
        raise ValidationError("polynomial is not squarefree; discriminant is 0")
    return _valuation(q, value)


def _poly_mod_small(a, b, p):
    # local F_p remainder, kept independent of residue's ff_* arithmetic
    a = [c % p for c in a]
    b = [c % p for c in b]
    while b and b[-1] == 0:
        b.pop()
    inv = pow(b[-1], -1, p)
    for shift in range(len(a) - len(b), -1, -1):
        c = a[shift + len(b) - 1] * inv % p
        if c:
            for j, cb in enumerate(b):
                a[shift + j] = (a[shift + j] - c * cb) % p
    out = a[: len(b) - 1]
    while out and out[-1] == 0:
        out.pop()
    return out


def is_irreducible_by_trial_division(g, p: int) -> bool:
    """Whether g, reduced over F_p with a nonzero top coefficient, is
    irreducible: no monic polynomial of degree 1..deg(g)//2 divides it."""
    n = len(g) - 1
    return n >= 1 and all(
        _poly_mod_small(g, tail + (1,), p)
        for d in range(1, n // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    )


def enumerate_monic_irreducibles(p: int, f: int) -> int:
    """Count monic irreducible degree-f polynomials over F_p exhaustively,
    by trial division.  Guarded to p**f <= 2**20.
    """
    if p**f > 2**20:
        raise ValidationError("exhaustive enumeration is guarded to p**f <= 2**20")
    return sum(
        is_irreducible_by_trial_division(tail + (1,), p)
        for tail in itertools.product(range(p), repeat=f)
    )
