"""The characteristic-polynomial root finder against sympy as an oracle.

``leonard._field_roots`` returns every root (with multiplicity) of a
polynomial over Q or Q(sqrt D) when rational roots bring it down to degree
<= 2 and what is left splits in the field, and None otherwise.  Sympy
factors the same polynomial over the same field; the two must agree.
Sympy is a test dependency only.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from dahalink.exactfield import QQ, FieldContext
from dahalink.leonard import _field_roots

sp = pytest.importorskip("sympy")
X = sp.Symbol("x")
Q_SQRT2 = FieldContext(2)


def _times(p, r):
    """Coefficients (ascending) of p(x) * r(x)."""
    out = [p[0].ctx.zero()] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] = out[i + j] + a * b
    return out


def _build(ctx, lead, roots, factors):
    """lead * prod (x - r) * prod factors; factors are ascending coefficient lists."""
    poly = [ctx.lift(lead)]
    for r in roots:
        poly = _times(poly, [-ctx.lift(r), ctx.one()])
    for f in factors:
        poly = _times(poly, [ctx.lift(c) for c in f])
    return poly


def _to_sympy(x):
    rat = sp.Rational(x.rat.numerator, x.rat.denominator)
    return rat + sp.Rational(x.irr.numerator, x.irr.denominator) * sp.sqrt(x.ctx.disc)


def _pair(expr, disc):
    """(rational part, coefficient of sqrt(disc)) of a sympy number."""
    expr = sp.expand(expr)
    irr = expr.coeff(sp.sqrt(disc)) if disc != 1 else sp.Integer(0)
    rat = sp.expand(expr - irr * sp.sqrt(disc))
    return Fraction(int(rat.p), int(rat.q)), Fraction(int(irr.p), int(irr.q))


def _oracle(coeffs):
    """The answer ``_field_roots`` must give, as a Counter of (rat, irr)
    pairs, from sympy's roots of the polynomial in its own field."""
    disc = coeffs[-1].ctx.disc
    expr = sum(_to_sympy(c) * X ** i for i, c in enumerate(coeffs))
    kw = {"extension": sp.sqrt(disc)} if disc != 1 else {"domain": "QQ"}
    poly = sp.Poly(expr, X, **kw)
    found = Counter({_pair(r, disc): m for r, m in poly.ground_roots().items()})
    rational = sum(m for (_, irr), m in found.items() if irr == 0)
    if poly.degree() - rational > 2 or sum(found.values()) != poly.degree():
        return None
    return found


def _answer(coeffs):
    roots = _field_roots(coeffs)
    return None if roots is None else Counter((r.rat, r.irr) for r in roots)


# factors with no rational root: x^2 + 1, x^2 - 2, x^3 - 3x + 1
NO_RATIONAL_ROOT = ([1, 0, 1], [-2, 0, 1], [1, -3, 0, 1])


def _random_root(rng):
    num = rng.randint(-10 ** rng.choice((1, 3, 6, 12)), 10 ** rng.choice((1, 3, 6, 12)))
    return Fraction(num, rng.randint(1, 10 ** rng.choice((0, 2, 8))))


def _random_case(rng, ctx, irrational):
    roots = [_random_root(rng) for _ in range(rng.randrange(5))]
    if roots and rng.random() < 0.4:
        roots.append(rng.choice(roots))                  # a repeated root
    roots += [Fraction(0)] * rng.choice((0, 0, 1, 2))    # zero roots
    factors = [rng.choice(NO_RATIONAL_ROOT)] if rng.random() < 0.8 else []
    if irrational:
        # x - (u + v sqrt 2): coefficients leave Q, the root stays in the field
        u, v = _random_root(rng), Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 5)))
        factors.append([-ctx.element(u, v), 1])
    lead = rng.choice((1, 38, Fraction(-3, 7)))
    return _build(ctx, lead, roots, factors)


@pytest.mark.parametrize("seed", range(8))
def test_field_roots_match_sympy_over_q(seed):
    rng = random.Random(seed)
    for _ in range(6):
        coeffs = _random_case(rng, QQ, irrational=False)
        assert _answer(coeffs) == _oracle(coeffs), [str(c.rat) for c in coeffs]


@pytest.mark.parametrize("seed", range(4))
def test_field_roots_match_sympy_over_q_sqrt2(seed):
    rng = random.Random(100 + seed)
    for _ in range(4):
        coeffs = _random_case(rng, Q_SQRT2, irrational=rng.random() < 0.7)
        assert _answer(coeffs) == _oracle(coeffs), [c.to_json() for c in coeffs]


@pytest.mark.parametrize("ctx", [QQ, Q_SQRT2], ids=["Q", "Q(sqrt 2)"])
def test_field_roots_chosen_cases(ctx):
    cases = [
        # large numerators and denominators, each root once
        (1, [Fraction(10 ** 12 - 11, 10 ** 8 - 7), Fraction(-(10 ** 12) + 39, 3)], [[1, 0, 1]]),
        # a triple root and a double zero root
        (5, [Fraction(7, 3)] * 3 + [Fraction(0)] * 2, [[-2, 0, 1]]),
        # nothing rational: degree 3 is left, so no answer
        (1, [], [[1, -3, 0, 1]]),
        # two quadratics that do not split in Q: degree 4 is left
        (1, [Fraction(1, 2)], [[1, 0, 1], [-2, 0, 1]]),
        # only rational roots, degree 7
        (Fraction(2, 9), [Fraction(2 * i + 1, 3) for i in range(-3, 4)], []),
    ]
    for lead, roots, factors in cases:
        coeffs = _build(ctx, lead, roots, factors)
        assert _answer(coeffs) == _oracle(coeffs), (lead, roots, factors)


def test_ten_digit_roots_over_q_sqrt2_in_under_a_second():
    # 38 (x - 2720268312/289)^2 (x - 37202841) (x + 1/1695) (x - 1931099/671484) (x^2 - 2):
    # the leading and constant coefficients have thousands of divisors, which
    # the search must not enumerate
    rational = [Fraction(2720268312, 289)] * 2 + [Fraction(37202841), Fraction(-1, 1695),
                                                  Fraction(1931099, 671484)]
    coeffs = _build(Q_SQRT2, 38, rational, [[-2, 0, 1]])
    started = time.perf_counter()
    roots = _field_roots(coeffs)
    elapsed = time.perf_counter() - started
    expected = Counter((r, Fraction(0)) for r in rational)
    expected.update({(Fraction(0), Fraction(1)): 1, (Fraction(0), Fraction(-1)): 1})
    assert roots is not None and len(roots) == 7
    assert Counter((r.rat, r.irr) for r in roots) == expected == _oracle(coeffs)
    assert elapsed < 1.0, elapsed
