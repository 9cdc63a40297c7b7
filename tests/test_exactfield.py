import json
import operator
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from dahalink.exactfield import (
    QQ,
    ContextMismatchError,
    ExtensionRequiredError,
    FieldContext,
    FieldElement,
    SquareFreeBoundError,
    int_pow,
    is_valid_q,
    sqrt_element,
    sqrt_in_field,
    sqrt_or_extend,
    square_free_decomposition,
)
import dahalink.exactfield as exactfield


def rnd_element(rng, ctx):
    num = lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    if ctx.disc == 1:
        return ctx.element(num())
    return ctx.element(num(), num())


def test_context_requires_square_free_disc():
    FieldContext(5)
    FieldContext(-1)
    FieldContext(-3)
    with pytest.raises(ValueError):
        FieldContext(0)
    with pytest.raises(ValueError):
        FieldContext(4)
    with pytest.raises(ValueError):
        FieldContext(12)


def test_contexts_compare_by_value():
    assert FieldContext(5) == FieldContext(5)
    assert FieldContext(5) != FieldContext(7)
    a = FieldContext(5).element(1, 2)
    b = FieldContext(5).element(1, 2)
    assert a == b and hash(a) == hash(b)
    assert a * b == FieldContext(5).element(21, 4)


def test_plain_q_rejects_irrational_part():
    with pytest.raises(ValueError):
        QQ.element(1, 2)


def test_field_axioms_randomized():
    # associativity, commutativity, distributivity, identities, inverses
    rng = random.Random(20260815)
    for ctx in (QQ, FieldContext(5), FieldContext(-7)):
        zero, one = ctx.zero(), ctx.one()
        for _ in range(80):
            x, y, z = (rnd_element(rng, ctx) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x + y == y + x
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x + zero == x and x * one == x
            assert x - x == zero
            if x != zero:
                assert x * x.inv() == one
                assert (x / x) == one


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.rational(3) / QQ.zero()
    with pytest.raises(ZeroDivisionError):
        FieldContext(5).zero().inv()


@pytest.mark.parametrize("disc", [-1, 2, 3, 5, 210])
def test_graded_arithmetic_matches_fraction_formulas(disc):
    # Each part is zero on its own, so rational, pure irrational, mixed and
    # zero operands all meet; the expected values are the general formulas.
    rng = random.Random(disc)
    ctx = FieldContext(disc)

    def part():
        return Fraction(0) if rng.random() < 0.4 else Fraction(rng.randint(-40, 40),
                                                               rng.randint(1, 15))

    shapes = set()
    for _ in range(300):
        ar, ai, br, bi = part(), part(), part(), part()
        x, y = ctx.element(ar, ai), ctx.element(br, bi)
        shapes.add((ar != 0, ai != 0))
        parts = lambda e: (e.rat, e.irr)
        assert parts(x + y) == (ar + br, ai + bi)
        assert parts(x - y) == (ar - br, ai - bi)
        assert parts(-x) == (-ar, -ai)
        assert parts(x * y) == (ar * br + disc * ai * bi, ar * bi + ai * br)
        assert bool(x) == (ar != 0 or ai != 0)
        assert (x == y) == ((ar, ai) == (br, bi))
        assert x == ctx.element(ar, ai) and x != ctx.element(ar + 1, ai)
        n = br * br - disc * bi * bi
        assert y.norm() == n
        if n == 0:
            with pytest.raises(ZeroDivisionError):
                y.inv()
            with pytest.raises(ZeroDivisionError):
                x / y
            continue
        assert parts(y.inv()) == (br / n, -bi / n)
        assert parts(x / y) == ((ar * br - disc * ai * bi) / n, (ai * br - ar * bi) / n)
    assert len(shapes) == 4


def test_graded_products_and_rational_inverses_cost_one_fraction_operation(monkeypatch):
    counts = Counter()
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counting(self, other, _op=getattr(Fraction, name), _name=name):
            counts[_name] += 1
            return _op(self, other)
        monkeypatch.setattr(Fraction, name, counting)
    ctx = FieldContext(5)
    x, y = ctx.element(Fraction(3, 7)), ctx.element(0, Fraction(-5, 11))
    z = QQ.from_fraction(Fraction(-7, 12))
    counts.clear()
    prod = x * y
    assert counts["__mul__"] + counts["__rmul__"] == 1
    assert counts["__truediv__"] + counts["__rtruediv__"] == 0
    counts.clear()
    inv = z.inv()
    assert counts["__mul__"] + counts["__rmul__"] == 0
    assert counts["__truediv__"] + counts["__rtruediv__"] == 1
    assert (prod.rat, prod.irr) == (0, Fraction(-15, 77))
    assert inv == Fraction(-12, 7)


def test_inverse_uses_conjugate_norm():
    ctx = FieldContext(5)
    x = ctx.element(Fraction(1, 2), Fraction(3, 4))
    assert x * x.conjugate() == ctx.element(x.norm())
    assert x.inv() == x.conjugate() / ctx.element(x.norm())


def test_mixed_coercion_with_ints_and_fractions():
    ctx = FieldContext(2)
    x = ctx.element(3, 1)
    assert x + 1 == ctx.element(4, 1)
    assert 1 + x == ctx.element(4, 1)
    assert x * Fraction(1, 3) == ctx.element(1, Fraction(1, 3))
    assert 2 - x == ctx.element(-1, -1)
    assert (x - x) == 0
    assert ctx.rational(7) == 7 and ctx.rational(7) == Fraction(7)
    # a non-number is not coerced, not even a float with an exact value
    for other in (0.5, "1", None):
        assert x.__add__(other) is NotImplemented
        assert x.__rtruediv__(other) is NotImplemented
    with pytest.raises(TypeError):
        x * 0.5


def test_cross_context_rationals_combine():
    # a rational living in Q(sqrt 5) may combine with one in Q(sqrt 7)
    a = FieldContext(5).rational(2)
    b = FieldContext(7).rational(3)
    assert a + b == 5
    assert a * FieldContext(7).element(0, 1) == FieldContext(7).element(0, 2)
    assert a == QQ.rational(2)
    assert hash(a) == hash(QQ.rational(2))


def test_hash_agrees_with_equality_across_numbers_and_fields():
    r2, r3 = FieldContext(2), FieldContext(3)
    threes = [3, Fraction(3), QQ.rational(3), r2.rational(3), r3.element(3, 0)]
    assert len(set(threes)) == 1
    assert all(x in {QQ.rational(3)} and QQ.rational(3) in {x} for x in threes)
    table = {Fraction(1, 2): "half", r2.element(1, 1): "1 + sqrt 2"}
    assert table[QQ.rational(1, 2)] == table[r3.rational(1, 2)] == "half"
    assert table[FieldContext(2).element(1, 1)] == "1 + sqrt 2"
    assert r3.element(1, 1) not in table and 1 not in table
    # equal parts over two extensions are two different numbers
    assert r2.element(1, 1) != r3.element(1, 1) and r2.element(0, 1) != r3.element(0, 1)
    assert len({r2.element(0, 1), r3.element(0, 1), r2.element(0, 1)}) == 2
    # a pure irrational element is nonzero
    assert r2.element(0, 1) and r2.element(0, -1) and not r2.zero()


def test_cross_context_irrationals_refuse():
    a = FieldContext(5).element(0, 1)
    b = FieldContext(7).element(0, 1)
    with pytest.raises(ContextMismatchError):
        a + b
    x, y = FieldContext(2).element(1, 1), FieldContext(3).element(1, 1)
    for op in (operator.add, operator.mul):
        with pytest.raises(ContextMismatchError):
            op(x, y)
        with pytest.raises(ContextMismatchError):
            op(y, x)


def test_lift_moves_rationals_and_refuses_foreign_irrationals():
    ctx = FieldContext(3)
    x = ctx.element(1, 2)
    assert ctx.lift(x) is x                                   # same field: unchanged
    assert FieldContext(3).lift(x) is x                       # equal context by value
    for value in (5, Fraction(-2, 7), QQ.rational(4, 9), FieldContext(2).rational(3)):
        lifted = ctx.lift(value)
        assert lifted.ctx == ctx and lifted == value
    assert QQ.lift(ctx.rational(1, 2)).ctx == QQ              # rational element of Q(sqrt 3)
    with pytest.raises(ContextMismatchError):
        ctx.lift(FieldContext(2).element(0, 1))
    with pytest.raises(ContextMismatchError):
        QQ.lift(x)


def test_int_pow():
    ctx = FieldContext(5)
    x = ctx.element(1, 1)
    assert int_pow(x, 0) == ctx.one()
    assert int_pow(x, 1) == x
    assert int_pow(x, 5) == x * x * x * x * x
    assert int_pow(x, -3) == (x * x * x).inv()
    assert int_pow(QQ.rational(2), 10) == 1024
    assert int_pow(QQ.rational(2), -2) == Fraction(1, 4)


def test_canonical_str_and_json_round_trip():
    rng = random.Random(7)
    for ctx in (QQ, FieldContext(3), FieldContext(-1)):
        for _ in range(40):
            x = rnd_element(rng, ctx)
            data = x.to_json()
            back = FieldElement.from_json(data)
            assert back == x
            assert back.canonical_str() == x.canonical_str()
            # canonical string is itself stable JSON
            assert json.loads(x.canonical_str()) == {
                k: (v if isinstance(v, int) else str(v)) for k, v in data.items()
            } or json.loads(x.canonical_str()) == data


def test_from_json_accepts_scalars_and_strings():
    assert FieldElement.from_json(3) == QQ.rational(3)
    assert FieldElement.from_json("-5/7") == QQ.rational(-5, 7)
    assert FieldElement.from_json({"rat": "1/2", "irr": "0", "disc": 1}) == QQ.rational(1, 2)
    x = FieldElement.from_json({"rat": "1", "irr": "2", "disc": 5})
    assert x.ctx == FieldContext(5) and x.irr == 2


def test_from_json_rejects_garbage():
    with pytest.raises((ValueError, TypeError, KeyError)):
        FieldElement.from_json("not a number")
    with pytest.raises((ValueError, TypeError, KeyError)):
        FieldElement.from_json([1, 2])
    with pytest.raises(ZeroDivisionError):
        FieldElement.from_json({"rat": "1/0", "irr": "0", "disc": 1})
    # a discriminant must be an integer; a float one must be integral
    for disc in (float("inf"), float("nan"), 2.5):
        with pytest.raises(ValueError):
            FieldElement.from_json({"rat": "1", "irr": "1", "disc": disc})
    assert FieldElement.from_json({"rat": "1", "irr": "1", "disc": 5.0}).ctx == FieldContext(5)


def test_from_json_in_a_context_refuses_foreign_irrationals_unbuilt(monkeypatch):
    ctx = FieldContext(2)
    calls = []
    original = exactfield._square_free_int
    monkeypatch.setattr(exactfield, "_square_free_int",
                        lambda n: calls.append(n) or original(n))
    with pytest.raises(ContextMismatchError):
        FieldElement.from_json({"rat": "1", "irr": "1", "disc": 1048583 * 1048589}, ctx)
    x = FieldElement.from_json({"rat": "1/2", "irr": "0", "disc": 3}, ctx)
    y = FieldElement.from_json({"rat": "1", "irr": "3", "disc": 2}, ctx)
    assert x.ctx is ctx and x == Fraction(1, 2) and y.ctx is ctx and y.irr == 3
    assert calls == []


def test_square_free_decomposition():
    assert square_free_decomposition(Fraction(4)) == (Fraction(2), 1)
    assert square_free_decomposition(Fraction(18)) == (Fraction(3), 2)
    assert square_free_decomposition(Fraction(-50)) == (Fraction(5), -2)
    s, d = square_free_decomposition(Fraction(9, 8))
    assert s * s * d == Fraction(9, 8) and abs(d) == 2
    for val in (Fraction(7, 11), Fraction(360), Fraction(-1, 4)):
        s, d = square_free_decomposition(val)
        assert s * s * d == val


def test_square_free_decomposition_past_the_trial_bound():
    # primes just above the trial-division bound 2**20
    p, r, t = 1048583, 1048589, 1048601
    assert square_free_decomposition(Fraction(12 * p)) == (Fraction(2), 3 * p)
    assert square_free_decomposition(Fraction(12 * p * r)) == (Fraction(2), 3 * p * r)
    assert square_free_decomposition(Fraction(5 * p * p)) == (Fraction(p), 5)
    assert square_free_decomposition(Fraction(7 * (p * r) ** 2, 9)) == (Fraction(p * r, 3), 7)
    assert FieldContext(-p * r).disc == -p * r
    started = time.perf_counter()
    for n in (p ** 3, p * r * t, 2 ** 61 - 1, -3 * (2 ** 61 - 1)):
        with pytest.raises(SquareFreeBoundError):
            square_free_decomposition(Fraction(n))
    with pytest.raises(SquareFreeBoundError):
        FieldContext(2 ** 61 - 1)
    assert time.perf_counter() - started < 5
    assert issubclass(SquareFreeBoundError, ValueError)


def test_sqrt_in_field():
    # rational squares
    r = sqrt_in_field(QQ.rational(9, 4))
    assert r is not None and r * r == Fraction(9, 4) and r.rat > 0
    assert sqrt_in_field(QQ.rational(2)) is None
    assert sqrt_in_field(QQ.rational(-1)) is None
    assert sqrt_in_field(QQ.zero()) == 0
    ctx = FieldContext(5)
    # disc itself is the square of sqrt(disc)
    r = sqrt_in_field(ctx.rational(5))
    assert r is not None and r * r == 5 and r.irr != 0
    r = sqrt_in_field(ctx.rational(20))
    assert r is not None and r * r == 20
    # non-squares stay non-squares; irrational inputs are out of contract
    assert sqrt_in_field(ctx.rational(2)) is None
    with pytest.raises(ValueError):
        sqrt_in_field(ctx.element(1, 1))


def test_sqrt_element_general_roots():
    ctx = FieldContext(5)
    rng = random.Random(11)
    hits = 0
    for _ in range(30):
        x = rnd_element(rng, ctx)
        sq = x * x
        r = sqrt_element(sq)
        assert r is not None and r * r == sq
        hits += 1
    assert hits == 30
    # never extends the field: non-squares of plain Q give None
    assert sqrt_element(QQ.rational(8)) is None
    r = sqrt_element(QQ.rational(16))
    assert r is not None and r.ctx.disc == 1 and r * r == 16
    # elements with no root in Q(sqrt 5)
    assert sqrt_element(ctx.element(0, 1)) is None
    # ExtensionRequiredError is the *callers'* signal; the base layer only
    # answers in-field questions but must expose the type for them
    assert issubclass(ExtensionRequiredError, ValueError)


def test_sqrt_or_extend():
    # a root inside the field
    assert sqrt_or_extend(QQ.rational(9, 4)) == Fraction(3, 2)
    ctx = FieldContext(5)
    r = sqrt_or_extend(ctx.element(6, 2))               # (1 + sqrt 5)^2
    assert r.ctx == ctx and r * r == ctx.element(6, 2)
    # an extension of Q by the square-free part
    for value, disc, irr in ((8, 2, 2), (Fraction(-3, 2), -6, Fraction(1, 2))):
        r = sqrt_or_extend(QQ.from_fraction(Fraction(value)))
        assert r.ctx == FieldContext(disc) and r.rat == 0 and r.irr == irr
        assert r * r == value
    # over an extension no second one is taken
    for x in (ctx.rational(2), ctx.element(0, 1)):
        with pytest.raises(ExtensionRequiredError):
            sqrt_or_extend(x)


def test_is_valid_q():
    assert is_valid_q(QQ.rational(2))
    assert is_valid_q(QQ.rational(-3, 2))
    assert not is_valid_q(QQ.rational(1))
    assert not is_valid_q(QQ.rational(-1))
    assert not is_valid_q(QQ.rational(0))
    assert not is_valid_q(FieldContext(5).element(0, 1))


def test_immutability():
    x = QQ.rational(1)
    with pytest.raises(AttributeError):
        x.rat = Fraction(2)
