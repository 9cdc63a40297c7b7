import json
import operator
import random
from fractions import Fraction

import pytest

from dahalink.exactfield import (
    QQ,
    ContextMismatchError,
    ExtensionRequiredError,
    FieldContext,
    FieldElement,
    int_pow,
    is_valid_q,
    sqrt_element,
    sqrt_in_field,
    square_free_decomposition,
)


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


def test_cross_context_rationals_combine():
    # a rational living in Q(sqrt 5) may combine with one in Q(sqrt 7)
    a = FieldContext(5).rational(2)
    b = FieldContext(7).rational(3)
    assert a + b == 5
    assert a * FieldContext(7).element(0, 1) == FieldContext(7).element(0, 2)
    assert a == QQ.rational(2)
    assert hash(a) == hash(QQ.rational(2))


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


def test_square_free_decomposition():
    assert square_free_decomposition(Fraction(4)) == (Fraction(2), 1)
    assert square_free_decomposition(Fraction(18)) == (Fraction(3), 2)
    assert square_free_decomposition(Fraction(-50)) == (Fraction(5), -2)
    s, d = square_free_decomposition(Fraction(9, 8))
    assert s * s * d == Fraction(9, 8) and abs(d) == 2
    for val in (Fraction(7, 11), Fraction(360), Fraction(-1, 4)):
        s, d = square_free_decomposition(val)
        assert s * s * d == val


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
