"""Exact arithmetic over Q and over a single quadratic extension Q(sqrt(D)).

Every scalar in this package is a :class:`FieldElement`: a pair of rationals
``rat + irr*sqrt(D)`` attached to a :class:`FieldContext` that fixes the
square-free discriminant ``D``.  ``D = 1`` means the plain rationals (then
``irr`` is forced to zero).  All arithmetic is exact; there is no floating
point anywhere.

>>> ctx = FieldContext(2)
>>> x = ctx.element(1, 1)          # 1 + sqrt(2)
>>> (x * x.conjugate()).rat
Fraction(-1, 1)
>>> x.inv()
FieldElement(-1 + 1*sqrt(2))

The deliberately small surface (one extension, square roots of rationals
only) keeps root-of-unity detection and square detection decidable.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

__all__ = [
    "Rational",
    "FieldContext",
    "FieldElement",
    "ContextMismatchError",
    "ExtensionRequiredError",
    "SquareFreeBoundError",
    "int_pow",
    "sqrt_in_field",
    "sqrt_element",
    "sqrt_or_extend",
    "is_valid_q",
    "square_free_decomposition",
    "QQ",
]

#: Rationals are stdlib fractions: arbitrary precision, always canonical.
Rational = Fraction

Coercible = Union["FieldElement", Fraction, int]


class ContextMismatchError(ValueError):
    """Two elements of genuinely different quadratic extensions were combined."""


class ExtensionRequiredError(ValueError):
    """A square root does not exist in the current field and the context
    already carries a nontrivial discriminant, so no further extension is
    attempted."""


#: Trial division in :func:`_square_free_int` stops at this bound.
_TRIAL_BOUND = 1 << 20


class SquareFreeBoundError(ValueError):
    """The square-free part of an integer is not decided by trial division
    up to ``_TRIAL_BOUND``: its cofactor past the bound is at least the
    bound cubed and not a square."""


def _square_free_int(n: int) -> tuple[int, int]:
    """Decompose a nonzero integer as ``n = s**2 * d`` with ``d`` square-free.

    Returns ``(s, d)`` with ``s > 0`` and ``sign(d) = sign(n)``.  Trial
    division stops at ``B = _TRIAL_BOUND``; every prime factor of the
    cofactor ``m`` left then exceeds ``B``.  A square ``m`` goes into ``s``;
    a non-square ``m < B**3`` is ``p`` or ``p*r`` with primes ``p != r``, so
    it is square-free and goes into ``d``; any other ``m`` raises
    :class:`SquareFreeBoundError`.

    >>> _square_free_int(48)
    (4, 3)
    >>> _square_free_int(-18)
    (3, -2)
    """
    if n == 0:
        raise ValueError("square-free decomposition of zero")
    sign = 1 if n > 0 else -1
    bits = n.bit_length()
    n = abs(n)
    s, d = 1, 1
    p = 2
    while p * p <= n and p < _TRIAL_BOUND:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        s *= r
    elif n < _TRIAL_BOUND ** 3:
        d *= n
    else:
        raise SquareFreeBoundError(
            f"square-free part of a {bits}-bit integer not decided: a {n.bit_length()}-bit "
            f"cofactor has no prime factor below {_TRIAL_BOUND}")
    return s, sign * d


def square_free_decomposition(r: Fraction) -> tuple[Fraction, int]:
    """Write a nonzero rational as ``r = s**2 * D`` with ``D`` a square-free
    integer and ``s`` a positive rational.

    >>> square_free_decomposition(Fraction(9, 4))
    (Fraction(3, 2), 1)
    >>> square_free_decomposition(Fraction(8))
    (Fraction(2, 1), 2)
    >>> square_free_decomposition(Fraction(-3, 2))
    (Fraction(1, 2), -6)
    """
    if r == 0:
        raise ValueError("square-free decomposition of zero")
    # r = p/q = (p*q) / q**2
    s_int, d = _square_free_int(r.numerator * r.denominator)
    return Fraction(s_int, r.denominator), d


def _rational_sqrt(r: Fraction) -> Optional[Fraction]:
    """The positive rational square root of ``r``, or None."""
    if r < 0:
        return None
    if r == 0:
        return Fraction(0)
    pn, pd = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None


def _json_int(value: object) -> int:
    """An integer read from JSON: an int, or a finite integral float (``int``
    would truncate 3.7 and overflow on 1e400); a boolean or a string is not
    a number."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _json_rational(value: object) -> Fraction:
    """A rational read from JSON: an int, or a string "[+-]digits" or
    "[+-]digits/digits".  Each part then stays within Python's int digit
    limit, and no exponent ("1e10000000") can expand without bound."""
    if type(value) is int or isinstance(value, str) and _RATIONAL_LITERAL.fullmatch(value):
        return Fraction(value)
    raise ValueError(f"{value!r} is not an integer or a 'p/q' string")


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


@dataclass(frozen=True)
class FieldContext:
    """The field Q(sqrt(disc)); ``disc = 1`` is plain Q.

    ``disc`` must be square-free and nonzero (negative values give an
    imaginary quadratic field, which is fine).  Contexts compare by value,
    so two contexts with the same discriminant are interchangeable.
    """

    disc: int = 1

    def __post_init__(self) -> None:
        if self.disc == 0:
            raise ValueError("discriminant must be nonzero")
        _, d = _square_free_int(self.disc)
        if d != self.disc:
            raise ValueError(f"discriminant {self.disc} is not square-free")

    # -- element factories -------------------------------------------------

    def element(self, rat: Union[Fraction, int, str], irr: Union[Fraction, int, str] = 0) -> FieldElement:
        return FieldElement(self, rat, irr)

    def rational(self, p: int, q: int = 1) -> FieldElement:
        return FieldElement(self, Fraction(p, q))

    def from_fraction(self, f: Fraction) -> FieldElement:
        return FieldElement(self, f)

    def zero(self) -> FieldElement:
        return FieldElement(self, _ZERO)

    def one(self) -> FieldElement:
        return FieldElement(self, Fraction(1))

    def lift(self, x: Coercible) -> FieldElement:
        """``x`` as an element of this field: an element of this field is
        returned unchanged; ints, Fractions and rational elements move in;
        an irrational element of another extension raises
        :class:`ContextMismatchError`."""
        if isinstance(x, FieldElement):
            if x.ctx is self or x.ctx == self:
                return x
            if x.irr != 0:
                raise ContextMismatchError(
                    f"cannot move an element of Q(sqrt({x.ctx.disc})) into Q(sqrt({self.disc}))")
            x = x.rat
        return FieldElement(self, x)


#: The plain rational field, shared default context.
QQ = FieldContext(1)

#: The irrational part of every element over Q, shared rather than one Fraction each.
_ZERO = Fraction(0)


def _plus(x: Fraction, y: Fraction) -> Fraction:
    """``x + y``, with no Fraction addition when a side is zero."""
    if not y:
        return x
    return x + y if x else y


def _diff(x: Fraction, y: Fraction) -> Fraction:
    """``x - y``, with no Fraction subtraction when a side is zero."""
    if not y:
        return x
    return x - y if x else -y


class FieldElement:
    """An element ``rat + irr*sqrt(D)`` of the field fixed by its context.

    Immutable.  Supports ``+ - * / **`` with other elements of the same
    context and with ints/Fractions (which coerce).  Elements whose ``irr``
    part vanishes compare equal across contexts.
    """

    __slots__ = ("ctx", "rat", "irr")

    def __init__(self, ctx: FieldContext, rat: Fraction, irr: Fraction = _ZERO) -> None:
        if not isinstance(rat, Fraction):
            rat = Fraction(rat)
        if not isinstance(irr, Fraction):
            irr = Fraction(irr)
        if ctx.disc == 1:
            if irr != 0:
                raise ValueError("irrational part must vanish over Q (disc = 1)")
            irr = _ZERO
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", irr)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldElement is immutable")

    @classmethod
    def _of(cls, ctx: FieldContext, rat: Fraction, irr: Fraction = _ZERO) -> "FieldElement":
        """``rat + irr*sqrt(D)`` from Fractions without ``__init__``'s checks (product kernel)."""
        x = object.__new__(cls)
        object.__setattr__(x, "ctx", ctx)
        object.__setattr__(x, "rat", rat)
        object.__setattr__(x, "irr", irr)
        return x

    # -- coercion ----------------------------------------------------------

    def _pair(self, other: Coercible) -> Optional[tuple["FieldElement", "FieldElement"]]:
        """Both operands in one field (:meth:`FieldContext.lift`): a rational
        side moves into the other's field; None for a non-number."""
        if isinstance(other, FieldElement):
            if other.ctx is self.ctx or other.ctx == self.ctx:
                return self, other  # fast path: both operands already in one field
            if self.irr == 0 and other.irr != 0:
                return other.ctx.lift(self), other
        elif not isinstance(other, (int, Fraction)):
            return None
        return self, self.ctx.lift(other)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Coercible) -> "FieldElement":
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        if a.ctx.disc == 1:
            return FieldElement(a.ctx, a.rat + b.rat)
        return FieldElement(a.ctx, _plus(a.rat, b.rat), _plus(a.irr, b.irr))

    __radd__ = __add__

    def __sub__(self, other: Coercible) -> "FieldElement":
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return a._minus(b)

    def __rsub__(self, other: Coercible) -> "FieldElement":
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return b._minus(a)

    def _minus(self, other: "FieldElement") -> "FieldElement":
        if self.ctx.disc == 1:
            return FieldElement(self.ctx, self.rat - other.rat)
        return FieldElement(self.ctx, _diff(self.rat, other.rat), _diff(self.irr, other.irr))

    def __mul__(self, other: Coercible) -> "FieldElement":
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        d = a.ctx.disc
        if d == 1:
            return FieldElement(a.ctx, a.rat * b.rat)
        ar, ai, br, bi = a.rat, a.irr, b.rat, b.irr
        # A product over Q(sqrt D) whose operands are rational or pure
        # irrational (the usual case) forms a single Fraction product.
        rat = _plus(ar * br if ar and br else _ZERO, d * ai * bi if ai and bi else _ZERO)
        irr = _plus(ar * bi if ar and bi else _ZERO, ai * br if ai and br else _ZERO)
        return FieldElement(a.ctx, rat, irr)

    __rmul__ = __mul__

    def __truediv__(self, other: Coercible) -> "FieldElement":
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return a * b.inv()

    def __rtruediv__(self, other: Coercible) -> "FieldElement":
        p = self._pair(other)
        if p is None:
            return NotImplemented
        a, b = p
        return b * a.inv()

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx, -self.rat if self.rat else self.rat,
                            -self.irr if self.irr else self.irr)

    def __pow__(self, e: int) -> "FieldElement":
        return int_pow(self, e)

    def conjugate(self) -> "FieldElement":
        return FieldElement(self.ctx, self.rat, -self.irr)

    def norm(self) -> Fraction:
        """The field norm ``rat**2 - disc*irr**2`` (a rational)."""
        r, i = self.rat, self.irr
        if not i:
            return r * r
        n = -self.ctx.disc * i * i
        return r * r + n if r else n

    def inv(self) -> "FieldElement":
        r, i = self.rat, self.irr
        if not i:
            if not r:
                raise ZeroDivisionError("inverse of zero field element")
            return FieldElement(self.ctx, 1 / r)
        if not r:
            return FieldElement(self.ctx, _ZERO, 1 / (self.ctx.disc * i))
        n = self.norm()
        return FieldElement(self.ctx, r / n, -i / n)

    # -- predicates & canonical forms ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.rat or self.irr)

    def __eq__(self, other: object) -> bool:
        if type(other) is FieldElement:
            # Equal parts (a tuple comparison skips identical Fractions) in
            # one field, unless both elements are rational.
            return (self.rat, self.irr) == (other.rat, other.irr) and (
                not self.irr or self.ctx is other.ctx or self.ctx == other.ctx)
        if isinstance(other, (int, Fraction)):
            return not self.irr and self.rat == other
        return NotImplemented

    def __hash__(self) -> int:
        # Equal numbers hash alike: a rational element hashes as its Fraction.
        return hash((self.rat, self.irr, self.ctx.disc)) if self.irr else hash(self.rat)

    def __repr__(self) -> str:
        if self.irr == 0:
            return f"FieldElement({_frac_str(self.rat)})"
        return f"FieldElement({_frac_str(self.rat)} + {_frac_str(self.irr)}*sqrt({self.ctx.disc}))"

    def canonical_str(self) -> str:
        """A deterministic serialization used for lexicographic tie-breaks."""
        return json.dumps(self.to_json(), sort_keys=True)

    # -- (de)serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"rat": _frac_str(self.rat), "irr": _frac_str(self.irr), "disc": self.ctx.disc}

    @classmethod
    def from_json(cls, data: object, ctx: Optional[FieldContext] = None) -> "FieldElement":
        """Parse an element from JSON.

        Accepts the canonical ``{"rat": "p/q", "irr": "p/q", "disc": D}``
        object, or a bare int / "p/q" string, which is read as a rational in
        ``ctx`` (default Q).  Given ``ctx``, an element is read into it; an
        irrational one of another discriminant raises
        :class:`ContextMismatchError` before its own field is built.
        """
        if isinstance(data, (int, str)):
            return FieldElement(ctx or QQ, _json_rational(data))
        if isinstance(data, dict):
            disc = _json_int(data.get("disc", 1))
            rat = _json_rational(data.get("rat", 0))
            irr = _json_rational(data.get("irr", 0))
            if ctx is None:
                ctx = FieldContext(disc)
            elif irr != 0 and ctx.disc != disc:
                raise ContextMismatchError(
                    f"an element of Q(sqrt({disc})) is not in Q(sqrt({ctx.disc}))")
            return FieldElement(ctx, rat, irr)
        raise ValueError(f"cannot parse field element from {data!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def int_pow(x: Coercible, e: int) -> FieldElement:
    """``x**e`` for an integer exponent, by repeated squaring.

    >>> int_pow(QQ.rational(2), -4)
    FieldElement(1/16)
    """
    if not isinstance(x, FieldElement):
        x = QQ.element(Fraction(x))
    if e == 0:
        return x.ctx.one()
    base = x.inv() if e < 0 else x
    e = abs(e)
    out = base.ctx.one()
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


def sqrt_in_field(x: FieldElement) -> Optional[FieldElement]:
    """A square root of a *rational* element inside its own field.

    Returns ``s`` with ``s*s == x`` when ``x`` is a rational square (s
    rational) or ``x/disc`` is a rational square (s a multiple of
    sqrt(disc)); otherwise None, signalling the caller to rebuild the
    context with a fresh discriminant.

    >>> sqrt_in_field(QQ.rational(9, 4))
    FieldElement(3/2)
    >>> ctx = FieldContext(2)
    >>> sqrt_in_field(ctx.rational(8))
    FieldElement(0 + 2*sqrt(2))
    >>> sqrt_in_field(ctx.rational(3)) is None
    True
    """
    if x.irr != 0:
        raise ValueError("square roots are taken of rational quantities only")
    if x.rat == 0:
        return x.ctx.zero()
    r = _rational_sqrt(x.rat)
    if r is not None:
        return x.ctx.from_fraction(r)
    if x.ctx.disc != 1:
        r = _rational_sqrt(x.rat / x.ctx.disc)
        if r is not None:
            return FieldElement(x.ctx, Fraction(0), r)
    return None


def sqrt_element(x: FieldElement) -> Optional[FieldElement]:
    """A square root of a general element within its own field, or None.

    For ``x = r + s*sqrt(D)`` with ``s != 0``: any root ``u + v*sqrt(D)``
    satisfies ``u**2 + D*v**2 = r`` and ``2uv = s``, which forces
    ``(u**2 - D*v**2)**2 = r**2 - D*s**2``; so the norm must be a rational
    square and ``u**2 = (r ± t)/2`` a rational square.

    >>> ctx = FieldContext(2)
    >>> y = ctx.element(3, 2)        # (1 + sqrt 2)**2
    >>> sqrt_element(y)
    FieldElement(1 + 1*sqrt(2))
    """
    if x.irr == 0:
        return sqrt_in_field(x)
    t = _rational_sqrt(x.norm())
    if t is None:
        return None
    for tt in (t, -t):
        u2 = (x.rat + tt) / 2
        if u2 <= 0:
            continue
        u = _rational_sqrt(u2)
        if u is None:
            continue
        v = x.irr / (2 * u)
        cand = FieldElement(x.ctx, u, v)
        if cand * cand == x:
            return cand
    return None


def sqrt_or_extend(x: FieldElement) -> FieldElement:
    """A square root of ``x`` in its own field (:func:`sqrt_element`), else
    ``s*sqrt(D)`` for ``x = s**2 * D`` over Q; only one extension is
    allowed, so over Q(sqrt(D)) a missing root raises
    :class:`ExtensionRequiredError`.

    >>> sqrt_or_extend(QQ.rational(8))
    FieldElement(0 + 2*sqrt(2))
    """
    root = sqrt_element(x)
    if root is not None:
        return root
    if x.ctx.disc != 1:
        raise ExtensionRequiredError(f"a square root of {x!r} needs a second quadratic extension")
    scale, disc = square_free_decomposition(x.rat)
    return FieldElement(FieldContext(disc), _ZERO, scale)


def is_valid_q(x: FieldElement) -> bool:
    """True iff ``x`` can serve as the deformation parameter: a rational
    that is neither zero nor a root of unity (for rationals: not ±1)."""
    return x.irr == 0 and x.rat not in (0, 1, -1)
