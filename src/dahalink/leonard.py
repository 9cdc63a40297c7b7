"""Leonard pairs of q-Racah type: recognition, split sequences, parameter
arrays, Huang data, and the Askey-Wilson third element.

A Leonard pair on V is a pair of diagonalizable operators A, A* such that in
some A-eigenbasis A* is irreducible tridiagonal and in some A*-eigenbasis A
is irreducible tridiagonal.  The diameter is d = dim V - 1.  A standard
eigenvalue ordering is one exhibiting the tridiagonal shape; it is unique up
to reversal.

For the q-Racah class the eigenvalues take the form

    theta_r      = a q^{2r-d} + a^{-1} q^{d-2r},
    theta*_r     = b q^{2r-d} + b^{-1} q^{d-2r},

and the first split sequence is

    phi_r = a^{-1} b^{-1} q^{d+1} (q^r - q^{-r}) (q^{r-d-1} - q^{d-r+1})
            (q^{-r} - a b c q^{r-d-1}) (q^{-r} - a b c^{-1} q^{r-d-1}),

which pins down a third scalar c.  The triple (a, b, c) together with d is
the Huang data of the pair; it determines the pair up to isomorphism and is
itself determined up to inverting a, b, c independently (c arbitrary when
d = 0; we normalize c = 1 there).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Optional, Sequence

from .exactfield import (
    FieldContext,
    FieldElement,
    QQ,
    _json_int,
    int_pow,
    is_valid_q,
    sqrt_element,
    sqrt_or_extend,
)
from .exactlinalg import (
    ExactMatrix,
    Vector,
    char_poly,
    eigenspace,
    rank,
    restrict_to_basis,
)

__all__ = [
    "LeonardPair",
    "ParameterArray",
    "HuangData",
    "NotStandardOrderingError",
    "VerificationError",
    "recognize_leonard_pair",
    "split_sequence",
    "parameter_arrays",
    "qracah_parameter",
    "huang_data_from_array",
    "check_huang_admissible",
    "huang_equivalent",
    "build_pair_from_huang",
    "askey_wilson_third",
    "common_context",
    "MAX_DIAMETER",
]


class NotStandardOrderingError(ValueError):
    """The supplied eigenvalue orderings do not admit a split basis."""


class VerificationError(RuntimeError):
    """An internal exact identity that must hold failed to hold."""


def common_context(*elems: FieldElement) -> FieldContext:
    """The shared field context of the given elements.

    Rational elements fit in any context; two distinct nontrivial
    discriminants are an error.
    """
    ctx = QQ
    for e in elems:
        if e.irr != 0 or e.ctx.disc != 1:
            if ctx.disc != 1 and e.ctx.disc != ctx.disc:
                raise ValueError("elements live in incompatible quadratic extensions")
            ctx = e.ctx
    return ctx


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeonardPair:
    """A candidate Leonard pair: two square matrices of equal size.

    Construction checks only shapes; call :func:`recognize_leonard_pair`
    for the certificate.  ``diameter`` is dim V - 1.
    """

    A: ExactMatrix
    Astar: ExactMatrix

    def __post_init__(self) -> None:
        if not (self.A.is_square and self.Astar.is_square):
            raise ValueError("Leonard pair matrices must be square")
        if self.A.shape != self.Astar.shape:
            raise ValueError("Leonard pair matrices must have equal size")

    @property
    def diameter(self) -> int:
        return self.A.nrows - 1


@dataclass(frozen=True)
class ParameterArray:
    """(theta, theta*, phi, phi2) with the usual nondegeneracy conditions:
    theta and theta* each mutually distinct, every phi_r and phi2_r nonzero."""

    theta: tuple[FieldElement, ...]
    theta_star: tuple[FieldElement, ...]
    phi: tuple[FieldElement, ...]
    phi2: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        d = len(self.theta) - 1
        if len(self.theta_star) != d + 1 or len(self.phi) != d or len(self.phi2) != d:
            raise ValueError("parameter array length mismatch")
        if len(set(self.theta)) != d + 1 or len(set(self.theta_star)) != d + 1:
            raise ValueError("eigenvalues in a parameter array must be distinct")
        if any(not x for x in self.phi) or any(not x for x in self.phi2):
            raise ValueError("split sequences must be nonzero")

    @property
    def diameter(self) -> int:
        return len(self.theta) - 1

    def to_json(self) -> dict:
        return {
            "theta": [x.to_json() for x in self.theta],
            "theta_star": [x.to_json() for x in self.theta_star],
            "phi": [x.to_json() for x in self.phi],
            "phi2": [x.to_json() for x in self.phi2],
        }

    @classmethod
    def from_json(cls, data: dict, ctx: Optional[FieldContext] = None) -> "ParameterArray":
        grab = lambda key: tuple(FieldElement.from_json(x, ctx) for x in data[key])
        return cls(grab("theta"), grab("theta_star"), grab("phi"), grab("phi2"))


#: The largest diameter of Huang data, and ``daha.MAX_N``: no module here
#: realizes a larger one.
MAX_DIAMETER = 255


@dataclass(frozen=True)
class HuangData:
    """The scalars (a, b, c) and diameter d parametrizing a q-Racah pair."""

    a: FieldElement
    b: FieldElement
    c: FieldElement
    d: int

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError("diameter must be nonnegative")
        if self.d > MAX_DIAMETER:
            raise ValueError(f"diameter {self.d} exceeds {MAX_DIAMETER}")
        if not (self.a and self.b and self.c):
            raise ValueError("Huang scalars must be nonzero")
        ctx = common_context(self.a, self.b, self.c)
        object.__setattr__(self, "a", ctx.lift(self.a))
        object.__setattr__(self, "b", ctx.lift(self.b))
        object.__setattr__(self, "c", ctx.lift(self.c))

    @property
    def ctx(self) -> FieldContext:
        return self.a.ctx

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json(),
                "c": self.c.to_json(), "d": self.d}

    @classmethod
    def from_json(cls, data: dict, ctx: Optional[FieldContext] = None) -> "HuangData":
        return cls(
            FieldElement.from_json(data["a"], ctx),
            FieldElement.from_json(data["b"], ctx),
            FieldElement.from_json(data["c"], ctx),
            _json_int(data["d"]),
        )


# ---------------------------------------------------------------------------
# Polynomial root extraction (rational roots + quadratic completion)
# ---------------------------------------------------------------------------


def _poly_divmod(f: Sequence[Fraction],
                 g: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of f by g over Q (ascending coefficients,
    g[-1] != 0); the remainder carries no trailing zeros."""
    rem, quo = list(f), []
    for i in range(len(f) - len(g), -1, -1):
        c = rem[i + len(g) - 1] / g[-1]
        quo.append(c)
        for j, gj in enumerate(g):
            rem[i + j] -= c * gj
    del rem[len(g) - 1:]
    while rem and not rem[-1]:
        rem.pop()
    return quo[::-1], rem


def _rational_roots(f: Sequence[Fraction]) -> list[Fraction]:
    """The distinct rational roots of a rational polynomial (ascending
    coefficients, f[-1] != 0), in increasing order.

    p-adic lifting, no factoring (Loos, SIAM J. Comput. 12, 1983): the
    squarefree part f / gcd(f, f') is scaled to a primitive integer
    polynomial g; its roots modulo the first prime p not dividing lc(g) at
    which they are all simple are lifted by Newton's iteration past 2N^2,
    N = max |g_i| (a bound on the numerator and the denominator of every
    rational root, zero roots included); the half-extended Euclidean
    algorithm rebuilds each as a fraction, kept only if it is exactly a
    root.
    """
    a, b = list(f), [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    sqf = _poly_divmod(f, a)[0]
    den = math.lcm(*(c.denominator for c in sqf))
    g = [int(c * den) for c in sqf]
    content = math.gcd(*g)
    g = [c // content for c in g]
    dg = [i * c for i, c in enumerate(g)][1:]
    ev = lambda h, x, m: functools.reduce(lambda acc, c: (acc * x + c) % m, reversed(h), 0)
    p = 1
    while True:
        p += 1
        if g[-1] % p == 0 or any(p % s == 0 for s in range(2, math.isqrt(p) + 1)):
            continue
        residues = [r for r in range(p) if not ev(g, r, p)]
        if all(ev(dg, r, p) for r in residues):
            break
    bound = max(abs(c) for c in g)
    roots = []
    for r in residues:
        m = p
        while m <= 2 * bound * bound:
            m *= m
            r = (r - ev(g, r, m) * pow(ev(dg, r, m), -1, m)) % m
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > bound:
            quo = r0 // r1
            r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
        if abs(t1) <= bound and not _poly_eval(g, Fraction(r1, t1)):
            roots.append(Fraction(r1, t1))
    return sorted(roots)


def _poly_eval(coeffs: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _deflate(coeffs: list[FieldElement], r: FieldElement) -> list[FieldElement]:
    """Synthetic division of a monic polynomial by (x - r)."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[1:-1]):
        out.append(c + r * out[-1])
    out.reverse()
    return out


def _field_roots(coeffs: Sequence[FieldElement]) -> Optional[list[FieldElement]]:
    """All roots (with multiplicity) of a polynomial, provided it splits
    after rational-root extraction plus one quadratic completion;
    otherwise None.

    Rational roots are those of the rational part of the monic polynomial
    (:func:`_rational_roots`) that are roots of the whole; deflating by
    them must leave degree <= 2.
    """
    ctx = coeffs[-1].ctx
    work = list(coeffs)
    if work[-1] != 1:
        lead_inv = work[-1].inv()
        work = [lead_inv * c for c in work]
    roots: list[FieldElement] = []
    cands = None
    while len(work) - 1 > 2:
        # zero roots first
        if not work[0]:
            roots.append(ctx.zero())
            work = work[1:]
            continue
        if cands is None:
            cands = [ctx.from_fraction(x) for x in _rational_roots([c.rat for c in work])]
        found = next((x for x in cands if not _poly_eval(work, x)), None)
        if found is None:
            return None
        roots.append(found)
        work = _deflate(work, found)
    deg = len(work) - 1
    if deg == 1:
        roots.append(-work[0])
    elif deg == 2:
        disc = work[1] * work[1] - 4 * work[0]
        s = sqrt_element(disc)
        if s is None:
            return None
        half = FieldElement(ctx, Fraction(1, 2))
        roots.append((-work[1] + s) * half)
        roots.append((-work[1] - s) * half)
    return roots


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------


def _distinct_eigenvalues(m: ExactMatrix, candidates: Optional[Sequence[FieldElement]]
                          ) -> Optional[tuple[list[FieldElement], list[Vector]]]:
    """The full multiplicity-free spectrum of ``m`` and an eigenvector for
    each eigenvalue, or None.

    With candidates given, verifies they are distinct, exhaust the
    dimension, and each has a 1-dimensional eigenspace.  Without, extracts
    characteristic-polynomial roots within the field.  One elimination per
    eigenvalue both proves its eigenspace a line and yields its vector.
    """
    n = m.nrows
    if candidates is not None:
        evs = list(candidates)
        if len(evs) != n or len(set(evs)) != n:
            return None
    else:
        roots = _field_roots(char_poly(m))
        if roots is None:
            return None
        evs = sorted(set(roots), key=lambda e: e.canonical_str())
        if len(evs) != n:
            return None
    vecs = []
    for mu in evs:
        es = eigenspace(m, mu)
        if es.dim != 1:
            return None
        vecs.append(es.basis[0])
    return evs, vecs


def _walk_path(adj: Sequence[Collection[int]]) -> Optional[list[int]]:
    """The vertices of a graph, given by adjacency lists, in path order from
    its smaller end; None when the graph is not a path."""
    n = len(adj)
    if n == 1:
        return [0]
    degs = [len(a) for a in adj]
    ends = [i for i in range(n) if degs[i] == 1]
    if max(degs) > 2 or len(ends) != 2 or sum(degs) != 2 * (n - 1):
        return None
    # a path plus cycles would pass the degree count; the walk from an end
    # then gets stuck before it has visited n vertices
    order, prev = [ends[0]], -1
    while len(order) < n:
        nxt = [j for j in adj[order[-1]] if j != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def _ordering_via_eigenbasis(m: ExactMatrix, evs: Sequence[FieldElement],
                             vecs: Sequence[Vector]) -> Optional[list[FieldElement]]:
    """Standard ordering of the eigenvalues ``evs`` (eigenvectors ``vecs``)
    of another operator making ``m`` irreducible tridiagonal in that
    eigenbasis, or None."""
    rep = restrict_to_basis(m, vecs)
    n = rep.nrows
    # the off-diagonal support of rep must be a path
    order = _walk_path([{j for j in range(n) if j != i and (rep.rows[i][j] or rep.rows[j][i])}
                        for i in range(n)])
    # the walk puts every off-diagonal nonzero on a step; irreducible
    # tridiagonal asks both entries of each step to be nonzero
    if order is None or not all(rep.rows[i][j] and rep.rows[j][i]
                                for i, j in zip(order, order[1:])):
        return None
    return [evs[i] for i in order]


def _lex_smaller(seq: Sequence[FieldElement]) -> list[FieldElement]:
    fwd = list(seq)
    rev = fwd[::-1]
    key = lambda s: json.dumps([x.to_json() for x in s], sort_keys=True)
    return fwd if key(fwd) <= key(rev) else rev


def recognize_leonard_pair(
    A: ExactMatrix, Astar: ExactMatrix,
) -> Optional[tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]]:
    """Certify (A, A*) as a Leonard pair.

    Returns a pair (standard ordering of the A-eigenvalues, standard
    ordering of the A*-eigenvalues), each the lexicographically smaller of
    its two directions, or None when any condition fails.  The spectra are
    the characteristic polynomials' roots within the field.
    """
    if not (A.is_square and Astar.is_square and A.shape == Astar.shape):
        raise ValueError("matrices must be square and of equal size")
    spec = _distinct_eigenvalues(A, None)
    spec_star = _distinct_eigenvalues(Astar, None)
    if spec is None or spec_star is None:
        return None
    # A irreducible tridiagonal in an A*-eigenbasis fixes the theta* order;
    # A* in an A-eigenbasis fixes the theta order.
    theta_star = _ordering_via_eigenbasis(A, *spec_star)
    theta = _ordering_via_eigenbasis(Astar, *spec)
    if theta is None or theta_star is None:
        return None
    return tuple(_lex_smaller(theta)), tuple(_lex_smaller(theta_star))


# ---------------------------------------------------------------------------
# Split sequences and parameter arrays
# ---------------------------------------------------------------------------


def _proportionality(w: Vector, v: Vector,
                     error: type[Exception] = VerificationError) -> FieldElement:
    """The scalar f with w = f v (v nonzero); ``error`` otherwise."""
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None:
        raise error("proportionality against the zero vector")
    f = w[pivot] * v[pivot].inv()
    if any(w[i] != f * v[i] for i in range(len(v))):
        raise error("vectors are not proportional")
    return f


def split_sequence(
    P: LeonardPair,
    theta_order: Sequence[FieldElement],
    theta_star_order: Sequence[FieldElement],
) -> list[FieldElement]:
    """The split sequence phi_1..phi_d attached to a pair of standard
    orderings.

    Builds the split basis: v_0 spans the A*-eigenspace of theta*_0, then
    v_{r+1} = (A - theta_r) v_r.  The chain is checked to end with
    (A - theta_d) v_d = 0, each (A* - theta*_r) v_r to be phi_r v_{r-1}
    with phi_r nonzero, and the v_r to be independent; then A is lower
    bidiagonal with diagonal theta_r and subdiagonal 1 in this basis, and
    A* upper bidiagonal with diagonal theta*_r and superdiagonal phi_r.
    Raises :class:`NotStandardOrderingError` when the orderings are not
    standard.
    """
    A, S = P.A, P.Astar
    ctx = A.ctx
    n = A.nrows
    d = n - 1
    if len(theta_order) != n or len(theta_star_order) != n:
        raise ValueError("ordering length must match the pair size")
    es = eigenspace(S, theta_star_order[0])
    if es.dim != 1:
        raise NotStandardOrderingError("theta*_0 eigenspace is not a line")
    # (M - mu) v as M v - mu v: no shifted matrix is built
    step = lambda M, mu, v: tuple(x - ctx.lift(mu) * y for x, y in zip(M.apply(v), v))
    vecs: list[Vector] = [es.basis[0]]
    for r in range(d):
        nxt = step(A, theta_order[r], vecs[r])
        if not any(nxt):
            raise NotStandardOrderingError(f"split chain dies at step {r}")
        vecs.append(nxt)
    if any(step(A, theta_order[d], vecs[d])):
        raise NotStandardOrderingError("split chain does not terminate")
    phi: list[FieldElement] = []
    for r in range(1, n):
        w = step(S, theta_star_order[r], vecs[r])
        f = _proportionality(w, vecs[r - 1], NotStandardOrderingError)
        if not f:
            raise NotStandardOrderingError(f"phi_{r} vanishes")
        phi.append(f)
    # each column of the split form is proved above; it remains to prove
    # the chain a basis
    if rank(ExactMatrix.from_cols(ctx, vecs)) != n:
        raise NotStandardOrderingError("split chain is linearly dependent")
    return phi


def _bidiagonal_array(P: LeonardPair, theta: Sequence[FieldElement],
                      theta_star: Sequence[FieldElement]) -> ParameterArray:
    """The parameter array of a pair with A lower and A* upper bidiagonal on
    diagonals theta and theta* (the caller checks the shapes), or ValueError.
    A nonzero subdiagonal of A lets a diagonal change of basis reach the split
    form, which keeps phi_r = A[r][r-1] A*[r-1][r].  varphi follows from PA4;
    PA3 and PA5 are checked here, PA1 and PA2 by ``ParameterArray``, and then
    P is a Leonard pair (Terwilliger, Linear Algebra Appl. 330, 2001, Thm 1.9)."""
    A, S, d = P.A.rows, P.Astar.rows, P.diameter
    if any(not A[r][r - 1] for r in range(1, d + 1)):
        raise ValueError("A has a zero subdiagonal entry: no split form")
    if d and theta[0] == theta[d]:          # PA1, before PA3 and PA4 divide by it
        raise ValueError("eigenvalues in a parameter array must be distinct")
    phi = [A[r][r - 1] * S[r - 1][r] for r in range(1, d + 1)]
    # sums[i-1]: the sum over h < i of (theta_h - theta_{d-h}) / (theta_0 - theta_d)
    sums = [x * (theta[0] - theta[d]).inv()
            for x in itertools.accumulate(theta[h] - theta[d - h] for h in range(d))]
    rise = lambda i: theta_star[i] - theta_star[0]
    varphi = [phi[0] * sums[i - 1] + rise(i) * (theta[d - i + 1] - theta[0])
              for i in range(1, d + 1)]
    pa = ParameterArray(tuple(theta), tuple(theta_star), tuple(phi), tuple(varphi))
    if any(phi[i - 1] != varphi[0] * sums[i - 1] + rise(i) * (theta[i - 1] - theta[d])
           for i in range(1, d + 1)):
        raise ValueError("PA3 fails: phi does not follow from varphi_1")
    beta = lambda t, i: (t[i - 2] - t[i + 1]) * (t[i - 1] - t[i]).inv()
    if len({beta(t, i) for t in (theta, theta_star) for i in range(2, d)}) > 1:
        raise ValueError("PA5 fails: the eigenvalue recurrences differ")
    return pa


def parameter_arrays(
    P: LeonardPair,
    orderings: Optional[tuple[Sequence[FieldElement], Sequence[FieldElement]]] = None,
) -> list[ParameterArray]:
    """The four parameter arrays of a Leonard pair.

    With (theta, theta*) a fixed pair of standard orderings, phi the first
    and varphi the second split sequence, the arrays are::

        (theta_r,     theta*_r,     phi_r,             varphi_r)
        (theta_r,     theta*_{d-r}, varphi_{d-r+1},    phi_{d-r+1})
        (theta_{d-r}, theta*_r,     varphi_r,          phi_r)
        (theta_{d-r}, theta*_{d-r}, phi_{d-r+1},       varphi_{d-r+1})

    Every slot is verified against a freshly computed split sequence under
    that array's own orderings.
    """
    if orderings is None:
        orderings = recognize_leonard_pair(P.A, P.Astar)
        if orderings is None:
            raise ValueError("not a recognizable Leonard pair over this field")
    theta, theta_star = (tuple(x) for x in orderings)
    theta_rev = theta[::-1]
    theta_star_rev = theta_star[::-1]
    first = ParameterArray(theta, theta_star, tuple(split_sequence(P, theta, theta_star)),
                           tuple(split_sequence(P, theta_rev, theta_star)))
    phi, varphi = first.phi, first.phi2
    # table symmetries, each one a fresh split computation
    if tuple(split_sequence(P, theta, theta_star_rev)) != varphi[::-1]:
        raise VerificationError("second/first split sequence symmetry fails")
    if tuple(split_sequence(P, theta_rev, theta_star_rev)) != phi[::-1]:
        raise VerificationError("reversed split sequence symmetry fails")
    return [
        first,
        ParameterArray(theta, theta_star_rev, varphi[::-1], phi[::-1]),
        ParameterArray(theta_rev, theta_star, varphi, phi),
        ParameterArray(theta_rev, theta_star_rev, phi[::-1], varphi[::-1]),
    ]


# ---------------------------------------------------------------------------
# q-Racah parametrization and Huang data
# ---------------------------------------------------------------------------


def qracah_parameter(theta: Sequence[FieldElement], q: FieldElement) -> Optional[FieldElement]:
    """The scalar alpha with theta_r = alpha q^{2r-d} + alpha^{-1} q^{d-2r},
    or None.

    For d >= 1 the first two entries determine alpha linearly and the rest
    verify it; for d = 0 alpha solves a quadratic and is determined only up
    to inverse (one deterministic root is returned when it exists in the
    field).
    """
    if not is_valid_q(q):
        raise ValueError("q must be rational, nonzero, and not a root of unity")
    d = len(theta) - 1
    if d < 0:
        raise ValueError("empty eigenvalue list")
    ctx = common_context(q, *theta)
    th = [ctx.lift(x) for x in theta]
    qq = ctx.lift(q)
    if d == 0:
        return _reciprocal_root(th[0])
    # theta_r = u q^{2r} + w q^{-2r} with u = alpha q^{-d}, w = alpha^{-1} q^{d}
    q2 = qq * qq
    q2i = q2.inv()
    denom = q2 - q2i
    u = (th[1] - th[0] * q2i) * denom.inv()
    w = th[0] - u
    if not u or not w or u * w != 1:
        return None
    for r in range(2, d + 1):
        if th[r] != u * int_pow(qq, 2 * r) + w * int_pow(qq, -2 * r):
            return None
    return u * int_pow(qq, d)


def _reciprocal_root(s: FieldElement) -> Optional[FieldElement]:
    """The root (s + sqrt(s^2 - 4))/2 of x + x^{-1} = s, or None when the
    square root is not in the field of s."""
    root = sqrt_element(s * s - 4)
    if root is None:
        return None
    return (s + root) * FieldElement(s.ctx, Fraction(1, 2))


def _phi_formula(a: FieldElement, b: FieldElement, c: FieldElement,
                 d: int, q: FieldElement, r: int) -> FieldElement:
    """First split sequence entry phi_r of the q-Racah pair with Huang data
    (a, b, c, d)."""
    ai, bi, ci = a.inv(), b.inv(), c.inv()
    qe = lambda e: int_pow(q, e)
    return (ai * bi * qe(d + 1)
            * (qe(r) - qe(-r))
            * (qe(r - d - 1) - qe(d - r + 1))
            * (qe(-r) - a * b * c * qe(r - d - 1))
            * (qe(-r) - a * b * ci * qe(r - d - 1)))


def huang_data_from_array(pa: ParameterArray, q: FieldElement) -> Optional[HuangData]:
    """Huang data of a q-Racah parameter array, or None.

    a and b come from the two eigenvalue ladders; c + c^{-1} is solved
    linearly from phi_1, then c from its quadratic — extending the field by
    one square root when necessary (:class:`ExtensionRequiredError` when the
    context already carries a different extension).  All phi_r and varphi_r
    values are then verified; any mismatch yields None.
    """
    a = qracah_parameter(pa.theta, q)
    b = qracah_parameter(pa.theta_star, q)
    if a is None or b is None:
        return None
    d = pa.diameter
    ctx = common_context(a, b, q, *pa.phi, *pa.phi2)
    a, b, qq = ctx.lift(a), ctx.lift(b), ctx.lift(q)
    if d == 0:
        return HuangData(a, b, ctx.one(), 0)
    qe = lambda e: int_pow(qq, e)
    # phi_1 = K (q^{-2} - a b q^{-d-1} s + a^2 b^2 q^{-2d}),  s = c + c^{-1}
    K = a.inv() * b.inv() * qe(d + 1) * (qq - qe(-1)) * (qe(-d) - qe(d))
    phi1 = ctx.lift(pa.phi[0])
    s = (qe(-2) + a * a * b * b * qe(-2 * d) - phi1 * K.inv()) * (a * b * qe(-d - 1)).inv()
    root = sqrt_or_extend(s * s - 4)
    ctx = root.ctx
    a, b, qq, s = (ctx.lift(x) for x in (a, b, qq, s))
    c = (s + root) * FieldElement(ctx, Fraction(1, 2))
    ai = a.inv()        # varphi_r(a, b, c) = phi_r(a^{-1}, b, c)
    for r in range(1, d + 1):
        if _phi_formula(a, b, c, d, qq, r) != pa.phi[r - 1]:
            return None
        if _phi_formula(ai, b, c, d, qq, r) != pa.phi2[r - 1]:
            return None
    return HuangData(a, b, c, d)


def check_huang_admissible(h: HuangData, q: FieldElement) -> bool:
    """The nondegeneracy conditions making Huang data realizable:

    (i)  a^2, b^2 avoid q^{2d-2}, q^{2d-4}, ..., q^{2-2d};
    (ii) abc, a^{-1}bc, ab^{-1}c, abc^{-1} avoid q^{d-1}, q^{d-3}, ..., q^{1-d}.

    Both lists are empty when d = 0.
    """
    if not is_valid_q(q):
        raise ValueError("q must be rational, nonzero, and not a root of unity")
    d = h.d
    if d == 0:
        return True
    squares = {int_pow(q, e) for e in range(2 - 2 * d, 2 * d - 1, 2)}
    if h.a * h.a in squares or h.b * h.b in squares:
        return False
    line = {int_pow(q, e) for e in range(1 - d, d, 2)}
    prods = (h.a * h.b * h.c, h.a.inv() * h.b * h.c,
             h.a * h.b.inv() * h.c, h.a * h.b * h.c.inv())
    return not any(p in line for p in prods)


def huang_equivalent(h1: HuangData, h2: HuangData) -> bool:
    """Whether two Huang data describe isomorphic pairs: equal diameter and
    (a, b, c) matching up to independently inverting each scalar, with c
    ignored entirely at d = 0."""
    if h1.d != h2.d:
        return False
    same = lambda x, y: y == x or y == x.inv()
    if not (same(h1.a, h2.a) and same(h1.b, h2.b)):
        return False
    return h1.d == 0 or same(h1.c, h2.c)


def build_pair_from_huang(h: HuangData, q: FieldElement) -> LeonardPair:
    """The canonical split-form realization of admissible Huang data:
    A lower bidiagonal with diagonal theta_r and subdiagonal 1, A* upper
    bidiagonal with diagonal theta*_r and superdiagonal phi_r.

    Certified as the pair is built, in split form: its parameter array is
    read off the bidiagonals with PA1-PA5 checked (:func:`_bidiagonal_array`),
    so it is a Leonard pair (Terwilliger, Linear Algebra Appl. 330, 2001),
    and the Huang data of that array must give back ``h``.  No split
    sequence runs.
    """
    if not check_huang_admissible(h, q):
        raise ValueError("inadmissible Huang data")
    ctx = common_context(h.a, h.b, h.c, q)
    a, b, c, qq = (ctx.lift(x) for x in (h.a, h.b, h.c, q))
    d = h.d
    qe = lambda e: int_pow(qq, e)
    theta = [a * qe(2 * r - d) + a.inv() * qe(d - 2 * r) for r in range(d + 1)]
    theta_star = [b * qe(2 * r - d) + b.inv() * qe(d - 2 * r) for r in range(d + 1)]
    phi = [_phi_formula(a, b, c, d, qq, r) for r in range(1, d + 1)]
    z = ctx.zero()
    A_rows = [[z] * (d + 1) for _ in range(d + 1)]
    S_rows = [[z] * (d + 1) for _ in range(d + 1)]
    for r in range(d + 1):
        A_rows[r][r] = theta[r]
        S_rows[r][r] = theta_star[r]
    for r in range(1, d + 1):
        A_rows[r][r - 1] = ctx.one()
        S_rows[r - 1][r] = phi[r - 1]
    pair = LeonardPair(ExactMatrix(ctx, A_rows), ExactMatrix(ctx, S_rows))
    back = huang_data_from_array(_bidiagonal_array(pair, theta, theta_star), qq)
    if back is None or not huang_equivalent(back, h):
        raise VerificationError("Huang data round trip failed")
    return pair


# ---------------------------------------------------------------------------
# Askey-Wilson relations
# ---------------------------------------------------------------------------


def _aw_scalar(x: FieldElement, y: FieldElement, z: FieldElement,
               d: int, q: FieldElement) -> FieldElement:
    """(q^{d+1} + q^{-d-1})(x + x^{-1}) + (y + y^{-1})(z + z^{-1}), all over
    q + q^{-1}."""
    num = ((int_pow(q, d + 1) + int_pow(q, -d - 1)) * (x + x.inv())
           + (y + y.inv()) * (z + z.inv()))
    return num * (q + q.inv()).inv()


def askey_wilson_third(P: LeonardPair, h: HuangData, q: FieldElement) -> ExactMatrix:
    """The third Askey-Wilson element A^e of a q-Racah pair.

    Defined by  A^e = gamma_c I - (q A A* - q^{-1} A* A)/(q^2 - q^{-2})
    with gamma_c the Huang-data scalar; the other two relations

        A  + (q A* A^e - q^{-1} A^e A*)/(q^2 - q^{-2}) = gamma_a I
        A* + (q A^e A - q^{-1} A A^e)/(q^2 - q^{-2})   = gamma_b I

    are then verified exactly (:class:`VerificationError` on failure).  The
    result does not change when any of a, b, c is inverted.
    """
    ctx = common_context(h.a, h.b, h.c, q, P.A.ctx.one())
    a, b, c, qq = (ctx.lift(x) for x in (h.a, h.b, h.c, q))
    A, S = (ExactMatrix(ctx, M.rows) for M in (P.A, P.Astar))
    denom_inv = (qq * qq - (qq * qq).inv()).inv()
    comm = lambda M, N: (M * N).scale(qq) - (N * M).scale(qq.inv())
    gamma_a = _aw_scalar(a, b, c, h.d, qq)
    gamma_b = _aw_scalar(b, c, a, h.d, qq)
    gamma_c = _aw_scalar(c, a, b, h.d, qq)
    Ae = comm(A, S).scale(-denom_inv).shift(gamma_c)
    if not (A + comm(S, Ae).scale(denom_inv)).is_scalar(gamma_a):
        raise VerificationError("first Askey-Wilson relation fails")
    if not (S + comm(Ae, A).scale(denom_inv)).is_scalar(gamma_b):
        raise VerificationError("second Askey-Wilson relation fails")
    return Ae
