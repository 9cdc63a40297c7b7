"""Exact linear algebra against sympy's ``DomainMatrix`` as an oracle.

``ExactMatrix.shift``, ``rank``, ``eigenspace`` (an exact eigenvector
basis of sympy's nullspace dimension), ``char_poly``,
``ExactMatrix.inverse``, the product ``A * B``, and the comparison
kernel (``==`` and ``ExactMatrix.is_scalar``) are
compared with sympy over Q, Q(sqrt 2) and Q(sqrt 5) on small matrices drawn
by hypothesis.  A drawn square matrix is ``U V + lam I`` with ``U`` n x k
and ``V`` k x n, so for k < n it has the eigenvalue ``lam`` with an
eigenspace of dimension at least n - k, and rank drops when ``lam`` is
zero.  Product operands are rectangular and mostly zero, and one entry of
their product may be made to cancel.  Sympy and hypothesis are test
dependencies only; the examples are derandomized, so every run draws the
same matrices.
"""

from fractions import Fraction

import pytest

from dahalink.exactfield import QQ, FieldContext
from dahalink.exactlinalg import (
    ExactMatrix,
    SingularMatrixError,
    char_poly,
    eigenspace,
    rank,
)

sp = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

FIELDS = pytest.mark.parametrize("ctx", [QQ, FieldContext(2), FieldContext(5)],
                                 ids=["Q", "Q(sqrt 2)", "Q(sqrt 5)"])
ORACLE = settings(max_examples=40, derandomize=True, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])

_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_entry_part = st.one_of(st.just(Fraction(0)), _small)


def _elements(ctx):
    if ctx.disc == 1:
        return _entry_part.map(ctx.from_fraction)
    irr = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), _small)
    return st.builds(ctx.element, _entry_part, irr)


@st.composite
def _cases(draw, ctx):
    """(M, lam, mu): M = U V + lam I, and mu an arbitrary field element."""
    elem = _elements(ctx)
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    lam = draw(st.one_of(st.just(ctx.zero()), elem))
    mu = draw(elem)
    rows = [[ctx.zero()] * n for _ in range(n)]
    if k:
        u = [[draw(elem) for _ in range(k)] for _ in range(n)]
        v = [[draw(elem) for _ in range(n)] for _ in range(k)]
        rows = [[sum((u[i][t] * v[t][j] for t in range(k)), ctx.zero()) for j in range(n)]
                for i in range(n)]
    for i in range(n):
        rows[i][i] = rows[i][i] + lam
    return ExactMatrix(ctx, rows), lam, mu


@st.composite
def _products(draw, ctx):
    """(A, B, cancelled): p x k and k x r operands, mostly zero; when
    ``cancelled``, row 0 of A times column 0 of B sums to zero."""
    elem = st.one_of(st.just(ctx.zero()), st.just(ctx.zero()), _elements(ctx))
    p, k, r = (draw(st.integers(1, 5)) for _ in range(3))
    a = [[draw(elem) for _ in range(k)] for _ in range(p)]
    b = [[draw(elem) for _ in range(r)] for _ in range(k)]
    t = next((t for t, x in enumerate(a[0]) if x), None)
    cancelled = t is not None and draw(st.booleans())
    if cancelled:
        b[t][0] = b[t][0] - sum((a[0][i] * b[i][0] for i in range(k)), ctx.zero()) / a[0][t]
    return ExactMatrix(ctx, a), ExactMatrix(ctx, b), cancelled


def _domain(ctx):
    return sp.QQ if ctx.disc == 1 else sp.QQ.algebraic_field(sp.sqrt(ctx.disc))


def _to_oracle(dom, x):
    rat = sp.QQ(x.rat.numerator, x.rat.denominator)
    if dom == sp.QQ:
        assert x.irr == 0
        return rat
    return dom.new([sp.QQ(x.irr.numerator, x.irr.denominator), rat])


def _from_oracle(dom, v):
    """(rational part, coefficient of sqrt D) of a sympy domain element."""
    coeffs = [v] if dom == sp.QQ else v.to_list()
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in coeffs]
    coeffs = [Fraction(0)] * (2 - len(coeffs)) + coeffs
    return coeffs[1], coeffs[0]


def _oracle_matrix(m):
    dom = _domain(m.ctx)
    return DomainMatrix([[_to_oracle(dom, x) for x in row] for row in m.rows], m.shape, dom)


def _pairs(m):
    return [[(x.rat, x.irr) for x in row] for row in m.rows]


def _oracle_pairs(dm):
    return [[_from_oracle(dm.domain, v) for v in row] for row in dm.to_list()]


def _oracle_shift(dm, c):
    return dm + DomainMatrix.eye(dm.shape[0], dm.domain) * _to_oracle(dm.domain, c)


@FIELDS
@ORACLE
@given(data=st.data())
def test_shift_matches_oracle(ctx, data):
    m, lam, mu = data.draw(_cases(ctx))
    dm = _oracle_matrix(m)
    for c in (mu, -lam, ctx.zero()):
        assert _pairs(m.shift(c)) == _oracle_pairs(_oracle_shift(dm, c))


@FIELDS
@ORACLE
@given(data=st.data())
def test_rank_and_eigenspace_dimension_match_oracle(ctx, data):
    m, lam, mu = data.draw(_cases(ctx))
    dm = _oracle_matrix(m)
    assert rank(m) == dm.rank()
    for c in (lam, mu):
        basis = eigenspace(m, c).basis
        dim = _oracle_shift(dm, -c).nullspace().shape[0]
        assert all(m.apply(v) == tuple(c * x for x in v) for v in basis)
        stacked = [[_to_oracle(dm.domain, x) for x in v] for v in basis]
        assert len(basis) == dim == DomainMatrix(stacked, (dim, m.ncols), dm.domain).rank()


@FIELDS
@ORACLE
@given(data=st.data())
def test_char_poly_matches_oracle(ctx, data):
    m, _, _ = data.draw(_cases(ctx))
    dm = _oracle_matrix(m)
    ours = [(c.rat, c.irr) for c in char_poly(m)]
    assert ours == [_from_oracle(dm.domain, c) for c in reversed(dm.charpoly())]


@FIELDS
@ORACLE
@given(data=st.data())
def test_inverse_matches_oracle(ctx, data):
    m, _, _ = data.draw(_cases(ctx))
    dm = _oracle_matrix(m)
    if not dm.det():
        with pytest.raises(SingularMatrixError):
            m.inverse()
    else:
        assert _pairs(m.inverse()) == _oracle_pairs(dm.inv())


@FIELDS
@ORACLE
@given(data=st.data())
def test_product_matches_oracle(ctx, data):
    a, b, cancelled = data.draw(_products(ctx))
    prod = a * b
    assert _pairs(prod) == _oracle_pairs(_oracle_matrix(a) * _oracle_matrix(b))
    assert not cancelled or not prod[0, 0]


def _oracle_equal(dm, dm2):
    """Equality by the oracle: sympy's own ``==`` also compares storage formats."""
    return dm.shape == dm2.shape and (dm - dm2).is_zero_matrix


@FIELDS
@ORACLE
@given(data=st.data())
def test_equality_and_scalar_test_match_oracle(ctx, data):
    m, lam, mu = data.draw(_cases(ctx))
    other, _, _ = data.draw(_cases(ctx))
    dm = _oracle_matrix(m)
    n = m.nrows
    for c in (lam, mu, ctx.zero()):
        scalar = _oracle_shift(DomainMatrix.zeros((n, n), dm.domain), c)
        assert m.is_scalar(c) == _oracle_equal(dm, scalar)
        assert (m == ExactMatrix.identity(ctx, n).scale(c)) == _oracle_equal(dm, scalar)
    assert (m == other) == _oracle_equal(dm, _oracle_matrix(other))
    assert m == m.shift(ctx.zero()) == ExactMatrix(ctx, [list(row) for row in m.rows])


@FIELDS
@ORACLE
@given(data=st.data())
def test_scalar_test_fails_on_each_single_entry_mutant(ctx, data):
    n = data.draw(st.integers(2, 5))
    c = data.draw(_elements(ctx))
    i = data.draw(st.integers(0, n - 1))
    j = (i + data.draw(st.integers(1, n - 1))) % n
    nonzero = _small.filter(bool)
    delta = ctx.from_fraction(data.draw(nonzero))
    mutants = [(i, j, delta), (i, i, delta)]
    if ctx.disc != 1:
        # the diagonal entry keeps its rational part and changes its irrational one
        mutants.append((i, i, ctx.element(0, data.draw(nonzero))))
    assert ExactMatrix.identity(ctx, n).scale(c).is_scalar(c)
    for r, s, d in mutants:
        rows = [[c if a == b else ctx.zero() for b in range(n)] for a in range(n)]
        rows[r][s] = rows[r][s] + d
        mutant = ExactMatrix(ctx, rows)
        assert not mutant.is_scalar(c)
        assert mutant != ExactMatrix.identity(ctx, n).scale(c)
        assert not _oracle_equal(_oracle_matrix(mutant), _oracle_shift(
            DomainMatrix.zeros((n, n), _domain(ctx)), c))
