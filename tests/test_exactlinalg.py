import random
from fractions import Fraction

import pytest

from dahalink.exactfield import QQ, FieldContext
from dahalink.exactlinalg import (
    ExactMatrix,
    NotInvariantError,
    SingularMatrixError,
    Subspace,
    char_poly,
    eigenspace,
    is_banded,
    kernel_basis,
    rank,
    restrict_to_basis,
)


def M(rows, ctx=QQ):
    return ExactMatrix.from_rows(ctx, rows)


def rnd_matrix(rng, n, m=None, ctx=QQ):
    m = n if m is None else m
    return M([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)]
              for _ in range(n)], ctx)


def test_constructors_and_indexing():
    a = M([[1, 2], [3, 4]])
    assert a.shape == (2, 2)
    assert a[0, 1] == 2 and a[1, 0] == 3
    assert ExactMatrix.identity(QQ, 3)[2, 2] == 1
    assert ExactMatrix.zeros(QQ, 2, 3).shape == (2, 3)
    d = ExactMatrix.diagonal(QQ, [QQ.rational(5), QQ.rational(7)])
    assert d == M([[5, 0], [0, 7]])
    c = ExactMatrix.from_cols(QQ, [[1, 2], [3, 4]])
    assert c == M([[1, 3], [2, 4]])
    assert c.col(0) == (QQ.rational(1), QQ.rational(2))


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        M([[1, 2], [3]])


def test_immutability():
    a = M([[1]])
    with pytest.raises(AttributeError):
        a.rows = ()


def test_arithmetic():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a + b == M([[1, 3], [4, 4]])
    assert a - b == M([[1, 1], [2, 4]])
    assert -a == M([[-1, -2], [-3, -4]])
    assert a * b == M([[2, 1], [4, 3]])
    assert a.scale(QQ.rational(2)) == M([[2, 4], [6, 8]])
    assert a.transpose() == M([[1, 3], [2, 4]])
    assert a.trace() == 5
    assert a.apply([QQ.rational(1), QQ.rational(1)]) == (QQ.rational(3), QQ.rational(7))


def test_shift_changes_only_the_diagonal():
    a = M([[1, 2], [3, 4]])
    assert a.shift(QQ.rational(-2)) == M([[-1, 2], [3, 2]])
    assert a.shift(0) == a
    with pytest.raises(ValueError):
        M([[1, 2]]).shift(1)


def test_product_with_zero_row_and_zero_column():
    a = M([[1, 2, 0], [0, 0, 0], [3, 0, 4]])
    b = M([[0, 5, 1], [0, 0, 2], [0, 6, 0]])
    prod = a * b
    assert prod == M([[0, 5, 5], [0, 0, 0], [0, 39, 3]])
    assert all(x.ctx == QQ for row in prod.rows for x in row)


def test_sparse_product_matches_full_sum():
    # the product skips terms with a zero factor; compare with the full sum
    rng = random.Random(11)

    def sparse(r, c):
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4
                 else Fraction(0) for _ in range(c)] for _ in range(r)]

    for _ in range(30):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        a, b = sparse(n, k), sparse(k, m)
        full = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
        assert M(a) * M(b) == M(full)


def test_products_over_quadratic_field():
    ctx = FieldContext(2)
    e = ctx.element
    a = ExactMatrix.from_rows(ctx, [[e(1, 1), e(2)], [e(0), e(0, 1)]])
    b = ExactMatrix.from_rows(ctx, [[e(1), e(0, 1)], [e(1, -1), e(0)]])
    # (1+r)*1 + 2*(1-r) = 3-r, (1+r)*r = 2+r, r*(1-r) = -2+r with r = sqrt 2
    assert a * b == ExactMatrix.from_rows(ctx, [[e(3, -1), e(2, 1)], [e(-2, 1), e(0)]])
    # every term below has a zero factor: the zeros must stay in Q(sqrt 2)
    c = ExactMatrix.from_rows(ctx, [[e(1, 1), e(0)], [e(0), e(0)]])
    d = ExactMatrix.from_rows(ctx, [[e(0), e(0)], [e(0, 1), e(1)]])
    prod = c * d
    assert prod == ExactMatrix.zeros(ctx, 2)
    assert all(x.ctx == ctx for row in prod.rows for x in row)
    assert all(x.ctx == ctx for x in c.apply([e(0), e(0, 1)]))


def test_rational_entries_move_into_the_matrix_field():
    ctx = FieldContext(3)
    m = ExactMatrix.from_rows(ctx, [[QQ.rational(1, 2), QQ.zero()],
                                    [QQ.rational(3), QQ.rational(-1)]])
    assert m == M([[Fraction(1, 2), 0], [3, -1]])
    assert all(x.ctx == ctx for row in m.rows for x in row)
    assert m.scale(ctx.element(0, 1)) == ExactMatrix.from_rows(
        ctx, [[ctx.element(0, Fraction(1, 2)), 0], [ctx.element(0, 3), ctx.element(0, -1)]])
    own = [ctx.rational(5), ctx.element(1, 1)]
    assert all(x is y for x, y in zip(ExactMatrix.from_rows(ctx, [own]).rows[0], own))
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(ctx, [[FieldContext(2).element(0, 1)]])


def test_matrices_derived_in_one_field_skip_the_entry_lift(monkeypatch):
    ctx = FieldContext(3)
    a = ExactMatrix.from_rows(ctx, [[ctx.element(1, 1), 2], [0, ctx.element(0, -1)]])
    b = ExactMatrix.from_rows(ctx, [[3, ctx.element(0, 2)], [1, ctx.element(5, 1)]])
    lifts = []
    original = FieldContext.lift
    monkeypatch.setattr(FieldContext, "lift", lambda self, x: lifts.append(x) or original(self, x))
    results = {"neg": -a, "transpose": a.transpose(), "add": a + b, "sub": a - b,
               "mul": a * b, "scale": a.scale(2), "shift": a.shift(2)}
    assert len(lifts) == 2                  # the scalars of scale and shift only
    assert results["transpose"].rows == tuple(zip(*a.rows))
    assert all(x.ctx == ctx for m in results.values() for row in m.rows for x in row)
    # another context object, even an equal one, still goes through the lift
    other = ExactMatrix.from_rows(FieldContext(3), [[1, 2], [3, 4]])
    expected = a + ExactMatrix.from_rows(ctx, [[1, 2], [3, 4]])
    lifts.clear()
    assert a + other == expected and len(lifts) == 4
    mixed = a * M([[1, 0], [0, 1]])
    assert mixed == a and all(x.ctx == ctx for row in mixed.rows for x in row)
    with pytest.raises(ValueError):
        M([[1, 0], [0, 1]]) * a


def test_products_over_one_context_call_no_element_operator(monkeypatch):
    from dahalink.exactfield import FieldElement

    cases = []
    for ctx in (QQ, FieldContext(3)):
        r3 = ctx.element(0, 1) if ctx.disc == 3 else ctx.rational(1, 2)
        a = M([[r3, 1, 0], [0, 0, 0], [2, r3 + 1, "1/3"]], ctx)
        b = M([[r3, 0], [-3 if ctx.disc == 3 else "-1/4", 5], [0, r3]], ctx)
        expected = [[sum((a[i, t] * b[t, j] for t in range(3)), ctx.zero()) for j in range(2)]
                    for i in range(3)]
        cases.append((a, b, expected))

    def refuse(*args):
        raise AssertionError("an element operator was called")

    with monkeypatch.context() as mp:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__bool__"):
            mp.setattr(FieldElement, name, refuse)
        products = [a * b for a, b, _ in cases]
    for prod, (a, _, expected) in zip(products, cases):
        assert [list(row) for row in prod.rows] == expected
        assert all(x.ctx is a.ctx for row in prod.rows for x in row)


def test_a_cancelled_product_entry_is_the_shared_zero():
    ctx = FieldContext(3)
    for a, b in ((M([[1, 1]]), M([[1, 0], [-1, 0]])),
                 (M([[ctx.element(0, 1), 1]], ctx), M([[ctx.element(0, 1), 0], [-3, 0]], ctx))):
        prod = a * b
        assert not prod[0, 0] and prod[0, 0] is prod[0, 1]
        assert prod.to_json()["entries"][0][0] == {"rat": "0", "irr": "0", "disc": a.ctx.disc}


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        M([[1, 2]]) + M([[1], [2]])
    with pytest.raises(ValueError):
        M([[1, 2]]) * M([[1, 2]])


def test_inverse():
    a = M([[2, 1], [1, 1]])
    assert a * a.inverse() == ExactMatrix.identity(QQ, 2)
    assert a.inverse() * a == ExactMatrix.identity(QQ, 2)
    with pytest.raises(SingularMatrixError):
        M([[1, 2], [2, 4]]).inverse()


def test_inverse_randomized():
    rng = random.Random(99)
    done = 0
    while done < 20:
        a = rnd_matrix(rng, 4)
        if done % 2:    # mostly zeros: elimination skips zero entries
            a = M([[x if rng.random() < 0.4 else 0 for x in row] for row in a.rows])
        try:
            inv = a.inverse()
        except SingularMatrixError:
            continue
        assert a * inv == ExactMatrix.identity(QQ, 4)
        done += 1


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = rnd_matrix(rng, n, m)
        ker = kernel_basis(a)
        assert rank(a) + ker.dim == m
        zero = tuple(QQ.zero() for _ in range(n))
        for v in ker.basis:
            assert a.apply(v) == zero


def test_char_poly_known_cases():
    # x^2 - 5x - 2 for [[1,2],[3,4]]: det(xI - M) = x^2 - (tr)x + det
    cs = char_poly(M([[1, 2], [3, 4]]))
    assert [c for c in cs] == [QQ.rational(-2), QQ.rational(-5), QQ.rational(1)]
    # companion matrix of x^3 - 2
    comp = M([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert char_poly(comp) == [QQ.rational(-2), QQ.zero(), QQ.zero(), QQ.rational(1)]


def test_char_poly_evaluates_to_zero_on_matrix():
    # Cayley-Hamilton as a randomized structural check
    rng = random.Random(3)
    for _ in range(10):
        a = rnd_matrix(rng, 3)
        cs = char_poly(a)
        acc = ExactMatrix.zeros(QQ, 3)
        power = ExactMatrix.identity(QQ, 3)
        for c in cs:
            acc = acc + power.scale(c)
            power = power * a
        assert acc == ExactMatrix.zeros(QQ, 3)


def test_eigenspace_exactness():
    a = M([[2, 1], [0, 3]])
    for mu, dim in ((QQ.rational(2), 1), (QQ.rational(3), 1), (QQ.rational(5), 0)):
        es = eigenspace(a, mu)
        assert es.dim == dim
        for v in es.basis:
            assert a.apply(v) == tuple(mu * x for x in v)


def test_eigenspace_in_quadratic_field():
    ctx = FieldContext(5)
    # [[0,1],[1,1]] has eigenvalues (1 ± sqrt 5)/2
    a = ExactMatrix.from_rows(ctx, [[ctx.zero(), ctx.one()], [ctx.one(), ctx.one()]])
    mu = ctx.element(Fraction(1, 2), Fraction(1, 2))
    es = eigenspace(a, mu)
    assert es.dim == 1
    v = es.basis[0]
    assert a.apply(v) == tuple(mu * x for x in v)


def test_subspace_canonical_equality():
    v1 = [QQ.rational(1), QQ.rational(2)]
    v2 = [QQ.rational(2), QQ.rational(4), ]
    s = Subspace(QQ, 2, [v1])
    t = Subspace(QQ, 2, [v2])
    assert s == t and hash(s) == hash(t)
    assert s.contains(v2)
    assert not s.contains([QQ.rational(1), QQ.rational(3)])
    with pytest.raises(ValueError):
        Subspace(QQ, 2, [v1, v2])  # dependent


def _random_invertible(rng, n, ctx):
    while True:
        p = rnd_matrix(rng, n, ctx=ctx)
        if ctx.disc != 1:
            p = p + rnd_matrix(rng, n, ctx=ctx).scale(ctx.element(0, 1))
        if rank(p) == n:
            return p


@pytest.mark.parametrize("disc", [1, 2])
def test_restrict_to_basis_square_basis_matches_inverse_reference(disc):
    # on a basis of the whole space, the reference P^{-1} M P with the
    # inverse formed explicitly
    ctx = QQ if disc == 1 else FieldContext(disc)
    rng = random.Random(17 + disc)
    for _ in range(15):
        n = rng.randint(1, 5)
        p = _random_invertible(rng, n, ctx)
        m = rnd_matrix(rng, n, ctx=ctx)
        if disc != 1:
            m = m - rnd_matrix(rng, n, ctx=ctx).scale(ctx.element(0, 1))
        b = restrict_to_basis(m, [p.col(j) for j in range(n)])
        assert b == p.inverse() * m * p
        assert p * b == m * p
        assert all(x.ctx == ctx for row in b.rows for x in row)


def test_restrict_to_basis_singular_square_basis_raises():
    a = M([[1, 2], [3, 4]])
    cols = lambda p: [p.col(j) for j in range(p.ncols)]
    for p in (M([[1, 2], [2, 4]]), M([[0, 0], [0, 0]])):
        with pytest.raises(ValueError) as info:
            restrict_to_basis(a, cols(p))
        assert info.type is ValueError          # dependence, not NotInvariantError
    with pytest.raises(ValueError) as info:
        restrict_to_basis([a, a], cols(M([[1, 1], [1, 1]])))
    assert info.type is ValueError


def test_restrict_composition():
    # restriction respects products on a shared invariant subspace
    a = M([[2, 0, 0], [0, 3, 1], [0, 0, 3]])
    b = M([[1, 0, 0], [0, 5, 0], [0, 0, 5]])
    basis = [[QQ.rational(0), QQ.rational(1), QQ.rational(0)],
             [QQ.rational(0), QQ.rational(0), QQ.rational(1)]]
    ra, rb = restrict_to_basis(a, basis), restrict_to_basis(b, basis)
    assert restrict_to_basis(a * b, basis) == ra * rb


def test_restrict_not_invariant():
    a = M([[0, 1], [1, 0]])
    with pytest.raises(NotInvariantError):
        restrict_to_basis(a, [[QQ.rational(1), QQ.rational(0)]])


def test_restrict_to_basis_dependent_basis_raises():
    a = ExactMatrix.identity(QQ, 3)
    e0 = [QQ.rational(1), QQ.rational(0), QQ.rational(0)]
    e1 = [QQ.rational(0), QQ.rational(1), QQ.rational(0)]
    twice = [QQ.rational(2), QQ.rational(0), QQ.rational(0)]
    for basis in ([e0, twice], [e0, e1, [x + y for x, y in zip(e0, e1)]], [e0, e1, e1, e0]):
        with pytest.raises(ValueError) as info:
            restrict_to_basis(a, basis)
        assert info.type is ValueError          # not NotInvariantError
    # dependent and not invariant: dependence is reported
    swap = M([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError) as info:
        restrict_to_basis(swap, [e0, twice])
    assert info.type is ValueError
    with pytest.raises(ValueError):
        restrict_to_basis(a, [])


def test_restrict_to_basis_several_operators():
    a = M([[2, 0, 0], [0, 3, 1], [0, 0, 3]])
    b = M([[1, 0, 0], [0, 5, 2], [0, 7, 5]])
    basis = [[QQ.rational(0), QQ.rational(1), QQ.rational(1)],
             [QQ.rational(0), QQ.rational(2), QQ.rational(-1)]]
    assert restrict_to_basis([a, b], basis) == [restrict_to_basis(a, basis),
                                                 restrict_to_basis(b, basis)]
    # the restriction is the coordinate form: B R = M B
    bmat = ExactMatrix.from_cols(QQ, basis)
    for op, res in zip((a, b), restrict_to_basis((a, b), basis)):
        assert bmat * res == op * bmat
    # one operator failing invariance fails the whole call
    with pytest.raises(NotInvariantError):
        restrict_to_basis([a, M([[0, 1, 0], [1, 0, 0], [0, 0, 1]])], basis)


def test_restrict_to_basis_order_matters():
    a = M([[1, 0], [0, 2]])
    e0 = [QQ.rational(1), QQ.rational(0)]
    e1 = [QQ.rational(0), QQ.rational(1)]
    assert restrict_to_basis(a, [e0, e1]) == M([[1, 0], [0, 2]])
    assert restrict_to_basis(a, [e1, e0]) == M([[2, 0], [0, 1]])


def test_shape_predicates():
    diag = M([[1, 0], [0, 2]])
    assert is_banded(diag, 0, 0) and is_banded(diag, 1, 1)
    tri = M([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert is_banded(tri, 1, 1) and not is_banded(tri, 1, 0) and not is_banded(tri, 0, 1)
    assert not is_banded(M([[1, 0, 1], [0, 1, 0], [0, 0, 1]]), 1, 1)
    lower2 = M([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    assert is_banded(lower2, 2, 0) and not is_banded(lower2, 0, 2)
    assert not is_banded(lower2, 1, 0)
    assert is_banded(lower2.transpose(), 0, 2)
    lb = M([[1, 0], [1, 1]])
    assert is_banded(lb, 1, 0) and not is_banded(lb, 0, 1)
    assert is_banded(lb.transpose(), 0, 1)
    # bidiagonal is in particular (lower/upper) tridiagonal in the 2-band sense
    assert is_banded(lb, 2, 0) and is_banded(lb.transpose(), 0, 2)
    assert not is_banded(M([[1, 0, 0], [0, 1, 0]]), 2, 2)      # not square


def test_matrix_json_round_trip():
    ctx = FieldContext(3)
    a = ExactMatrix.from_rows(ctx, [[ctx.element(1, 2), ctx.zero()],
                                    [ctx.element(0, -1), ctx.rational(7, 2)]])
    back = ExactMatrix.from_json(a.to_json(), ctx)
    assert back == a
    # plain-Q matrices need no context hint
    b = M([[1, 2], [3, 4]])
    assert ExactMatrix.from_json(b.to_json()) == b
