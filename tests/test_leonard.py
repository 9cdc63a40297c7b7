import random
import time
from fractions import Fraction

import pytest

from dahalink.exactfield import (
    QQ,
    ExtensionRequiredError,
    FieldContext,
    SquareFreeBoundError,
    int_pow,
)
from dahalink.exactlinalg import (
    ExactMatrix,
    is_banded,
)
from dahalink.leonard import (
    HuangData,
    LeonardPair,
    NotStandardOrderingError,
    ParameterArray,
    askey_wilson_third,
    build_pair_from_huang,
    check_huang_admissible,
    common_context,
    huang_data_from_array,
    huang_equivalent,
    parameter_arrays,
    qracah_parameter,
    recognize_leonard_pair,
    split_sequence,
)

Q2 = QQ.rational(2)


def hd(a, b, c, d):
    return HuangData(QQ.rational(*a) if isinstance(a, tuple) else QQ.rational(a),
                     QQ.rational(*b) if isinstance(b, tuple) else QQ.rational(b),
                     QQ.rational(*c) if isinstance(c, tuple) else QQ.rational(c),
                     d)


def ladder(alpha, d, q):
    return [alpha * int_pow(q, 2 * r - d) + alpha.inv() * int_pow(q, d - 2 * r)
            for r in range(d + 1)]


def test_huang_data_validation():
    h = hd(3, 5, 7, 2)
    assert h.a == 3 and h.d == 2
    with pytest.raises(ValueError):
        hd(3, 5, 7, -1)
    assert hd(3, 5, 7, 255).d == 255          # MAX_DIAMETER, which is daha.MAX_N
    with pytest.raises(ValueError):
        hd(3, 5, 7, 256)
    with pytest.raises(ValueError):
        HuangData(QQ.zero(), QQ.rational(5), QQ.rational(7), 1)


def test_huang_data_promotes_to_common_context():
    ctx = FieldContext(5)
    h = HuangData(ctx.element(0, 1), QQ.rational(5), QQ.rational(7), 1)
    assert h.a.ctx == h.b.ctx == h.c.ctx == ctx


def test_huang_data_json_round_trip():
    h = hd((3, 2), 5, (1, 7), 3)
    assert HuangData.from_json(h.to_json()) == h


def test_common_context_rejects_mixed_extensions():
    with pytest.raises(ValueError):
        common_context(FieldContext(2).element(0, 1), FieldContext(3).element(0, 1))


def test_parameter_array_validation():
    one = QQ.one()
    two = QQ.rational(2)
    pa = ParameterArray((one, two), (two, one), (one,), (one,))
    assert pa.diameter == 1
    with pytest.raises(ValueError):
        ParameterArray((one, one), (two, one), (one,), (one,))  # repeated theta
    with pytest.raises(ValueError):
        ParameterArray((one, two), (two, one), (QQ.zero(),), (one,))  # zero phi
    with pytest.raises(ValueError):
        ParameterArray((one, two), (two, one), (one,), (one, one))  # length
    assert ParameterArray.from_json(pa.to_json()) == pa


def test_qracah_parameter_positive_diameter():
    alpha = QQ.rational(3)
    th = ladder(alpha, 3, Q2)
    got = qracah_parameter(th, Q2)
    assert got is not None and got in (alpha, alpha.inv())
    # a non-geometric ladder is rejected
    th[2] = th[2] + QQ.one()
    assert qracah_parameter(th, Q2) is None


def test_qracah_parameter_diameter_zero():
    # theta_0 = 5/2 = 2 + 1/2 -> alpha in {2, 1/2}
    got = qracah_parameter([QQ.rational(5, 2)], Q2)
    assert got is not None and got in (Q2, Q2.inv())
    # theta_0 = 3 -> alpha solves alpha + 1/alpha = 3, irrational: extends? no —
    # qracah_parameter answers only inside the element's own field
    assert qracah_parameter([QQ.rational(3)], Q2) is None


def test_flagship_split_sequences():
    # q=2, (a,b,c,d) = (3,5,7,1): phi_1 = -624/35 and varphi_1 = 384/35
    h = hd(3, 5, 7, 1)
    pair = build_pair_from_huang(h, Q2)
    theta = ladder(QQ.rational(3), 1, Q2)
    theta_star = ladder(QQ.rational(5), 1, Q2)
    assert theta == [QQ.rational(13, 6), QQ.rational(37, 6)]
    assert theta_star == [QQ.rational(29, 10), QQ.rational(101, 10)]
    phi = split_sequence(pair, theta, theta_star)
    varphi = split_sequence(pair, theta[::-1], theta_star)
    assert phi == [QQ.rational(-624, 35)]
    assert varphi == [QQ.rational(384, 35)]
    pa = parameter_arrays(pair, (theta, theta_star))[0]
    assert pa.phi == (QQ.rational(-624, 35),)
    assert pa.phi2 == (QQ.rational(384, 35),)


def test_split_sequence_rejects_non_standard_order():
    pair = build_pair_from_huang(hd(3, 5, 7, 2), Q2)
    theta = ladder(QQ.rational(3), 2, Q2)
    theta_star = ladder(QQ.rational(5), 2, Q2)
    assert split_sequence(pair, theta, theta_star)  # sanity: standard works
    swapped = [theta[1], theta[0], theta[2]]
    with pytest.raises(NotStandardOrderingError):
        split_sequence(pair, swapped, theta_star)


def test_split_sequence_rejects_dependent_chain():
    # from theta*_0 = 3 the chain is v_0 = e_1, v_1 = (A - 1) e_1 = e_1 and
    # (A - 2) v_1 = 0, with A* v_1 - 5 v_1 = -2 v_0: every step passes, but
    # v_1 = v_0, so the chain is no basis
    pair = LeonardPair(ExactMatrix.diagonal(QQ, [1, 2]), ExactMatrix.diagonal(QQ, [5, 3]))
    with pytest.raises(NotStandardOrderingError):
        split_sequence(pair, [QQ.rational(1), QQ.rational(2)],
                       [QQ.rational(3), QQ.rational(5)])


def _intersection_dim_and_vector(ctx, n, span1, span2):
    """Basis of span(span1) ∩ span(span2) via the kernel of [B1 | -B2]."""
    from dahalink.exactlinalg import kernel_basis
    cols = [list(v) for v in span1] + [[-x for x in v] for v in span2]
    stacked = ExactMatrix.from_cols(ctx, cols)
    ker = kernel_basis(stacked)
    out = []
    for coeffs in ker.basis:
        vec = [ctx.zero()] * n
        for c, v in zip(coeffs[: len(span1)], span1):
            vec = [acc + c * x for acc, x in zip(vec, v)]
        out.append(tuple(vec))
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_split_decomposition_intersections(d):
    # U_r = (E*_0 + .. + E*_r) ∩ (E_r + .. + E_d) is exactly the line
    # spanned by the r-th split-basis vector
    from dahalink.exactlinalg import Subspace, eigenspace
    h = hd(3, 5, 7, d)
    assert check_huang_admissible(h, Q2)
    pair = build_pair_from_huang(h, Q2)
    theta = ladder(QQ.rational(3), d, Q2)
    theta_star = ladder(QQ.rational(5), d, Q2)
    split_sequence(pair, theta, theta_star)  # validates the orderings
    ev = [eigenspace(pair.A, t).basis[0] for t in theta]
    ev_star = [eigenspace(pair.Astar, t).basis[0] for t in theta_star]
    # rebuild the split chain
    ident = ExactMatrix.identity(QQ, d + 1)
    vecs = [eigenspace(pair.Astar, theta_star[0]).basis[0]]
    for r in range(d):
        vecs.append((pair.A - ident.scale(theta[r])).apply(vecs[r]))
    for r in range(d + 1):
        inter = _intersection_dim_and_vector(QQ, d + 1, ev_star[: r + 1], ev[r:])
        assert len(inter) == 1
        assert Subspace(QQ, d + 1, [inter[0]]) == Subspace(QQ, d + 1, [vecs[r]])


def test_recognize_leonard_pair():
    pair = build_pair_from_huang(hd(3, 5, 7, 2), Q2)
    rec = recognize_leonard_pair(pair.A, pair.Astar)
    assert rec is not None
    theta, theta_star = rec
    # recognized orderings are the built ladders up to inversion
    built = tuple(ladder(QQ.rational(3), 2, Q2))
    built_star = tuple(ladder(QQ.rational(5), 2, Q2))
    assert theta in (built, built[::-1])
    assert theta_star in (built_star, built_star[::-1])
    # lexicographic tie-break: returned direction is the smaller one
    assert theta == min(theta, theta[::-1],
                        key=lambda t: [x.canonical_str() for x in t])


def test_recognize_rejects_non_leonard_pairs():
    # two diagonal matrices: eigenbases never tridiagonalize the partner
    a = ExactMatrix.diagonal(QQ, [QQ.rational(i) for i in (1, 2, 3)])
    b = ExactMatrix.diagonal(QQ, [QQ.rational(i) for i in (4, 5, 6)])
    assert recognize_leonard_pair(a, b) is None
    # repeated eigenvalues fail multiplicity-freeness
    c = ExactMatrix.diagonal(QQ, [QQ.one(), QQ.one()])
    assert recognize_leonard_pair(c, c) is None


# A, in the eigenbasis of the diagonal A*, is tridiagonal with a path for its
# support, but one step is nonzero on one side only.  Checking only the
# entries above the diagonal accepts the first orientation, only those below
# it the transposed one.
ONE_SIDED_STEPS = {"d1": [[1, 1], [0, 2]], "d2": [[-2, 1, 0], [0, 2, 1], [0, 3, 4]]}


@pytest.mark.parametrize("transpose", [False, True], ids=["zero-below", "zero-above"])
@pytest.mark.parametrize("name", ONE_SIDED_STEPS)
def test_recognition_refuses_a_step_nonzero_on_one_side_only(name, transpose):
    A = ExactMatrix.from_rows(QQ, ONE_SIDED_STEPS[name])
    A = A.transpose() if transpose else A
    Astar = ExactMatrix.diagonal(QQ, [QQ.rational(3 + 2 * i) for i in range(A.nrows)])
    assert is_banded(A, 1, 1)
    assert sum(1 for i in range(A.nrows - 1) if bool(A.rows[i][i + 1]) != bool(A.rows[i + 1][i])) == 1
    assert recognize_leonard_pair(A, Astar) is None


@pytest.mark.parametrize("d, r", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_split_form_certificate_rejects_a_corrupted_pair(d, r):
    # doubling a superdiagonal entry of A* keeps the split form under the
    # built ladders but breaks the Leonard pair; the split sequences of
    # parameter_arrays under those orderings see it
    pair = build_pair_from_huang(hd(3, 5, 7, d), Q2)
    rows = [list(row) for row in pair.Astar.rows]
    rows[r][r + 1] = rows[r][r + 1] * 2
    bad = LeonardPair(pair.A, ExactMatrix(QQ, rows))
    theta = ladder(QQ.rational(3), d, Q2)
    theta_star = ladder(QQ.rational(5), d, Q2)
    assert recognize_leonard_pair(bad.A, bad.Astar) is None
    with pytest.raises(NotStandardOrderingError):
        parameter_arrays(bad, (theta, theta_star))


# ---------------------------------------------------------------------------
# The parameter array read off a bidiagonal pair: one test per condition
# (Terwilliger, Linear Algebra Appl. 330, 2001, Theorem 1.9)
# ---------------------------------------------------------------------------


def bidiagonal_pair(theta, theta_star, phi, sub=None):
    """A lower bidiagonal on theta with subdiagonal ``sub`` (default 1s), A*
    upper bidiagonal on theta* with superdiagonal phi_r / sub_r."""
    d = len(theta) - 1
    sub = sub or [QQ.one()] * d
    z = QQ.zero()
    A = [[theta[i] if i == j else sub[j] if i == j + 1 else z for j in range(d + 1)]
         for i in range(d + 1)]
    S = [[theta_star[i] if i == j else phi[i] * sub[i].inv() if j == i + 1 else z
          for j in range(d + 1)] for i in range(d + 1)]
    return LeonardPair(ExactMatrix(QQ, A), ExactMatrix(QQ, S))


def qracah_pair(a, b, c, d, sub=None):
    """The q-Racah split form at q = 2 for any (a, b, c), admissible or not."""
    from dahalink.leonard import _phi_formula

    a, b, c = (QQ.rational(*x) if isinstance(x, tuple) else QQ.rational(x) for x in (a, b, c))
    theta, theta_star = ladder(a, d, Q2), ladder(b, d, Q2)
    phi = [_phi_formula(a, b, c, d, Q2, r) for r in range(1, d + 1)]
    varphi = [_phi_formula(a.inv(), b, c, d, Q2, r) for r in range(1, d + 1)]
    return bidiagonal_pair(theta, theta_star, phi, sub), theta, theta_star, phi, varphi


@pytest.mark.parametrize("h", [(3, 5, 7, 1), (3, 5, 7, 2), (3, 5, 7, 3), ((1, 3), 5, (1, 7), 4)])
def test_bidiagonal_array_reads_phi_and_takes_varphi_from_pa4(h):
    from dahalink.leonard import _bidiagonal_array

    d = h[3]
    sub = [QQ.rational(r + 2, 3) for r in range(d)]     # a rescaled split basis
    pair, theta, theta_star, _, _ = qracah_pair(*h, sub=sub)
    pa = _bidiagonal_array(pair, theta, theta_star)
    assert pa.phi == tuple(split_sequence(pair, theta, theta_star))
    assert pa.phi2 == tuple(split_sequence(pair, theta[::-1], theta_star))
    assert huang_equivalent(huang_data_from_array(pa, Q2), hd(*h))


def test_bidiagonal_array_needs_a_nonzero_subdiagonal():
    from dahalink.leonard import _bidiagonal_array

    pair, theta, theta_star, _, _ = qracah_pair(3, 5, 7, 2)
    rows = [list(row) for row in pair.A.rows]
    rows[2][1] = QQ.zero()
    with pytest.raises(ValueError, match="zero subdiagonal"):
        _bidiagonal_array(LeonardPair(ExactMatrix(QQ, rows), pair.Astar), theta, theta_star)


@pytest.mark.parametrize("a, d", [(2, 3), (1, 2)], ids=["theta0=theta2", "theta0=thetad"])
def test_bidiagonal_array_needs_distinct_eigenvalues_pa1(a, d):
    from dahalink.leonard import _bidiagonal_array

    pair, theta, theta_star, phi, varphi = qracah_pair(a, 5, 7, d)
    assert len(set(theta)) == d and all(phi) and all(varphi)
    with pytest.raises(ValueError, match="must be distinct"):
        _bidiagonal_array(pair, theta, theta_star)


@pytest.mark.parametrize("c, which", [((2, 15), "phi"), ((6, 5), "varphi")])
def test_bidiagonal_array_needs_nonzero_split_sequences_pa2(c, which):
    # abc = q (phi_1 = 0), or a^{-1} b c = q (varphi_1 = 0), at d = 2
    from dahalink.leonard import _bidiagonal_array

    pair, theta, theta_star, phi, varphi = qracah_pair(3, 5, c, 2)
    assert [not x for x in phi + varphi] == [which == "phi", False, which == "varphi", False]
    with pytest.raises(ValueError, match="split sequences must be nonzero"):
        _bidiagonal_array(pair, theta, theta_star)


@pytest.mark.parametrize("d, r", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_bidiagonal_array_rejects_a_corrupted_superdiagonal_pa3(d, r):
    from dahalink.leonard import _bidiagonal_array

    pair, theta, theta_star, _, _ = qracah_pair(3, 5, 7, d)
    rows = [list(row) for row in pair.Astar.rows]
    rows[r][r + 1] = rows[r][r + 1] * 2
    with pytest.raises(ValueError, match="PA3 fails"):
        _bidiagonal_array(LeonardPair(pair.A, ExactMatrix(QQ, rows)), theta, theta_star)


def test_bidiagonal_array_needs_one_recurrence_pa5():
    # theta = 0, 1, 3, 7 has (theta_0 - theta_3)/(theta_1 - theta_2) = 7/2,
    # the q-Racah theta* has q^2 + 1 + q^{-2} = 21/4; phi is built to satisfy
    # PA3 and PA4, so only PA5 fails
    from dahalink.leonard import _bidiagonal_array

    d = 3
    theta = [QQ.rational(x) for x in (0, 1, 3, 7)]
    theta_star = ladder(QQ.rational(5), d, Q2)
    sums = lambda i: sum((theta[h] - theta[d - h] for h in range(i)), QQ.zero()) * (
        theta[0] - theta[d]).inv()
    rise = lambda i: theta_star[i] - theta_star[0]
    phi1 = QQ.one()
    varphi1 = phi1 + rise(1) * (theta[d] - theta[0])                      # PA4, i = 1
    phi = [varphi1 * sums(i) + rise(i) * (theta[i - 1] - theta[d]) for i in range(1, d + 1)]
    varphi = [phi1 * sums(i) + rise(i) * (theta[d - i + 1] - theta[0]) for i in range(1, d + 1)]
    assert phi[0] == phi1 and all(phi) and all(varphi)
    with pytest.raises(ValueError, match="PA5 fails"):
        _bidiagonal_array(bidiagonal_pair(theta, theta_star, phi), theta, theta_star)


def test_recognition_eliminates_once_per_eigenvalue(monkeypatch):
    import dahalink.leonard as leonard

    d = 3
    pair = build_pair_from_huang(hd(3, 5, 7, d), Q2)
    eig_calls, rank_calls = [], []
    original = leonard.eigenspace

    def counting(m, mu):
        eig_calls.append(m)
        return original(m, mu)

    monkeypatch.setattr(leonard, "eigenspace", counting)
    monkeypatch.setattr(leonard, "rank", lambda m: rank_calls.append(m), raising=False)
    assert recognize_leonard_pair(pair.A, pair.Astar) is not None
    assert sum(m is pair.A for m in eig_calls) == d + 1
    assert sum(m is pair.Astar for m in eig_calls) == d + 1
    assert len(eig_calls) == 2 * (d + 1) and rank_calls == []


def test_parameter_arrays_structure():
    pair = build_pair_from_huang(hd(3, 5, 7, 2), Q2)
    theta = tuple(ladder(QQ.rational(3), 2, Q2))
    theta_star = tuple(ladder(QQ.rational(5), 2, Q2))
    arrays = parameter_arrays(pair, (theta, theta_star))
    assert len(arrays) == 4
    assert arrays[0].theta == theta and arrays[0].theta_star == theta_star
    assert arrays[1].theta_star == theta_star[::-1]
    assert arrays[2].theta == theta[::-1]
    assert arrays[3].phi == arrays[0].phi[::-1]
    # every array is a genuine parameter array of the same pair: its Huang
    # data all describe the one isomorphism class up to inverses
    hs = [huang_data_from_array(pa, Q2) for pa in arrays]
    assert all(h is not None for h in hs)
    assert all(huang_equivalent(hs[0], h) for h in hs[1:])


def test_huang_round_trip_randomized():
    rng = random.Random(20260815)
    pool = [3, 5, 7, 11, 13, Fraction(1, 3), Fraction(1, 7)]
    done = 0
    while done < 20:
        d = rng.randint(1, 4)
        a, b, c = (QQ.from_fraction(Fraction(rng.choice(pool))) for _ in range(3))
        h = HuangData(a, b, c, d)
        if not check_huang_admissible(h, Q2):
            continue
        pair = build_pair_from_huang(h, Q2)
        assert is_banded(pair.A, 1, 0) and is_banded(pair.Astar, 0, 1)
        back = huang_data_from_array(parameter_arrays(pair)[0], Q2)
        assert back is not None and huang_equivalent(back, h)
        done += 1


def test_huang_data_from_array_extends_for_irrational_c():
    # theta ladders of a=3, b=5 at q=2, d=1, with phi_1 chosen so that
    # c + 1/c = 3: then c = (3 ± sqrt 5)/2 and the context must extend.
    # phi_1 = K (q^{-2} + a^2 b^2 q^{-2} - s a b q^{-2}) with s = 3:
    # K = -3/5, so phi_1 = (-3/5)(181/4) = -543/20.
    theta = [QQ.rational(13, 6), QQ.rational(37, 6)]
    theta_star = [QQ.rational(29, 10), QQ.rational(101, 10)]
    z, one = QQ.zero(), QQ.one()
    A = ExactMatrix.from_rows(QQ, [[theta[0], z], [one, theta[1]]])
    S = ExactMatrix.from_rows(QQ, [[theta_star[0], QQ.rational(-543, 20)],
                                   [z, theta_star[1]]])
    pair = LeonardPair(A, S)
    pa = parameter_arrays(pair, (theta, theta_star))[0]
    h = huang_data_from_array(pa, Q2)
    assert h is not None
    assert h.ctx.disc == 5
    assert h.c + h.c.inv() == 3
    assert h.a in (QQ.rational(3), QQ.rational(1, 3))
    assert h.b in (QQ.rational(5), QQ.rational(1, 5))


def test_huang_data_from_array_bounds_the_radicand():
    # the pair of test_huang_data_from_array_extends_for_irrational_c with
    # c + 1/c = s = 2**61 + 1, so s**2 - 4 = (2**61 - 1)(2**61 + 3) holds a
    # prime past the trial-division bound once: phi_1 = (-3/20)(226 - 15 s)
    s = 2 ** 61 + 1
    theta = [QQ.rational(13, 6), QQ.rational(37, 6)]
    theta_star = [QQ.rational(29, 10), QQ.rational(101, 10)]
    z, one = QQ.zero(), QQ.one()
    A = ExactMatrix.from_rows(QQ, [[theta[0], z], [one, theta[1]]])
    S = ExactMatrix.from_rows(QQ, [[theta_star[0], QQ.rational(-3 * (226 - 15 * s), 20)],
                                   [z, theta_star[1]]])
    pa = parameter_arrays(LeonardPair(A, S), (theta, theta_star))[0]
    started = time.perf_counter()
    with pytest.raises(SquareFreeBoundError):
        huang_data_from_array(pa, Q2)
    assert time.perf_counter() - started < 1


def test_huang_data_from_array_refuses_second_extension():
    # same pair, but already living in Q(sqrt 2): solving for c would need
    # sqrt 5 on top, which the single-extension field model rejects
    ctx = FieldContext(2)
    theta = [ctx.rational(13, 6), ctx.rational(37, 6)]
    theta_star = [ctx.rational(29, 10), ctx.rational(101, 10)]
    z, one = ctx.zero(), ctx.one()
    A = ExactMatrix.from_rows(ctx, [[theta[0], z], [one, theta[1]]])
    S = ExactMatrix.from_rows(ctx, [[theta_star[0], ctx.rational(-543, 20)],
                                    [z, theta_star[1]]])
    pa = parameter_arrays(LeonardPair(A, S), (theta, theta_star))[0]
    with pytest.raises(ExtensionRequiredError):
        huang_data_from_array(pa, ctx.rational(2))


def test_check_huang_admissible():
    assert check_huang_admissible(hd(3, 5, 7, 2), Q2)
    # a^2 = q^2 violates condition (i)
    assert not check_huang_admissible(hd(2, 5, 7, 2), Q2)
    assert not check_huang_admissible(hd(3, (1, 2), 7, 2), Q2)
    # abc = q^0 violates condition (ii)
    assert not check_huang_admissible(hd(3, 5, (1, 15), 1), Q2)
    # abc^{-1} = q^0 likewise
    assert not check_huang_admissible(hd(3, 5, 15, 1), Q2)
    # d = 0 has no conditions at all
    assert check_huang_admissible(hd(2, 1, 1, 0), Q2)


def test_huang_equivalent():
    assert huang_equivalent(hd(3, 5, 7, 2), hd((1, 3), 5, (1, 7), 2))
    assert not huang_equivalent(hd(3, 5, 7, 2), hd(3, 5, 11, 2))
    assert not huang_equivalent(hd(3, 5, 7, 2), hd(3, 5, 7, 1))
    # c is ignored entirely at d = 0
    assert huang_equivalent(hd(3, 5, 7, 0), hd(3, 5, 11, 0))


def test_build_pair_rejects_inadmissible():
    with pytest.raises(ValueError):
        build_pair_from_huang(hd(2, 5, 7, 2), Q2)


def test_build_pair_certifies_its_split_form_without_split_sequences(monkeypatch):
    # the pair is built in split form: the array read off its bidiagonals
    # and the Huang round trip certify it, with no split sequence
    import dahalink.leonard as leonard

    calls = []
    original = leonard.split_sequence
    monkeypatch.setattr(leonard, "split_sequence",
                        lambda *args: calls.append(1) or original(*args))
    pairs = [build_pair_from_huang(hd(3, 5, 7, d), Q2) for d in range(5)]
    assert calls == []
    parameter_arrays(pairs[2])          # the counter sees the other callers
    assert len(calls) == 4


def _aw_residuals(pair, Ae, h, q):
    ctx = Ae.ctx
    a, b, c = h.a, h.b, h.c
    qq = q if q.ctx == ctx else ctx.rational(q.rat.numerator, q.rat.denominator)
    gamma = lambda x, y, z: (((int_pow(qq, h.d + 1) + int_pow(qq, -h.d - 1))
                              * (x + x.inv()) + (y + y.inv()) * (z + z.inv()))
                             * (qq + qq.inv()).inv())
    denom_inv = (qq * qq - (qq * qq).inv()).inv()
    comm = lambda M, N: (M * N).scale(qq) - (N * M).scale(qq.inv())
    ident = ExactMatrix.identity(ctx, Ae.nrows)
    A, S = pair.A, pair.Astar
    r1 = A + comm(S, Ae).scale(denom_inv) - ident.scale(gamma(a, b, c))
    r2 = S + comm(Ae, A).scale(denom_inv) - ident.scale(gamma(b, c, a))
    return r1, r2


def test_askey_wilson_third():
    h = hd(3, 5, 7, 2)
    pair = build_pair_from_huang(h, Q2)
    Ae = askey_wilson_third(pair, h, Q2)  # verifies AW1-AW2 internally
    zero = ExactMatrix.zeros(QQ, 3)
    r1, r2 = _aw_residuals(pair, Ae, h, Q2)
    assert r1 == zero and r2 == zero
    # invariance under inverting any Huang scalar
    for h2 in (hd((1, 3), 5, 7, 2), hd(3, (1, 5), 7, 2), hd(3, 5, (1, 7), 2)):
        assert askey_wilson_third(pair, h2, Q2) == Ae


def test_askey_wilson_rigidity():
    # for d >= 1 no other A^e + lambda I satisfies both relations
    h = hd(3, 5, 7, 1)
    pair = build_pair_from_huang(h, Q2)
    Ae = askey_wilson_third(pair, h, Q2)
    zero = ExactMatrix.zeros(QQ, 2)
    for lam in (1, -1, Fraction(1, 2), 5):
        shifted = Ae + ExactMatrix.identity(QQ, 2).scale(QQ.from_fraction(Fraction(lam)))
        r1, r2 = _aw_residuals(pair, shifted, h, Q2)
        assert r1 != zero or r2 != zero
