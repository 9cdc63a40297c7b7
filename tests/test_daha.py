import itertools
import json
import random
from fractions import Fraction

import pytest

from dahalink.exactfield import QQ, FieldContext, int_pow
from dahalink.exactlinalg import (
    ExactMatrix,
    eigenspace,
    is_banded,
    restrict_to_basis,
)
from dahalink.leonard import HuangData, VerificationError, huang_equivalent
from dahalink.daha import (
    MAX_N,
    HqModule,
    HqParams,
    LinkError,
    XType,
    build_module,
    derived_elements,
    eigenvalue_ladder,
    is_feasible,
    link_check,
    link_construct,
    restricted_leonard_pairs,
    sample_params,
    t0_split,
    twist,
    u_basis,
    validate_params,
    verify_hq_relations,
    x_diagram,
)

Q2 = QQ.rational(2)
R = QQ.rational


def K(*vals):
    return tuple(R(*v) if isinstance(v, tuple) else R(v) for v in vals)


# one known-valid parameter vector per X-type at q = 2
FLAGSHIP = (XType.DDa, 3, K((1, 4), 3, 7, 5))
INSTANCES = (
    (XType.DS, 2, K(3, 5, 7, (1, 840))),
    FLAGSHIP,
    (XType.DDb, 3, K((1, 11), 5, (1, 13), (-1, 4))),
    (XType.SSa, 3, K(3, (1, 4), 5, 11)),
    (XType.SSb, 3, K((1, 13), 3, (1, 4), (1, 11))),
)


def build(idx):
    xtype, n, k = INSTANCES[idx]
    return build_module(xtype, n, k, Q2)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def test_validate_params_accepts_known_instances():
    for xtype, n, k in INSTANCES:
        assert validate_params(xtype, n, k, Q2) == []


def test_validate_params_q_and_k_guards():
    k = K(3, 5, 7, (1, 840))
    assert validate_params(XType.DS, 2, k, QQ.one()) == ["q-invalid"]
    assert validate_params(XType.DS, 2, k, QQ.rational(-1)) == ["q-invalid"]
    assert validate_params(XType.DS, 2, (R(3), R(5), R(7)), Q2) == ["k-nonzero"]
    assert validate_params(XType.DS, 2, K(0, 5, 7, 11), Q2) == ["k-nonzero"]
    assert validate_params(XType.DS, -2, k, Q2) == ["n-negative"]


def test_validate_params_bounds_n_before_any_power_of_q(monkeypatch):
    import dahalink.daha as daha

    k = K(3, 5, 7, (1, 840))
    assert validate_params(XType.DS, MAX_N - 1, k, Q2) != ["n-too-large"]
    monkeypatch.setattr(daha, "int_pow", None)      # any power of q would fail
    for n in (MAX_N + 1, MAX_N + 2, 10 ** 9):
        assert validate_params(XType.DS, n, k, Q2) == ["n-too-large"]
        assert validate_params(XType.DDa, n, K((1, 4), 3, 7, 5), Q2) == ["n-too-large"]
    assert validate_params(XType.DS, -2, k, Q2) == ["n-negative"]
    with pytest.raises(ValueError, match="n-too-large"):
        build_module(XType.DS, 100000, k, Q2)


def test_validate_params_parity():
    assert validate_params(XType.DS, 3, K(3, 5, 7, (1, 840)), Q2) == ["parity"]
    assert validate_params(XType.DDa, 2, K((1, 4), 3, 7, 5), Q2) == ["parity"]


def test_validate_params_ds_conditions():
    # wrong product
    assert "defining-equation" in validate_params(XType.DS, 2, K(3, 5, 7, 11), Q2)
    # k0k3 on the forbidden line q^{-1}..q^{-n}: 2 * 1/4 = 1/2 = q^{-1}
    bad = validate_params(XType.DS, 2, K(2, 3, (1, 12), (1, 4)), Q2)
    assert bad == ["k0k3-line"]
    # a single k_i on the half line q^{-1}..q^{-n/2}
    bad = validate_params(XType.DS, 2, K(3, (1, 2), 5, (1, 60)), Q2)
    assert bad == ["k1-halfline"]
    assert validate_params(XType.DS, 2, K(-3, (-1, 2), -5, (-1, 60)), Q2) \
        == ["k1-halfline"]


def test_validate_params_non_ds_conditions():
    # solo slot must square to q^{-n-1}
    assert validate_params(XType.DDa, 3, K((1, 2), 3, 7, 5), Q2) \
        == ["defining-equation"]
    assert validate_params(XType.SSa, 3, K(3, (1, 2), 5, 11), Q2) \
        == ["defining-equation"]
    # partner slot on the closed upper line 1, q, .., q^{(n-1)/2}
    assert validate_params(XType.DDa, 3, K((1, 4), 3, 7, 2), Q2) \
        == ["k3-upperline"]
    assert validate_params(XType.DDa, 3, K((1, 4), 3, 7, (1, 2)), Q2) \
        == ["k3-upperline"]  # inverses count too
    assert validate_params(XType.DDa, 3, K((1, 4), 3, 7, -1), Q2) \
        == ["k3-upperline"]
    # product condition: k0 k3 k1^{±1} k2^{±1} off the odd line q^{-1}, q^{-3}
    bad = validate_params(XType.DDa, 3, K((1, 4), 3, 6, 1), Q2)
    assert "product-oddline" in bad  # (1/4)*1*3^{-1}*6 = 1/2 = q^{-1}


def test_eigenvalue_ladder_values():
    # flagship: mu = k0 k3 q^r (even r), (k0 k3 q^{r+1})^{-1} (odd r)
    mu = eigenvalue_ladder(*FLAGSHIP, Q2)
    assert mu == [R(5, 4), R(1, 5), R(5), R(1, 20)]
    mu = eigenvalue_ladder(XType.DS, 2, K(3, 5, 7, (1, 840)), Q2)
    assert mu == [R(1, 280), R(70), R(1, 70)]
    # SS ladder starts from (k1 k2 q)^{-1}
    t = R(1, 2) * R(5)
    mu = eigenvalue_ladder(XType.SSa, 1, K(3, (1, 2), 5, 11), Q2)
    assert mu == [(t * Q2).inv(), t * Q2]
    with pytest.raises(ValueError):
        eigenvalue_ladder(XType.DS, 2, K(3, 5, 7, 11), Q2)


def _adversarial_k(rng, xtype, n, q):
    """k drawn from +-q^e {1, 3, 1/3}, |e| <= n + 2, with the type's
    defining equation solved: near and on the forbidden lines."""
    draw = lambda: (rng.choice((1, -1)) * int_pow(q, rng.randint(-n - 2, n + 2))
                    * rng.choice((R(1), R(3), R(1, 3))))
    k = [draw() for _ in range(4)]
    if xtype is XType.DS:
        k[3] = int_pow(q, -n - 1) * (k[0] * k[1] * k[2]).inv()
    else:
        k[xtype.row.solo] = rng.choice((1, -1)) * int_pow(q, -((n + 1) // 2))
    return tuple(k)


def test_ladder_bonds_alternate_and_fix_the_type_family():
    # eigenvalue_ladder re-checks none of this, as validate_params implies it
    # (the argument is a comment there).  On sampled and on adversarial valid
    # parameters the values are distinct, the diagram's bonds are exactly the
    # n ladder steps, double (product q^-2) where _step_is_double says and
    # single (product 1) elsewhere, and its end bonds give the type's family.
    from dahalink.daha import _step_is_double

    rng = random.Random(17)
    for q in (Q2, R(3), R(-2), R(1, 2), R(4)):
        for xtype in XType:
            for n in range(0 if xtype is XType.DS else 1, 10, 2):
                sampled = sample_params(rng, xtype, n, q)
                draws = [_adversarial_k(rng, xtype, n, q) for _ in range(20)]
                valid = [k for k in draws if not validate_params(xtype, n, k, q)]
                assert sampled and valid, (q, xtype, n)
                for k in [sampled.k] + valid:
                    mu = eigenvalue_ladder(xtype, n, k, q)
                    assert len(set(mu)) == n + 1
                    d = x_diagram(mu, q)
                    steps = [(r, r + 1) for r in range(n)]
                    assert sorted(d.double_bonds) == [s for s in steps if _step_is_double(xtype, s[0])]
                    assert sorted(d.single_bonds) == [s for s in steps if not _step_is_double(xtype, s[0])]
                    assert d.pattern == xtype.value[:2]


def test_x_diagram_alternating_path():
    mu = eigenvalue_ladder(*FLAGSHIP, Q2)
    d = x_diagram(mu, Q2)
    assert d.pattern == "DD"
    assert list(d.order) in ([0, 1, 2, 3], [3, 2, 1, 0])
    # DD ladders: even steps double bonds, odd steps single
    assert set(d.double_bonds) == {(0, 1), (2, 3)}
    assert set(d.single_bonds) == {(1, 2)}
    assert d.loops == ()


def test_x_diagram_loop_at_endpoint():
    # DS with k0 k3 = 1: mu_0 = 1 is a single-bond loop vertex
    k = K(3, 5, (1, 40), (1, 3))
    assert validate_params(XType.DS, 2, k, Q2) == []
    mu = eigenvalue_ladder(XType.DS, 2, k, Q2)
    d = x_diagram(mu, Q2)
    assert (0, "single") in d.loops
    assert d.pattern == "DS"


def test_x_diagram_rejects_non_path():
    # {3, 1/3, 5, 1/5}: single bonds (0,1) and (2,3) only — disconnected
    vals = [R(3), R(1, 3), R(5), R(1, 5)]
    with pytest.raises(ValueError):
        x_diagram(vals, Q2)


# ---------------------------------------------------------------------------
# Module construction and structural identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("idx", range(len(INSTANCES)))
def test_build_module_relations(idx):
    m = build(idx)
    report = verify_hq_relations(m)
    assert report.ok, report.failures()
    # X is the diagonal eigenvalue ladder in the standard basis
    assert m.X == ExactMatrix.diagonal(m.ctx, m.mu)


def test_verify_records_residuals_of_failing_checks_only():
    m = build(1)
    report = verify_hq_relations(m)
    names = [c.name for c in report.checks]
    assert len(names) == 32 and names[:3] == [
        "t0-inverse-right", "t0-inverse-left", "t0-quadratic"]
    assert names[12] == "central-t0-with-t0" and names[-1] == "product-t3t0t1t2"
    assert all(c.passed and c.residual is None for c in report.checks)
    # corrupt one entry of t2: the failing checks carry their nonzero residual
    t2 = [list(row) for row in m.t[2].rows]
    t2[1][1] = t2[1][1] + 1
    bad = HqModule(m.params, m.xtype, (m.t[0], m.t[1], ExactMatrix(m.ctx, t2), m.t[3]), m.mu)
    bad_report = verify_hq_relations(bad)
    assert [c.name for c in bad_report.checks] == names
    failed = [c for c in bad_report.checks if not c.passed]
    assert "t2-quadratic" in bad_report.failures() and "product-t0t1t2t3" in bad_report.failures()
    zero = ExactMatrix.zeros(m.ctx, m.dim)
    assert all(c.residual is not None and c.residual != zero for c in failed)
    assert all(c.residual is None for c in bad_report.checks if c.passed)
    # each residual is actual - expected, recomputed on plain Fraction lists
    t = [[[x.rat for x in row] for row in gen.rows] for gen in bad.t]
    dim = m.dim

    def mul(*mats):
        out = mats[0]
        for b in mats[1:]:
            out = [[sum(row[s] * b[s][j] for s in range(dim)) for j in range(dim)] for row in out]
        return out

    def shift(a, c):
        return [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]

    k2, q = m.params.k[2].rat, m.params.q.rat
    t2_inv = shift([[-x for x in row] for row in t[2]], k2 + 1 / k2)
    expected = {
        "t2-inverse-right": shift(mul(t[2], t2_inv), -1),
        "t2-inverse-left": shift(mul(t2_inv, t[2]), -1),
        "t2-quadratic": mul(shift(t[2], -k2), shift(t[2], -1 / k2)),
    }
    for start, name in ((0, "t0t1t2t3"), (1, "t1t2t3t0"), (2, "t2t3t0t1"), (3, "t3t0t1t2")):
        rot = mul(*(t[(start + off) % 4] for off in range(4)))
        expected[f"product-{name}"] = shift(rot, -1 / q)
    assert sorted(c.name for c in failed) == sorted(expected)
    for c in failed:
        assert [[x.rat for x in row] for row in c.residual.rows] == expected[c.name], c.name


@pytest.mark.parametrize("idx", range(len(INSTANCES)))
def test_spectrum_is_simple(idx):
    m = build(idx)
    for mu in m.mu:
        assert eigenspace(m.X, mu).dim == 1


@pytest.mark.parametrize("idx", range(len(INSTANCES)))
def test_derived_element_identities(idx):
    m = build(idx)
    assert derived_elements(m) is None  # raises VerificationError on any failure
    assert m.A == m.Y + m.Y_inv
    assert m.B == m.X + m.X_inv
    # A and B commute with t0
    t0 = m.t[0]
    assert m.A * t0 == t0 * m.A
    assert m.B * t0 == t0 * m.B


def test_derived_elements_skip_projectors_when_k0_is_self_inverse():
    k = K(1, (1, 2), 3, 5)
    assert validate_params(XType.SSa, 1, k, Q2) == []
    m = build_module(XType.SSa, 1, k, Q2)
    assert derived_elements(m) is None
    assert "F_plus" not in vars(m) and "F_minus" not in vars(m)
    with pytest.raises(ValueError):
        m.F_plus


def test_inverses_are_affine_in_generators():
    m = build(1)
    for i in range(4):
        ki = m.params.k[i]
        ident = ExactMatrix.identity(m.ctx, m.dim)
        assert m.t_inv[i] == ident.scale(ki + ki.inv()) - m.t[i]


def test_t0_projections():
    m = build(1)
    k0 = m.params.k[0]
    ident = ExactMatrix.identity(m.ctx, m.dim)
    assert m.F_plus == (m.t[0] - ident.scale(k0.inv())).scale((k0 - k0.inv()).inv())
    assert m.F_minus == (m.t[0] - ident.scale(k0)).scale((k0.inv() - k0).inv())
    assert m.F_plus + m.F_minus == ident
    assert m.t[0] * m.F_plus == m.F_plus.scale(k0)
    for k0 in (R(1), R(-1)):
        flat = HqModule(HqParams(Q2, 3, (k0,) + m.params.k[1:]), m.xtype, m.t, m.mu)
        for attr in ("F_plus", "F_minus"):
            with pytest.raises(ValueError):
                getattr(flat, attr)


def test_module_json_round_trip():
    m = build(1)
    data = json.loads(json.dumps(m.to_json()))
    assert data["xtype"] == "DDa" and data["n"] == 3
    t = tuple(ExactMatrix.from_json(mj, m.ctx) for mj in data["t"])
    assert t == m.t
    p = HqParams.from_json({"q": data["q"], "n": data["n"], "k": data["k"]})
    assert p == m.params


def test_hq_params_validation():
    with pytest.raises(ValueError):
        HqParams(QQ.one(), 3, K(1, 2, 3, 4))  # q a root of unity
    with pytest.raises(ValueError):
        HqParams(Q2, 3, K(0, 2, 3, 4))


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def test_flagship_feasible():
    ok, report = is_feasible(build(1))
    assert ok and report.ok


def test_infeasible_t0_single_eigenvalue():
    # DDa with n = 1: V(k0^{-1}) is zero-dimensional
    k = K((1, 2), 3, 7, 5)
    assert validate_params(XType.DDa, 1, k, Q2) == []
    m = build_module(XType.DDa, 1, k, Q2)
    ok, report = is_feasible(m)
    assert not ok
    assert "t0-two-eigenvalues" in report.failures()
    with pytest.raises(ValueError):
        t0_split(m)


def test_infeasible_y_not_multiplicity_free():
    # valid parameters whose Y-spectrum degenerates
    k = K((1, 4), 2, 3, 5)
    assert validate_params(XType.DDa, 3, k, Q2) == []
    m = build_module(XType.DDa, 3, k, Q2)
    ok, report = is_feasible(m)
    assert not ok
    assert any("y" in f.lower() for f in report.failures())


# (X-type, n, q, k) -> the three feasibility checks, as one rank per eigenvalue decides them
FEASIBILITY_CASES = {
    (XType.DDa, 3, 2, ((1, 4), 3, 7, 5)): (True, True, True),
    (XType.DDb, 5, 3, ((1, 7), -11, -3, (1, 27))): (True, False, True),
    (XType.DDa, 1, 2, ((1, 2), 3, 7, 5)): (True, True, False),
}
FEASIBILITY_NAMES = ("X-diagonalizable-simple-spectrum", "Y-diagonalizable-simple-spectrum",
                     "t0-two-eigenvalues")


def _feasibility_module(case, base_change=False):
    xtype, n, q, k = case
    m = build_module(xtype, n, K(*k), R(q))
    if not base_change:
        return m
    # P = I + (ones on the superdiagonal) makes X = t3 t0 non-diagonal
    P = ExactMatrix.from_rows(QQ, [[1 if j in (i, i + 1) else 0 for j in range(n + 1)]
                                   for i in range(n + 1)])
    Pi = P.inverse()
    return HqModule(m.params, m.xtype, [Pi * t * P for t in m.t], m.mu)


def _count_eliminations(monkeypatch):
    import dahalink.exactlinalg as exactlinalg

    calls = []
    original = exactlinalg._row_reduce
    monkeypatch.setattr(exactlinalg, "_row_reduce",
                        lambda rows: calls.append(1) or original(rows))
    return calls


@pytest.mark.parametrize("case", FEASIBILITY_CASES, ids=lambda c: f"{c[0].value}-n{c[1]}")
def test_feasibility_on_the_ladder_basis_counts_only_t0(monkeypatch, case):
    eliminations = _count_eliminations(monkeypatch)
    ok, report = is_feasible(_feasibility_module(case))
    assert [(c.name, c.passed) for c in report.checks] == list(
        zip(FEASIBILITY_NAMES, FEASIBILITY_CASES[case]))
    assert not eliminations         # t0 by its trace; X and Y take none either


@pytest.mark.parametrize("case", FEASIBILITY_CASES, ids=lambda c: f"{c[0].value}-n{c[1]}")
def test_a_base_changed_module_is_refused_off_the_ladder_basis(monkeypatch, case):
    m = _feasibility_module(case, base_change=True)
    assert m.X != ExactMatrix.diagonal(QQ, m.mu) and m.relations.ok
    eliminations = _count_eliminations(monkeypatch)
    for stage in (is_feasible, u_basis, t0_split, restricted_leonard_pairs):
        with pytest.raises(ValueError, match="ladder basis: X is not diag\\(mu\\)"):
            stage(m)
    assert not eliminations and "flattening" not in vars(m)


def test_a_u_basis_error_propagates_out_of_feasibility(monkeypatch):
    import dahalink.daha as daha

    def broken(m):
        raise VerificationError("the flattening recursion does not terminate")

    monkeypatch.setattr(daha, "u_basis", broken)
    eliminations = _count_eliminations(monkeypatch)
    with pytest.raises(VerificationError, match="does not terminate"):
        is_feasible(build(1))
    assert not eliminations         # no elimination answers in the u-basis's place


def test_t0_missing_its_quadratic_makes_feasibility_raise():
    # the flagship's generators under another k0: X = t3 t0 is still
    # diag(mu), but t0 no longer satisfies (t0 - k0)(t0 - k0^{-1}) = 0
    m = build(1)
    k0, k1, k2, k3 = m.params.k
    hand = HqModule(HqParams(m.params.q, m.params.n, (k0 * 3, k1, k2, k3)), m.xtype, m.t, m.mu)
    assert hand.x_diagonal_ladder and not hand.relations.ok
    with pytest.raises(VerificationError, match="t0 does not satisfy its quadratic"):
        is_feasible(hand)


def test_repeated_mu_fails_the_x_check_on_its_own():
    # the flagship's t0 and t1 (so Y, its u-basis and t0 are unchanged) with
    # t3 = t0^{-1} and k3 = k0: X = X^{-1} = I = diag(1, .., 1)
    m = build(1)
    k0, k1, k2, _ = m.params.k
    t = (m.t[0], m.t[1], m.t[2], m.t_inv[0])
    hand = HqModule(HqParams(m.params.q, m.params.n, (k0, k1, k2, k0)), m.xtype, t,
                    [QQ.one()] * m.dim)
    assert hand.x_diagonal_ladder and hand.X_inv == hand.X
    ok, report = is_feasible(hand)
    assert not ok and report.failures() == ["X-diagonalizable-simple-spectrum"]


def _y_by_table(m):
    # the table rule: Y has a simple spectrum exactly when k_i k_j on the
    # type's Y base avoids +-q^-1, .., +-q^-n
    q, n, k = m.params.q, m.params.n, m.params.k
    i, j = m.xtype.row.y_base
    powers = {int_pow(q, -e) for e in range(1, n + 1)}
    return not {k[i] * k[j], -k[i] * k[j]} & powers


def _y_by_spectrum(m):
    # Y's characteristic polynomial is prod (x - y_r) over the predicted y_r,
    # so the spectrum is simple exactly when they are distinct
    from dahalink.daha import _y_diagonal
    from dahalink.exactlinalg import char_poly

    poly = [QQ.one()]
    for y in _y_diagonal(m):                    # times (x - y), coefficients ascending
        poly = [a - y * b for a, b in zip([QQ.zero()] + poly, poly + [QQ.zero()])]
    assert char_poly(m.Y) == poly
    return len(set(_y_diagonal(m))) == m.dim


@pytest.mark.parametrize("route", ["_y_by_table", "_y_by_spectrum"])
@pytest.mark.parametrize("case", list(FEASIBILITY_CASES)[:2], ids=["Y-passes", "Y-fails"])
def test_each_y_route_can_fail_while_the_other_passes(route, case):
    # is_feasible decides Y by one route; the table rule and the spectrum are
    # oracles that share no code with it, and each must give its verdict.
    # Where Y fails, it fails on its own: the X and t0 checks still pass
    m = _feasibility_module(case)
    answer = FEASIBILITY_CASES[case][1]
    assert {"_y_by_table": _y_by_table, "_y_by_spectrum": _y_by_spectrum}[route](m) is answer
    _, report = is_feasible(m)
    assert report.failures() == ([] if answer else ["Y-diagonalizable-simple-spectrum"])


def test_y_verdict_agrees_with_the_k_product_table():
    rng = random.Random(23)
    verdicts = set()
    for q in (Q2, R(3), R(-2), R(1, 2), R(4)):
        for xtype in XType:
            for n in range(0 if xtype is XType.DS else 1, 10, 2):
                for k in (_adversarial_k(rng, xtype, n, q) for _ in range(3)):
                    if validate_params(xtype, n, k, q):
                        continue
                    m = build_module(xtype, n, k, q)
                    table = _y_by_table(m)
                    assert is_feasible(m)[1].checks[1].passed is table, (q, xtype, n, k)
                    verdicts.add(table)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Flattening basis and the t0 split
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("idx", range(len(INSTANCES)))
def test_u_basis_shapes(idx):
    m = build(idx)
    ub = u_basis(m)
    cols = [list(ub.columns.col(r)) for r in range(m.dim)]
    # Y and A lower tridiagonal in u; X and B upper tridiagonal in u
    for mat in (m.Y, m.Y + m.Y_inv):
        assert is_banded(restrict_to_basis(mat, cols), 2, 0)
    for mat in (m.X, m.X + m.X_inv):
        assert is_banded(restrict_to_basis(mat, cols), 0, 2)
    # the Y-diagonal in the u basis is the predicted eigenvalue list
    repy = restrict_to_basis(m.Y, cols)
    k0, k1, k2, k3 = m.params.k
    qe = m.params.qe
    for r in range(m.dim):
        even = r % 2 == 0
        if m.xtype in (XType.DS, XType.DDa):
            beta = k0 * k1 * qe(r if even else r + 1)
        elif m.xtype is XType.DDb:
            beta = (k2 * k3 * qe(r + 1 if even else r)).inv()
        elif m.xtype is XType.SSa:
            beta = (k0 * k1 * qe(r if even else r + 1)).inv()
        else:
            beta = k2 * k3 * qe(r + 1 if even else r)
        if m.xtype in (XType.DS, XType.DDa, XType.DDb):
            assert repy.rows[r][r] == (beta if even else beta.inv())
        else:
            assert repy.rows[r][r] == (beta.inv() if even else beta)


def test_u_basis_termination_scalars():
    ub = u_basis(build(1))
    assert len(ub.beta) == 4


def test_a_u_basis_column_off_its_echelon_end_fails_the_echelon_check(monkeypatch):
    import dahalink.daha as daha

    original = daha._echelon_ends

    def corrupted(basis, what):
        if what == "the flattening basis":      # zero u_2's entry at v_2, where it ends
            basis = [v[:2] + (QQ.zero(),) + v[3:] if r == 2 else v for r, v in enumerate(basis)]
        return original(basis, what)

    monkeypatch.setattr(daha, "_echelon_ends", corrupted)
    with pytest.raises(VerificationError, match="the flattening basis is not in echelon form"):
        u_basis(build(1))


def test_a_corrupted_u_basis_entry_fails_the_x_band(monkeypatch):
    import dahalink.daha as daha

    original = daha._band

    def corrupted(M, basis, ends, offsets, what):
        if offsets == (0, -1, -2):              # X on the u-basis: raise u_3's entry at v_0
            basis = [(v[0] + 1,) + v[1:] if r == 3 else v for r, v in enumerate(basis)]
        return original(M, basis, ends, offsets, what)

    monkeypatch.setattr(daha, "_band", corrupted)
    with pytest.raises(VerificationError, match="X is not upper tridiagonal"):
        u_basis(build(1))


@pytest.mark.parametrize("name, match", [("X", r"X is not upper"),
                                         ("X_inv", r"X\^\{-1\} is not upper")],
                         ids=["X", "X_inv"])
def test_an_x_image_outside_its_band_fails_the_u_basis(name, match):
    m = build(1)
    assert m.x_diagonal_ladder                  # decided, and cached, on the true X
    rows = [list(row) for row in getattr(m, name).rows]
    rows[0][3] = rows[0][3] + 1                 # the image of u_3 gains a multiple of v_0 = u_0
    vars(m)[name] = ExactMatrix(QQ, rows)
    with pytest.raises(VerificationError, match=match):
        u_basis(m)


SPLIT_DIMS = {XType.DS: (2, 1), XType.DDa: (3, 1), XType.DDb: (2, 2),
              XType.SSa: (2, 2), XType.SSb: (2, 2)}


@pytest.mark.parametrize("xtype, n, plus, minus", [
    (XType.DS, 2, [0, 2], [2]),
    (XType.DS, 6, [0, 2, 4, 6], [2, 4, 6]),
    (XType.DDa, 3, [0, 2, 3], [2]),
    (XType.DDa, 7, [0, 2, 4, 6, 7], [2, 4, 6]),
    (XType.DDb, 3, [0, 2], [1, 3]),
    (XType.DDb, 7, [0, 2, 4, 6], [1, 3, 5, 7]),
    (XType.SSa, 3, [0, 2], [1, 3]),
    (XType.SSa, 7, [0, 2, 4, 6], [1, 3, 5, 7]),
    (XType.SSb, 3, [0, 2], [0, 2]),
    (XType.SSb, 7, [0, 2, 4, 6], [0, 2, 4, 6]),
])
def test_t0_indices_pinned(xtype, n, plus, minus):
    from dahalink.daha import _t0_indices

    assert _t0_indices(xtype, n) == (plus, minus)


@pytest.mark.parametrize("idx", range(len(INSTANCES)))
def test_t0_split_dimensions_and_eigenvectors(idx):
    m = build(idx)
    plus, minus = t0_split(m)
    xtype = m.xtype
    assert (len(plus), len(minus)) == SPLIT_DIMS[xtype]
    k0 = m.params.k[0]
    for v in plus:
        assert m.t[0].apply(v) == tuple(k0 * x for x in v)
    for v in minus:
        assert m.t[0].apply(v) == tuple(k0.inv() * x for x in v)


# ---------------------------------------------------------------------------
# Leonard-pair extraction and Huang data
# ---------------------------------------------------------------------------


def HD(a, b, c, d):
    return HuangData(R(*a) if isinstance(a, tuple) else R(a),
                     R(*b) if isinstance(b, tuple) else R(b),
                     R(*c) if isinstance(c, tuple) else R(c), d)


def test_flagship_extraction():
    (pair_p, h_p), (pair_m, h_m) = restricted_leonard_pairs(build(1))
    assert huang_equivalent(h_p, HD(3, 5, 7, 2))
    assert huang_equivalent(h_m, HD(3, 5, 7, 0))
    assert pair_p.diameter == 2 and pair_m.diameter == 0
    assert is_banded(pair_p.A, 1, 0) or is_banded(pair_p.A, 2, 0)


def test_ds_extraction():
    (_, h_p), (_, h_m) = restricted_leonard_pairs(build(0))
    assert huang_equivalent(h_p, HD(30, (1, 140), 42, 1))
    assert huang_equivalent(h_m, HD(60, (1, 70), 84, 0))


def test_negative_defining_root_extraction():
    # the other square root of k0^2 = q^{-n-1} flips every Huang scalar
    m = build_module(XType.DDa, 3, K((-1, 4), 3, 7, 5), Q2)
    (_, h_p), (_, h_m) = restricted_leonard_pairs(m)
    assert huang_equivalent(h_p, HD(-3, -5, -7, 2))
    assert huang_equivalent(h_m, HD(-3, -5, -7, 0))


@pytest.mark.parametrize("idx", range(len(INSTANCES)))
def test_extraction_succeeds_on_all_types(idx):
    (pair_p, h_p), (pair_m, h_m) = restricted_leonard_pairs(build(idx))
    assert h_p.d + h_m.d + 2 == INSTANCES[idx][1] + 1


def test_closed_form_c_satisfies_its_scalar_identity():
    # on each half with d >= 1: (c + c^-1)(q^(d+1) + q^(-d-1)) =
    # mix (k2 + k2^-1) + (k1 + k1^-1)(k3 + k3^-1) - (a + a^-1)(b + b^-1),
    # mix = q^-1 k0 + q k0^-1 on V(k0) and q k0 + q^-1 k0^-1 on V(k0^-1)
    from dahalink.daha import _closed_form_huang

    z = lambda x: x + x.inv()
    rng = random.Random(5)
    checked = set()
    for xtype in XType:
        for n in range(2 if xtype is XType.DS else 3, 10, 2):
            for q in (Q2, R(3), R(-2)):
                params = sample_params(rng, xtype, n, q)
                k0, k1, k2, k3 = params.k
                m = build_module(xtype, n, params.k, q)
                for plus in (True, False):
                    h = _closed_form_huang(m, plus)
                    if h.d == 0:
                        continue
                    mix = q.inv() * k0 + q * k0.inv() if plus else q * k0 + q.inv() * k0.inv()
                    rhs = mix * z(k2) + z(k1) * z(k3) - z(h.a) * z(h.b)
                    assert z(h.c) * (int_pow(q, h.d + 1) + int_pow(q, -h.d - 1)) == rhs
                    checked.add((xtype, plus))
    assert len(checked) == 10       # every type, both halves


def test_restricted_diagonals_are_the_closed_form_ladders_in_order():
    # no run-time prediction is left: on both halves the read diagonal of A
    # is theta_r = a q^(2r-d) + a^-1 q^(d-2r) for the closed-form a, in this
    # order (not the reversal, the ladder of a^-1), and B's that of b
    from dahalink.daha import _closed_form_huang

    rng = random.Random(11)
    checked = set()
    ladder = lambda x, q, d: [x * int_pow(q, 2 * r - d) + x.inv() * int_pow(q, d - 2 * r)
                              for r in range(d + 1)]
    for q in (Q2, R(3), R(-2), R(1, 2)):
        for xtype in XType:
            for n in range(0 if xtype is XType.DS else 1, 10, 2):
                m = build_module(xtype, n, sample_params(rng, xtype, n, q).k, q)
                if not is_feasible(m)[0]:
                    continue
                for plus, (pair, h) in zip((True, False), restricted_leonard_pairs(m)):
                    assert h == _closed_form_huang(m, plus)
                    assert [pair.A.rows[r][r] for r in range(h.d + 1)] == ladder(h.a, q, h.d)
                    assert [pair.Astar.rows[r][r] for r in range(h.d + 1)] == ladder(h.b, q, h.d)
                    checked.add((xtype, plus, h.d > 0 and h.a != h.a.inv()))
    assert {(x, p, True) for x in XType for p in (True, False)} <= checked


@pytest.mark.parametrize("generic", [HD(11, 13, 17, 2), None])
def test_restricted_pairs_raise_when_the_generic_route_disagrees(monkeypatch, generic):
    import dahalink.daha as daha

    monkeypatch.setattr(daha, "huang_data_from_array", lambda pa, q: generic)
    with pytest.raises(VerificationError, match="generic and closed-form Huang data disagree"):
        restricted_leonard_pairs(build(1))


def test_extraction_eliminates_as_often_at_n_25_as_at_n_5(monkeypatch):
    # every basis on the extraction path is read at its echelon ends and
    # then checked: no elimination at any n
    import dahalink.exactlinalg as exactlinalg
    import dahalink.leonard as leonard

    counts = {"_row_reduce": 0, "split_sequence": 0}
    for layer, name in ((exactlinalg, "_row_reduce"), (leonard, "split_sequence")):
        original = getattr(layer, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(layer, name, counting)
    seen = []
    for n in (5, 25):
        rng = random.Random(1)
        while True:
            params = sample_params(rng, XType.DDa, n, Q2)
            if is_feasible(build_module(XType.DDa, n, params.k, Q2))[0]:
                break
        m = build_module(XType.DDa, n, params.k, Q2)
        counts.update(dict.fromkeys(counts, 0))
        restricted_leonard_pairs(m)
        seen.append(dict(counts))
    assert seen[0] == seen[1] == {"_row_reduce": 0, "split_sequence": 0}


def test_a_corrupted_restricted_entry_fails_the_certificate(monkeypatch):
    import dahalink.daha as daha

    original = daha._band

    def corrupted(M, basis, ends, offsets, what):
        out = original(M, basis, ends, offsets, what)
        if offsets == (0, -1) and len(basis) == 3:  # B on the flagship's V(k0)
            rows = [list(row) for row in out.rows]
            rows[1][2] = rows[1][2] * 2
            out = ExactMatrix(out.ctx, rows)
        return out

    monkeypatch.setattr(daha, "_band", corrupted)
    with pytest.raises(ValueError, match="PA3 fails"):
        restricted_leonard_pairs(build(1))


@pytest.mark.parametrize("side", ["A", "B"])
def test_a_shifted_restricted_diagonal_fails_the_huang_agreement(monkeypatch, capsys, tmp_path,
                                                                 side):
    # the generic route takes a and b from the diagonals _band reads.  Every
    # theta_r (theta*_r) raised by one keeps PA1-PA5, which see only
    # differences, so the pair stays Leonard but leaves its closed form; theta_1
    # (theta*_1) alone raised by one breaks PA3 first
    import dahalink.daha as daha
    from dahalink.cli import main

    original = daha._band
    offsets = {"A": (0, 1), "B": (0, -1)}[side]
    only = []                                   # the diagonal entries to raise; empty: all

    def shifted(M, basis, ends, offs, what):
        out = original(M, basis, ends, offs, what)
        if offs == offsets:
            rows = [list(row) for row in out.rows]
            for r in range(len(rows)):
                if not only or r in only:
                    rows[r][r] = rows[r][r] + 1
            out = ExactMatrix(out.ctx, rows)
        return out

    monkeypatch.setattr(daha, "_band", shifted)
    with pytest.raises(VerificationError, match="generic and closed-form Huang data disagree"):
        restricted_leonard_pairs(build(1))
    path = tmp_path / "flagship.json"
    path.write_text(json.dumps({"xtype": "DDa", "n": 3, "q": 2, "k": ["1/4", 3, 7, 5]}))
    assert main(["extract", str(path)]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {"name": "huang-dual-route-agreement", "passed": False} in checks
    only.append(1)
    with pytest.raises(ValueError, match="PA3 fails"):
        restricted_leonard_pairs(build(1))


def test_link_construct_raises_when_extraction_does_not_reproduce(monkeypatch):
    import dahalink.daha as daha

    original = daha.restricted_leonard_pairs

    def doubled_a(m):
        (pair, h), minus = original(m)
        return (pair, HuangData(h.a * 2, h.b, h.c, h.d)), minus

    monkeypatch.setattr(daha, "restricted_leonard_pairs", doubled_a)
    for h, h2 in ((HD(3, 5, 7, 2), HD(3, 5, 7, 0)), (HD(3, 5, 7, 0), HD(3, 5, 7, 2))):
        lc = daha._construct_from(h, h2, Q2, None, link_check(h, h2, Q2))
        assert lc.reproduced is False and lc.module.xtype is XType.DDa
        with pytest.raises(VerificationError, match="does not realize the inputs"):
            link_construct(h, h2, Q2)


# ---------------------------------------------------------------------------
# Twists
# ---------------------------------------------------------------------------


def test_sigma_twist():
    m = build(1)
    tw = twist(m, "sigma")
    assert verify_hq_relations(tw).ok
    assert tw.xtype is XType.DDa
    assert [x.rat for x in tw.params.k] == [x.rat for x in K((1, 4), (1, 5), (1, 7), (1, 3))]
    # the twisted X carries the original Y-spectrum (X and Y swap roles)
    for mu in tw.mu:
        assert eigenspace(m.Y, mu).dim == 1


def test_rho_twist():
    m = build(1)
    tw = twist(m, "rho")
    assert verify_hq_relations(tw).ok
    assert tw.xtype is XType.DDb
    assert [x.rat for x in tw.params.k] == [x.rat for x in K((1, 3), (1, 7), (1, 5), (1, 4))]
    for mu in tw.mu:
        assert eigenspace(m.Y, mu).dim == 1


@pytest.mark.parametrize("which", ["rho", "sigma"])
@pytest.mark.parametrize("idx", range(len(INSTANCES)))
def test_twist_identities_hold_on_every_x_type(monkeypatch, idx, which):
    # twist does not check these: the twisted module's relations and t0's
    # quadratic imply them.  Elimination inverses keep the check independent.
    import dahalink.daha as daha

    seen = []
    original = daha._recognize_module
    monkeypatch.setattr(daha, "_recognize_module",
                        lambda t, q, spectrum: seen.append(t) or original(t, q, spectrum))
    m = build(idx)
    assert m.feasibility[0]
    tw = twist(m, which)
    (t,) = seen
    newX, newY = t[3] * t[0], t[0] * t[1]
    if which == "rho":
        assert newX == m.Y
        assert newY == m.X.inverse().scale(m.params.q.inv())
    else:
        assert newX == m.t[0].inverse() * m.Y * m.t[0]
        assert newY == m.X
        assert newY + newY.inverse() == m.B and newX + newX.inverse() == m.A
    assert tw.relations.ok


@pytest.mark.parametrize("idx", range(len(INSTANCES)))
def test_twist_refuses_a_tampered_module_that_passes_feasibility(idx):
    # feasibility reads X = t3 t0, Y = t0 t1 and t0, so any one entry of t2
    # raised by one leaves it passing; both twists must still refuse
    m = build(idx)
    tampered = 0
    for r, c in itertools.product(range(m.dim), repeat=2):
        rows = [list(row) for row in m.t[2].rows]
        rows[r][c] = rows[r][c] + 1
        bad = HqModule(m.params, m.xtype, (m.t[0], m.t[1], ExactMatrix(m.ctx, rows), m.t[3]),
                       m.mu)
        assert bad.feasibility[0] and not bad.relations.ok
        for which in ("rho", "sigma"):
            with pytest.raises(VerificationError, match=f"^twist {which}: twisted "):
                twist(bad, which)
        tampered += 1
    assert tampered == m.dim ** 2


def test_a_twist_failure_names_the_automorphism_and_the_step():
    # the flagship's t2[0][0] raised by one: rho's twisted t1 is t2 and
    # sigma's twisted t2 is t1 t2 t1^-1, so each fails its reciprocal quadratic
    m = build(1)
    rows = [list(row) for row in m.t[2].rows]
    rows[0][0] = rows[0][0] + 1
    bad = HqModule(m.params, m.xtype, (m.t[0], m.t[1], ExactMatrix(QQ, rows), m.t[3]), m.mu)
    assert bad.feasibility[0]
    for which, gen in (("rho", 1), ("sigma", 2)):
        with pytest.raises(VerificationError) as err:
            twist(bad, which)
        assert str(err.value) == f"twist {which}: twisted t{gen} satisfies no reciprocal quadratic"


def test_twist_rejects_unknown_kind():
    with pytest.raises(ValueError):
        twist(build(1), "tau")


# ---------------------------------------------------------------------------
# The linked relation
# ---------------------------------------------------------------------------


def test_link_check_flagship_case_i():
    cases = link_check(HD(3, 5, 7, 2), HD(3, 5, 7, 0), Q2)
    assert [c.case_id for c in cases] == ["i"]
    assert cases[0].variant == (1, 1, 1)


def test_link_check_scans_inverted_variants():
    # HD(1/3, 5, 7, 0) is equivalent to HD(3, 5, 7, 0), which case i links
    cases = link_check(HD(3, 5, 7, 2), HD((1, 3), 5, 7, 0), Q2)
    assert [(c.case_id, c.variant, c.variant2) for c in cases] == [("i", (1, 1, 1), (-1, 1, 1))]


def test_link_check_reversed_gives_exchange_case():
    cases = link_check(HD(3, 5, 7, 0), HD(3, 5, 7, 2), Q2)
    assert [c.case_id for c in cases] == ["vii"]


def test_link_check_unlinked():
    assert link_check(HD(3, 5, 7, 1), HD(11, 13, 3, 1), Q2) == []


# case id -> (d' - d, exponents of q in (a'/a, b'/b, c'/c)), written out
# independently of the table under test
_SHIFTS = {"ii": (-1, (1, 1, 1)), "iii": (0, (2, 0, 0)), "iv": (0, (0, 2, 0)),
           "v": (0, (0, 0, 2)), "vi": (1, (-1, -1, -1))}


# every forbidden square (case, scalar, m, e), scalar^2 != q^{m d + e}
@pytest.mark.parametrize("case, s, m, e", [
    ("ii", "a", -2, 0), ("ii", "b", -2, 0),
    ("iii", "b", 2, 0), ("iii", "b", -2, 0), ("iii", "a", 0, -2),
    ("iv", "a", 2, 0), ("iv", "a", -2, 0), ("iv", "b", 0, -2),
    ("v", "a", 2, 0), ("v", "a", -2, 0), ("v", "b", 2, 0), ("v", "b", -2, 0),
    ("v", "c", 0, -2),
    ("vi", "a", -2, 0), ("vi", "b", -2, 0),
])
def test_link_check_rejects_each_forbidden_square(case, s, m, e):
    # a first datum on exactly that square, with its row partner, does not
    # link through the row; moved off the square (times 3) it links again
    d = 1 if m == 0 else 2          # d = 2 would make a^2 = q^{-2} inadmissible
    delta, exps = _SHIFTS[case]

    def rows_linking(scale):
        vals = {"a": R(3), "b": R(5), "c": R(7)}
        vals[s] = int_pow(Q2, (m * d + e) // 2) * scale
        h = HuangData(vals["a"], vals["b"], vals["c"], d)
        h2 = HuangData(*(v * int_pow(Q2, x) for v, x in zip((h.a, h.b, h.c), exps)),
                       d + delta)
        return {w.case_id for w in link_check(h, h2, Q2)}

    assert case not in rows_linking(1)
    assert case in rows_linking(3)


def test_link_check_requires_admissible_inputs():
    with pytest.raises(ValueError):
        link_check(HD(2, 5, 7, 2), HD(3, 5, 7, 0), Q2)


def test_link_construct_flagship():
    lc = link_construct(HD(3, 5, 7, 2), HD(3, 5, 7, 0), Q2)
    assert lc.case.case_id == "i" and not lc.exchanged
    m = lc.module
    assert m.xtype is XType.DDa and m.params.n == 3
    assert [x.rat for x in m.params.k] == [x.rat for x in K((1, 4), 3, 7, 5)]
    (_, h_p), (_, h_m) = restricted_leonard_pairs(m)
    assert (lc.plus, lc.minus) == (h_p, h_m)


def test_link_construct_exchange_case():
    lc = link_construct(HD(3, 5, 7, 0), HD(3, 5, 7, 2), Q2)
    assert lc.case.case_id == "vii" and lc.exchanged
    # the module realizes the swapped order
    (_, h_p), (_, h_m) = restricted_leonard_pairs(lc.module)
    assert huang_equivalent(h_p, HD(3, 5, 7, 2))
    assert huang_equivalent(h_m, HD(3, 5, 7, 0))
    # the construction carries the Huang data it extracted
    assert (lc.plus, lc.minus) == (h_p, h_m)


def test_link_construct_ds_square_root_signs():
    h1, h2 = HD(30, (1, 140), 42, 1), HD(60, (1, 70), 84, 0)
    assert any(c.case_id == "ii" for c in link_check(h1, h2, Q2))
    for sign, expect_k0 in (("plus", R(3)), ("minus", R(-3))):
        lc = link_construct(h1, h2, Q2, sign)
        assert lc.module.xtype is XType.DS
        assert lc.module.params.k[0] == expect_k0
        (_, hp), (_, hm) = restricted_leonard_pairs(lc.module)
        assert huang_equivalent(hp, h1) and huang_equivalent(hm, h2)
    # default sign is deterministic
    a = link_construct(h1, h2, Q2)
    b = link_construct(h1, h2, Q2)
    assert a.module.params.k[0] == b.module.params.k[0]


def test_link_construct_irrational_ds_root():
    # hand-picked case-ii pair forcing k0^2 = 105/2, a rational non-square:
    # the construction extends the field by sqrt(210) exactly once
    h1, h2 = HD(3, 5, 7, 2), HD(6, 10, 14, 1)
    assert [c.case_id for c in link_check(h1, h2, Q2)] == ["ii"]
    lc = link_construct(h1, h2, Q2)
    m = lc.module
    assert m.xtype is XType.DS and m.params.n == 4
    assert m.params.k[0].ctx.disc == 210
    assert m.params.k[0] * m.params.k[0] == R(105, 2)
    (_, hp), (_, hm) = restricted_leonard_pairs(m)
    assert huang_equivalent(hp, h1) and huang_equivalent(hm, h2)


def test_link_construct_unlinked_raises():
    with pytest.raises(LinkError):
        link_construct(HD(3, 5, 7, 1), HD(11, 13, 3, 1), Q2)


def test_link_round_trip_d0_cases():
    # each non-exchange case built from a module of its own type
    for idx, case_id in ((0, "ii"), (1, "i"), (2, "iv"), (3, "iii"), (4, "v")):
        (_, h_p), (_, h_m) = restricted_leonard_pairs(build(idx))
        cases = link_check(h_p, h_m, Q2)
        assert any(c.case_id == case_id for c in cases), (idx, case_id, cases)
        lc = link_construct(h_p, h_m, Q2)
        if not lc.exchanged:
            assert lc.module.xtype.row.case == lc.case.case_id
        (_, hp2), (_, hm2) = restricted_leonard_pairs(lc.module)
        first, second = (h_m, h_p) if lc.exchanged else (h_p, h_m)
        assert huang_equivalent(hp2, first) and huang_equivalent(hm2, second)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_params_validity_and_determinism():
    rng = random.Random(123)
    seen = []
    for xtype in XType:
        n = 4 if xtype.even_n else 5
        p = sample_params(rng, xtype, n, Q2)
        assert p is not None
        assert validate_params(xtype, n, p.k, Q2) == []
        seen.append(tuple(x.rat for x in p.k))
    rng = random.Random(123)
    again = []
    for xtype in XType:
        n = 4 if xtype.even_n else 5
        again.append(tuple(x.rat for x in sample_params(rng, xtype, n, Q2).k))
    assert seen == again
    # pinned: the acceptance battery and the benchmark inputs come from these draws
    F = Fraction
    assert seen == [
        (F(5), F(-7), F(1, 5), F(-1, 224)),      # DS
        (F(1, 8), F(-11), F(-11), F(3)),         # DDa
        (F(1, 11), F(1, 3), F(1, 3), F(1, 8)),   # DDb
        (F(7), F(-1, 8), F(7), F(1, 3)),         # SSa
        (F(-5), F(11), F(-1, 8), F(7)),          # SSb
    ]
