"""Acceptance battery: the six end-to-end guarantees of the library.

Every check is an exact identity over an exact field -- there are no
tolerances anywhere.  Each test covers one criterion; the conftest hook
prints an ``ACCEPTANCE n: PASS/FAIL`` line per criterion at the end of
the run.

1. Flagship round trip: link -> construct -> extract on the (3,5,7,2) /
   (3,5,7,0) pair at q = 2, in under a second.
2. Construction battery: 200 random valid instances of all five X-types
   with n <= 9 satisfy the defining relations, the X-spectrum ladder,
   and the G-element squaring identities, in under a minute.
3. Every feasible instance restricts to two recognized Leonard pairs
   with q-Racah eigenvalue ladders, and the generic (split-sequence)
   and closed-form Huang data agree up to component inverses.
4. Shape theorems: lower/upper tridiagonal forms in the flattening
   basis with the predicted Y-diagonal, and lower/upper bidiagonal
   forms with the predicted diagonals on the two t0-eigenspaces.
5. Leonard-pair core: 100 Huang round trips with d <= 5, the pinned
   d = 1 split sequences, and the Askey-Wilson triple with rigidity.
6. Bidirectional link sweep over d, d' <= 4 including near-misses:
   link_check's verdict and link_construct's success always agree, and
   cases vi/vii act as the exchanges of ii/i.  Under two minutes.
"""

import json
import random
import time
from functools import lru_cache

import pytest

from dahalink.cli import main
from dahalink.exactfield import QQ, int_pow
from dahalink.exactlinalg import (
    ExactMatrix,
    eigenspace,
    is_banded,
    restrict_to_basis,
)
from dahalink.leonard import (
    HuangData,
    askey_wilson_third,
    build_pair_from_huang,
    check_huang_admissible,
    huang_data_from_array,
    huang_equivalent,
    parameter_arrays,
    qracah_parameter,
    recognize_leonard_pair,
)
from dahalink.daha import (
    LinkError,
    XType,
    build_module,
    eigenvalue_ladder,
    is_feasible,
    link_check,
    link_construct,
    restricted_leonard_pairs,
    sample_params,
    t0_split,
    u_basis,
    verify_hq_relations,
)

R = QQ.rational
Q2 = R(2)


def test_criterion_1(tmp_path, capsys):
    """Flagship round trip: (3,5,7,2) and (3,5,7,0) at q = 2 are linked in
    case i alone; the synthesized module is DDa, n = 3, k = (1/4, 3, 7, 5)
    and passes every defining relation; extraction through the CLI returns
    equivalent Huang data.  All of it in under a second."""
    start = time.perf_counter()
    h = HuangData(R(3), R(5), R(7), 2)
    h2 = HuangData(R(3), R(5), R(7), 0)

    witnesses = link_check(h, h2, Q2)
    assert [w.case_id for w in witnesses] == ["i"]

    lc = link_construct(h, h2, Q2)
    assert not lc.exchanged
    m = lc.module
    assert m.xtype is XType.DDa
    assert m.params.n == 3
    assert m.params.k == (R(1, 4), R(3), R(7), R(5))
    assert verify_hq_relations(m).ok

    descriptor = tmp_path / "flagship.json"
    descriptor.write_text(json.dumps(m.descriptor()))
    assert main(["extract", str(descriptor)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert huang_equivalent(HuangData.from_json(report["huang_plus"]), h)
    assert huang_equivalent(HuangData.from_json(report["huang_minus"]), h2)

    assert time.perf_counter() - start < 1.0


# (count per size slot) x 5 sizes x 5 types = 200 instances, biased small
_SIZE_COUNTS = (14, 12, 8, 4, 2)


@lru_cache(maxsize=None)
def _battery():
    """200 seeded random valid instances covering every X-type and every
    module size n <= 9, built once and shared by criteria 2-4."""
    rng = random.Random(271828)
    modules = []
    for xtype in XType:
        sizes = (0, 2, 4, 6, 8) if xtype is XType.DS else (1, 3, 5, 7, 9)
        for n, count in zip(sizes, _SIZE_COUNTS):
            for i in range(count):
                q = R(2) if (n + i) % 2 == 0 else R(3)
                params = None
                while params is None:
                    params = sample_params(rng, xtype, n, q)
                modules.append(build_module(xtype, n, params.k, q))
    return tuple(modules)


def _g_of(z, s, t):
    """G(lambda, s, t) with lambda + lambda^{-1} replaced by the matrix z."""
    zs = s + s.inv()
    zt = t + t.inv()
    ident = ExactMatrix.identity(z.ctx, z.nrows)
    return z * z - z.scale(zs * zt) + ident.scale(zs * zs + zt * zt - 4)


def test_criterion_2():
    """Construction battery: on 200 sampled valid instances of all five
    X-types with n <= 9, the defining relations hold exactly, the spectrum
    of X is the eigenvalue ladder with one-dimensional eigenspaces, and
    G0^2 = G(X, k0, k3), G2^2 = G(qX, k1, k2).  Under sixty seconds."""
    start = time.perf_counter()
    modules = _battery()
    assert len(modules) >= 200
    assert {m.xtype for m in modules} == set(XType)
    assert all(m.params.n <= 9 for m in modules)

    for m in modules:
        q = m.params.q
        k0, k1, k2, k3 = m.params.k
        assert verify_hq_relations(m).ok

        ladder = eigenvalue_ladder(m.xtype, m.params.n, m.params.k, q)
        assert tuple(ladder) == tuple(m.mu)
        assert len(set(ladder)) == m.dim
        assert all(eigenspace(m.X, mu).dim == 1 for mu in ladder)

        g0 = m.t[0] - m.t[3] * m.t[0] * m.t_inv[3]
        g2 = m.t[2] - m.t[1] * m.t[2] * m.t_inv[1]
        assert g0 * g0 == _g_of(m.X + m.X_inv, k0, k3)
        assert g2 * g2 == _g_of(m.X.scale(q) + m.X_inv.scale(q.inv()), k1, k2)

    assert time.perf_counter() - start < 60.0


def test_criterion_3():
    """On every feasible sampled instance the two restricted pairs pass
    Leonard recognition, both eigenvalue ladders are q-Racah, and the
    split-sequence route to the Huang data agrees with the closed forms
    up to component inverses."""
    feasible = [m for m in _battery() if is_feasible(m)[0]]
    assert {m.xtype for m in feasible} == set(XType)

    for m in feasible:
        q = m.params.q
        for pair, closed in restricted_leonard_pairs(m):
            orderings = recognize_leonard_pair(pair.A, pair.Astar)
            assert orderings is not None
            theta, theta_star = orderings
            assert qracah_parameter(theta, q) is not None
            assert qracah_parameter(theta_star, q) is not None
            generic = huang_data_from_array(
                parameter_arrays(pair, orderings)[0], q)
            assert generic is not None
            assert generic.d == closed.d == pair.diameter
            assert huang_equivalent(generic, closed)


def _predicted_y_diagonal(m):
    """The eigenvalue of Y on the r-th flattening-basis vector."""
    k0, k1, k2, k3 = m.params.k
    qe = m.params.qe
    out = []
    for r in range(m.params.n + 1):
        even = r % 2 == 0
        if m.xtype in (XType.DS, XType.DDa):
            beta = k0 * k1 * qe(r if even else r + 1)
        elif m.xtype is XType.DDb:
            beta = (k2 * k3 * qe(r + 1 if even else r)).inv()
        elif m.xtype is XType.SSa:
            beta = (k0 * k1 * qe(r if even else r + 1)).inv()
        else:
            beta = k2 * k3 * qe(r + 1 if even else r)
        if m.xtype in (XType.SSa, XType.SSb):
            out.append(beta.inv() if even else beta)
        else:
            out.append(beta if even else beta.inv())
    return out


def _predicted_split_diagonals(m, plus, d):
    """The diagonals of A and B restricted to a t0-eigenspace."""
    k0, k1, k2, k3 = m.params.k
    qe = m.params.qe
    if m.xtype in (XType.DS, XType.DDa, XType.SSa):
        base_a = k0 * k1 if plus else k0 * k1 * qe(2)
    else:
        base_a = k2 * k3 * qe(1)
    if m.xtype in (XType.SSa, XType.SSb):
        base_b = k1 * k2 * qe(1)
    else:
        base_b = k0 * k3 if plus else k0 * k3 * qe(2)
    diag_a, diag_b = [], []
    for r in range(d + 1):
        va = base_a * qe(2 * r)
        vb = base_b * qe(2 * r)
        diag_a.append(va + va.inv())
        diag_b.append(vb + vb.inv())
    return diag_a, diag_b


def test_criterion_4():
    """Shape theorems, exact entry by entry: Y and A lower tridiagonal in
    the flattening basis with the predicted Y-diagonal; X and B upper
    tridiagonal in the same basis; A lower bidiagonal and B upper bidiagonal
    on each t0-eigenspace with the predicted diagonals."""
    flattened = split = 0
    split_types = set()
    for m in _battery():
        _, report = is_feasible(m)
        by_name = {c.name: c.passed for c in report.checks}
        if not by_name["Y-diagonalizable-simple-spectrum"]:
            continue
        flattened += 1
        n = m.params.n
        ub = u_basis(m)
        u_cols = [list(ub.columns.col(r)) for r in range(n + 1)]
        yrep = restrict_to_basis(m.Y, u_cols)
        assert is_banded(yrep, 2, 0)
        assert is_banded(restrict_to_basis(m.A, u_cols), 2, 0)
        expected = _predicted_y_diagonal(m)
        assert [yrep.rows[r][r] for r in range(n + 1)] == expected

        assert is_banded(restrict_to_basis(m.X, u_cols), 0, 2)
        assert is_banded(restrict_to_basis(m.B, u_cols), 0, 2)

        if not report.ok:
            continue
        split += 1
        split_types.add(m.xtype)
        for plus, basis in zip((True, False), t0_split(m)):
            d = len(basis) - 1
            a_res = restrict_to_basis(m.A, basis)
            b_res = restrict_to_basis(m.B, basis)
            assert is_banded(a_res, 1, 0)
            assert is_banded(b_res, 0, 1)
            diag_a, diag_b = _predicted_split_diagonals(m, plus, d)
            assert [a_res.rows[r][r] for r in range(d + 1)] == diag_a
            assert [b_res.rows[r][r] for r in range(d + 1)] == diag_b
    assert flattened >= 150 and split >= 100
    assert split_types == set(XType)


_HUANG_POOL = ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (1, 3), (1, 5),
               (1, 7), (-3, 1), (-5, 1), (5, 3), (7, 3), (3, 5), (-1, 7))


def _aw_relations_hold(A, S, Ae, h, q):
    """Both cross relations of the Askey-Wilson triple, checked directly."""
    ctx = A.ctx
    ident = ExactMatrix.identity(ctx, A.nrows)
    zero = ExactMatrix.zeros(ctx, A.nrows)

    def gamma(x, y, z):
        num = ((int_pow(q, h.d + 1) + int_pow(q, -h.d - 1)) * (x + x.inv())
               + (y + y.inv()) * (z + z.inv()))
        return num * (q + q.inv()).inv()

    denom_inv = (int_pow(q, 2) - int_pow(q, -2)).inv()
    comm = lambda M, N: (M * N).scale(q) - (N * M).scale(q.inv())
    first = A + comm(S, Ae).scale(denom_inv) - ident.scale(gamma(h.a, h.b, h.c))
    second = S + comm(Ae, A).scale(denom_inv) - ident.scale(gamma(h.b, h.c, h.a))
    return first == zero and second == zero


def test_criterion_5():
    """Leonard-pair core: the Huang round trip is the identity up to
    equivalence on 100 random admissible data with d <= 5; the d = 1
    instance at q = 2, (3, 5, 7) has split sequences -624/35 and 384/35;
    the Askey-Wilson triple satisfies both cross relations exactly and is
    rigid for d >= 1."""
    rng = random.Random(314159)
    qs = (R(2), R(3))
    done = 0
    while done < 100:
        q = qs[done % 2]
        a, b, c = (R(*rng.choice(_HUANG_POOL)) for _ in range(3))
        h = HuangData(a, b, c, rng.randrange(6))
        if not check_huang_admissible(h, q):
            continue
        pair = build_pair_from_huang(h, q)
        back = huang_data_from_array(parameter_arrays(pair)[0], q)
        assert back is not None
        assert huang_equivalent(back, h)
        done += 1

    h1 = HuangData(R(3), R(5), R(7), 1)
    pair = build_pair_from_huang(h1, Q2)
    theta = [R(13, 6), R(37, 6)]
    theta_star = [R(29, 10), R(101, 10)]
    pa = parameter_arrays(pair, (theta, theta_star))[0]
    assert list(pa.phi) == [R(-624, 35)]
    assert list(pa.phi2) == [R(384, 35)]

    checked = 0
    for d in range(1, 6):
        for q, (a, b, c) in ((R(2), (3, 5, 7)), (R(3), (5, 7, 11))):
            h = HuangData(R(a), R(b), R(c), d)
            assert check_huang_admissible(h, q)
            pair = build_pair_from_huang(h, q)
            Ae = askey_wilson_third(pair, h, q)
            assert _aw_relations_hold(pair.A, pair.Astar, Ae, h, q)
            ident = ExactMatrix.identity(Ae.ctx, Ae.nrows)
            for lam in (R(1), R(-1), R(1, 2)):
                shifted = Ae + ident.scale(lam)
                assert not _aw_relations_hold(pair.A, pair.Astar, shifted, h, q)
            checked += 1
    assert checked == 10


# case id -> (d' - d, exponents of q in (a'/a, b'/b, c'/c))
_CASE_ROWS = {
    "i": (-2, (0, 0, 0)),
    "ii": (-1, (1, 1, 1)),
    "iii": (0, (2, 0, 0)),
    "iv": (0, (0, 2, 0)),
    "v": (0, (0, 0, 2)),
    "vi": (1, (-1, -1, -1)),
    "vii": (2, (0, 0, 0)),
}


def _partner(h, case, q):
    """The Huang data paired with h by the given case row, or None when
    the diameter would leave the sweep range."""
    delta, exps = _CASE_ROWS[case]
    if not 0 <= h.d + delta <= 4:
        return None
    a, b, c = (v * int_pow(q, e) for v, e in zip((h.a, h.b, h.c), exps))
    return HuangData(a, b, c, h.d + delta)


def test_criterion_6():
    """Bidirectional link sweep with d, d' <= 4: on a grid of admissible
    pairs -- matching pairs for every case row, generically unrelated
    pairs, and near-misses violating exactly one case inequality --
    link_check returns witnesses exactly when link_construct succeeds,
    the synthesized module always realizes its inputs, and cases vi/vii
    are the exchanges of ii/i.  Under two minutes."""
    start = time.perf_counter()
    q = Q2
    pairs = []

    grid = [((3, 5, 7), range(5)), ((5, 3, 11), range(3))]
    for (a, b, c), drange in grid:
        for d in drange:
            h = HuangData(R(a), R(b), R(c), d)
            for case in ("i", "ii", "iii", "iv", "v"):
                h2 = _partner(h, case, q)
                if h2 is not None:
                    pairs.append((h, h2))

    pairs.append((HuangData(R(3), R(5), R(7), 2), HuangData(R(3), R(5), R(7), 1)))
    pairs.append((HuangData(R(3), R(5), R(7), 2), HuangData(R(11), R(5), R(7), 0)))
    pairs.append((HuangData(R(3), R(5), R(7), 3), HuangData(R(6), R(5), R(7), 3)))

    # near-misses: each violates exactly one inequality of its case row
    near_misses = [
        ("ii", HuangData(R(1, 4), R(5), R(7), 2)),   # a^2 = q^{-2d}
        ("ii", HuangData(R(3), R(1, 4), R(7), 2)),   # b^2 = q^{-2d}
        ("iii", HuangData(R(3), R(4), R(7), 2)),     # b^2 = q^{2d}
        ("iii", HuangData(R(1, 2), R(5), R(7), 1)),  # a^2 = q^{-2}
        ("iv", HuangData(R(4), R(5), R(7), 2)),      # a^2 = q^{2d}
        ("iv", HuangData(R(3), R(1, 2), R(7), 1)),   # b^2 = q^{-2}
        ("v", HuangData(R(4), R(5), R(7), 2)),       # a^2 = q^{2d}
        ("v", HuangData(R(3), R(5), R(1, 2), 1)),    # c^2 = q^{-2}
    ]
    for case, h in near_misses:
        h2 = _partner(h, case, q)
        assert h2 is not None
        assert check_huang_admissible(h, q) and check_huang_admissible(h2, q)
        assert case not in {w.case_id for w in link_check(h, h2, q)}
        pairs.append((h, h2))

    assert all(check_huang_admissible(h, q) and check_huang_admissible(h2, q)
               for h, h2 in pairs)

    vi_seen = vii_seen = 0
    swept = 0
    for first, second in pairs:
        for h1, h2 in ((first, second), (second, first)):
            swept += 1
            witnesses = link_check(h1, h2, q)
            if witnesses:
                lc = link_construct(h1, h2, q)
                (_, got_plus), (_, got_minus) = restricted_leonard_pairs(lc.module)
                if lc.exchanged:
                    assert lc.case.case_id in ("vi", "vii")
                    assert huang_equivalent(got_plus, h2)
                    assert huang_equivalent(got_minus, h1)
                else:
                    assert huang_equivalent(got_plus, h1)
                    assert huang_equivalent(got_minus, h2)
            else:
                with pytest.raises(LinkError):
                    link_construct(h1, h2, q)
            ids = {w.case_id for w in witnesses}
            if "vi" in ids:
                vi_seen += 1
                assert "ii" in {w.case_id for w in link_check(h2, h1, q)}
            if "vii" in ids:
                vii_seen += 1
                assert "i" in {w.case_id for w in link_check(h2, h1, q)}

    assert swept >= 60
    assert vi_seen >= 1 and vii_seen >= 1
    assert time.perf_counter() - start < 120.0
