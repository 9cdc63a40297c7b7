"""Finite-dimensional modules for the rank-one double affine Hecke algebra
H_q and the linked Leonard pairs they carry.

H_q has generators t0, t1, t2, t3, subject to: each t_i is invertible,
each t_i + t_i^{-1} is central, and t0 t1 t2 t3 = q^{-1}.  On the modules
built here each t_i satisfies (t_i - k_i)(t_i - k_i^{-1}) = 0, so
t_i + t_i^{-1} acts as the scalar k_i + k_i^{-1}.

Derived elements:

    X = t3 t0,   Y = t0 t1,
    A = Y + Y^{-1},   B = X + X^{-1},   C = t0 t2 + (t0 t2)^{-1},
    G0 = t0 - t3 t0 t3^{-1},   G2 = t2 - t1 t2 t1^{-1}   (G1, G3 alike).

A module is "XD" when X is diagonalizable; its eigenvalue ladder mu_0..mu_n
forms a path diagram whose consecutive products alternate between 1
(single bond) and q^{-2} (double bond).  The end-bond pattern classifies
the module into X-types DS, DDa, DDb, SSa, SSb.  On a feasible module
(X and Y both diagonalizable, t0 with two distinct eigenvalues) the pair
(A, B) restricts to a Leonard pair of q-Racah type on each t0-eigenspace,
and the two restricted pairs satisfy exactly one of seven "linked"
relations on their Huang data.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .exactfield import (
    FieldContext,
    FieldElement,
    _json_int,
    int_pow,
    is_valid_q,
    sqrt_or_extend,
)
from .exactlinalg import (
    ExactMatrix,
    Vector,
    eigenspace,     # unused here; the benchmark's tracer wraps daha.eigenspace
    restrict_to_basis,
)
from .leonard import (
    MAX_DIAMETER,
    HuangData,
    LeonardPair,
    VerificationError,
    _bidiagonal_array,
    _distinct_eigenvalues,
    _proportionality,
    _reciprocal_root,
    _walk_path,
    check_huang_admissible,
    common_context,
    huang_data_from_array,
    huang_equivalent,
)

__all__ = [
    "XType",
    "HqParams",
    "HqModule",
    "XDiagram",
    "UBasis",
    "LinkCase",
    "LinkConstruction",
    "LinkError",
    "Check",
    "Report",
    "validate_params",
    "eigenvalue_ladder",
    "build_module",
    "verify_hq_relations",
    "derived_elements",
    "x_diagram",
    "is_feasible",
    "u_basis",
    "t0_split",
    "restricted_leonard_pairs",
    "twist",
    "link_check",
    "link_construct",
    "sample_params",
    "MAX_N",
]


#: The largest module dimension minus one; past it ``validate_params``
#: reports ``n-too-large`` before forming any power of q.
MAX_N = MAX_DIAMETER


class LinkError(ValueError):
    """The two Huang data are not linked (no case row matches)."""


class XType(str, enum.Enum):
    DS = "DS"
    DDa = "DDa"
    DDb = "DDb"
    SSa = "SSa"
    SSb = "SSb"

    @property
    def even_n(self) -> bool:
        return self is XType.DS

    @property
    def row(self) -> "_XTypeRow":
        """This type's row of the X-type table."""
        return _XTYPE_TABLE[self]


class _XTypeRow(NamedTuple):
    """What distinguishes one X-type, as k-slot indices: the ladders of X
    and Y are built on k[i] k[j] for (i, j) = ``x_base``, ``y_base``;
    ``solo`` is the slot fixed by the defining equation
    k_solo^2 = q^{-n-1} (None for DS); ``case`` is the link case row a
    module of this type realizes; ``abc`` are the slots carrying the Huang
    scalars (a, b, c) of the restricted pairs; ``minus_start`` is the first
    index :func:`_t0_indices` takes for V(k0^{-1})."""

    x_base: tuple[int, int]
    y_base: tuple[int, int]
    solo: Optional[int]
    case: str
    abc: tuple[int, int, int]
    minus_start: int


_XTYPE_TABLE = {
    XType.DS: _XTypeRow((0, 3), (0, 1), None, "ii", (1, 3, 2), 2),
    XType.DDa: _XTypeRow((0, 3), (0, 1), 0, "i", (1, 3, 2), 2),
    XType.DDb: _XTypeRow((0, 3), (2, 3), 3, "iv", (2, 0, 1), 1),
    XType.SSa: _XTypeRow((1, 2), (0, 1), 1, "iii", (0, 2, 3), 1),
    XType.SSb: _XTypeRow((1, 2), (2, 3), 2, "v", (3, 1, 0), 0),
}


@dataclass(frozen=True, slots=True)
class HqParams:
    """q, the dimension offset n (module dimension n+1), and k0..k3."""

    q: FieldElement
    n: int
    k: tuple[FieldElement, FieldElement, FieldElement, FieldElement]

    def __post_init__(self) -> None:
        if not is_valid_q(self.q):
            raise ValueError("q must be rational, nonzero, and not a root of unity")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if len(self.k) != 4 or any(not ki for ki in self.k):
            raise ValueError("need four nonzero parameters k0..k3")
        ctx = common_context(self.q, *self.k)
        object.__setattr__(self, "q", ctx.lift(self.q))
        object.__setattr__(self, "k", tuple(ctx.lift(ki) for ki in self.k))

    @property
    def ctx(self) -> FieldContext:
        return self.q.ctx

    def qe(self, e: int) -> FieldElement:
        return int_pow(self.q, e)

    def to_json(self) -> dict:
        return {"n": self.n, "q": self.q.to_json(),
                "k": [ki.to_json() for ki in self.k]}

    @classmethod
    def from_json(cls, data: dict) -> "HqParams":
        return cls(FieldElement.from_json(data["q"]), _json_int(data["n"]),
                   tuple(FieldElement.from_json(x) for x in data["k"]))


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    residual: Optional[ExactMatrix] = None

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if not self.passed and self.residual is not None:
            out["residual"] = self.residual.to_json()
        return out


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


# ---------------------------------------------------------------------------
# Parameter validation and the eigenvalue ladder
# ---------------------------------------------------------------------------


def _q_powers(q: FieldElement, exponents: Sequence[int]) -> set[FieldElement]:
    return {int_pow(q, e) for e in exponents}


def validate_params(xtype: XType, n: int, k: Sequence[FieldElement],
                    q: FieldElement) -> list[str]:
    """The list of violated conditions (empty = valid parameters).

    Checks the range and parity of n, the type's defining equation, and
    the type's finite forbidden-membership lists.
    """
    if not is_valid_q(q):
        return ["q-invalid"]
    if len(k) != 4 or any(not ki for ki in k):
        return ["k-nonzero"]
    xtype = XType(xtype)
    bad: list[str] = []
    if n < 0:
        return ["n-negative"]
    if n > MAX_N:
        return ["n-too-large"]
    if (n % 2 == 0) != xtype.even_n:
        bad.append("parity")
        return bad
    qpow_defining = int_pow(q, -n - 1)
    solo = xtype.row.solo
    xi, xj = xtype.row.x_base
    base = k[xi] * k[xj]
    if solo is None:
        if k[0] * k[1] * k[2] * k[3] != qpow_defining:
            bad.append("defining-equation")
        line = _q_powers(q, range(-n, 0))           # q^{-1} .. q^{-n}
        if base in line or -base in line:
            bad.append("k0k3-line")
        half = _q_powers(q, range(-(n // 2), 0))    # q^{-1} .. q^{-n/2}
        for i, ki in enumerate(k):
            if ki in half or -ki in half:
                bad.append(f"k{i}-halfline")
    else:
        partner = xi + xj - solo
        if k[solo] * k[solo] != qpow_defining:
            bad.append("defining-equation")
        upper = _q_powers(q, range(0, (n - 1) // 2 + 1))   # 1, q, .., q^{(n-1)/2}
        kp = k[partner]
        if any(x in upper for x in (kp, -kp, kp.inv(), -kp.inv())):
            bad.append(f"k{partner}-upperline")
        odd_line = _q_powers(q, range(-n, 0, 2))           # q^{-1}, q^{-3}, .., q^{-n}
        alt = [k[s] for s in range(4) if s not in (xi, xj)]
        for ea, eb in itertools.product((1, -1), repeat=2):
            if base * int_pow(alt[0], ea) * int_pow(alt[1], eb) in odd_line:
                bad.append("product-oddline")
                break
    return bad


def eigenvalue_ladder(xtype: XType, n: int, k: Sequence[FieldElement],
                      q: FieldElement) -> list[FieldElement]:
    """The X-eigenvalue ladder mu_0..mu_n for the given type and parameters
    (ValueError on invalid ones).

    On valid parameters the values are mutually distinct and their diagram
    is a path: the n ladder bonds, single or double as
    :func:`_step_is_double` says, and its end bonds give the X-type's family.
    """
    bad = validate_params(xtype, n, k, q)
    if bad:
        raise ValueError(f"invalid parameters: {', '.join(bad)}")
    # Valid parameters suffice.  The values are b q^r and (b q^{s+1})^{-1}
    # (b the X base, r and s of opposite parity); as q is no root of unity, two
    # of one kind never coincide and q^{r-s-1}, the product of one of each, is
    # 1 or q^{-2} only on a step s = r -+ 1.  Any other coincidence or bond needs
    # b^2 = q^{-e}, e even in [2, 2n]: b = +-q^{-m}, 1 <= m <= n, which
    # ``k0k3-line`` forbids for DS (b = k0 k3).  Otherwise b = k_solo k_p with
    # k_solo^2 = q^{-n-1} gives k_p = +-q^e, |e| = |(n + 1)/2 - m| <= (n - 1)/2,
    # which ``k{p}-upperline`` forbids (p = 3, 0, 2, 1: DDa, DDb, SSa, SSb).
    xtype = XType(xtype)
    ctx = common_context(q, *k)
    qq = ctx.lift(q)
    kk = [ctx.lift(ki) for ki in k]
    return [_ladder(kk, xtype.row.x_base, qq, r) for r in range(n + 1)]


def _ladder(k: Sequence[FieldElement], slots: tuple[int, int], q: FieldElement,
            r: int) -> FieldElement:
    """The r-th value of the ladder on base = k[i] k[j], (i, j) = slots:
    base q^r on even r when the base holds k0 and on odd r otherwise,
    (base q^{r+1})^{-1} on the other r."""
    base = k[slots[0]] * k[slots[1]]
    if (r % 2 == 0) == (0 in slots):
        return base * int_pow(q, r)
    return (base * int_pow(q, r + 1)).inv()


def _step_is_double(xtype: XType, r: int) -> bool:
    """Whether ladder step r (mu_r to mu_{r+1}) is a double bond: exactly
    where the X-ladder takes the form base q^r."""
    return (r % 2 == 0) == (0 in XType(xtype).row.x_base)


# ---------------------------------------------------------------------------
# The X-diagram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XDiagram:
    """Bond structure of a set of prospective X-eigenvalues.

    ``order`` walks the reduced diagram as a path (indices into ``mu``);
    ``pattern`` classifies by the two end bonds: DS (one double, one
    single end), DD (both double), SS (both single).  A single vertex is
    DS by convention.  Loops (mu^2 = 1 or q^{-2}) are kept separate and do
    not affect the path.
    """

    mu: tuple[FieldElement, ...]
    order: tuple[int, ...]
    single_bonds: tuple[tuple[int, int], ...]
    double_bonds: tuple[tuple[int, int], ...]
    loops: tuple[tuple[int, str], ...]
    pattern: str


def x_diagram(mu: Sequence[FieldElement], q: FieldElement) -> XDiagram:
    """Build and classify the diagram of distinct prospective eigenvalues.

    Raises ValueError when the reduced diagram is not a path.
    """
    m = len(mu)
    if len(set(mu)) != m:
        raise ValueError("diagram vertices must be distinct")
    one = q.ctx.one()
    qm2 = int_pow(q, -2)
    singles, doubles, loops = [], [], []
    for i in range(m):
        sq = mu[i] * mu[i]
        if sq == one:
            loops.append((i, "single"))
        if sq == qm2:
            loops.append((i, "double"))
        for j in range(i + 1, m):
            prod = mu[i] * mu[j]
            if prod == one:
                singles.append((i, j))
            elif prod == qm2:
                doubles.append((i, j))
    kind: dict[tuple[int, int], str] = {}
    adj: list[list[int]] = [[] for _ in range(m)]
    for i, j in singles + doubles:
        adj[i].append(j)
        adj[j].append(i)
        kind[i, j] = kind[j, i] = "single" if (i, j) in singles else "double"
    if m == 1:
        return XDiagram(tuple(mu), (0,), tuple(singles), tuple(doubles),
                        tuple(loops), "DS")
    walk = _walk_path(adj)
    if walk is None:
        raise ValueError("reduced diagram is not a path")
    first, last = kind[walk[0], walk[1]], kind[walk[-2], walk[-1]]
    if {first, last} == {"single", "double"}:
        pattern = "DS"
        order = walk if first == "double" else walk[::-1]
    else:
        pattern = "DD" if first == "double" else "SS"
        serial = lambda w: json.dumps([mu[i].to_json() for i in w])
        order = min(walk, walk[::-1], key=serial)
    return XDiagram(tuple(mu), tuple(order), tuple(singles), tuple(doubles),
                    tuple(loops), pattern)


# ---------------------------------------------------------------------------
# Module construction
# ---------------------------------------------------------------------------


def _g_scalar(lam: FieldElement, s: FieldElement, t: FieldElement) -> FieldElement:
    """G(lambda, s, t) = lambda^{-2} (lambda - st)(lambda - st^{-1})
    (lambda - s^{-1}t)(lambda - s^{-1}t^{-1}), in its symmetric expansion."""
    zl = lam + lam.inv()
    zs = s + s.inv()
    zt = t + t.inv()
    return zl * zl - zl * zs * zt + zs * zs + zt * zt - 4


def _g_matrix(z: ExactMatrix, s: FieldElement, t: FieldElement) -> ExactMatrix:
    """G with lambda + lambda^{-1} replaced by the matrix ``z``."""
    zs = s + s.inv()
    zt = t + t.inv()
    return (z * z - z.scale(zs * zt)).shift(zs * zs + zt * zt - 4)


class HqModule:
    """A concrete H_q-module: generator matrices over a fixed basis.

    Matrices act by columns: (t_i v_s) = sum_r t[i][r][s] v_r.  Derived
    elements are cached properties.  Instances are not mutated after
    construction.  Feasibility and extraction need the ladder basis
    v_0..v_n, on which X = diag(mu) (:attr:`x_diagonal_ladder`), as
    :func:`build_module` makes it; they raise ValueError on any other.
    """

    def __init__(self, params: HqParams, xtype: XType,
                 t: Sequence[ExactMatrix], mu: Sequence[FieldElement]) -> None:
        self.params = params
        self.xtype = XType(xtype)
        self.t = tuple(t)
        self.mu = tuple(mu)
        if len(self.t) != 4 or len(self.mu) != params.n + 1:
            raise ValueError("module needs 4 generator matrices and n+1 eigenvalues")

    @property
    def dim(self) -> int:
        return self.params.n + 1

    @property
    def ctx(self) -> FieldContext:
        return self.params.ctx

    @cached_property
    def t_inv(self) -> tuple[ExactMatrix, ...]:
        # (t_i - k_i)(t_i - k_i^{-1}) = 0 makes the inverse affine in t_i.
        return tuple((-ti).shift(ki + ki.inv()) for ki, ti in zip(self.params.k, self.t))

    @cached_property
    def X(self) -> ExactMatrix:
        return self.t[3] * self.t[0]

    @cached_property
    def X_inv(self) -> ExactMatrix:
        return self.t_inv[0] * self.t_inv[3]

    @cached_property
    def Y(self) -> ExactMatrix:
        return self.t[0] * self.t[1]

    @cached_property
    def Y_inv(self) -> ExactMatrix:
        return self.t_inv[1] * self.t_inv[0]

    @cached_property
    def A(self) -> ExactMatrix:
        return self.Y + self.Y_inv

    @cached_property
    def B(self) -> ExactMatrix:
        return self.X + self.X_inv

    @cached_property
    def C(self) -> ExactMatrix:
        t0t2 = self.t[0] * self.t[2]
        return t0t2 + self.t_inv[2] * self.t_inv[0]

    @cached_property
    def G(self) -> tuple[ExactMatrix, ...]:
        t, ti = self.t, self.t_inv
        return tuple(t[i] - t[i - 1] * t[i] * ti[i - 1] for i in range(4))

    def _t0_projector(self, keep: FieldElement, drop: FieldElement) -> ExactMatrix:
        """(t0 - drop) / (keep - drop), the projection onto V(keep) along V(drop)."""
        if keep == drop:
            raise ValueError("t0-eigenprojections need k0 distinct from its inverse")
        return self.t[0].shift(-drop).scale((keep - drop).inv())

    @cached_property
    def F_plus(self) -> ExactMatrix:
        k0 = self.params.k[0]
        return self._t0_projector(k0, k0.inv())

    @cached_property
    def F_minus(self) -> ExactMatrix:
        k0 = self.params.k[0]
        return self._t0_projector(k0.inv(), k0)

    @cached_property
    def x_diagonal_ladder(self) -> bool:
        """Whether X = t3 t0 is exactly diag(mu_0, .., mu_n), evaluated once."""
        return self.X == ExactMatrix.diagonal(self.ctx, self.mu)

    @cached_property
    def relations(self) -> "Report":
        """:func:`verify_hq_relations` of this module, evaluated once."""
        return verify_hq_relations(self)

    @cached_property
    def feasibility(self) -> tuple[bool, "Report"]:
        """:func:`is_feasible` of this module, evaluated once."""
        return is_feasible(self)

    @cached_property
    def flattening(self) -> "UBasis":
        """:func:`u_basis` of this module, evaluated once."""
        return u_basis(self)

    def descriptor(self) -> dict:
        return {"xtype": self.xtype.value, **self.params.to_json()}

    def to_json(self) -> dict:
        out = self.descriptor()
        out["mu"] = [m.to_json() for m in self.mu]
        out["t"] = [m.to_json() for m in self.t]
        return out


def build_module(xtype: XType, n: int, k: Sequence[FieldElement],
                 q: FieldElement) -> HqModule:
    """Assemble the four generator matrices on the ladder basis v_0..v_n.

    Each ladder step carries one 2x2 block of a generator pair (a, b) with
    parameters (s, t) = (k_a, k_b) at a scalar lam: (t0, t3) at lam = mu_r
    on a single bond, (t2, t1) at lam = q^{-1} mu_r^{-1} on a double bond;
    the remaining endpoint actions are scalar.  The result is verified:
    all defining relations must hold and X = t3 t0 must be exactly
    diagonal with the ladder on its diagonal.
    """
    xtype = XType(xtype)
    mu = eigenvalue_ladder(xtype, n, k, q)
    ctx = mu[0].ctx
    qq = ctx.lift(q)
    kk = tuple(ctx.lift(ki) for ki in k)
    z = ctx.zero()
    rows = {i: [[z] * (n + 1) for _ in range(n + 1)] for i in range(4)}

    def put(gen: int, r: int, c: int, val: FieldElement) -> None:
        rows[gen][r][c] = val

    for r in range(n):
        # the block on span(v_r, v_{r+1})
        a, b, lam = (2, 1, (qq * mu[r]).inv()) if _step_is_double(xtype, r) else (0, 3, mu[r])
        li = lam.inv()
        den = (lam - li).inv()
        g = _g_scalar(lam, kk[a], kk[b])
        cs, ct = kk[a] + kk[a].inv(), kk[b] + kk[b].inv()
        put(a, r, r, (lam * cs - ct) * den)
        put(a, r + 1, r, lam * den)
        put(a, r, r + 1, -g * li * den)
        put(a, r + 1, r + 1, (ct - li * cs) * den)
        put(b, r, r, (lam * ct - cs) * den)
        put(b, r + 1, r, -den)
        put(b, r, r + 1, g * den)
        put(b, r + 1, r + 1, (cs - li * ct) * den)

    # endpoint actions (each generator must touch every vertex exactly once):
    # the X-base generators act by k at v_0; at v_n the other two do (DS),
    # or the X-base ones again with the non-solo value inverted
    row = xtype.row
    for i in row.x_base:
        put(i, 0, 0, kk[i])
    if row.solo is None:
        for i in (1, 2):
            put(i, n, n, kk[i])
    else:
        for i in row.x_base:
            put(i, n, n, kk[i] if i == row.solo else kk[i].inv())

    t = tuple(ExactMatrix(ctx, rows[i]) for i in range(4))
    module = HqModule(HqParams(qq, n, kk), xtype, t, mu)
    report = module.relations
    if not report.ok:
        raise VerificationError(
            "constructed module fails relations: " + ", ".join(report.failures()))
    if not module.x_diagonal_ladder:
        raise VerificationError("X is not diagonal with the ladder eigenvalues")
    return module


def verify_hq_relations(m: HqModule) -> Report:
    """Check every defining relation of H_q as an exact matrix identity."""
    checks: list[Check] = []

    def record(name: str, actual: ExactMatrix, expected) -> None:
        """A check that ``actual`` equals ``expected``: a matrix, or a scalar
        c standing for cI.  Only a failing check builds its residual
        ``actual - expected``."""
        if not isinstance(expected, ExactMatrix):
            ok, residual = actual.is_scalar(expected), lambda: actual.shift(-expected)
        else:
            ok, residual = actual == expected, lambda: actual - expected
        checks.append(Check(name, True) if ok else Check(name, False, residual()))

    for i in range(4):
        record(f"t{i}-inverse-right", m.t[i] * m.t_inv[i], 1)
        record(f"t{i}-inverse-left", m.t_inv[i] * m.t[i], 1)
        ki = m.params.k[i]
        record(f"t{i}-quadratic", m.t[i].shift(-ki) * m.t[i].shift(-ki.inv()), 0)
    for i in range(4):
        central = m.t[i] + m.t_inv[i]
        for j in range(4):
            record(f"central-t{i}-with-t{j}", central * m.t[j], m.t[j] * central)
    qinv = m.params.q.inv()
    for start in range(4):
        order = [(start + off) % 4 for off in range(4)]
        a, b, c, d = (m.t[i] for i in order)
        record("product-" + "".join(f"t{i}" for i in order), a * b * c * d, qinv)
    return Report(tuple(checks))


# ---------------------------------------------------------------------------
# Derived elements and their structural identities
# ---------------------------------------------------------------------------


def derived_elements(m: HqModule) -> None:
    """Verify the structural identities of the derived elements, which the
    module carries (``m.X``, ``m.A``, ``m.G``, ``m.F_plus``, ...).

    Verified exactly: X G0 = G0 X^{-1} and X G2 = q^{-2} G2 X^{-1}; the
    commutation X t0 - t0 X^{-1} = (k0 + k0^{-1}) X - (k3 + k3^{-1}) I;
    G0^2 = G(X, k0, k3) and G2^2 = G(qX, k1, k2); the three cyclic
    relations tying A, B, C to t0; and, when k0 != k0^{-1} (otherwise F^+
    and F^- are undefined), that F^+/F^- are complementary idempotents.
    """
    q = m.params.q
    k0, k1, k2, k3 = m.params.k
    X, Xi = m.X, m.X_inv
    G0, G2 = m.G[0], m.G[2]
    if X * G0 != G0 * Xi:
        raise VerificationError("G0 does not invert X")
    if X * G2 != G2.scale(int_pow(q, -2)) * Xi:
        raise VerificationError("G2 does not q-twist X")
    lhs = X * m.t[0] - m.t[0] * Xi
    rhs = X.scale(k0 + k0.inv()).shift(-(k3 + k3.inv()))
    if lhs != rhs:
        raise VerificationError("the X-t0 commutation identity fails")
    if G0 * G0 != _g_matrix(X + Xi, k0, k3):
        raise VerificationError("G0 squared is not G(X, k0, k3)")
    if G2 * G2 != _g_matrix(X.scale(q) + Xi.scale(q.inv()), k1, k2):
        raise VerificationError("G2 squared is not G(qX, k1, k2)")
    # cyclic relations among A, B, C
    A, B, C = m.A, m.B, m.C
    denom_inv = (int_pow(q, 2) - int_pow(q, -2)).inv()
    wt = (q + q.inv()).inv()
    t0mix = m.t[0].scale(q.inv()) + m.t_inv[0].scale(q)
    scal = [ki + ki.inv() for ki in (k0, k1, k2, k3)]
    triples = (
        (A, B, C, t0mix.scale(scal[1]).shift(scal[2] * scal[3])),
        (B, C, A, t0mix.scale(scal[3]).shift(scal[1] * scal[2])),
        (C, A, B, t0mix.scale(scal[2]).shift(scal[3] * scal[1])),
    )
    for lead, p, r, rhs_num in triples:
        lhs = lead + ((p * r).scale(q) - (r * p).scale(q.inv())).scale(denom_inv)
        if lhs != rhs_num.scale(wt):
            raise VerificationError("a cyclic A/B/C relation fails")
    if k0 != k0.inv():
        fp, fm = m.F_plus, m.F_minus
        if (fp * fp != fp or fm * fm != fm or not (fp * fm).is_scalar(0)
                or not (fp + fm).is_scalar(1)):
            raise VerificationError("t0-eigenprojections are not complementary idempotents")


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def _y_diagonal(m: HqModule) -> list[FieldElement]:
    """Predicted Y-eigenvalue sequence along the Y-flattening basis: the
    ladder on the Y base."""
    return [_ladder(m.params.k, m.xtype.row.y_base, m.params.q, r)
            for r in range(m.params.n + 1)]


def _beta_values(m: HqModule) -> list[FieldElement]:
    """The recursion scalars beta_0..beta_n of the Y-flattening basis: the
    Y-diagonal, inverted on single-bond steps."""
    return [y if _step_is_double(m.xtype, r) else y.inv()
            for r, y in enumerate(_y_diagonal(m))]


def _y_by_table(m: HqModule) -> bool:
    """Route (a) to Y-diagonalizability: k_i k_j on the Y base avoids +-q^{-1..-n}."""
    i, j = m.xtype.row.y_base
    pair = m.params.k[i] * m.params.k[j]
    return not {pair, -pair} & _q_powers(m.params.q, range(-m.params.n, 0))


def _y_by_spectrum(m: HqModule) -> bool:
    """Route (b): the predicted y_r are distinct and the u-basis builds, so
    they are Y's simple spectrum."""
    return len(set(_y_diagonal(m))) == m.dim and m.flattening is not None


def _require_ladder_basis(m: HqModule, what: str) -> None:
    if not m.x_diagonal_ladder:
        raise ValueError(f"{what} needs the ladder basis: X is not diag(mu)")


def is_feasible(m: HqModule) -> tuple[bool, Report]:
    """Whether the module is feasible: X and Y both diagonalizable and t0
    with two distinct eigenvalues (each with a nonzero eigenspace).

    On the ladder basis (else ValueError) X = diag(mu), so distinct mu
    settle X; Y is decided by :func:`_y_by_table` and :func:`_y_by_spectrum`,
    which must agree (else :class:`VerificationError`).  t0 must satisfy
    its quadratic (else VerificationError), so it has both eigenvalues
    k0^{+-1} exactly when tr t0 is neither (n+1) k0 nor (n+1) k0^{-1}.
    """
    _require_ladder_basis(m, "feasibility")
    n = m.params.n
    k0 = m.params.k[0]
    if not (m.t[0].shift(-k0) * m.t[0].shift(-k0.inv())).is_scalar(0):
        raise VerificationError("t0 does not satisfy its quadratic")
    checks = [Check("X-diagonalizable-simple-spectrum", len(set(m.mu)) == n + 1)]
    direct_ok = _y_by_spectrum(m)
    if _y_by_table(m) != direct_ok:
        raise VerificationError("Y-diagonalizability checks disagree (table vs direct)")
    checks.append(Check("Y-diagonalizable-simple-spectrum", direct_ok))
    checks.append(Check("t0-two-eigenvalues",
                        m.t[0].trace() not in (k0 * (n + 1), k0.inv() * (n + 1))))
    report = Report(tuple(checks))
    return report.ok, report


# ---------------------------------------------------------------------------
# The Y-flattening basis and the t0-split
# ---------------------------------------------------------------------------


def _echelon_ends(basis: Sequence[Vector], what: str) -> list[int]:
    """Each vector's last nonzero position; these must rise strictly, which
    proves the vectors independent, else VerificationError naming ``what``."""
    ends = [next((i for i in range(len(v) - 1, -1, -1) if v[i]), -1) for v in basis]
    if any(a >= b for a, b in zip([-1] + ends, ends)):
        raise VerificationError(f"{what} is not in echelon form")
    return ends


def _band(M: ExactMatrix, basis: Sequence[Vector], ends: Sequence[int],
          diag: Sequence[FieldElement], offsets: Sequence[int], what: str) -> ExactMatrix:
    """M on an echelon ``basis`` (last nonzero positions ``ends``) where
    M b_r = diag_r b_r + sum_o c_o b_{r+o} over ``offsets``: each c_o is read
    at the end of b_{r+o}, highest end first, and taken off; the remainder
    must vanish, else VerificationError naming ``what``."""
    k = len(basis)
    rows = [[M.ctx.zero()] * k for _ in range(k)]
    for r, b in enumerate(basis):
        rows[r][r] = diag[r]
        rest = [x - diag[r] * y if y else x for x, y in zip(M.apply(b), b)]
        for s in sorted((r + o for o in offsets if 0 <= r + o < k), reverse=True):
            c = rows[s][r] = rest[ends[s]] * basis[s][ends[s]].inv()
            rest = [x - c * y if y else x for x, y in zip(rest, basis[s])]
        if any(rest):
            raise VerificationError(what)
    return ExactMatrix._of(M.ctx, rows)


@dataclass(frozen=True)
class UBasis:
    """The basis u_0..u_n flattening Y, as the columns of ``columns``, with
    the recursion scalars ``beta``; u_r ends at v_r.  In it Y and A are lower
    and X and B upper tridiagonal, as :func:`u_basis` proves."""

    columns: ExactMatrix
    beta: tuple[FieldElement, ...]


def u_basis(m: HqModule) -> UBasis:
    """Build the Y-flattening basis and verify its shape theorems.

    On the ladder basis (else ValueError) u_0 = v_0 spans the first
    X-eigenspace when the mu are distinct; u_r = u_{r-1} - beta_{r-1} W u_{r-1}
    with W = Y on single-bond steps and Y^{-1} on double-bond steps; the
    same recursion one step past the end must give zero.  The columns must
    be in echelon form and X, X^{-1} upper tridiagonal on mu_r, mu_r^{-1}
    (:func:`_band`); then Y, Y^{-1} are lower tridiagonal on the predicted
    Y-diagonal.  A and B take these shapes by linearity.  Route (b) of
    :func:`is_feasible` reads Y's spectrum off this form.
    """
    _require_ladder_basis(m, "the flattening basis")
    n = m.params.n
    ctx = m.ctx
    beta = _beta_values(m)
    vecs: list[Vector] = [(ctx.one(),) + (ctx.zero(),) * n]
    for r in range(1, n + 2):
        w = m.Y_inv if _step_is_double(m.xtype, r - 1) else m.Y
        prev = vecs[r - 1]
        img = w.apply(prev)
        vecs.append(tuple(p - beta[r - 1] * x for p, x in zip(prev, img)))
    if any(vecs[n + 1]):
        raise VerificationError("the flattening recursion does not terminate")
    cols = vecs[:n + 1]
    ends = _echelon_ends(cols, "the flattening basis")
    # Y needs no check.  Let W_r be step r's operator; U_r = span(u_r..u_n) has
    # dimension n + 1 - r.  W_r u_r = beta_r^{-1} (u_r - u_{r+1}) and u_{n+1} = 0,
    # so by downward induction the invertible W_r maps U_r onto itself: each U_r
    # is invariant under Y and Y^{-1}, and W_r acts on U_r / U_{r+1} as
    # beta_r^{-1}, making Y's diagonal y_r (:func:`_beta_values`).  W alternates,
    # so W_r^{-1} u_r = beta_r u_r + W_{r+1} u_{r+1} lies in span(u_r..u_{r+2}):
    # Y and Y^{-1} are lower tridiagonal.
    for name, mat, diag in (("X", m.X, m.mu), ("X^{-1}", m.X_inv, [x.inv() for x in m.mu])):
        _band(mat, cols, ends, diag, (-1, -2), f"{name} is not upper tridiagonal in the u-basis")
    return UBasis(ExactMatrix.from_cols(ctx, cols), tuple(beta))


def _t0_indices(xtype: XType, n: int) -> tuple[list[int], list[int]]:
    """The flattening vectors whose projections span V(k0) and V(k0^{-1});
    their counts are the dimensions d+1 and d'+1."""
    plus = list(range(0, n + 1, 2)) + ([n] if xtype is XType.DDa else [])
    return plus, list(range(xtype.row.minus_start, n + 1, 2))


def t0_split(m: HqModule) -> tuple[list[Vector], list[Vector]]:
    """Ordered bases of the two t0-eigenspaces V(k0) and V(k0^{-1}),
    obtained by projecting the type-specific subsets of the flattening
    basis (t0's quadratic, proven by feasibility, puts F^+- there); each
    basis must be in echelon form, else :class:`VerificationError`."""
    feasible, report = m.feasibility
    if not feasible:
        raise ValueError("t0-split needs a feasible module: "
                         + ", ".join(report.failures()))
    col = m.flattening.columns.col
    plus_idx, minus_idx = _t0_indices(m.xtype, m.params.n)
    plus = [m.F_plus.apply(col(i)) for i in plus_idx]
    minus = [m.F_minus.apply(col(i)) for i in minus_idx]
    for name, vs in (("plus", plus), ("minus", minus)):
        _echelon_ends(vs, f"the projected {name}-basis")
    return plus, minus


# ---------------------------------------------------------------------------
# The restricted Leonard pairs and their Huang data
# ---------------------------------------------------------------------------


def _type_sign(m: HqModule) -> FieldElement:
    """The sign eps = +-1 relating the defining-equation root to the
    positive power of q (eps = k_solo * q^{(n+1)/2} for the non-DS types)."""
    solo = m.xtype.row.solo
    if solo is None:
        return m.ctx.one()
    eps = m.params.k[solo] * m.params.qe((m.params.n + 1) // 2)
    if eps * eps != 1:
        raise VerificationError("defining equation does not hold")
    return eps


def _closed_form_huang(m: HqModule, plus: bool) -> HuangData:
    """Huang data of the restricted pair from the type's closed forms.

    (a, b, c) are the k-slots of the type's ``abc``, with k0 taken over
    q^{+-1} (+ on V(k0)), all times k0 q^{n/2} on V(k0) and k0 q^{n/2+1}
    on V(k0^{-1}) (DS) or times the sign eps of the defining-equation
    square root (the other types); at eps = +1 these are the familiar
    (k1, k3, k2)-style parameter triples.  d is read off the t0-split.
    """
    n = m.params.n
    k = m.params.k
    qe = m.params.qe
    d = len(_t0_indices(m.xtype, n)[0 if plus else 1]) - 1
    if m.xtype is XType.DS:
        scale = k[0] * qe(n // 2 if plus else (n + 2) // 2)
    else:
        scale = _type_sign(m)
    shift = m.params.q.inv() if plus else m.params.q
    return HuangData(*(scale * (k[i] * shift if i == 0 else k[i]) for i in m.xtype.row.abc), d)


def _restricted_diagonals(m: HqModule, plus: bool,
                          d: int) -> tuple[list[FieldElement], list[FieldElement]]:
    """Predicted standard orderings (theta for A, theta* for B) on the
    chosen t0-eigenspace: theta_r = v_r + v_r^{-1} with v_r = base q^{2r},
    base the Y base for A and the X base for B, times q^2 on V(k0^{-1})
    when it holds k0 and times q on both spaces when it does not."""
    qe = m.params.qe

    def ladder(slots: tuple[int, int]) -> list[FieldElement]:
        base = m.params.k[slots[0]] * m.params.k[slots[1]]
        if 0 not in slots:
            base = base * qe(1)
        elif not plus:
            base = base * qe(2)
        return [v + v.inv() for v in (base * qe(2 * r) for r in range(d + 1))]

    return ladder(m.xtype.row.y_base), ladder(m.xtype.row.x_base)


def restricted_leonard_pairs(
    m: HqModule,
) -> tuple[tuple[LeonardPair, HuangData], tuple[LeonardPair, HuangData]]:
    """The Leonard pairs (A, B) restricted to V(k0) and V(k0^{-1}), each
    with its closed-form Huang data, verified as in :func:`_restricted_halves`
    and against the generic Huang data (equal up to inversions)."""
    halves = _restricted_halves(m)
    if any(g is None or not huang_equivalent(g, h) for _, h, g in halves):
        raise VerificationError("generic and closed-form Huang data disagree")
    (pair_p, h_p, _), (pair_m, h_m, _) = halves
    return (pair_p, h_p), (pair_m, h_m)


def _restricted_halves(
    m: HqModule,
) -> list[tuple[LeonardPair, HuangData, Optional[HuangData]]]:
    """(pair, closed-form, generic Huang data) on V(k0) and V(k0^{-1}).

    Read, then checked (:func:`_band`): the restricted A is lower and B
    upper bidiagonal with the predicted diagonals (theta, theta*).  The
    generic data come from the parameter array read off these bidiagonals
    (:func:`leonard._bidiagonal_array`, with PA1-PA5), the Leonard
    certificate by Terwilliger's classification (Linear Algebra Appl. 330,
    2001); no elimination or split sequence runs.  They are None, and the
    half uncertified, when not q-Racah; the caller compares."""
    plus_basis, minus_basis = t0_split(m)
    results = []
    for plus, basis in ((True, plus_basis), (False, minus_basis)):
        ends = _echelon_ends(basis, "the t0-split")   # an index scan; t0_split certified it
        theta, theta_star = _restricted_diagonals(m, plus, len(basis) - 1)
        pair = LeonardPair(
            _band(m.A, basis, ends, theta, (1,), "restricted A is not lower bidiagonal"),
            _band(m.B, basis, ends, theta_star, (-1,), "restricted B is not upper bidiagonal"))
        closed = _closed_form_huang(m, plus)
        generic = huang_data_from_array(_bidiagonal_array(pair, theta, theta_star),
                                        m.params.q)
        results.append((pair, closed, generic))
    return results


# ---------------------------------------------------------------------------
# Twisting by the two basic automorphisms
# ---------------------------------------------------------------------------


def _recognize_module(t: Sequence[ExactMatrix], q: FieldElement,
                      spectrum: Sequence[FieldElement]) -> HqModule:
    """Rebuild (xtype, ladder, parameters) from four generator matrices
    whose X = t3 t0 has the given candidate spectrum."""
    n = t[0].nrows - 1
    spec = _distinct_eigenvalues(t[3] * t[0], spectrum)
    if spec is None:
        raise VerificationError("twisted X is not multiplicity-free")
    vecs = spec[1]
    diagram = x_diagram(list(spectrum), q)
    order = list(diagram.order)
    mu = [spectrum[i] for i in order]
    first, last = vecs[order[0]], vecs[order[-1]]
    eigenvalue = lambda gen, v: _proportionality(t[gen].apply(v), v)
    # the base generators act by their k at the first vertex; at the last,
    # t1 and t2 give theirs (DS) or the first base generator's value tells
    # the a-type (the same k) from the b-type
    pattern = diagram.pattern
    base = XType(pattern if pattern == "DS" else pattern + "a").row.x_base
    k = {i: eigenvalue(i, first) for i in base}
    if pattern == "DS":
        xtype = XType.DS
        k.update((i, eigenvalue(i, last)) for i in (1, 2))
    else:
        same = eigenvalue(base[0], last) == k[base[0]]
        xtype = XType(pattern + ("a" if same else "b"))
        # the other two enter only through k + k^{-1}; normalize them
        for i in set(range(4)) - set(base):
            e = _gen_any_eigenvalue(t[i])
            k[i] = min(e, e.inv(), key=lambda x: x.canonical_str())
    k = tuple(k[i] for i in range(4))
    if eigenvalue_ladder(xtype, n, k, q) != mu:
        raise VerificationError("twisted ladder does not match the ladder formula")
    new_t = tuple(restrict_to_basis(t, [vecs[i] for i in order]))
    module = HqModule(HqParams(q, n, k), xtype, new_t, mu)
    report = module.relations
    if not report.ok:
        raise VerificationError("twisted module fails relations: "
                                + ", ".join(report.failures()))
    return module


def _gen_any_eigenvalue(mat: ExactMatrix) -> FieldElement:
    """An eigenvalue of a generator matrix, using the reciprocal quadratic
    g^2 - s g + I = 0 it satisfies: g^2 + I = s g, entry by entry, and the
    eigenvalue solves x + x^{-1} = s."""
    entries = lambda m: tuple(x for row in m.rows for x in row)
    s = _proportionality(entries((mat * mat).shift(1)), entries(mat))
    root = _reciprocal_root(s)
    if root is None:
        raise VerificationError("generator eigenvalue escapes the field")
    return root


def twist(m: HqModule, which: str) -> HqModule:
    """The module twisted by one of the two basic automorphisms.

    ``rho`` cycles t0 -> t1 -> t2 -> t3 -> t0 and sends X -> Y and
    Y -> q^{-1} X^{-1}; ``sigma`` fixes t0, swaps the roles of X and Y
    (up to a t0-conjugation), and exchanges A with B.  The twisted
    generators are reassembled into a module with its own ladder and
    parameters, whose verified relations, with t0's quadratic (proven by
    feasibility), imply both identities; rho's new X is t0 t1 = Y itself.
    """
    feasible, report = m.feasibility
    if not feasible:
        raise ValueError("twisting needs a feasible module: "
                         + ", ".join(report.failures()))
    if which == "rho":
        new_t = (m.t[1], m.t[2], m.t[3], m.t[0])
    elif which == "sigma":
        new_t = (m.t[0], m.t_inv[0] * m.t[3] * m.t[0], m.t[1] * m.t[2] * m.t_inv[1], m.t[1])
    else:
        raise ValueError("twist must be 'rho' or 'sigma'")
    spectrum = sorted(set(_y_diagonal(m)), key=lambda e: e.canonical_str())
    return _recognize_module(new_t, m.params.q, spectrum)


# ---------------------------------------------------------------------------
# The linked relation on Huang data
# ---------------------------------------------------------------------------


class _CaseRow(NamedTuple):
    """One case row of the linked relation (arXiv 1701.06089): d' - d, the
    q-exponents of a'/a, b'/b and c'/c, and the forbidden squares.  A
    forbidden square (s, m, e) asks the first datum's scalar s to satisfy
    s^2 != q^{m d + e}."""

    delta: int
    exps: tuple[int, int, int]
    forbidden: tuple[tuple[str, int, int], ...]


_CASE_TABLE: dict[str, _CaseRow] = {
    "i": _CaseRow(-2, (0, 0, 0), ()),
    "ii": _CaseRow(-1, (1, 1, 1), (("a", -2, 0), ("b", -2, 0))),
    "iii": _CaseRow(0, (2, 0, 0), (("b", 2, 0), ("b", -2, 0), ("a", 0, -2))),
    "iv": _CaseRow(0, (0, 2, 0), (("a", 2, 0), ("a", -2, 0), ("b", 0, -2))),
    "v": _CaseRow(0, (0, 0, 2), (("a", 2, 0), ("a", -2, 0), ("b", 2, 0),
                                 ("b", -2, 0), ("c", 0, -2))),
    "vi": _CaseRow(1, (-1, -1, -1), (("a", -2, 0), ("b", -2, 0))),
    "vii": _CaseRow(2, (0, 0, 0), ()),
}


def _case_inequalities_ok(row: _CaseRow, abc: Sequence[Optional[FieldElement]],
                          d: int, q: FieldElement) -> bool:
    """Whether the first datum's (a, b, c) avoids the row's forbidden
    squares; an unknown c (None) is unconstrained."""
    vals = dict(zip("abc", abc))
    return all(vals[s] is None or vals[s] * vals[s] != int_pow(q, m * d + e)
               for s, m, e in row.forbidden)


@dataclass(frozen=True)
class LinkCase:
    """A witness that two Huang data are linked: the matching case row and
    the inversion pattern (+1 keep, -1 invert) applied to (a, b, c) of
    each datum to make the row hold."""

    case_id: str
    variant: tuple[int, int, int]
    variant2: tuple[int, int, int]

    def to_json(self) -> dict:
        return {"case": self.case_id, "variant": list(self.variant),
                "variant2": list(self.variant2)}


@dataclass(frozen=True)
class LinkConstruction:
    """A synthesized module, its witnessing case, the Huang data of its
    restricted pairs on V(k0) and V(k0^{-1}) (when ``exchanged``, ``plus``
    is meant to realize the second input), and whether they are equivalent
    to the inputs they are meant to realize."""

    module: HqModule
    case: LinkCase
    exchanged: bool
    plus: HuangData
    minus: HuangData
    reproduced: bool


def _variants(h: HuangData) -> list[tuple[tuple[int, int, int],
                                          tuple[FieldElement, FieldElement, FieldElement]]]:
    """The distinct inversion variants of (a, b, c), as (pattern, values):
    the product of each scalar's distinct inversions, +1 before -1.  A
    self-inverse scalar, and c at d = 0, keep +1 only."""
    choices = [[(1, x)] + ([(-1, x.inv())] if x != x.inv() else [])
               for x in (h.a, h.b, h.c)]
    if h.d == 0:
        choices[2] = choices[2][:1]
    return [tuple(zip(*combo)) for combo in itertools.product(*choices)]


def link_check(h: HuangData, h2: HuangData, q: FieldElement) -> list[LinkCase]:
    """One witness for each case row that links (h, h2), in case order.

    Scans the case rows whose d' - d matches over every inversion variant
    of both data, those of h outside, and keeps each row's first match, so
    a row takes the identity pattern whenever it works.  The c ratio is
    required only when both diameters are >= 1.  The forbidden squares test
    h's own c; at h.d = 0 they test the c that h2 forces, and when both
    diameters are 0 there is none.
    """
    if not (check_huang_admissible(h, q) and check_huang_admissible(h2, q)):
        raise ValueError("link checks need admissible Huang data")
    qq = common_context(q, h.a, h2.a).lift(q)
    rows = [(case, row, *(int_pow(qq, e) for e in row.exps))
            for case, row in _CASE_TABLE.items() if h2.d - h.d == row.delta]
    found: dict[str, LinkCase] = {}
    variants2 = _variants(h2)
    for v1, (a1, b1, c1) in _variants(h):
        # what each row asks of (a', b', c')
        wants = [(case, row, a1 * qa, b1 * qb, c1 * qc, qc)
                 for case, row, qa, qb, qc in rows]
        for v2, (a2, b2, c2) in variants2:
            for case, row, a2_want, b2_want, c2_want, qc in wants:
                if case in found or a2 != a2_want or b2 != b2_want:
                    continue
                if h.d and h2.d and c2 != c2_want:
                    continue
                c = c1 if h.d else (c2 * qc.inv() if h2.d else None)
                if _case_inequalities_ok(row, (a1, b1, c), h.d, qq):
                    found[case] = LinkCase(case, v1, v2)
    return [found[c] for c in _CASE_TABLE if c in found]


_C_CATALOGUE = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)

_CASE_XTYPE = {row.case: xtype for xtype, row in _XTYPE_TABLE.items()}


def link_construct(h: HuangData, h2: HuangData, q: FieldElement,
                   sign: Optional[str] = None) -> LinkConstruction:
    """Synthesize a feasible module whose two restricted Leonard pairs
    realize the given Huang data (h on V(k0), h2 on V(k0^{-1})).

    Uses the lowest-numbered witnessing case; cases vi/vii exchange the
    inputs and reduce to ii/i.  For the DS case the parameter k0 is a
    square root, extending the field by one discriminant when necessary;
    ``sign`` selects between the two roots ("plus" picks the positive
    one, default is the lexicographically smaller serialization).  The
    result is verified: parameters validate, the module is feasible, and
    the extracted Huang data are equivalent to the inputs.
    """
    lc = _construct_from(h, h2, q, sign, link_check(h, h2, q))
    if not lc.reproduced:
        raise VerificationError("synthesized module does not realize the inputs")
    return lc


def _construct_from(h: HuangData, h2: HuangData, q: FieldElement, sign: Optional[str],
                    witnesses: Sequence[LinkCase]) -> LinkConstruction:
    """:func:`link_construct` given the witnesses of ``link_check(h, h2, q)``,
    reporting in ``reproduced`` instead of raising when the extracted Huang
    data are not equivalent to the inputs."""
    if not witnesses:
        raise LinkError("the Huang data are not linked")
    chosen = witnesses[0]
    row = _CASE_TABLE[chosen.case_id]
    if row.delta > 0:
        # exchanging negates d' - d: vi (+1) and vii (+2) reappear as ii and i
        try:
            inner = _construct_from(h2, h, q, sign, link_check(h2, h, q))
        except LinkError:
            raise VerificationError("exchange symmetry failed to produce a witness") from None
        return replace(inner, case=chosen, exchanged=True)
    side1 = _apply_variant(h, chosen.variant)
    side2 = _apply_variant(h2, chosen.variant2)
    ctx = common_context(q, *side1, *side2)
    qq = ctx.lift(q)
    A, B = ctx.lift(side1[0]), ctx.lift(side1[1])
    if h.d >= 1:
        C = ctx.lift(side1[2])
    elif h2.d >= 1:
        C = ctx.lift(side2[2]) * int_pow(qq, -row.exps[2])
    else:
        C = _free_c_choice(chosen.case_id, h.d, A, B, qq)
    xtype, n, k, qq = _case_params(chosen.case_id, h.d, (A, B, C), qq, sign)
    module = build_module(xtype, n, k, qq)
    feasible, report = module.feasibility
    if not feasible:
        raise VerificationError("synthesized module is not feasible: "
                                + ", ".join(report.failures()))
    (_, got_plus), (_, got_minus) = restricted_leonard_pairs(module)
    return LinkConstruction(module, chosen, False, got_plus, got_minus,
                            huang_equivalent(got_plus, h) and huang_equivalent(got_minus, h2))


def _apply_variant(h: HuangData,
                   variant: tuple[int, int, int]) -> tuple[FieldElement, ...]:
    return tuple(v if e == 1 else v.inv() for v, e in zip((h.a, h.b, h.c), variant))


def _case_params(case: str, d: int, abc: Sequence[FieldElement], q: FieldElement,
                 sign: Optional[str] = None,
                 ) -> tuple[XType, int, tuple[FieldElement, ...], FieldElement]:
    """(xtype, n, k, q) of the module realizing case row i, ii, iii, iv or v
    for Huang scalars (a, b, c) of diameter d on V(k0): the type whose row
    names the case, with its ``abc`` slots carrying a, b, c.  For DS, k0 is
    the square root :func:`_ds_root` of a b c q^{1-d}, which may extend the
    field (q comes back lifted into it), and a, b, c are divided by
    k0 q^d.  Otherwise k_solo = q^{-(n+1)/2}, and a slot k0 carries its
    scalar times q."""
    xtype = _CASE_XTYPE[case]
    if xtype is XType.DS:
        n = 2 * d
        k0 = _ds_root(abc[0] * abc[1] * abc[2] * int_pow(q, 1 - d), sign)
        q = k0.ctx.lift(q)
        scale = int_pow(q, -d) * k0.inv()
        k = [k0] * 4
    else:
        n = 2 * d - 1 if xtype is XType.DDa else 2 * d + 1
        scale = q.ctx.one()
        k = [int_pow(q, -((n + 1) // 2))] * 4
    for i, v in zip(xtype.row.abc, abc):
        k[i] = q.ctx.lift(v) * (q if i == 0 else scale)
    return xtype, n, tuple(k), q


def _free_c_choice(case: str, d: int, a: FieldElement, b: FieldElement,
                   q: FieldElement) -> FieldElement:
    """A concrete c for the d = d' = 0 constructions, where c is
    unconstrained: the first catalogue value that avoids the row's
    forbidden squares and yields valid parameters."""
    for cand in _C_CATALOGUE:
        C = a.ctx.rational(cand)
        if (_case_inequalities_ok(_CASE_TABLE[case], (a, b, C), d, q)
                and not validate_params(*_case_params(case, d, (a, b, C), q))):
            return C
    raise VerificationError("no catalogue value for the free c-scalar fits")


def _ds_root(radicand: FieldElement, sign: Optional[str]) -> FieldElement:
    """A square root of the DS-case radicand, extending the field when the
    square-free part is nontrivial.  ``sign`` in {"plus", "minus"} picks
    the root; default takes the lexicographically smaller serialization."""
    root = sqrt_or_extend(radicand)
    if not root:
        raise VerificationError("DS radicand is zero")
    if sign not in ("plus", "minus"):
        return min(root, -root, key=lambda e: e.canonical_str())
    pos = root if (root.rat > 0 or (root.rat == 0 and root.irr > 0)) else -root
    return pos if sign == "plus" else -pos


# ---------------------------------------------------------------------------
# Parameter sampling for the property suites
# ---------------------------------------------------------------------------


_K_POOL = (3, 5, 7, 11, 13)


def sample_params(rng, xtype: XType, n: int, q: FieldElement) -> Optional[HqParams]:
    """A random valid parameter sequence for the given type and size, or
    None after 200 draws.  Draws from small odd primes, their inverses, and
    negations, solving the type's defining equation for the remaining slot."""
    xtype = XType(xtype)
    if (n % 2 == 0) != xtype.even_n or n < 0:
        return None
    ctx = q.ctx
    pool = [ctx.rational(p) for p in _K_POOL]
    pool += [v.inv() for v in pool]
    pool += [-v for v in pool[:4]]

    def draw() -> FieldElement:
        return pool[rng.randrange(len(pool))]

    for _ in range(200):
        sgn = 1 if rng.random() < 0.5 else -1
        if xtype is XType.DS:
            k0, k1, k2 = draw(), draw(), draw()
            k3 = int_pow(q, -n - 1) * (k0 * k1 * k2).inv()
            k = (k0, k1, k2, k3)
        else:
            half = int_pow(q, -((n + 1) // 2))
            others = [draw(), draw(), draw()]
            others.insert(xtype.row.solo, half if sgn == 1 else -half)
            k = tuple(others)
        if not validate_params(xtype, n, k, q):
            return HqParams(q, n, k)
    return None
