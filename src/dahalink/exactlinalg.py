"""Exact linear algebra over the scalar fields of :mod:`dahalink.exactfield`.

Matrices act on column vectors: for a matrix ``M`` representing an operator
``A`` in a basis ``v_0..v_{n}``, the image of a basis vector sits in a
*column*, ``A v_s = sum_r M[r][s] v_r``.  Everything here is exact: Gaussian
elimination with the first nonzero pivot, no pivoting heuristics, no
normalization beyond reduced column echelon form for subspaces.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from .exactfield import _ZERO, FieldContext, FieldElement, QQ, _plus

__all__ = [
    "ExactMatrix",
    "Subspace",
    "SingularMatrixError",
    "NotInvariantError",
    "Vector",
    "kernel_basis",
    "eigenspace",
    "rank",
    "char_poly",
    "restrict_to_basis",
    "is_banded",
]

Vector = tuple[FieldElement, ...]


class SingularMatrixError(ZeroDivisionError):
    """Raised when inverting a matrix without full rank."""


class NotInvariantError(ValueError):
    """Raised when restricting an operator to a subspace it does not preserve."""


class ExactMatrix:
    """An immutable dense matrix of :class:`FieldElement` entries.

    >>> m = ExactMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    >>> (m * m.inverse()) == ExactMatrix.identity(QQ, 2)
    True
    """

    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, ctx: FieldContext, rows: Sequence[Sequence[FieldElement]]) -> None:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        frozen = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            frozen.append(tuple(ctx.lift(x) for x in row))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", tuple(frozen))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _of(cls, ctx: FieldContext, rows: Sequence[Sequence[FieldElement]]) -> "ExactMatrix":
        """A matrix from rectangular rows whose entries are already in
        ``ctx``: no shape check and no lift."""
        m = object.__new__(cls)
        object.__setattr__(m, "ctx", ctx)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", len(rows[0]) if rows else 0)
        object.__setattr__(m, "rows", tuple(tuple(row) for row in rows))
        return m

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: FieldContext, rows: Sequence[Sequence]) -> "ExactMatrix":
        return cls(ctx, rows)

    @classmethod
    def from_cols(cls, ctx: FieldContext, cols: Sequence[Sequence]) -> "ExactMatrix":
        n = len(cols[0])
        for c in cols:
            if len(c) != n:
                raise ValueError("ragged columns")
        return cls(ctx, [[c[i] for c in cols] for i in range(n)])

    @classmethod
    def zeros(cls, ctx: FieldContext, nrows: int, ncols: Optional[int] = None) -> "ExactMatrix":
        ncols = nrows if ncols is None else ncols
        z = ctx.zero()
        return cls(ctx, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, ctx: FieldContext, n: int) -> "ExactMatrix":
        z, o = ctx.zero(), ctx.one()
        return cls(ctx, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, ctx: FieldContext, entries: Sequence) -> "ExactMatrix":
        n = len(entries)
        z = ctx.zero()
        return cls(ctx, [[entries[i] if i == j else z for j in range(n)] for i in range(n)])

    # -- access ----------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> FieldElement:
        i, j = ij
        return self.rows[i][j]

    def col(self, j: int) -> Vector:
        return tuple(self.rows[i][j] for i in range(self.nrows))

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return self._same_field(other)(self.ctx, [[a + b for a, b in zip(r1, r2)]
                                                  for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return self._same_field(other)(self.ctx, [[a - b for a, b in zip(r1, r2)]
                                                  for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of(self.ctx, [[-a for a in row] for row in self.rows])

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        ctx = self.ctx
        if other.ctx is not ctx:
            other = ExactMatrix(ctx, other.rows)  # a foreign irrational entry raises here
        # Generators are built from 2x2 blocks, so most terms are 0*x.  The kernel
        # works on the Fraction parts of nonzero entries (over Q(sqrt D) by the
        # graded rule of FieldElement.__mul__) and wraps each nonzero sum once.
        d, zero, make, out = ctx.disc, ctx.zero(), FieldElement._of, []
        if d == 1:
            ocols = [[(i, b.rat) for i, b in enumerate(col) if b.rat] for col in zip(*other.rows)]
            for row in self.rows:
                nz = {i: a.rat for i, a in enumerate(row) if a.rat}
                entries = []
                for col in ocols:
                    acc = None
                    for i, b in col:
                        if i in nz:
                            acc = nz[i] * b if acc is None else acc + nz[i] * b
                    entries.append(make(ctx, acc) if acc else zero)
                out.append(entries)
        else:
            ocols = [[(i, b.rat, b.irr) for i, b in enumerate(col) if b.rat or b.irr]
                     for col in zip(*other.rows)]
            for row in self.rows:
                nz = {i: (a.rat, a.irr) for i, a in enumerate(row) if a.rat or a.irr}
                entries = []
                for col in ocols:
                    rat = irr = _ZERO
                    for i, br, bi in col:
                        if i in nz:
                            ar, ai = nz[i]
                            rat = _plus(rat, _plus(ar * br if ar and br else _ZERO,
                                                   d * ai * bi if ai and bi else _ZERO))
                            irr = _plus(irr, _plus(ar * bi if ar and bi else _ZERO,
                                                   ai * br if ai and br else _ZERO))
                    entries.append(make(ctx, rat, irr) if rat or irr else zero)
                out.append(entries)
        return ExactMatrix._of(ctx, out)

    def scale(self, c) -> "ExactMatrix":
        c = self.ctx.lift(c)
        return ExactMatrix._of(self.ctx, [[c * a for a in row] for row in self.rows])

    def shift(self, c) -> "ExactMatrix":
        """``M + cI``: only the diagonal changes."""
        if not self.is_square:
            raise ValueError("shift of a non-square matrix")
        c = self.ctx.lift(c)
        return ExactMatrix._of(self.ctx, [row[:i] + (row[i] + c,) + row[i + 1:]
                                          for i, row in enumerate(self.rows)])

    def apply(self, vec: Sequence[FieldElement]) -> Vector:
        """Matrix-vector product (vector as a column)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(_dot(row, vec) for row in self.rows)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(self.ctx, [[self.rows[i][j] for i in range(self.nrows)]
                                          for j in range(self.ncols)])

    def trace(self) -> FieldElement:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        t = self.ctx.zero()
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def inverse(self) -> "ExactMatrix":
        """Gauss-Jordan inverse: one elimination of ``[M | I]``."""
        if not self.is_square:
            raise SingularMatrixError("only square matrices invert")
        return _reduce_against(self, [ExactMatrix.identity(self.ctx, self.nrows)],
                               SingularMatrixError("matrix is singular"))[0]

    # -- comparison / io -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def _check_shape(self, other: "ExactMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def _same_field(self, other: "ExactMatrix"):
        """The constructor for a result of ``self`` and ``other``: entries
        of two matrices over one context object need no lift."""
        return ExactMatrix._of if other.ctx is self.ctx else ExactMatrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        # Tuple comparison skips identical entries and compares the others
        # by FieldElement.__eq__, on their Fraction parts.
        return self is other or (self.shape == other.shape and self.rows == other.rows)

    def is_scalar(self, c) -> bool:
        """Whether ``M == cI``, decided on the Fraction parts of the entries
        without forming ``cI`` or ``M - cI``."""
        c = self.ctx.lift(c)
        cr, ci = c.rat, c.irr
        return self.is_square and all(
            (x.rat, x.irr) == (cr, ci) if i == j else not (x.rat or x.irr)
            for i, row in enumerate(self.rows) for j, x in enumerate(row))

    def __hash__(self) -> int:
        return hash((self.shape, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(_short(e) for e in row) for row in self.rows)
        return f"ExactMatrix[{body}]"

    def to_json(self) -> dict:
        return {"nrows": self.nrows, "ncols": self.ncols,
                "entries": [[e.to_json() for e in row] for row in self.rows]}

    @classmethod
    def from_json(cls, data: dict, ctx: Optional[FieldContext] = None) -> "ExactMatrix":
        entries = [[FieldElement.from_json(e, ctx) for e in row] for row in data["entries"]]
        if ctx is None:
            ctx = next((e.ctx for row in entries for e in row if e.ctx.disc != 1), QQ)
        return cls.from_rows(ctx, entries)


def _dot(u: Sequence[FieldElement], v: Sequence[FieldElement]) -> FieldElement:
    if not u or not v:
        raise ValueError("dot product of empty vectors")
    acc = None
    for a, b in zip(u, v):
        if a and b:
            acc = a * b if acc is None else acc + a * b
    return acc or u[0].ctx.zero()


def _short(e: FieldElement) -> str:
    if e.irr == 0:
        return str(e.rat)
    return f"({e.rat}+{e.irr}r{e.ctx.disc})"


# ---------------------------------------------------------------------------
# Row reduction and derived operations
# ---------------------------------------------------------------------------


def _row_reduce(rows: list[list[FieldElement]]) -> tuple[list[list[FieldElement]], list[int]]:
    """In-place RREF (row lists are updated, too) with first-nonzero pivots;
    returns (rows, pivot_cols)."""
    if not rows:
        return rows, []
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv_p = rows[r][c].inv()
        rows[r] = [inv_p * x if x else x for x in rows[r]]
        # Only the pivot row's nonzero entries change the other rows.
        nz = [(j, b) for j, b in enumerate(rows[r]) if b]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                row = rows[i]
                for j, b in nz:
                    row[j] = row[j] - f * b
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _reduce_against(left: ExactMatrix, blocks: Sequence[ExactMatrix],
                    dependent: Exception) -> Optional[list[ExactMatrix]]:
    """The solutions ``X_j`` of ``left X_j = blocks[j]``, all from one
    elimination of ``[left | blocks[0] | blocks[1] | ...]``.  Raises
    ``dependent`` when the columns of ``left`` are linearly dependent;
    returns None when some block column leaves their span."""
    k = left.ncols
    red, pivots = _row_reduce([list(row) + [x for blk in blocks for x in blk.rows[i]]
                               for i, row in enumerate(left.rows)])
    if pivots[:k] != list(range(k)):
        raise dependent
    if len(pivots) > k:
        return None
    make = ExactMatrix._of if all(blk.ctx is left.ctx for blk in blocks) else ExactMatrix
    out, start = [], k
    for blk in blocks:
        out.append(make(left.ctx, [row[start:start + blk.ncols] for row in red[:k]]))
        start += blk.ncols
    return out


def rank(m: ExactMatrix) -> int:
    _, pivots = _row_reduce([list(row) for row in m.rows])
    return len(pivots)


def kernel_basis(m: ExactMatrix) -> "Subspace":
    """The null space of ``M`` as a subspace of the column space."""
    red, pivots = _row_reduce([list(row) for row in m.rows])
    n = m.ncols
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [m.ctx.zero()] * n
        v[f] = m.ctx.one()
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(tuple(v))
    return Subspace(m.ctx, n, basis)


def eigenspace(m: ExactMatrix, mu: FieldElement) -> "Subspace":
    if not m.is_square:
        raise ValueError("eigenspace of a non-square matrix")
    shifted = m - ExactMatrix.identity(m.ctx, m.nrows).scale(mu)
    return kernel_basis(shifted)


def char_poly(m: ExactMatrix) -> list[FieldElement]:
    """Coefficients ``[c_0, .., c_{n-1}, 1]`` of det(xI - M), ascending.

    Faddeev–LeVerrier: exact, division only by integers.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    ctx = m.ctx
    coeffs = [ctx.one()]          # leading coefficient, will be reversed
    N = ExactMatrix.identity(ctx, n)
    for k in range(1, n + 1):
        MN = m * N
        a = -(MN.trace() / k)
        coeffs.append(a)
        N = MN.shift(a)
    coeffs.reverse()              # now ascending: c_0 .. c_{n-1}, 1
    return coeffs


class Subspace:
    """A subspace of column space, stored by its reduced-column-echelon basis.

    The input vectors must be linearly independent (``ValueError`` if not);
    the stored basis is canonical, so two subspaces compare equal iff they
    are the same subspace.
    """

    __slots__ = ("ctx", "ambient_dim", "basis")

    def __init__(self, ctx: FieldContext, ambient_dim: int,
                 vectors: Iterable[Sequence[FieldElement]]) -> None:
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        reduced, pivots = _row_reduce([list(v) for v in vecs])
        if len(pivots) != len(vecs):
            raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(row) for row in reduced[:len(pivots)]))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[FieldElement]) -> bool:
        if len(v) != self.ambient_dim:
            return False
        stacked = [list(b) for b in self.basis] + [list(v)]
        _, pivots = _row_reduce(stacked)
        return len(pivots) == self.dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


# ---------------------------------------------------------------------------
# Base change and restriction
# ---------------------------------------------------------------------------


def restrict_to_basis(m: Union[ExactMatrix, Sequence[ExactMatrix]],
                      vectors: Sequence[Sequence[FieldElement]]
                      ) -> Union[ExactMatrix, list[ExactMatrix]]:
    """The matrix of ``M`` restricted to the span of ``vectors``, in exactly
    that (ordered) basis; for a sequence of operators, the list of their
    restrictions.  With ``B`` holding the vectors as columns, one elimination
    of ``[B | M v_1 ... M v_k]`` checks independence (``ValueError`` if the
    vectors are dependent) and invariance (:class:`NotInvariantError` if an
    image leaves the span) and yields the coordinates of every image.  For
    a basis of the whole space this is the base change ``B^{-1} M B``,
    formed without an inverse.
    """
    if not vectors:
        raise ValueError("empty basis")
    ops = [m] if isinstance(m, ExactMatrix) else m
    b = ExactMatrix.from_cols(ops[0].ctx, vectors)
    out = _reduce_against(b, [op * b for op in ops],
                          ValueError("basis vectors are linearly dependent"))
    if out is None:
        raise NotInvariantError("subspace is not invariant under the operator")
    return out[0] if isinstance(m, ExactMatrix) else out


# ---------------------------------------------------------------------------
# Shape predicate
# ---------------------------------------------------------------------------


def is_banded(m: ExactMatrix, below: int, above: int) -> bool:
    """Square, with every nonzero (i, j) inside -above <= i - j <= below:
    (1, 1) tridiagonal, (1, 0) lower and (0, 1) upper bidiagonal, (2, 0)
    lower and (0, 2) upper tridiagonal."""
    return m.is_square and all(not x for i, row in enumerate(m.rows)
                               for j, x in enumerate(row) if not -above <= i - j <= below)
