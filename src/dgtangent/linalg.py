"""Exact sparse linear algebra over the rationals.

Every computation in this package reduces to row operations on matrices with
``fractions.Fraction`` entries.  Vectors are sparse mappings from column index
to a nonzero rational; matrices are row-major lists of such vectors (row i is
the image of the i-th source basis vector).  All pivoting is deterministic —
leftmost nonzero column, rows in the order given — so repeated runs produce
identical bases, matrices and reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec_add(a: Vector, b: Vector, coeff: Fraction = ONE) -> Vector:
    """Return a + coeff*b as a new sparse vector."""
    out = dict(a)
    for idx, val in b.items():
        new = out.get(idx, ZERO) + coeff * val
        if new == 0:
            out.pop(idx, None)
        else:
            out[idx] = new
    return out


def vec_scale(a: Vector, coeff: Fraction) -> Vector:
    if coeff == 0:
        return {}
    return {idx: coeff * val for idx, val in a.items()}


def vec_from_list(values: Sequence[Fraction | int]) -> Vector:
    return {i: Fraction(v) for i, v in enumerate(values) if v != 0}


class Echelon:
    """Incremental reduced row echelon form with combination tracking.

    Invariants: every stored row has pivot coefficient 1 and is the only
    stored row with a nonzero entry in its pivot column; ``tags[p]`` expresses
    ``rows[p]`` as a combination of the successfully inserted input vectors,
    indexed by insertion order.
    """

    def __init__(self, track: bool = False) -> None:
        self.pivots: dict[int, int] = {}  # pivot column -> row position
        self.rows: list[Vector] = []
        self.tags: list[Vector] = []
        self.track = track
        self.n_inserted = 0
        self.last_zero_combo: Vector = {}
        self._col_rows: dict[int, set[int]] = {}  # column -> positions of rows hitting it

    def rank(self) -> int:
        return len(self.rows)

    def _replace_row(self, pos: int, new_row: Vector) -> None:
        old_row = self.rows[pos]
        for col in old_row.keys() - new_row.keys():
            hits = self._col_rows[col]
            hits.discard(pos)
            if not hits:
                del self._col_rows[col]
        for col in new_row.keys() - old_row.keys():
            self._col_rows.setdefault(col, set()).add(pos)
        self.rows[pos] = new_row

    def reduce(self, vec: Vector) -> tuple[Vector, Vector]:
        """Return ``(residue, combo)`` with vec = residue + Σ combo[k]·input_k."""
        res = {col: val for col, val in vec.items() if val != 0}
        combo: Vector = {}
        # Stored rows vanish on every pivot column but their own, so
        # elimination never brings new pivot columns into the residue.
        for col in sorted(col for col in res if col in self.pivots):
            coeff = res.get(col)
            if not coeff:
                continue
            pos = self.pivots[col]
            res = vec_add(res, self.rows[pos], -coeff)
            if self.track:
                combo = vec_add(combo, self.tags[pos], coeff)
        return res, combo

    def insert(self, vec: Vector) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        idx = self.n_inserted
        self.n_inserted += 1
        res, combo = self.reduce(vec)
        if not res:
            self.last_zero_combo = combo
            return False
        pivot_col = min(res.keys())
        inv = ONE / res[pivot_col]
        new_row = vec_scale(res, inv)
        new_tag: Vector = {}
        if self.track:
            new_tag = vec_scale(vec_add({idx: ONE}, combo, -ONE), inv)
        for pos in sorted(self._col_rows.get(pivot_col, ())):
            coeff = self.rows[pos][pivot_col]
            self._replace_row(pos, vec_add(self.rows[pos], new_row, -coeff))
            if self.track:
                self.tags[pos] = vec_add(self.tags[pos], new_tag, -coeff)
        new_pos = len(self.rows)
        self.pivots[pivot_col] = new_pos
        self.rows.append(new_row)
        self.tags.append(new_tag)
        for col in new_row:
            self._col_rows.setdefault(col, set()).add(new_pos)
        return True

    def contains(self, vec: Vector) -> bool:
        res, _ = self.reduce(vec)
        return not res


class Matrix:
    """Sparse row-major matrix for the map sending row vector x to x·M."""

    def __init__(self, nrows: int, ncols: int, rows: list[Vector] | None = None) -> None:
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[Vector] = rows if rows is not None else [{} for _ in range(nrows)]
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[Fraction | int]], ncols: int | None = None) -> "Matrix":
        nrows = len(dense)
        if ncols is None:
            ncols = len(dense[0]) if nrows else 0
        return cls(nrows, ncols, [vec_from_list(r) for r in dense])

    def set(self, i: int, j: int, val: Fraction | int) -> None:
        val = Fraction(val)
        if val == 0:
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = val

    def add_to(self, i: int, j: int, val: Fraction | int) -> None:
        new = self.rows[i].get(j, ZERO) + Fraction(val)
        if new == 0:
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = new

    def get(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, ZERO)

    def apply(self, x: Vector) -> Vector:
        """Row vector x in source coordinates -> x·M in target coordinates."""
        out: Vector = {}
        for idx, coeff in x.items():
            for col, val in self.rows[idx].items():
                new = out.get(col, ZERO) + coeff * val
                if new == 0:
                    out.pop(col, None)
                else:
                    out[col] = new
        return out

    def compose(self, other: "Matrix") -> "Matrix":
        """Matrix of (self then other): x·result = (x·self)·other."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in compose")
        return Matrix(self.nrows, other.ncols, [other.apply(row) for row in self.rows])

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def rank(self) -> int:
        ech = Echelon()
        for row in self.rows:
            ech.insert(row)
        return ech.rank()

    def kernel_basis(self) -> list[Vector]:
        """Basis of {x : x·M = 0} in source coordinates, deterministic order."""
        ech = Echelon(track=True)
        kernel: list[Vector] = []
        for i, row in enumerate(self.rows):
            if not ech.insert(row):
                kernel.append(vec_add({i: ONE}, ech.last_zero_combo, -ONE))
        return kernel

    def image_basis(self) -> list[Vector]:
        """Echelonized basis of the row space (the image of the map)."""
        ech = Echelon()
        for row in self.rows:
            ech.insert(row)
        order = sorted(ech.pivots.keys())
        return [dict(ech.rows[ech.pivots[col]]) for col in order]

    def solve(self, target: Vector) -> Vector | None:
        """Find one x with x·M = target, or None when target is not in the image."""
        ech = Echelon(track=True)
        for row in self.rows:
            ech.insert(row)
        res, combo = ech.reduce(target)
        if res:
            return None
        return combo


class Subquotient:
    """The subquotient span(numerators)/span(denominators) of a based space.

    The class basis is chosen greedily from the numerators in the order given
    (deterministic).  ``reduce`` rewrites an ambient vector lying in
    span(numerators) + span(denominators) as coordinates over that basis,
    modulo the denominators.
    """

    def __init__(self, numerators: Sequence[Vector], denominators: Sequence[Vector]) -> None:
        self._ech = Echelon(track=True)
        for den in denominators:
            self._ech.insert(den)
        self.basis: list[Vector] = []
        self._slot_of_insertion: dict[int, int] = {}
        for num in numerators:
            idx = self._ech.n_inserted
            if self._ech.insert(num):
                self._slot_of_insertion[idx] = len(self.basis)
                self.basis.append(dict(num))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: Vector) -> Vector:
        """Coordinates of ``vec`` over the class basis (denominators -> 0).

        Raises ValueError when the vector lies outside the tracked span.
        """
        res, combo = self._ech.reduce(vec)
        if res:
            raise ValueError("vector is not in the span of the subquotient data")
        coords: Vector = {}
        for ins_idx, coeff in combo.items():
            slot = self._slot_of_insertion.get(ins_idx)
            if slot is not None and coeff != 0:
                new = coords.get(slot, ZERO) + coeff
                if new == 0:
                    coords.pop(slot, None)
                else:
                    coords[slot] = new
        return coords

    def is_zero_class(self, vec: Vector) -> bool:
        return not self.reduce(vec)


def span_contains(vectors: Sequence[Vector], candidate: Vector) -> bool:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.contains(candidate)


def spans_equal(a: Sequence[Vector], b: Sequence[Vector]) -> bool:
    """Exact equality of two spans as subspaces."""
    ech_a = Echelon()
    for v in a:
        ech_a.insert(v)
    ech_b = Echelon()
    for v in b:
        ech_b.insert(v)
    if ech_a.rank() != ech_b.rank():
        return False
    return all(ech_a.contains(v) for v in b)


def preimage_by_images(
    vectors: Sequence[Vector],
    images: Sequence[Vector],
    target_span: Sequence[Vector],
    image_ncols: int,
) -> list[Vector]:
    """Spanning set of {Σ aᵢ·vectors[i] : Σ aᵢ·images[i] ∈ span(target_span)}.

    ``images[i]`` must be the image of ``vectors[i]`` under the linear map in
    question.  Found as the kernel of the stacked rows (images ; target_span),
    reading off the vector coefficients.
    """
    n = len(vectors)
    rows: list[Vector] = [dict(v) for v in images]
    rows.extend(dict(t) for t in target_span)
    stacked = Matrix(len(rows), image_ncols, rows)
    out: list[Vector] = []
    for comb in stacked.kernel_basis():
        combo: Vector = {}
        for i, c in comb.items():
            if i < n and c != 0:
                combo = vec_add(combo, vectors[i], c)
        if combo:
            out.append(combo)
    return out


def preimage_in_span(vectors: Sequence[Vector], matrix: Matrix, target_span: Sequence[Vector]) -> list[Vector]:
    """Spanning set of {x ∈ span(vectors) : x·matrix ∈ span(target_span)}."""
    return preimage_by_images(
        vectors, [matrix.apply(v) for v in vectors], target_span, matrix.ncols
    )
