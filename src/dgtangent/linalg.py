"""Exact sparse linear algebra over the rationals.

Every computation in this package reduces to row operations on matrices with
``fractions.Fraction`` entries.  Vectors are sparse mappings from column index
to a nonzero rational; matrices are row-major lists of such vectors (row i is
the image of the i-th source basis vector).  All pivoting is deterministic —
leftmost nonzero column, rows in a fixed order — so repeated runs produce
identical bases, matrices and reports.  A rank does not depend on the row
order, so ``Matrix.rank`` and the barcode (``tower``) insert rows in the
static order of ``pivot_order``.  ``Matrix.kernel_basis``, ``Subquotient``
and ``spans_equal`` take rows in the order given; the bases of the first
two depend on it.

The one elimination kernel, ``Echelon``, works over the integers: each input
is cleared of denominators, stored rows are primitive integer vectors, and
row operations are fraction-free.  ``Fraction``s appear only where a result
leaves the kernel (residues, combinations, kernel vectors).  Rows
are kept in echelon form only.  The residue of a vector modulo a span (zero
on every pivot column) is unique, and so is a combination over independent
inputs, so every result equals that of elimination over Q.

Sparse vectors here and algebra elements (``algebra``), both dicts from keys
to nonzero rationals, share one accumulate-and-drop-zero rule: ``el_add_term``,
``el_add`` and ``el_scale``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Sequence

Vector = dict[int, Fraction]

ONE = Fraction(1)


def el_add(a: dict, b: dict, coeff: Fraction = ONE) -> dict:
    """Return a + coeff*b."""
    out = dict(a)
    for key, val in (b if coeff == 1 else el_scale(b, coeff)).items():
        el_add_term(out, key, val)
    return out


def el_scale(a: dict, coeff: Fraction) -> dict:
    if coeff == 0:
        return {}
    if coeff == -1:
        return {key: -val for key, val in a.items()}
    return {key: coeff * val for key, val in a.items()}


def el_add_term(acc: dict, key, coeff: Fraction) -> None:
    """In-place accumulate coeff on a key, dropping zeros."""
    old = acc.get(key)
    if old is None:
        if coeff:
            acc[key] = coeff
    elif new := old + coeff:
        acc[key] = new
    else:
        del acc[key]


def vec_from_list(values: Sequence[Fraction | int]) -> Vector:
    return {i: Fraction(v) for i, v in enumerate(values) if v != 0}


def pivot_order(rows: Sequence[Vector]) -> list[int]:
    """The positions of ``rows`` by leading column, highest first, then by
    fewest nonzeros, then by position; zero rows last.

    A static order: among rows with one leading column the sparsest
    becomes the pivot, as in Markowitz's rule (Management Sci. 3 (1957)),
    and going from the rightmost leading column down keeps the reductions
    of the differentials here short.  A rank does not depend on the order.
    """
    return sorted(range(len(rows)), key=lambda i: (-min(rows[i], default=-1), len(rows[i]), i))


def _clear(vec: Vector) -> tuple[dict[int, int], int]:
    """The integer vector f·vec and f, the lcm of the denominators of vec."""
    factor = 1
    for v in vec.values():
        den = v.denominator
        if factor % den:
            factor = lcm(factor, den)
    if factor == 1:
        return {k: n for k, v in vec.items() if (n := v.numerator)}, 1
    return {
        k: n * (factor // v.denominator) for k, v in vec.items() if (n := v.numerator)
    }, factor


def _sub_scaled(x: dict[int, int], b: int, y: dict[int, int]) -> None:
    """x ← x − b·y in place on integer vectors, dropping zeros."""
    for k, v in y.items():
        new = x.get(k, 0) - b * v
        if new:
            x[k] = new
        else:
            del x[k]


def _lowest_terms(den: int, tag: dict[int, int]) -> tuple[int, dict[int, int]]:
    """Divide a positive denominator and an integer tag by their common gcd."""
    g = gcd(den, *tag.values())
    if g == 1:
        return den, tag
    return den // g, {k: v // g for k, v in tag.items()}


class Echelon:
    """Incremental row echelon form, eliminated over the integers.

    Each input ``Vector`` is cleared of denominators on entry: X_k = f_k·v_k
    with f_k the lcm of its denominators.  Stored rows have distinct pivot
    columns and no entry left of the pivot; each is a primitive integer
    vector (content 1, pivot entry positive).  A stored row is never changed
    again.  Row operations are fraction-free, x ↦ a·x − b·y with a, b the
    cofactors of the two pivot-column entries (Bareiss, Math. Comp. 22
    (1968)).  Every nonzero vector of the span leads in a pivot column, so
    two residues of a vector, each zero on every pivot column, differ by
    zero; a combination over the independent inputs is unique as well.

    Tracked mode keeps, for every stored row, integer tags and a positive
    denominator with ``dens[p]·rows[p] = Σ_k tags[p][k]·X_k`` over the
    successfully inserted inputs, indexed by insertion order, and carries a
    multiplier for the vector being reduced.  ``reduce`` and
    ``last_combo`` turn these back into exact ``Fraction`` combinations of
    the original inputs.
    """

    def __init__(self, track: bool = False) -> None:
        self.pivots: dict[int, int] = {}  # pivot column -> row position
        self.rows: list[dict[int, int]] = []
        self.tags: list[dict[int, int]] = []
        self.dens: list[int] = []
        self.track = track
        self.n_inserted = 0
        self._last: tuple[dict[int, int], int] = ({}, 1)  # combo, den of the last insert
        self._factors: list[int] = []  # f_k of every input, by insertion order

    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, x: dict[int, int]) -> tuple[dict[int, int], dict[int, int], int]:
        """Clear the pivot columns of the integer vector x, left to right.

        Returns ``(x', combo, mult)`` with mult·x = x' + Σ_k combo[k]·X_k
        (combo stays ``{}`` in untracked mode).  A step that scales x
        divides x', combo and mult by their common gcd.
        """
        combo: dict[int, int] = {}
        mult = 1
        pivots = self.pivots
        pending = [col for col in x if col in pivots]
        heapify(pending)
        while pending:
            col = heappop(pending)
            xc = x.get(col)
            if not xc:
                continue
            pos = pivots[col]
            row = self.rows[pos]
            # The row has no entry left of col, so a cleared column never
            # comes back; queue the pivot columns it brings into x.
            for k in row:
                if k not in x and k in pivots:
                    heappush(pending, k)
            rc = row[col]
            g = gcd(rc, xc)
            a, b = rc // g, xc // g
            if self.track:
                # x ↦ d·(a·x − b·row) keeps the tags integral.
                den = self.dens[pos]
                scale, b_row = a * den, b * den
            else:
                scale, b_row = a, b
            if scale != 1:
                x = {k: scale * v for k, v in x.items()}
            _sub_scaled(x, b_row, row)
            mult *= scale
            if self.track:
                if scale != 1:
                    combo = {k: scale * v for k, v in combo.items()}
                _sub_scaled(combo, -b, self.tags[pos])
            if scale != 1:
                content = gcd(mult, *x.values(), *combo.values())
                if content != 1:
                    x = {k: v // content for k, v in x.items()}
                    combo = {k: v // content for k, v in combo.items()}
                    mult //= content
        return x, combo, mult

    def _fractions(self, combo: dict[int, int], den: int) -> Vector:
        """Σ_k combo[k]·X_k / den as a combination of the original inputs."""
        factors = self._factors
        return {k: Fraction(v * factors[k], den) for k, v in combo.items()}

    def reduce(self, vec: Vector) -> tuple[Vector, Vector]:
        """Return ``(residue, combo)`` with vec = residue + Σ combo[k]·input_k."""
        x, factor = _clear(vec)
        x, combo, mult = self._eliminate(x)
        den = mult * factor
        residue = {k: Fraction(v, den) for k, v in x.items()}
        return residue, self._fractions(combo, den) if self.track else {}

    def insert(self, vec: Vector) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        idx = self.n_inserted
        self.n_inserted += 1
        x, factor = _clear(vec)
        if self.track:
            self._factors.append(factor)
        x, combo, mult = self._eliminate(x)
        self._last = combo, mult * factor
        if not x:
            return False
        pivot_col = min(x)
        content = gcd(*x.values())
        if x[pivot_col] < 0:
            content = -content
        self.pivots[pivot_col] = len(self.rows)
        self.rows.append({k: v // content for k, v in x.items()} if content != 1 else x)
        if self.track:
            # content·row = mult·X_idx − Σ combo[k]·X_k.
            tag = {idx: mult}
            tag.update((k, -v) for k, v in combo.items())
            if content < 0:
                tag = {k: -v for k, v in tag.items()}
            den, tag = _lowest_terms(abs(content), tag)
            self.tags.append(tag)
            self.dens.append(den)
        return True

    @property
    def last_combo(self) -> Vector:
        """Tracked: the last input minus its residue, over earlier inputs."""
        return self._fractions(*self._last)

    def contains(self, vec: Vector) -> bool:
        x, _, _ = self._eliminate(_clear(vec)[0])
        return not x


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.rows) == (other.nrows, other.ncols, other.rows)

    def apply(self, x: Vector) -> Vector:
        """Row vector x in source coordinates -> x·M in target coordinates."""
        out: Vector = {}
        for idx, coeff in x.items():
            for col, val in self.rows[idx].items():
                el_add_term(out, col, coeff * val)
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
        for i in pivot_order(self.rows):
            ech.insert(self.rows[i])
        return ech.rank()

    def kernel_basis(self) -> list[Vector]:
        """Basis of {x : x·M = 0} in source coordinates, deterministic order."""
        ech = Echelon(track=True)
        kernel: list[Vector] = []
        for i, row in enumerate(self.rows):
            if not ech.insert(row):
                kernel.append(el_add({i: ONE}, ech.last_combo, -ONE))
        return kernel


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
            if slot is not None:
                el_add_term(coords, slot, coeff)
        return coords

    def is_zero_class(self, vec: Vector) -> bool:
        return not self.reduce(vec)


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
                combo = el_add(combo, vectors[i], c)
        if combo:
            out.append(combo)
    return out


def preimage_in_span(vectors: Sequence[Vector], matrix: Matrix, target_span: Sequence[Vector]) -> list[Vector]:
    """Spanning set of {x ∈ span(vectors) : x·matrix ∈ span(target_span)}.

    Only the tests and the benchmark tracer (``bench/tracer.py``) name it.
    """
    return preimage_by_images(
        vectors, [matrix.apply(v) for v in vectors], target_span, matrix.ncols
    )
