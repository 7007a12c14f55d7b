"""Exact sparse linear algebra over the rationals.

Every computation in this package reduces to row operations on matrices with
``fractions.Fraction`` entries.  Vectors are sparse mappings from column index
to a nonzero rational; matrices are row-major lists of such vectors (row i is
the image of the i-th source basis vector).  All pivoting is deterministic —
leftmost nonzero column, rows in a fixed order — so repeated runs produce
identical bases, matrices and reports.  A rank does not depend on the row
order, so ``rank`` (behind ``Matrix.rank``) and the barcode (``tower``)
insert rows in the static order of ``pivot_order``.
``Matrix.kernel_basis`` and ``Subquotient`` take rows in the order given;
their bases depend on it.

The one elimination kernel, ``Echelon``, works over the integers: each input
is cleared of denominators, stored rows are primitive integer vectors, and
row operations are fraction-free.  ``Fraction``s appear only where a result
leaves the kernel (residues, combinations, kernel vectors).  Rows are kept
in echelon form only.  The residue of a vector modulo a span (zero on every
pivot column) is unique, and so is a combination over independent inputs,
so every result equals that of elimination over Q.  Tracking combinations
is the same elimination on augmented rows [input | tags]: the tags sit in
columns from ``TAG`` up, which never hold a pivot.

Sparse vectors here and algebra elements (``algebra``), both dicts from keys
to nonzero rationals, share one accumulate-and-drop-zero rule: ``el_add_term``,
``el_add`` and ``el_scale``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable, Sequence

Vector = dict[int, Fraction]

ONE = Fraction(1)
TAG = 1 << 62  # above every column index; tracked inputs carry tags from here


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

    Tracked mode eliminates the augmented rows [X_k | f_k·e_k]: input k also
    carries f_k in the tag column ``TAG + k``, which never holds a pivot.
    Every vector of the augmented span is then [Σ_k c_k·v_k | Σ_k c_k·e_k],
    so its tag columns are the combination of the original inputs that its
    real columns hold (R = D·V of Edelsbrunner–Letscher–Zomorodian, DCG 28
    (2002)).  ``reduce`` and ``last_combo`` read it off.
    """

    def __init__(self, track: bool = False) -> None:
        self.pivots: dict[int, int] = {}  # pivot column -> row position
        self.rows: list[dict[int, int]] = []
        self.track = track
        self.n_inserted = 0
        self._last: dict[int, int] = {}  # the last input, eliminated

    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, x: dict[int, int]) -> tuple[dict[int, int], int]:
        """Clear the pivot columns of the integer vector x, left to right.

        Returns ``(x', mult)`` with x' − mult·x in the span of the rows.  A
        step that scales x divides x' and mult by their common gcd.
        """
        mult = 1
        pivots = self.pivots
        pending = [col for col in x if col in pivots]
        heapify(pending)
        while pending:
            col = heappop(pending)
            xc = x.get(col)
            if not xc:
                continue
            row = self.rows[pivots[col]]
            # The row has no entry left of col, so a cleared column never
            # comes back; queue the pivot columns it brings into x.
            for k in row:
                if k not in x and k in pivots:
                    heappush(pending, k)
            rc = row[col]
            g = gcd(rc, xc)
            a, b = rc // g, xc // g
            if a != 1:
                x = {k: a * v for k, v in x.items()}
            _sub_scaled(x, b, row)
            if a != 1:
                mult *= a
                content = gcd(mult, *x.values())
                if content != 1:
                    x = {k: v // content for k, v in x.items()}
                    mult //= content
        return x, mult

    def reduce(self, vec: Vector) -> tuple[Vector, Vector]:
        """Return ``(residue, combo)`` with vec = residue + Σ combo[k]·input_k."""
        x, factor = _clear(vec)
        x, mult = self._eliminate(x)
        den = mult * factor
        residue: Vector = {}
        combo: Vector = {}
        for k, v in x.items():
            if k < TAG:
                residue[k] = Fraction(v, den)
            else:
                combo[k - TAG] = Fraction(-v, den)
        return residue, combo

    def insert(self, vec: Vector) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        x, factor = _clear(vec)
        if self.track:
            x[TAG + self.n_inserted] = factor
        self.n_inserted += 1
        x, _ = self._eliminate(x)
        self._last = x
        pivot_col = min(x, default=TAG)
        if pivot_col >= TAG:
            return False
        content = gcd(*x.values())
        if x[pivot_col] < 0:
            content = -content
        self.pivots[pivot_col] = len(self.rows)
        self.rows.append({k: v // content for k, v in x.items()} if content != 1 else x)
        return True

    @property
    def last_combo(self) -> Vector:
        """Tracked: the last input minus its residue, over earlier inputs."""
        x, own = self._last, TAG + self.n_inserted - 1
        return {k - TAG: Fraction(-v, x[own]) for k, v in x.items() if k >= TAG and k != own}


def rank(rows: Sequence[Vector]) -> int:
    """The rank of the span of ``rows``, inserted in ``pivot_order``."""
    ech = Echelon()
    for i in pivot_order(rows):
        ech.insert(rows[i])
    return ech.rank()


class Matrix:
    """Sparse row-major matrix for the map sending row vector x to x·M."""

    def __init__(self, nrows: int, ncols: int, rows: list[Vector] | None = None) -> None:
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[Vector] = rows if rows is not None else [{} for _ in range(nrows)]
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

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
        return rank(self.rows)

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
    (deterministic).  Class coordinates are over that basis: ``reduce`` maps
    span(numerators) + span(denominators) onto them, ``representative`` back.
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

    def representative(self, coords: Vector) -> Vector:
        """An ambient vector whose class has these coordinates."""
        rep: Vector = {}
        for a, c in coords.items():
            rep = el_add(rep, self.basis[a], c)
        return rep

    def induced(self, target: "Subquotient", f: Callable[[Vector], Vector]) -> Matrix:
        """The matrix, in ``target``'s class coordinates, of the map f induces."""
        return Matrix(self.dim, target.dim, [target.reduce(f(rep)) for rep in self.basis])


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
