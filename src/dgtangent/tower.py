"""Filtered cochain complexes and their spectral sequences.

A filtration here is decreasing and spanned by basis elements: each basis
element of the underlying complex carries an integer level ≥ 0, and F^s is
the span of the elements with level ≥ s.  The differential must not lower
levels (checked).  The pages are computed two ways:

- the filtered route, one level-ordered elimination of each
  d: C^n → C^{n+1}: every dim E_r^{s,t} counts the level pairs it makes
  (Basu–Parida, Expo. Math. 35 (2017), arXiv:1308.0801), and, tracked, it
  gives a basis spanning each Z_r^s = {x ∈ F^s : dx ∈ F^{s+r}} by a subset,
  hence representatives of E_r^{s,t} = Z_r^s / (Z_{r−1}^{s+1} +
  d·Z_{r−1}^{s−r+1}) and d_r, induced by d (bidegree (r, 1−r));
- the exact-couple route, kept as an independent oracle:
  D^{s} = H(F^0/F^{s+1}), E^{s} = H(F^s/F^{s+1}), with each page in the
  closed form of the derived couple, E_r = k⁻¹(im i^{r−1}) / j(ker i^{r−1}),
  and d_r lifted through i^{r−1} by reducing against its tracked rows.

Both are exact; ``alignment_check`` verifies that they give identical page
dimensions and, after the canonical change of basis, identical d_r matrices.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Callable, Hashable, NamedTuple, Sequence

from .complexes import CochainComplex
from .linalg import (
    Echelon,
    Matrix,
    Subquotient,
    Vector,
    pivot_order,
    preimage_by_images,
)

Run = list[tuple[int, int | None, Vector | None]]


class FilteredComplex:
    """A cochain complex whose basis elements carry filtration levels."""

    def __init__(
        self,
        complex: CochainComplex,
        level_fn: Callable[[Hashable], int],
        max_level: int,
    ) -> None:
        self.complex = complex
        self._level_fn = level_fn
        self.max_level = max_level
        self._levels: dict[int, list[int]] = {}

    def levels(self, n: int) -> list[int]:
        if n not in self._levels:
            out = []
            for label in self.complex.basis(n):
                lvl = self._level_fn(label)
                if lvl < 0 or lvl > self.max_level:
                    raise ValueError(f"filtration level {lvl} out of range")
                out.append(lvl)
            self._levels[n] = out
        return self._levels[n]

    def occupied_levels(self, n: int) -> list[int]:
        """The levels of the degree-n basis; dim E_r^{s, n−s} is 0 off them."""
        return sorted(set(self.levels(n)))


class SpectralSequence:
    """Pages of a filtered complex.

    One level-ordered elimination per degree (``eliminate``) gives every
    dimension, counted untracked in ``barcode``, and, tracked, the Z_r^s
    (``z_span``) of the subquotients (``entry``) that supply representatives
    for ``d_matrix``.  ``ExactCoupleSS`` is the independent oracle for both.
    """

    def __init__(self, fc: FilteredComplex) -> None:
        self.fc = fc
        self._entry_cache: dict[tuple[int, int, int], Subquotient] = {}
        self._bar_cache: dict[int, tuple[Counter, Counter]] = {}
        self._run_cache: dict[int, Run] = {}

    @property
    def stable_page(self) -> int:
        """Every page from here on equals E_∞ (finite filtration)."""
        return self.fc.max_level + 2

    def eliminate(self, n: int, track: bool = False) -> Run:
        """``(i, b, v)`` per row i of d: C^n → C^{n+1}, in elimination order.

        Target columns go in the order (level, index), so each pivot is the
        lowest-level entry.  Rows go level by level, highest first, and
        within a level in ``pivot_order`` of the column-permuted rows; the
        barcode takes any order within a level.  b is the level of the pivot
        that row i adds, None if it adds none.  Tracked (and cached), v is
        e_i minus the earlier rows subtracted from row i, so dv is its
        residue (R = D·V of Edelsbrunner–Letscher–Zomorodian, DCG 28
        (2002)): the v are a basis of C^n, v ∈ F^{level i}, and dv is 0 or
        has lowest level b.  Untracked, v is None.  A row with b below its
        own level means d lowers the filtration: then no page is defined,
        E_∞ included, and this is the one place that refuses it (ValueError).
        """
        if track and n in self._run_cache:
            return self._run_cache[n]
        src, tgt = self.fc.levels(n), self.fc.levels(n + 1)
        order = sorted(range(len(tgt)), key=lambda j: (tgt[j], j))
        column = {j: pos for pos, j in enumerate(order)}
        d = self.fc.complex.d(n)
        permuted = [{column[j]: c for j, c in row.items()} for row in d.rows]
        rows = pivot_order(permuted)
        rows.sort(key=lambda i: -src[i])  # stable: pivot order within a level
        ech = Echelon(track=track)
        out: Run = []
        for i in rows:
            added = ech.insert(permuted[i])
            b = tgt[order[min(ech.rows[-1])]] if added else None  # the row just stored
            if b is not None and b < src[i]:
                raise ValueError(f"d lowers the filtration in degree {n}")
            v = None
            if track:
                v = {rows[k]: -c for k, c in ech.last_combo.items()} | {i: Fraction(1)}
            out.append((i, b, v))
        return self._run_cache.setdefault(n, out) if track else out

    def barcode(self, n: int) -> tuple[Counter, Counter]:
        """``(pairs, kernel)`` of d: C^n → C^{n+1}: (level, b) of each row of
        ``eliminate`` that adds a pivot, and the level of each that does not.
        The number of pairs (a', b') with a' ≥ a and b' ≤ b is the rank of
        F^a C^n → C^{n+1}/F^{b+1}, whatever the order within a level, and
        b ≥ a (``eliminate`` refuses the rest).
        """
        if n not in self._bar_cache:
            src, run = self.fc.levels(n), self.eliminate(n)
            pairs = Counter((src[i], b) for i, b, _ in run if b is not None)
            kernel = Counter(src[i] for i, b, _ in run if b is None)
            self._bar_cache[n] = (pairs, kernel)
        return self._bar_cache[n]

    def dim(self, r: int, s: int, t: int) -> int:
        """dim E_r^{s,t}, counted from the barcodes of degrees n−1 and n.

        A pair (a, b) is a class at level a killing one at level b on page
        b − a, so both live on the pages r ≤ b − a; every kernel element not
        hit by a pair is a permanent class.
        """
        if r < 1:
            raise ValueError("pages are defined for r >= 1")
        if not 0 <= s <= self.fc.max_level:
            return 0
        n = s + t
        pairs_out, kernel = self.barcode(n)
        pairs_in, _ = self.barcode(n - 1)
        return (
            kernel[s]
            - sum(k for (a, b), k in pairs_in.items() if b == s and b - a < r)
            + sum(k for (a, b), k in pairs_out.items() if a == s and b - a >= r)
        )

    def z_span(self, r: int, s: int, n: int) -> list[Vector]:
        """Basis of Z_r^s = {x ∈ F^s ∩ C^n : dx ∈ F^{s+r}}: the tracked v at
        level ≥ s with dv = 0 or b ≥ s + r (no other dv has an entry at the
        lowest pivot among the components of x, so it stays in dx)."""
        levels = self.fc.levels(n)
        return [
            v for i, b, v in self.eliminate(n, track=True)
            if levels[i] >= s and (b is None or b >= s + r)
        ]

    def entry(self, r: int, s: int, n: int) -> Subquotient:
        """E_r^{s, n−s} as a subquotient of C^n."""
        if r < 1:
            raise ValueError("pages are defined for r >= 1")
        key = (r, s, n)
        if key not in self._entry_cache:
            numerators = self.z_span(r, s, n)
            denominators = self.z_span(r - 1, s + 1, n)
            d_prev = self.fc.complex.d(n - 1)
            lower = self.z_span(r - 1, s - r + 1, n - 1)
            denominators += [dv for v in lower if (dv := d_prev.apply(v))]
            self._entry_cache[key] = Subquotient(numerators, denominators)
        return self._entry_cache[key]

    def d_matrix(self, r: int, s: int, t: int) -> Matrix:
        """The differential E_r^{s,t} → E_r^{s+r, t−r+1} on chosen bases."""
        n = s + t
        return self.entry(r, s, n).induced(self.entry(r, s + r, n + 1), self.fc.complex.d(n).apply)

    def page_dims(
        self, r: int, total_degrees: Sequence[int]
    ) -> dict[tuple[int, int], int]:
        """Nonzero entries (s, t) → dim over a window of total degrees."""
        out: dict[tuple[int, int], int] = {}
        for n in total_degrees:
            for s in self.fc.occupied_levels(n):
                dim = self.dim(r, s, n - s)
                if dim:
                    out[(s, n - s)] = dim
        return out

    # -------------------------------------------------- comparison with H

    def total_degree_check(
        self, total_degrees: Sequence[int]
    ) -> dict[int, tuple[int, int, bool]]:
        """Per total degree: (Σ_s dim E_∞^{s, n−s}, dim H^n, equal?).

        The two sides come from two separate eliminations of the same
        differentials: the barcode, level by level over level-permuted
        columns, and ``Matrix.rank`` in ``pivot_order`` over the natural
        columns (``CochainComplex.homology_dim``).
        """
        totals = dict.fromkeys(total_degrees, 0)
        for (s, t), dim in self.page_dims(self.stable_page, total_degrees).items():
            totals[s + t] += dim
        out: dict[int, tuple[int, int, bool]] = {}
        for n, total in totals.items():
            h = self.fc.complex.homology_dim(n)
            out[n] = (total, h, total == h)
        return out


# ------------------------------------------------------- exact couple route


class ExactCoupleSS:
    """The same spectral sequence through the exact couple of the filtration.

    D^{s} = H(F^0/F^{s+1}) and E^{s} = H(F^s/F^{s+1}); the maps are
    i (projection-induced), j (connecting morphism of the three-layer
    sequence) and k (inclusion-induced).  Each page is built from i, j and k
    alone in the closed form of the derived couple (Massey, Ann. of Math. 56
    (1952)): E_r = Z_r/B_r in E_1 class coordinates, with
    Z_r = k⁻¹(im i^{r−1}) and B_r = j(ker i^{r−1}), so no page depends on an
    earlier d_r.  i^{r−1} is induced by the one projection
    F^0/F^{s+r} → F^0/F^{s+1}, and d_r = j ∘ (i^{r−1})⁻¹ ∘ k lifts through it
    by reducing against one tracked ``Echelon`` of its rows per (s, n, r).
    """

    def __init__(self, fc: FilteredComplex) -> None:
        self.fc = fc
        self._quot_cache: dict[tuple[int, int], CochainComplex] = {}
        self._sub_cache: dict[tuple[int, int, int], Subquotient] = {}
        self._ipow_cache: dict[tuple[int, int, int], tuple[Matrix, Echelon]] = {}

    # ----------------------------------------------------- quotient layers

    def quotient_complex(self, a: int, b: int) -> CochainComplex:
        """F^a/F^b as a complex whose basis labels are the ambient positions
        of the basis elements of C^n with a ≤ level < b."""
        key = (a, b)
        if key not in self._quot_cache:

            def basis_fn(n: int) -> list[int]:
                return [i for i, lvl in enumerate(self.fc.levels(n)) if a <= lvl < b]

            def diff_fn(n: int) -> Matrix:
                rows, kept = self.fc.complex.d(n).rows, cx.index(n + 1)
                return cx.matrix(n, lambda i: {j: c for j, c in rows[i].items() if j in kept})

            cx = self._quot_cache[key] = CochainComplex(basis_fn, diff_fn)
        return self._quot_cache[key]

    def D(self, s: int, n: int) -> Subquotient:
        return self.quotient_complex(0, s + 1).homology(n)

    def E(self, s: int, n: int) -> Subquotient:
        return self.quotient_complex(s, s + 1).homology(n)

    # --------------------------------------------------------- local/ambient

    def to_ambient(self, a: int, b: int, n: int, local: Vector) -> Vector:
        ambient = self.quotient_complex(a, b).basis(n)
        return {ambient[i]: c for i, c in local.items()}

    def to_local(self, a: int, b: int, n: int, ambient: Vector) -> Vector:
        """Project an ambient vector to the (a ≤ level < b) coordinates."""
        pos = self.quotient_complex(a, b).index(n)
        return {pos[i]: c for i, c in ambient.items() if i in pos}

    # ------------------------------------------------------------- the maps

    def connecting(self, s: int, n: int, rep_local: Vector) -> Vector:
        """j on a D(s, n) representative: class coords in E(s+1, n+1)."""
        amb = self.to_ambient(0, s + 1, n, rep_local)
        d_amb = self.fc.complex.d(n).apply(amb)
        layer = self.to_local(s + 1, s + 2, n + 1, d_amb)
        return self.E(s + 1, n + 1).reduce(layer)

    def k_coords(self, s: int, n: int, e_rep_local: Vector) -> Vector:
        """k on an E(s, n) representative: class coords in D(s, n)."""
        amb = self.to_ambient(s, s + 1, n, e_rep_local)
        local = self.to_local(0, s + 1, n, amb)
        return self.D(s, n).reduce(local)

    # ------------------------------------------------------------- d_r data

    def _i_power(self, s: int, n: int, r: int) -> tuple[Matrix, Echelon]:
        """i^{r−1}: D(s+r−1, n) → D(s, n), induced by the projection
        F^0/F^{s+r} → F^0/F^{s+1}, and its class-coordinate rows tracked."""
        key = (s, n, r)
        if key not in self._ipow_cache:
            m = self.D(s + r - 1, n).induced(
                self.D(s, n), lambda x: self.to_local(0, s + 1, n, self.to_ambient(0, s + r, n, x))
            )
            ech = Echelon(track=True)
            for row in m.rows:
                ech.insert(row)
            self._ipow_cache[key] = (m, ech)
        return self._ipow_cache[key]

    def draw(self, r: int, s: int, n: int, z: Vector) -> Vector:
        """d_r of an E_1-class-coordinate vector z at (s, n).

        Returns E_1 class coordinates at (s + r, n + 1).  Well defined modulo
        the page boundaries of the target; callers reduce in the target page.
        """
        kx = self.k_coords(s, n, self.E(s, n).representative(z))
        residue, y = self._i_power(s, n, r)[1].reduce(kx)
        if residue:
            raise ValueError(
                f"class at (s={s}, n={n}) is not in the image of i^{r-1}; "
                "it does not live on this page"
            )
        return self.connecting(s + r - 1, n, self.D(s + r - 1, n).representative(y))

    def page_subquotient(self, r: int, s: int, n: int) -> Subquotient:
        """E_r^s(n) = k⁻¹(im i^{r−1}) / j(ker i^{r−1}) in E_1 class coordinates."""
        key = (r, s, n)
        if key not in self._sub_cache:
            e_group = self.E(s, n)
            units = [{a: Fraction(1)} for a in range(e_group.dim)]
            k_images = [self.k_coords(s, n, rep) for rep in e_group.basis]
            i_rows = self._i_power(s, n, r)[0].rows
            z = preimage_by_images(units, k_images, i_rows, self.D(s, n).dim)
            d_group = self.D(s - 1, n - 1)
            b = [
                img for y in self._i_power(s - r, n - 1, r)[0].kernel_basis()
                if (img := self.connecting(s - 1, n - 1, d_group.representative(y)))
            ]
            self._sub_cache[key] = Subquotient(z, b)
        return self._sub_cache[key]

    def dim(self, r: int, s: int, t: int) -> int:
        return self.page_subquotient(r, s, s + t).dim

    def d_matrix(self, r: int, s: int, t: int) -> Matrix:
        n = s + t
        return self.page_subquotient(r, s, n).induced(
            self.page_subquotient(r, s + r, n + 1), lambda z: self.draw(r, s, n, z)
        )


def transport_matrix(
    ss: SpectralSequence, ec: ExactCoupleSS, r: int, s: int, n: int
) -> Matrix:
    """Filtered-route page basis → couple-route page coordinates.

    A filtered representative x ∈ F^s maps to its layer class in E_1 = H(F^s/F^{s+1})
    and then to coordinates of the couple page.
    """
    e1 = ec.E(s, n)
    return ss.entry(r, s, n).induced(
        ec.page_subquotient(r, s, n), lambda x: e1.reduce(ec.to_local(s, s + 1, n, x))
    )


def alignment_check(
    ss: SpectralSequence, ec: ExactCoupleSS, r: int, s: int, t: int
) -> list[str]:
    """What fails of the two routes' agreement at (r, s, t): the page
    dimensions, invertibility of the transport, and d_r after it."""
    n, at = s + t, f"at (r, s, t) = ({r}, {s}, {t})"
    dim_f, dim_c = ss.entry(r, s, n).dim, ec.page_subquotient(r, s, n).dim
    t_here = transport_matrix(ss, ec, r, s, n)
    t_next = transport_matrix(ss, ec, r, s + r, n + 1)
    problems = []
    if dim_f != dim_c:
        problems.append(f"dimension {dim_f} (filtered) != {dim_c} (exact couple) {at}")
    elif t_here.rank() != dim_f:
        problems.append(f"transport is not invertible {at}")
    if ss.d_matrix(r, s, t).compose(t_next) != t_here.compose(ec.d_matrix(r, s, t)):
        problems.append(f"d_{r} differs between the routes {at}")
    return problems


# ------------------------------------------------------ page bidegrees


def relabel(
    table: dict[tuple[int, int], int], convention: str
) -> dict[tuple[int, int], int]:
    """A page table keyed by internal (s, t), relabeled for output.

    The three conventions are described in the README section
    "Spectral-sequence coordinates".
    """
    if convention == "internal":
        return dict(table)
    if convention == "flipped":
        return {(s, -t): dim for (s, t), dim in table.items()}
    if convention == "relabeled":
        return {(s, 2 * s + t): dim for (s, t), dim in table.items()}
    raise ValueError(f"unknown bidegree convention {convention!r}")


# ------------------------------------------------------- collapse analysis


class CollapseReport(NamedTuple):
    """Rows and columns of E_1's support over a window and the collapse they imply."""

    rows: list[int]
    columns: list[int]
    predicted_page: int | None
    reason: str
    verified: bool


def collapse_report(ss: SpectralSequence, total_degrees: Sequence[int]) -> CollapseReport:
    """Detect single-row/column collapse and verify it against E_∞.

    A single row (constant t) forces E_2 = E_∞ since d_r moves t for r ≥ 2;
    a single column (constant s) forces E_1 = E_∞.
    """
    support = ss.page_dims(1, total_degrees)
    rows = sorted({t for (_, t) in support})
    columns = sorted({s for (s, _) in support})
    predicted, reason = None, ""
    if len(columns) <= 1:
        predicted, reason = 1, "single column: every d_r changes the column"
    elif len(rows) <= 1:
        predicted, reason = 2, "single row: d_r for r >= 2 leaves the row"
    verified = predicted is not None and (
        ss.page_dims(predicted, total_degrees) == ss.page_dims(ss.stable_page, total_degrees)
    )
    return CollapseReport(rows, columns, predicted, reason, verified)
