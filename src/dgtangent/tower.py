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
    el_add,
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

    def check_filtration(self, degrees: Sequence[int]) -> list[str]:
        """Degrees and positions where d lowers the filtration level."""
        bad = []
        for n in degrees:
            lv_src = self.levels(n)
            lv_tgt = self.levels(n + 1)
            d = self.complex.d(n)
            for i, row in enumerate(d.rows):
                for j in row:
                    if lv_tgt[j] < lv_src[i]:
                        bad.append(f"degree {n} position {i} -> {j}")
        return bad


class SpectralSequence:
    """Pages of a filtered complex.

    One level-ordered elimination per degree (``eliminate``) gives every
    dimension, counted untracked in ``barcode``, and, tracked, the Z_r^s
    (``z_span``) of the subquotients (``entry``) that supply representatives
    for ``d_matrix``, ``death_page`` and chain maps.  ``ExactCoupleSS`` is
    the independent oracle for both.
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
        has lowest level b.  Untracked, v is None.
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
            v = None
            if track:
                v = {rows[k]: -c for k, c in ech.last_combo.items()} | {i: Fraction(1)}
            out.append((i, b, v))
        return self._run_cache.setdefault(n, out) if track else out

    def barcode(self, n: int) -> tuple[Counter, Counter]:
        """``(pairs, kernel)`` of d: C^n → C^{n+1}: (level, b) of each row of
        ``eliminate`` that adds a pivot, and the level of each that does not.
        The number of pairs (a', b') with a' ≥ a and b' ≤ b is the rank of
        F^a C^n → C^{n+1}/F^{b+1}, whatever the order within a level.  A pair
        with b < a appears exactly when d lowers the filtration in degree n.
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
        hit by a pair is a permanent class.  When d lowers the filtration
        the finite pages are undefined (ValueError), but E_∞, the graded
        quotient of H^n by F^s, still has this count.
        """
        if r < 1:
            raise ValueError("pages are defined for r >= 1")
        if not 0 <= s <= self.fc.max_level:
            return 0
        n = s + t
        pairs_out, kernel = self.barcode(n)
        pairs_in, _ = self.barcode(n - 1)
        if r < self.stable_page:
            for m, pairs in ((n - 1, pairs_in), (n, pairs_out)):
                if any(b < a for a, b in pairs):
                    raise ValueError(
                        f"d lowers the filtration in degree {m}; "
                        f"only E_∞ is defined there"
                    )
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
        src = self.entry(r, s, n)
        tgt = self.entry(r, s + r, n + 1)
        d = self.fc.complex.d(n)
        return Matrix(src.dim, tgt.dim, [tgt.reduce(d.apply(rep)) for rep in src.basis])

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

    def einf_dims(self, total_degrees: Sequence[int]) -> dict[tuple[int, int], int]:
        return self.page_dims(self.stable_page, total_degrees)

    # ------------------------------------------------------- class tracking

    def death_page(self, x: Vector, n: int, s: int) -> int | None:
        """First page r ≥ 1 whose differential is nonzero on the class of x.

        The class of x ∈ F^s lives on E_{r+1} when x ∈ Z_{r+1}^s + F^{s+1},
        that is when each tracked component v of x below level s + 1 has
        dv = 0 or b ≥ s + r + 1.  It dies on page max(1, min(b − s)), None if no b.
        """
        levels = self.fc.levels(n)
        gaps = []
        # v is e_i plus multiples of rows eliminated before i: peel off the last first.
        for i, b, v in reversed(self.eliminate(n, track=True)):
            if c := x.get(i):
                x = el_add(x, v, -c)
                if levels[i] <= s and b is not None:
                    gaps.append(b - s)
        return max(1, min(gaps)) if gaps else None

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
        out: dict[int, tuple[int, int, bool]] = {}
        r = self.stable_page
        for n in total_degrees:
            total = sum(self.dim(r, s, n - s) for s in self.fc.occupied_levels(n))
            h = self.fc.complex.homology_dim(n)
            out[n] = (total, h, total == h)
        return out


class FilteredChainMap:
    """A filtration-respecting chain map between filtered complexes."""

    def __init__(
        self,
        source: FilteredComplex,
        target: FilteredComplex,
        matrix_fn: Callable[[int], Matrix],
    ) -> None:
        self.source = source
        self.target = target
        self._matrix_fn = matrix_fn
        self._cache: dict[int, Matrix] = {}

    def matrix(self, n: int) -> Matrix:
        if n not in self._cache:
            m = self._matrix_fn(n)
            expected = (self.source.complex.dim(n), self.target.complex.dim(n))
            if (m.nrows, m.ncols) != expected:
                raise ValueError(f"chain map shape mismatch at degree {n}")
            self._cache[n] = m
        return self._cache[n]

    def check(self, degrees: Sequence[int]) -> list[str]:
        problems = []
        for n in degrees:
            lhs = self.matrix(n).compose(self.target.complex.d(n))
            rhs = self.source.complex.d(n).compose(self.matrix(n + 1))
            if lhs != rhs:
                problems.append(f"not a chain map at degree {n}")
            lv_src = self.source.levels(n)
            lv_tgt = self.target.levels(n)
            for i, row in enumerate(self.matrix(n).rows):
                for j in row:
                    if lv_tgt[j] < lv_src[i]:
                        problems.append(
                            f"filtration dropped at degree {n}, {i} -> {j}"
                        )
                        break
        return problems

    def page_matrix(
        self, ss_src: SpectralSequence, ss_tgt: SpectralSequence, r: int, s: int, n: int
    ) -> Matrix:
        src = ss_src.entry(r, s, n)
        tgt = ss_tgt.entry(r, s, n)
        phi = self.matrix(n)
        return Matrix(src.dim, tgt.dim, [tgt.reduce(phi.apply(rep)) for rep in src.basis])

    def commutes_with_page_differential(
        self, ss_src: SpectralSequence, ss_tgt: SpectralSequence, r: int, s: int, t: int
    ) -> bool:
        n = s + t
        d_src = ss_src.d_matrix(r, s, t)
        d_tgt = ss_tgt.d_matrix(r, s, t)
        phi_here = self.page_matrix(ss_src, ss_tgt, r, s, n)
        phi_next = self.page_matrix(ss_src, ss_tgt, r, s + r, n + 1)
        return d_src.compose(phi_next) == phi_here.compose(d_tgt)


# ------------------------------------------------------- exact couple route


def _representative(group: Subquotient, coords: Vector) -> Vector:
    """A representative of the class with these coordinates over ``group``."""
    rep: Vector = {}
    for a, c in coords.items():
        rep = el_add(rep, group.basis[a], c)
    return rep


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
            src, tgt = self.D(s + r - 1, n), self.D(s, n)
            m = Matrix(src.dim, tgt.dim, [
                tgt.reduce(self.to_local(0, s + 1, n, self.to_ambient(0, s + r, n, rep)))
                for rep in src.basis
            ])
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
        kx = self.k_coords(s, n, _representative(self.E(s, n), z))
        residue, y = self._i_power(s, n, r)[1].reduce(kx)
        if residue:
            raise ValueError(
                f"class at (s={s}, n={n}) is not in the image of i^{r-1}; "
                "it does not live on this page"
            )
        return self.connecting(s + r - 1, n, _representative(self.D(s + r - 1, n), y))

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
                if (img := self.connecting(s - 1, n - 1, _representative(d_group, y)))
            ]
            self._sub_cache[key] = Subquotient(z, b)
        return self._sub_cache[key]

    def dim(self, r: int, s: int, t: int) -> int:
        return self.page_subquotient(r, s, s + t).dim

    def d_matrix(self, r: int, s: int, t: int) -> Matrix:
        n = s + t
        src = self.page_subquotient(r, s, n)
        tgt = self.page_subquotient(r, s + r, n + 1)
        return Matrix(src.dim, tgt.dim, [tgt.reduce(self.draw(r, s, n, rep)) for rep in src.basis])


class AlignmentResult(NamedTuple):
    """Comparison of the filtered and exact-couple routes at one (r, s, t)."""

    r: int
    s: int
    t: int
    dim_filtered: int
    dim_couple: int
    dims_equal: bool
    transport_invertible: bool
    d_matrices_equal: bool

    @property
    def ok(self) -> bool:
        return self.dims_equal and self.transport_invertible and self.d_matrices_equal


def transport_matrix(
    ss: SpectralSequence, ec: ExactCoupleSS, r: int, s: int, n: int
) -> Matrix:
    """Filtered-route page basis → couple-route page coordinates.

    A filtered representative x ∈ F^s maps to its layer class in E_1 = H(F^s/F^{s+1})
    and then to coordinates of the couple page.
    """
    src = ss.entry(r, s, n)
    tgt = ec.page_subquotient(r, s, n)
    e1 = ec.E(s, n)
    return Matrix(src.dim, tgt.dim, [
        tgt.reduce(e1.reduce(ec.to_local(s, s + 1, n, rep))) for rep in src.basis
    ])


def alignment_check(
    ss: SpectralSequence, ec: ExactCoupleSS, r: int, s: int, t: int
) -> AlignmentResult:
    n = s + t
    dim_f = ss.entry(r, s, n).dim
    dim_c = ec.page_subquotient(r, s, n).dim
    dims_equal = dim_f == dim_c
    t_here = transport_matrix(ss, ec, r, s, n)
    t_next = transport_matrix(ss, ec, r, s + r, n + 1)
    invertible = dims_equal and t_here.rank() == dim_f
    d_f = ss.d_matrix(r, s, t)
    d_c = ec.d_matrix(r, s, t)
    matrices_equal = d_f.compose(t_next) == t_here.compose(d_c)
    return AlignmentResult(
        r, s, t, dim_f, dim_c, dims_equal, invertible, matrices_equal
    )


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


# ----------------------------------------------- towers of specific origin


def der_tower(der) -> FilteredComplex:
    """Filtration of a derivation complex by the stage of the source slot.

    F^s is spanned by the derivations vanishing on generators of stage < s;
    these are subcomplexes exactly when each stage is closed under d, which
    holds for any algebra passing the stage condition.
    """
    gens = [g for g in der.A.generators.values() if g.name not in der.vanishing]
    max_level = max((g.resolved_stage() for g in gens), default=0)
    return FilteredComplex(der.complex(), der.slot_stage, max_level)


def cone_tower(cone) -> FilteredComplex:
    """Filtration of the adjoint cone: algebra part at level 0, derivation
    slots at stage + 1."""
    gens = cone.A.generators.values()
    max_level = max((g.resolved_stage() for g in gens), default=0) + 1
    return FilteredComplex(cone.complex(), cone.filtration_level, max_level)


# ------------------------------------------------------- collapse analysis


class CollapseReport(NamedTuple):
    """Rows and columns of E_1's support over a window and the collapse they imply."""

    rows: list[int]
    columns: list[int]
    predicted_page: int | None
    reason: str
    verified: bool

    def as_record(self) -> dict:
        return {
            "rows": self.rows,
            "columns": self.columns,
            "predicted_page": self.predicted_page,
            "reason": self.reason,
            "verified": self.verified,
            "region_ok": None,  # unused; kept so that records keep their keys
        }


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
    verified = predicted is not None and all(
        ss.dim(predicted, s, n - s) == ss.dim(ss.stable_page, s, n - s)
        for n in total_degrees
        for s in ss.fc.occupied_levels(n)
    )
    return CollapseReport(rows, columns, predicted, reason, verified)
