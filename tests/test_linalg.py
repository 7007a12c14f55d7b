"""Unit tests for the exact sparse linear algebra layer."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from dgtangent.linalg import (
    Echelon,
    Matrix,
    Subquotient,
    Vector,
    preimage_in_span,
    el_add,
    el_scale,
    pivot_order,
    rank,
)
from test_algebra import dense_rank


def spans_equal(a: list[Vector], b: list[Vector]) -> bool:
    """Exact equality of two spans as subspaces: a, b and a ∪ b have one rank."""
    return rank(a) == rank(b) == rank([*a, *b])


def vec_from_list(values: list[Fraction | int]) -> Vector:
    return {i: Fraction(v) for i, v in enumerate(values) if v != 0}


def from_dense(dense: list[list[Fraction | int]]) -> Matrix:
    return Matrix(len(dense), len(dense[0]) if dense else 0, [vec_from_list(r) for r in dense])


def span_contains(vectors: list[Vector], candidate: Vector, track: bool = False) -> bool:
    ech = Echelon(track=track)
    for v in vectors:
        ech.insert(v)
    return not ech.reduce(candidate)[0]


def random_matrix(rng: random.Random, nrows: int, ncols: int, density: float = 0.5) -> Matrix:
    m = Matrix(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                val = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if val:
                    m.rows[i][j] = val
    return m


def test_vector_helpers() -> None:
    a = vec_from_list([1, 0, 2])
    b = vec_from_list([0, 3, -2])
    assert el_add(a, b) == {0: Fraction(1), 1: Fraction(3)}
    assert el_add(a, a, Fraction(-1)) == {}
    assert el_scale(a, Fraction(0)) == {}
    assert el_scale(a, Fraction(2)) == {0: Fraction(2), 2: Fraction(4)}


def test_echelon_combination_tracking() -> None:
    ech = Echelon(track=True)
    v0 = vec_from_list([1, 1, 0])
    v1 = vec_from_list([0, 1, 1])
    assert ech.insert(v0)
    assert ech.insert(v1)
    # v0 + 2*v1 must reduce to zero with combo {0: 1, 1: 2}.
    probe = el_add(v0, v1, Fraction(2))
    assert not ech.insert(probe)
    combo = ech.last_combo
    recon = el_add(el_scale(v0, combo.get(0, Fraction(0))), v1, combo.get(1, Fraction(0)))
    assert recon == probe
    # After any insert, the input minus Σ combo·inputs is its residue: zero
    # when the input is dependent, else a nonzero multiple of the row just
    # stored (read on the real columns).
    rng = random.Random(31)
    for m in [hard_matrix(rng, rng.randint(2, 10), rng.randint(1, 6)) for _ in range(30)]:
        ech = Echelon(track=True)
        independent: list[int] = []
        for i, row in enumerate(m.rows):
            added = ech.insert(row)
            combo = ech.last_combo
            assert set(combo) <= set(independent)
            residue = dict(row)
            for k, c in combo.items():
                residue = el_add(residue, m.rows[k], -c)
            if not added:
                assert residue == {}
                continue
            independent.append(i)
            stored = {k: Fraction(v) for k, v in ech.rows[-1].items() if k < m.ncols}
            pivot = min(stored)
            assert residue and residue == el_scale(stored, residue[pivot] / stored[pivot])


def test_rank_nullity_randomized() -> None:
    rng = random.Random(20260814)
    for _ in range(40):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        m = random_matrix(rng, nrows, ncols)
        rank = m.rank()
        kernel = m.kernel_basis()
        assert rank + len(kernel) == nrows
        for k in kernel:
            assert m.apply(k) == {}
        assert Matrix(len(kernel), nrows, kernel).rank() == len(kernel)


def solve(m: Matrix, target: dict) -> dict | None:
    """One x with x·m = target from a tracked reduction, or None."""
    ech = Echelon(track=True)
    for row in m.rows:
        ech.insert(row)
    residue, combo = ech.reduce(target)
    return None if residue else combo


def test_solve_consistency() -> None:
    rng = random.Random(99)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        x = {i: Fraction(rng.randint(-3, 3)) for i in range(m.nrows) if rng.random() < 0.6}
        x = {i: v for i, v in x.items() if v != 0}
        target = m.apply(x)
        sol = solve(m, target)
        assert sol is not None
        assert m.apply(sol) == target
    # An unsolvable system returns None.
    m = from_dense([[1, 0], [2, 0]])
    assert solve(m, vec_from_list([0, 1])) is None


def test_compose_matches_apply() -> None:
    rng = random.Random(7)
    a = random_matrix(rng, 4, 5)
    b = random_matrix(rng, 5, 3)
    ab = a.compose(b)
    for i in range(4):
        x = {i: Fraction(1)}
        assert ab.apply(x) == b.apply(a.apply(x))


def test_span_utilities() -> None:
    v0 = vec_from_list([1, 0, 0])
    v1 = vec_from_list([0, 1, 0])
    v2 = vec_from_list([1, 1, 0])
    assert Matrix(3, 3, [v0, v1, v2]).rank() == 2
    for track in (False, True):
        assert span_contains([v0, v1], v2, track)
        assert span_contains([v0, v2], v1, track)
        assert not span_contains([v0, v2], vec_from_list([0, 0, 1]), track)
    assert spans_equal([v0, v1], [v2, v1])
    assert not spans_equal([v0], [v1])


def test_subquotient_basic() -> None:
    # Ambient Q^3; numerators span {e0, e1, e0+e1}; denominators span {e0 - e1}.
    e0 = vec_from_list([1, 0, 0])
    e1 = vec_from_list([0, 1, 0])
    sq = Subquotient([e0, e1, el_add(e0, e1)], [el_add(e0, e1, Fraction(-1))])
    assert sq.dim == 1
    # e1 = e0 - (e0 - e1): equals basis class (e0 reduces to the single slot).
    coords = sq.reduce(e1)
    assert coords == {0: Fraction(1)}
    assert not sq.reduce(el_add(e0, e1, Fraction(-1)))
    assert sq.reduce(e0)


def test_subquotient_skipped_numerator_indexing() -> None:
    # A dependent numerator in the middle must not disturb slot bookkeeping.
    e0 = vec_from_list([1, 0, 0])
    e1 = vec_from_list([0, 1, 0])
    e2 = vec_from_list([0, 0, 1])
    sq = Subquotient([e0, el_scale(e0, Fraction(3)), e1, e2], [])
    assert sq.dim == 3
    assert sq.reduce(e1) == {1: Fraction(1)}
    assert sq.reduce(e2) == {2: Fraction(1)}
    assert sq.reduce(el_add(e1, e2, Fraction(5))) == {1: Fraction(1), 2: Fraction(5)}


def test_subquotient_rejects_outside_vector() -> None:
    e0 = vec_from_list([1, 0])
    sq = Subquotient([e0], [])
    try:
        sq.reduce(vec_from_list([0, 1]))
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")


def test_preimage_in_span() -> None:
    # M: Q^3 -> Q^2 with rows e0->f0, e1->f0, e2->f1.
    m = from_dense([[1, 0], [1, 0], [0, 1]])
    vectors = [vec_from_list([1, 0, 0]), vec_from_list([0, 1, 0]), vec_from_list([0, 0, 1])]
    # Preimage of 0: x0 + x1 = 0 and x2 = 0 inside span(e0,e1,e2).
    pre = preimage_in_span(vectors, m, [])
    assert Matrix(len(pre), 3, pre).rank() == 1
    assert spans_equal(pre, [vec_from_list([1, -1, 0])])
    # Preimage of span(f1): x0 + x1 = 0, x2 free.
    pre2 = preimage_in_span(vectors, m, [vec_from_list([0, 1])])
    assert Matrix(len(pre2), 3, pre2).rank() == 2
    assert spans_equal(pre2, [vec_from_list([1, -1, 0]), vec_from_list([0, 0, 1])])


def test_preimage_restricted_to_subspan() -> None:
    m = from_dense([[1, 0], [1, 0], [0, 1]])
    # Only e0 available: preimage of 0 inside span(e0) is 0.
    pre = preimage_in_span([vec_from_list([1, 0, 0])], m, [])
    assert pre == []


def test_determinism_of_bases() -> None:
    rng = random.Random(5)
    m = random_matrix(rng, 6, 6)
    first = [dict(v) for v in m.kernel_basis()]
    second = [dict(v) for v in m.kernel_basis()]
    assert first == second


# ------------------------------------------- against a dense Gauss–Jordan


def dense(vec: dict, ncols: int) -> list[Fraction]:
    return [Fraction(vec.get(j, 0)) for j in range(ncols)]


def sparse(values: list[Fraction]) -> dict:
    return {j: v for j, v in enumerate(values) if v}


def dense_rref(
    rows: list[list[Fraction]], ncols: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns, by dense Gauss–Jordan."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def dense_express(
    columns: list[list[Fraction]], target: list[Fraction]
) -> list[Fraction] | None:
    """The unique c with Σ c_j·columns[j] = target (columns independent), or None."""
    k = len(columns)
    system = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    rref, pivots = dense_rref(system, k + 1)
    if k in pivots:
        return None
    solution = [Fraction(0)] * k
    for row, col in zip(rref, pivots):
        solution[col] = row[k]
    return solution


def greedy_independent(vectors: list[list[Fraction]]) -> list[int]:
    chosen: list[int] = []
    for i, vec in enumerate(vectors):
        if dense_express([vectors[j] for j in chosen], vec) is None:
            chosen.append(i)
    return chosen


def hard_matrix(rng: random.Random, nrows: int, ncols: int) -> Matrix:
    """Mixed denominators, entries up to 10^12 and long chains of dependent rows."""

    def entry() -> Fraction:
        if rng.random() < 0.2:
            return Fraction(rng.randint(-10**12, 10**12), rng.choice([1, 7, 10**6 + 3]))
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 12]))

    rows: list[dict] = []
    for i in range(nrows):
        if i >= 2 and rng.random() < 0.5:
            # A combination of the last two rows: a chain of dependences.
            a, b = entry() or Fraction(1), entry()
            rows.append(el_add(el_scale(rows[-1], a), rows[-2], b))
        else:
            row = {j: entry() for j in range(ncols) if rng.random() < 0.5}
            rows.append({j: v for j, v in row.items() if v})
    return Matrix(nrows, ncols, rows)


def test_kernel_matches_dense_gauss_jordan() -> None:
    rng = random.Random(20261018)
    shapes = [(rng.randint(1, 9), rng.randint(1, 8)) for _ in range(60)] + [(30, 6)] * 4
    # Fixed: e₀+e₁, ½e₁−e₂, e₂+3e₃, … and their sum.  Reducing the probe e₀
    # or the dependent sum cascades through every pivot.
    chain = [
        {0: Fraction(1), 1: Fraction(1)},
        {1: Fraction(1, 2), 2: Fraction(-1)},
        {2: Fraction(1), 3: Fraction(3)},
        {3: Fraction(-2), 4: Fraction(5, 7)},
        {4: Fraction(4), 5: Fraction(-1, 3)},
    ]
    chain.append(functools.reduce(el_add, chain))
    e0 = {0: Fraction(1)}
    for shape in shapes + [Matrix(len(chain), 6, chain)]:
        m = shape if isinstance(shape, Matrix) else hard_matrix(rng, *shape)
        nrows, ncols = m.nrows, m.ncols
        rows = [dense(row, ncols) for row in m.rows]
        rref, pivots = dense_rref(rows, ncols)
        assert m.rank() == len(pivots) == dense_rank(rows)
        # Each dependent row gives e_i − (its combination of the earlier
        # independent rows).
        expected_kernel = []
        independent: list[int] = []
        for i, row in enumerate(rows):
            combo = dense_express([rows[j] for j in independent], row)
            if combo is None:
                independent.append(i)
                continue
            vec = {i: Fraction(1)}
            for j, c in zip(independent, combo):
                if c:
                    vec[j] = -c
            expected_kernel.append(vec)
        assert m.kernel_basis() == expected_kernel
        # solve: the combination over the independent rows, or None.
        for _ in range(3):
            x = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for i in range(nrows)}
            image = m.apply({i: c for i, c in x.items() if c})
            for target in (image, hard_matrix(rng, 1, ncols).rows[0], e0):
                combo = dense_express([rows[j] for j in independent], dense(target, ncols))
                expected = None if combo is None else {
                    j: c for j, c in zip(independent, combo) if c
                }
                assert solve(m, target) == expected
        # reduce: residue vec − Σ_c vec[c]·rref_c, in both modes.
        echs = [Echelon(track=track) for track in (False, True)]
        for ech in echs:
            for row in m.rows:
                ech.insert(row)
        in_span = m.apply({i: Fraction(i + 1) for i in range(nrows)})
        for probe in [*hard_matrix(rng, 2, ncols).rows, e0, in_span, m.rows[-1]]:
            residue = dense(probe, ncols)
            for row, col in zip(rref, pivots):
                coeff = residue[col]
                residue = [a - coeff * b for a, b in zip(residue, row)]
            for ech in echs:
                assert ech.reduce(probe)[0] == sparse(residue)


def test_subquotient_reduce_matches_dense() -> None:
    rng = random.Random(4711)
    for _ in range(40):
        ncols = rng.randint(1, 7)
        nums = hard_matrix(rng, rng.randint(1, 6), ncols).rows
        dens = hard_matrix(rng, rng.randint(0, 4), ncols).rows if rng.random() < 0.8 else []
        sq = Subquotient(nums, dens)
        inputs = [dense(v, ncols) for v in list(dens) + list(nums)]
        independent = greedy_independent(inputs)
        basis_inputs = [i for i in independent if i >= len(dens)]
        assert sq.basis == [nums[i - len(dens)] for i in basis_inputs]
        for _ in range(3):
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in inputs]
            vec = [sum(c * v[j] for c, v in zip(x, inputs)) for j in range(ncols)]
            combo = dense_express([inputs[i] for i in independent], vec)
            coeffs = dict(zip(independent, combo))
            expected = {
                slot: coeffs[i] for slot, i in enumerate(basis_inputs) if coeffs[i]
            }
            assert sq.reduce(sparse(vec)) == expected


def combination(rng: random.Random, vectors: list[Vector]) -> Vector:
    out: Vector = {}
    for v in vectors:
        out = el_add(out, v, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return out


def test_class_coordinates_round_trip() -> None:
    rng = random.Random(2903)
    for _ in range(40):
        ncols = rng.randint(1, 7)
        nums = hard_matrix(rng, rng.randint(1, 6), ncols).rows
        dens = hard_matrix(rng, rng.randint(0, 4), ncols).rows
        sq = Subquotient(nums, dens)
        for _ in range(3):
            x = combination(rng, nums + dens)
            assert span_contains(dens, el_add(sq.representative(sq.reduce(x)), x, Fraction(-1)))
        identity = Matrix(sq.dim, sq.dim, [{a: Fraction(1)} for a in range(sq.dim)])
        assert sq.induced(sq, lambda v: v) == identity


def test_induced_maps_compose() -> None:
    # g = x·G and f = x·F carry numerators into numerators + denominators
    # and denominators into denominators, so both induce maps of classes.
    rng = random.Random(2904)
    for _ in range(30):
        dims = [rng.randint(1, 6) for _ in range(3)]
        nums = hard_matrix(rng, rng.randint(1, 5), dims[0]).rows
        dens = hard_matrix(rng, rng.randint(0, 3), dims[0]).rows
        groups = [Subquotient(nums, dens)]
        maps = []
        for ncols, nrows in zip(dims[1:], dims):
            m = hard_matrix(rng, nrows, ncols)
            nums = [m.apply(v) for v in nums] + hard_matrix(rng, rng.randint(0, 2), ncols).rows
            dens = [m.apply(v) for v in dens] + hard_matrix(rng, rng.randint(0, 2), ncols).rows
            groups.append(Subquotient(nums, dens))
            maps.append(m)
        a, b, c = groups
        g, f = maps
        assert a.induced(c, lambda v: f.apply(g.apply(v))) == (
            a.induced(b, g.apply).compose(b.induced(c, f.apply))
        )


def test_stored_rows_are_primitive_integer_vectors() -> None:
    rng = random.Random(12)
    for track in (False, True):
        ech = Echelon(track=track)
        for row in hard_matrix(rng, 12, 8).rows:
            ech.insert(row)
        assert ech.rank() > 0
        assert len({min(row) for row in ech.rows}) == ech.rank()  # distinct pivots
        for pos, row in enumerate(ech.rows):
            assert all(type(v) is int for v in row.values())
            assert math.gcd(*row.values()) == 1
            assert row[min(row)] > 0
            assert ech.pivots[min(row)] == pos


def natural_rank(m: Matrix) -> int:
    """The rank with the rows inserted in the order given."""
    ech = Echelon()
    for row in m.rows:
        ech.insert(row)
    return ech.rank()


def test_pivot_order_is_a_permutation_that_keeps_the_rank() -> None:
    rng = random.Random(20261018)
    matrices = [hard_matrix(rng, rng.randint(1, 12), rng.randint(1, 8)) for _ in range(60)]
    rng = random.Random(20260814)
    matrices += [random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(40)]
    one = Fraction(1)
    matrices.append(Matrix(3, 2, [{}, {1: one}, {0: one, 1: one}]))
    for m in matrices:
        order = pivot_order(m.rows)
        assert sorted(order) == list(range(m.nrows))
        # Leading column highest first, zero rows last; ties by fewest
        # nonzeros, then by position.
        for i, j in zip(order, order[1:]):
            lead_i, lead_j = min(m.rows[i], default=-1), min(m.rows[j], default=-1)
            assert lead_i >= lead_j
            if lead_i == lead_j:
                assert (len(m.rows[i]), i) < (len(m.rows[j]), j)
        rows = [dense(row, m.ncols) for row in m.rows]
        assert m.rank() == natural_rank(m) == dense_rank(rows)
