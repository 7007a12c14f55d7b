"""Unit tests for the filtered spectral sequence, both routes, and collapse."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgtangent.algebra import FreeDgAlgebra, Generator
from dgtangent.complexes import CochainComplex
from dgtangent.derivations import (
    ConeComplex,
    DerComplex,
    restriction_sequence,
)
from dgtangent.linalg import Echelon, Matrix, Vector, spans_equal
from dgtangent.models import (
    builtin,
    cone_spectral_sequence,
    derivation_tower,
    model_family,
    parse_model,
    tower_report,
)
from dgtangent.tower import (
    ExactCoupleSS,
    FilteredChainMap,
    FilteredComplex,
    SpectralSequence,
    alignment_check,
    collapse_report,
    cone_tower,
    der_tower,
)
from test_acceptance import BUILTINS, COEFFICIENTS, trivial_coefficients

# Two-generator tensor models have large high-degree bases; the Z/B route
# is swept over narrower windows there (as in acceptance criterion 4).
BUILTIN_WINDOWS = {
    "ah:wedge:2,2": range(-6, 7),
    "ah:wedge:2,3": range(-5, 5),
}


def sullivan_s2() -> FreeDgAlgebra:
    a = FreeDgAlgebra(
        "commutative", "cohomological", [Generator("x", 2), Generator("y", 3)]
    )
    a.set_differential("y", {("x", "x"): Fraction(1)})
    return a


def tensor_acyclic() -> FreeDgAlgebra:
    a = FreeDgAlgebra("tensor", "homological", [Generator("a", 2), Generator("b", 3)])
    a.set_differential("b", {("a",): Fraction(1)})
    return a


def tensor_four_stage() -> FreeDgAlgebra:
    a = FreeDgAlgebra(
        "tensor",
        "homological",
        [Generator("a", 2), Generator("b", 3), Generator("c", 6), Generator("e", 7)],
    )
    a.set_differential("b", {("a",): Fraction(1)})
    a.set_differential("c", {("a", "b"): Fraction(1), ("b", "a"): Fraction(-1)})
    a.set_differential("e", {("b", "b"): Fraction(1), ("c",): Fraction(-1)})
    return a


def s2_tower() -> tuple[FilteredComplex, SpectralSequence]:
    fc = der_tower(DerComplex(sullivan_s2()))
    return fc, SpectralSequence(fc)


WINDOW_S2 = list(range(-8, 3))


def level_lowering_tower() -> FilteredComplex:
    """d sends "a" (degree 0, level 1) onto "b" (degree 1, level 0)."""
    bases = {0: ["a"], 1: ["b"]}
    cx = CochainComplex(
        lambda n: bases.get(n, []),
        lambda n: Matrix(
            len(bases.get(n, [])),
            len(bases.get(n + 1, [])),
            [{0: Fraction(1)}] if n == 0 else None,
        ),
    )
    return FilteredComplex(cx, lambda label: 1 if label == "a" else 0, max_level=1)


def test_filtration_check_flags_violation() -> None:
    fc = level_lowering_tower()
    assert fc.check_filtration([0]) == ["degree 0 position 0 -> 0"]


def test_der_tower_filtration_is_respected() -> None:
    fc, _ = s2_tower()
    assert fc.max_level == 3
    assert fc.check_filtration(WINDOW_S2) == []
    # Levels in degree 0: (x -> x) at stage 2, (y -> y) at stage 3.
    assert fc.levels(0) == [2, 3]


def test_sullivan_s2_first_page() -> None:
    _, ss = s2_tower()
    assert ss.page_dims(1, WINDOW_S2) == {
        (2, -4): 1,
        (2, -2): 1,
        (3, -6): 1,
        (3, -4): 1,
    }


def test_sullivan_s2_d1_kills_bottom_class() -> None:
    _, ss = s2_tower()
    d1 = ss.d_matrix(1, 2, -4)
    assert (d1.nrows, d1.ncols) == (1, 1)
    assert d1.rank() == 1
    # Nothing else moves on page 1.
    assert ss.d_matrix(1, 2, -2).is_zero()
    assert ss.d_matrix(1, 3, -6).is_zero()


def test_sullivan_s2_second_page_is_stable() -> None:
    _, ss = s2_tower()
    expected = {(2, -2): 1, (3, -6): 1}
    assert ss.page_dims(2, WINDOW_S2) == expected
    assert ss.stable_page == 5
    assert ss.einf_dims(WINDOW_S2) == expected


def test_sullivan_s2_death_pages() -> None:
    der = DerComplex(sullivan_s2())
    _, ss = s2_tower()
    # (x -> 1) lives in degree -2 at level 2 and dies on page 1.
    assert der.basis(-2) == [("x", ())]
    assert ss.death_page({0: Fraction(1)}, -2, 2) == 1
    # (y -> 1) in degree -3 at level 3 survives.
    assert der.basis(-3) == [("y", ())]
    assert ss.death_page({0: Fraction(1)}, -3, 3) is None
    # (x -> x) alone is not a cocycle, but corrects by 2 (y -> y) inside F^3,
    # so the lift criterion reports survival to E_∞.
    assert der.basis(0) == [("x", ("x",)), ("y", ("y",))]
    assert ss.death_page({0: Fraction(1)}, 0, 2) is None


def test_sullivan_s2_total_degree_check() -> None:
    _, ss = s2_tower()
    report = ss.total_degree_check(WINDOW_S2)
    assert all(ok for (_, _, ok) in report.values())
    assert report[0] == (1, 1, True)
    assert report[-3] == (1, 1, True)
    assert report[-4] == (0, 0, True)


def test_acyclic_tensor_single_row_collapse() -> None:
    fc = der_tower(DerComplex(tensor_acyclic()))
    ss = SpectralSequence(fc)
    window = list(range(0, 7))
    assert ss.page_dims(1, window) == {(2, 0): 1, (3, 0): 1}
    report = collapse_report(ss, window)
    assert report.rows == [0]
    assert report.predicted_page == 2
    assert report.verified is True
    # The single d_1 is an isomorphism, so E_2 = E_∞ = 0.
    assert ss.d_matrix(1, 2, 0).rank() == 1
    assert ss.page_dims(2, window) == {}


def test_single_column_collapses_on_page_one() -> None:
    # d = 0 on one generator: everything sits in column s = 2.
    a = FreeDgAlgebra("tensor", "homological", [Generator("x", 2)])
    fc = der_tower(DerComplex(a, trivial_coefficients(a)))
    ss = SpectralSequence(fc)
    report = collapse_report(ss, list(range(0, 6)))
    assert report.columns == [2]
    assert report.predicted_page == 1
    assert report.verified is True


def test_alignment_both_routes_sullivan_s2() -> None:
    fc, ss = s2_tower()
    ec = ExactCoupleSS(fc)
    for r in range(1, 5):
        for s in range(0, fc.max_level + 1):
            for n in WINDOW_S2:
                result = alignment_check(ss, ec, r, s, n - s)
                assert result.ok, (r, s, n - s, result)


def test_alignment_both_routes_acyclic_tensor() -> None:
    fc = der_tower(DerComplex(tensor_acyclic()))
    ss = SpectralSequence(fc)
    ec = ExactCoupleSS(fc)
    for r in range(1, 4):
        for s in range(0, fc.max_level + 1):
            for n in range(0, 7):
                result = alignment_check(ss, ec, r, s, n - s)
                assert result.ok, (r, s, n - s, result)


def two_long_differentials_tower() -> FilteredComplex:
    """C^0 = <x, u> at levels 0, 0 and C^1 = <y, w> at levels 2, 3, with
    d x = y and d u = 2w: a nonzero d_2 and d_3 out of (s, n) = (0, 0)."""
    bases = {0: ["x", "u"], 1: ["y", "w"]}
    levels = {"x": 0, "u": 0, "y": 2, "w": 3}
    cx = CochainComplex(
        lambda n: bases.get(n, []),
        lambda n: Matrix(
            len(bases.get(n, [])),
            len(bases.get(n + 1, [])),
            [{0: Fraction(1)}, {1: Fraction(2)}] if n == 0 else None,
        ),
    )
    return FilteredComplex(cx, levels.__getitem__, max_level=3)


def test_alignment_sees_nonzero_d2_and_d3() -> None:
    fc = two_long_differentials_tower()
    assert fc.check_filtration([-1, 0, 1]) == []
    ss, ec = SpectralSequence(fc), ExactCoupleSS(fc)
    for r in (2, 3):
        assert ss.d_matrix(r, 0, 0).rank() == 1
        assert ec.d_matrix(r, 0, 0).rank() == 1
    for r in range(1, 5):
        for s in range(0, fc.max_level + 1):
            for n in range(-1, 3):
                result = alignment_check(ss, ec, r, s, n - s)
                assert result.ok, (r, s, n - s, result)


def test_draw_refuses_a_class_that_dies_on_an_earlier_page() -> None:
    # On the even 2-sphere, d_1 is nonzero on E_1 at (s, n) = (2, -2), so
    # that class is not in the image of i^1 and has no d_2.
    _, fc = derivation_tower(builtin("sullivan:sphere:even:2"))
    ec = ExactCoupleSS(fc)
    assert ec.E(2, -2).dim == 1
    x = {0: Fraction(1)}
    assert ec.draw(1, 2, -2, x)
    with pytest.raises(ValueError, match=r"not in the image of i\^1"):
        ec.draw(2, 2, -2, x)


def test_alignment_spot_checks_four_stage_tensor() -> None:
    fc = der_tower(DerComplex(tensor_four_stage()))
    ss = SpectralSequence(fc)
    ec = ExactCoupleSS(fc)
    assert fc.check_filtration(list(range(-2, 4))) == []
    for r in range(1, 4):
        for s in (2, 3):
            for n in range(-1, 4):
                result = alignment_check(ss, ec, r, s, n - s)
                assert result.ok, (r, s, n - s, result)


def test_chain_map_to_trivial_coefficients() -> None:
    algebra = sullivan_s2()
    src_der = DerComplex(algebra)
    tgt_der = DerComplex(algebra, trivial_coefficients(algebra))
    src = der_tower(src_der)
    tgt = der_tower(tgt_der)

    def matrix_fn(n: int) -> Matrix:
        src_basis = src_der.basis(n)
        tgt_index = {slot: j for j, slot in enumerate(tgt_der.basis(n))}
        m = Matrix(len(src_basis), len(tgt_index))
        for i, (v, mono) in enumerate(src_basis):
            if mono == () and (v, ()) in tgt_index:
                m.rows[i][tgt_index[(v, ())]] = Fraction(1)
        return m

    phi = FilteredChainMap(src, tgt, matrix_fn)
    assert phi.check(WINDOW_S2) == []
    ss_src = SpectralSequence(src)
    ss_tgt = SpectralSequence(tgt)
    for r in (1, 2):
        for s in range(0, 4):
            for n in WINDOW_S2:
                assert phi.commutes_with_page_differential(ss_src, ss_tgt, r, s, n - s)
    # The bottom slot classes map isomorphically on page 1.
    assert phi.page_matrix(ss_src, ss_tgt, 1, 2, -2).rank() == 1
    assert phi.page_matrix(ss_src, ss_tgt, 1, 3, -3).rank() == 1


def test_cone_tower_odd_sphere_loop_pages() -> None:
    # Tensor algebra on one degree-2 generator, d = 0: the cone splits into
    # an algebra column at s = 0 and a derivation column at s = 3.
    a = FreeDgAlgebra("tensor", "homological", [Generator("x", 2)])
    fc = cone_tower(ConeComplex(a))
    ss = SpectralSequence(fc)
    window = list(range(-9, 4))
    expected: dict[tuple[int, int], int] = {}
    for k in range(0, 5):
        expected[(0, -2 * k)] = 1  # algebra class x^k in total degree -2k
    for k in range(0, 7):
        n = 3 - 2 * k  # derivation class (x -> x^k)
        if n in window:
            expected[(3, n - 3)] = 1
    assert ss.page_dims(1, window) == expected
    assert ss.einf_dims(window) == expected
    report = ss.total_degree_check(window)
    assert all(ok for (_, _, ok) in report.values())


def test_pages_are_deterministic() -> None:
    dims_runs = []
    d1_runs = []
    for _ in range(2):
        _, ss = s2_tower()
        dims_runs.append(
            {r: ss.page_dims(r, WINDOW_S2) for r in range(1, 4)}
        )
        d1_runs.append([dict(row) for row in ss.d_matrix(1, 2, -4).rows])
    assert dims_runs[0] == dims_runs[1]
    assert d1_runs[0] == d1_runs[1]


# ------------------------------------------------ barcode dimensions


def builtin_towers():
    """(label, filtered complex, window) for every builtin tower in scope."""
    for name in BUILTINS:
        window = BUILTIN_WINDOWS.get(name, range(-10, 11))
        mf = builtin(name)
        for coefficients in ("self", "trivial"):
            _, fc = derivation_tower(mf, COEFFICIENTS[coefficients](mf.algebra))
            yield f"{name}/{coefficients}", fc, window
        if model_family(mf) == "cellular":
            yield f"{name}/cone", cone_tower(ConeComplex(mf.algebra)), window


def test_barcode_dims_match_entry_route() -> None:
    for label, fc, window in builtin_towers():
        ss = SpectralSequence(fc)
        for r in range(1, ss.stable_page + 1):
            for s in range(0, fc.max_level + 1):
                for n in window:
                    assert ss.dim(r, s, n - s) == ss.entry(r, s, n).dim, (
                        label, r, s, n,
                    )


def reference_barcode(fc: FilteredComplex, n: int) -> tuple[Counter, Counter]:
    """The barcode of d^n with rows in the order (−level, index) and target
    columns in the order (level, index)."""
    src, tgt = fc.levels(n), fc.levels(n + 1)
    order = sorted(range(len(tgt)), key=lambda j: (tgt[j], j))
    column = {j: pos for pos, j in enumerate(order)}
    d = fc.complex.d(n)
    ech = Echelon()
    pairs, kernel = Counter(), Counter()
    for i in sorted(range(len(src)), key=lambda i: (-src[i], i)):
        if ech.insert({column[j]: c for j, c in d.rows[i].items()}):
            pairs[src[i], tgt[order[min(ech.rows[-1])]]] += 1
        else:
            kernel[src[i]] += 1
    return pairs, kernel


CP2 = """
name cp2
flavor associative
grading homological
gen a : 1
gen c : 3
d c = 2 * a a
"""


def test_barcode_is_independent_of_the_order_within_a_level() -> None:
    # loop --max-degree 12 on CP² reads the cone in degrees −13..8.
    towers = [("cp2/cone", cone_spectral_sequence(parse_model(CP2)).fc, range(-13, 9))]
    towers += builtin_towers()
    for label, fc, window in towers:
        ss = SpectralSequence(fc)
        for n in window:
            levels = [fc.levels(n)[i] for i, _, _ in ss.eliminate(n)]
            assert levels == sorted(levels, reverse=True), (label, n)
            assert ss.barcode(n) == reference_barcode(fc, n), (label, n)


def test_dim_refuses_finite_pages_when_d_lowers_level() -> None:
    ss = SpectralSequence(level_lowering_tower())
    with pytest.raises(ValueError, match="lowers the filtration"):
        ss.dim(1, 1, -1)
    with pytest.raises(ValueError, match="lowers the filtration"):
        ss.dim(2, 0, 1)
    # E_∞ is the graded quotient of H = 0, whatever the filtration.
    assert ss.einf_dims([0, 1]) == {}
    assert ss.total_degree_check([0, 1]) == {0: (0, 0, True), 1: (0, 0, True)}


def assert_pages_are_homology(ss: SpectralSequence, window, pages, label="") -> None:
    """dim E_{r+1} = dim E_r − rank d_r out − rank d_r in, and d_r∘d_r = 0,
    with dimensions from the barcode and d_r from the Z/B representatives."""
    top = ss.fc.max_level
    for r in pages:
        for s in range(0, top + 1):
            for n in window:
                t = n - s
                rank_out = rank_in = 0
                if s + r <= top:
                    d_out = ss.d_matrix(r, s, t)
                    assert (d_out.nrows, d_out.ncols) == (
                        ss.dim(r, s, t), ss.dim(r, s + r, t - r + 1),
                    ), (label, r, s, n)
                    rank_out = d_out.rank()
                    if s + 2 * r <= top:
                        d_next = ss.d_matrix(r, s + r, t - r + 1)
                        assert d_out.compose(d_next).is_zero(), (label, r, s, n)
                if s - r >= 0:
                    rank_in = ss.d_matrix(r, s - r, t + r - 1).rank()
                assert ss.dim(r + 1, s, t) == (
                    ss.dim(r, s, t) - rank_out - rank_in
                ), (label, r, s, n)


def test_pages_are_homology_of_previous_page() -> None:
    for label, fc, window in builtin_towers():
        assert_pages_are_homology(SpectralSequence(fc), window, range(1, 5), label)


def reference_z(fc: FilteredComplex, r: int, s: int, n: int) -> list[Vector]:
    """Z_r^s by its definition: the kernel of the F^s rows of d^n, restricted
    to the target columns of level < s + r."""
    rows = [i for i, lvl in enumerate(fc.levels(n)) if lvl >= s]
    low = {j for j, lvl in enumerate(fc.levels(n + 1)) if lvl < s + r}
    d = fc.complex.d(n)
    m = Matrix(len(rows), d.ncols, [
        {j: c for j, c in d.rows[i].items() if j in low} for i in rows
    ])
    return [{rows[k]: c for k, c in x.items()} for x in m.kernel_basis()]


def assert_z_span_and_death_page(ss: SpectralSequence, window, label="") -> None:
    """``z_span`` against ``reference_z`` for r ≤ stable_page, and
    ``death_page`` against its definition: the first r ≥ 1 with
    x ∉ Z_{r+1}^s + F^{s+1}, None if there is none up to the stable page."""
    fc = ss.fc
    pages = range(1, ss.stable_page + 1)
    for n in window:
        levels = fc.levels(n)
        for s in range(0, fc.max_level + 1):
            z = {r: reference_z(fc, r, s, n) for r in range(1, ss.stable_page + 2)}
            for r in pages:
                assert spans_equal(ss.z_span(r, s, n), z[r]), (label, r, s, n)
            above = [{i: Fraction(1)} for i, lvl in enumerate(levels) if lvl > s]
            lives_on = []  # lives_on[r − 1]: Z_{r+1}^s + F^{s+1}
            for r in pages:
                ech = Echelon()
                for v in z[r + 1] + above:
                    ech.insert(v)
                lives_on.append(ech)
            at_s = [i for i, lvl in enumerate(levels) if lvl == s]
            # Unit vectors at level s, and one sum that also reaches above s.
            probes = [{i: Fraction(1)} for i in at_s]
            if at_s:
                probes.append({i: Fraction(i + 1) for i, lvl in enumerate(levels) if lvl >= s})
            for x in probes:
                literal = next(
                    (r for r in pages if not lives_on[r - 1].contains(x)), None
                )
                assert ss.death_page(x, n, s) == literal, (label, s, n, x)


def test_z_span_and_death_page_match_their_definitions() -> None:
    for label, fc, window in builtin_towers():
        assert_z_span_and_death_page(SpectralSequence(fc), window, label)


@st.composite
def two_stage_towers(draw) -> FreeDgAlgebra:
    """Commutative towers: stage-0 generators are cycles, and each stage-1
    generator has d a nonzero random polynomial in them, so d² = 0."""
    low = [
        Generator(f"x{i}", draw(st.integers(2, 4)), stage=0)
        for i in range(draw(st.integers(1, 2)))
    ]
    low_algebra = FreeDgAlgebra("commutative", "cohomological", low)
    targets = [m for m in range(3, 9) if low_algebra.basis_in_degree(m)]
    high = [
        Generator(f"y{i}", draw(st.sampled_from(targets)) - 1, stage=1)
        for i in range(draw(st.integers(1, 2)))
    ]
    algebra = FreeDgAlgebra("commutative", "cohomological", low + high)
    low_names = {g.name for g in low}
    for g in high:
        monomials = [
            m for m in algebra.basis_in_degree(g.degree + 1)
            if set(m) <= low_names
        ]
        coeffs = draw(
            st.lists(
                st.integers(-2, 2), min_size=len(monomials), max_size=len(monomials)
            ).filter(any)
        )
        algebra.set_differential(
            g.name, {m: Fraction(c) for m, c in zip(monomials, coeffs) if c}
        )
    return algebra


@settings(max_examples=12, deadline=None, derandomize=True)
@given(two_stage_towers(), st.sampled_from(["self", "trivial"]))
def test_barcode_matches_exact_couple_on_random_towers(algebra, coefficients) -> None:
    u = COEFFICIENTS[coefficients](algebra)
    fc = der_tower(DerComplex(algebra, u))
    assert fc.check_filtration(range(-8, 3)) == []
    ss, ec = SpectralSequence(fc), ExactCoupleSS(fc)
    for r in range(1, 4):
        for s in range(0, fc.max_level + 1):
            for n in range(-8, 3):
                assert ss.dim(r, s, n - s) == ec.dim(r, s, n - s), (r, s, n)
                assert alignment_check(ss, ec, r, s, n - s).ok, (r, s, n)
    assert_pages_are_homology(ss, range(-8, 3), range(1, 4))
    assert_z_span_and_death_page(ss, range(-8, 3))
    assert all(ok for _, _, ok in ss.total_degree_check(range(-8, 3)).values())
    assert restriction_sequence(algebra, u, 0, 1, list(range(-8, 3))).ok


def test_page_loops_skip_empty_levels(monkeypatch) -> None:
    # dim E_r^{s,t} is 0 unless s is the level of a basis element in degree
    # s + t, so the number of dim calls must not grow with an unused stage.
    calls = []
    original = SpectralSequence.dim

    def counting_dim(self, r, s, t):
        calls.append((r, s, t))
        return original(self, r, s, t)

    monkeypatch.setattr(SpectralSequence, "dim", counting_dim)
    counts = {}
    reports = {}
    for stage in (5, 500):
        mf = parse_model(
            "flavor commutative\ngrading cohomological\n"
            f"gen x : 2\ngen y : 3 stage {stage}\nd y = x x\n"
        )
        calls.clear()
        reports[stage] = tower_report(mf, window=4, check_collapse=True)
        counts[stage] = len(calls)
    assert counts[5] == counts[500]
    assert reports[5].assembly == reports[500].assembly
