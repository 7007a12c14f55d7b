"""Unit tests for the filtered spectral sequence, both routes, and collapse."""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dgtangent.algebra import FreeDgAlgebra, Generator
from dgtangent.complexes import CochainComplex, to_cohomological
from dgtangent.derivations import (
    ConeComplex,
    DerComplex,
    restriction_sequence,
)
from dgtangent.linalg import Echelon, Matrix, Vector
from dgtangent.models import (
    builtin,
    derivation_tower,
    parse_model,
    tower_report,
    validate_model,
)
from dgtangent.tower import (
    ExactCoupleSS,
    FilteredComplex,
    SpectralSequence,
    alignment_check,
    collapse_report,
)
from test_acceptance import BUILTINS, COEFFICIENTS, trivial_coefficients
from test_bench_outputs import WORKLOADS
from test_linalg import spans_equal

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
    fc = DerComplex(sullivan_s2()).tower()
    return fc, SpectralSequence(fc)


WINDOW_S2 = list(range(-8, 3))


def assert_filtered(fc: FilteredComplex, degrees) -> None:
    """d keeps the filtration in these degrees: the barcode's elimination
    refuses a level-lowering d (``SpectralSequence.eliminate``)."""
    ss = SpectralSequence(fc)
    for n in degrees:
        ss.barcode(n)


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


def test_der_tower_filtration_is_respected() -> None:
    fc, _ = s2_tower()
    assert fc.max_level == 3
    assert_filtered(fc, WINDOW_S2)
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
    assert ss.page_dims(ss.stable_page, WINDOW_S2) == expected


def test_sullivan_s2_total_degree_check() -> None:
    _, ss = s2_tower()
    report = ss.total_degree_check(WINDOW_S2)
    assert all(ok for (_, _, ok) in report.values())
    assert report[0] == (1, 1, True)
    assert report[-3] == (1, 1, True)
    assert report[-4] == (0, 0, True)


def test_acyclic_tensor_single_row_collapse() -> None:
    fc = DerComplex(tensor_acyclic()).tower()
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
    fc = DerComplex(a, trivial_coefficients(a)).tower()
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
                assert alignment_check(ss, ec, r, s, n - s) == [], (r, s, n - s)


def test_alignment_both_routes_acyclic_tensor() -> None:
    fc = DerComplex(tensor_acyclic()).tower()
    ss = SpectralSequence(fc)
    ec = ExactCoupleSS(fc)
    for r in range(1, 4):
        for s in range(0, fc.max_level + 1):
            for n in range(0, 7):
                assert alignment_check(ss, ec, r, s, n - s) == [], (r, s, n - s)


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
    assert_filtered(fc, [-1, 0, 1])
    ss, ec = SpectralSequence(fc), ExactCoupleSS(fc)
    for r in (2, 3):
        assert ss.d_matrix(r, 0, 0).rank() == 1
        assert ec.d_matrix(r, 0, 0).rank() == 1
    for r in range(1, 5):
        for s in range(0, fc.max_level + 1):
            for n in range(-1, 3):
                assert alignment_check(ss, ec, r, s, n - s) == [], (r, s, n - s)


def test_alignment_names_each_failure_against_a_wrong_oracle() -> None:
    # The oracle runs on the same complex with y and w at other levels.
    fc = two_long_differentials_tower()
    ss = SpectralSequence(fc)
    merged = ExactCoupleSS(FilteredComplex(fc.complex, {"x": 0, "u": 0, "y": 2, "w": 2}.get, 3))
    assert alignment_check(ss, merged, 1, 2, -1) == [
        "dimension 1 (filtered) != 2 (exact couple) at (r, s, t) = (1, 2, -1)"
    ]
    swapped = ExactCoupleSS(FilteredComplex(fc.complex, {"x": 0, "u": 0, "y": 3, "w": 2}.get, 3))
    assert alignment_check(ss, swapped, 1, 2, -1) == [
        "transport is not invertible at (r, s, t) = (1, 2, -1)"
    ]
    assert alignment_check(ss, swapped, 2, 0, 0) == [
        "d_2 differs between the routes at (r, s, t) = (2, 0, 0)"
    ]


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
    fc = DerComplex(tensor_four_stage()).tower()
    ss = SpectralSequence(fc)
    ec = ExactCoupleSS(fc)
    assert_filtered(fc, range(-2, 4))
    for r in range(1, 4):
        for s in (2, 3):
            for n in range(-1, 4):
                assert alignment_check(ss, ec, r, s, n - s) == [], (r, s, n - s)


def test_chain_map_to_trivial_coefficients() -> None:
    # The slot map (v ↦ m) ↦ (v ↦ ε(m)) from Der(A, A) to Der(A, Q) is a
    # chain map that respects the stage filtrations.
    algebra = sullivan_s2()
    src_der = DerComplex(algebra)
    tgt_der = DerComplex(algebra, trivial_coefficients(algebra))
    src = src_der.tower()
    tgt = tgt_der.tower()

    def slot_map(n: int) -> Matrix:
        src_basis = src_der.basis(n)
        tgt_index = {slot: j for j, slot in enumerate(tgt_der.basis(n))}
        m = Matrix(len(src_basis), len(tgt_index))
        for i, (v, mono) in enumerate(src_basis):
            if mono == () and (v, ()) in tgt_index:
                m.rows[i][tgt_index[(v, ())]] = Fraction(1)
        return m

    for n in WINDOW_S2:
        m = slot_map(n)
        assert m.compose(tgt.complex.d(n)) == src.complex.d(n).compose(slot_map(n + 1)), n
        src_levels, tgt_levels = src.levels(n), tgt.levels(n)
        for i, row in enumerate(m.rows):
            assert all(tgt_levels[j] >= src_levels[i] for j in row), (n, i)


def test_cone_tower_odd_sphere_loop_pages() -> None:
    # Tensor algebra on one degree-2 generator, d = 0: the cone splits into
    # an algebra column at s = 0 and a derivation column at s = 3.
    a = FreeDgAlgebra("tensor", "homological", [Generator("x", 2)])
    fc = ConeComplex(a).tower()
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
    assert ss.page_dims(ss.stable_page, window) == expected
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
    """(label, filtered complex, window) for every builtin tower in scope:
    both derivation towers and the cone of each builtin that validates."""
    for name in BUILTINS:
        window = BUILTIN_WINDOWS.get(name, range(-10, 11))
        mf = builtin(name)
        assert validate_model(mf).ok, name
        for coefficients in ("self", "trivial"):
            _, fc = derivation_tower(mf, COEFFICIENTS[coefficients](mf.algebra))
            yield f"{name}/{coefficients}", fc, window
        yield f"{name}/cone", ConeComplex(mf.algebra).tower(), window


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
    towers = [("cp2/cone", ConeComplex(parse_model(CP2).algebra).tower(), range(-13, 9))]
    towers += builtin_towers()
    for label, fc, window in towers:
        ss = SpectralSequence(fc)
        for n in window:
            levels = [fc.levels(n)[i] for i, _, _ in ss.eliminate(n)]
            assert levels == sorted(levels, reverse=True), (label, n)
            assert ss.barcode(n) == reference_barcode(fc, n), (label, n)


def certify_barcode(ss: SpectralSequence, n: int) -> None:
    """Check the tracked run of d^n as a certificate, by plain sparse
    arithmetic on dicts of Fractions.  V is unitriangular in elimination
    order and its rows go down in level, so it is an invertible filtered
    change of basis; the residues R = V·D that are nonzero have distinct
    lowest pivots in (level, index) order, so R is reduced.  Then rank d^n
    is the number of pivots and the bars are the pivot pairs
    (Cohen-Steiner–Edelsbrunner–Morozov, SoCG 2006), which ``barcode``
    must report."""
    src, tgt = ss.fc.levels(n), ss.fc.levels(n + 1)
    d = ss.fc.complex.d(n)
    run = ss.eliminate(n, track=True)
    levels = [src[i] for i, _, _ in run]
    assert levels == sorted(levels, reverse=True), n
    done, pivots = set(), set()
    pairs, kernel = Counter(), Counter()
    for i, b, v in run:
        assert v[i] == 1 and set(v) - {i} <= done, (n, i)
        done.add(i)
        residue: dict[int, Fraction] = {}
        for k, c in v.items():
            for j, x in d.rows[k].items():
                residue[j] = residue.get(j, Fraction(0)) + c * x
        support = [(tgt[j], j) for j, x in residue.items() if x]
        assert bool(support) == (b is not None), (n, i)
        if b is None:
            kernel[src[i]] += 1
        else:
            pivot = min(support)
            assert pivot[0] == b and pivot not in pivots, (n, i)
            pivots.add(pivot)
            pairs[src[i], b] += 1
    assert (pairs, kernel) == ss.barcode(n), n
    assert len(pivots) == d.rank(), n


def certified_towers():
    """(label, filtered complex, degrees) for the barcode certificate: the
    Der and cone towers of the acceptance builtins, their algebra and
    indecomposables complexes at the one level 0, and the seed-11 towers of
    the three benchmark workloads."""
    for name in BUILTINS:
        mf = builtin(name)
        for coefficients in ("self", "trivial"):
            _, fc = derivation_tower(mf, COEFFICIENTS[coefficients](mf.algebra))
            yield f"{name}/{coefficients}", fc, range(-4, 5)
        yield f"{name}/cone", ConeComplex(mf.algebra).tower(), range(-8, 9)
        # homology and quillen --window 6 read native degrees 0..6 and 1..6;
        # rank–nullity at internal degree c takes the ranks of d^c and d^{c−1}.
        sign = to_cohomological(1, mf.algebra.grading)
        for part, cx, low in (
            ("algebra", mf.algebra.algebra_complex(), 0),
            ("indecomposables", mf.algebra.indecomposables_complex(), 1),
        ):
            lo, hi = sorted((sign * low, sign * 6))
            yield f"{name}/{part}", FilteredComplex(cx, lambda _: 0, 0), range(lo - 1, hi + 1)
    for name, tower, degrees in (
        ("ss-sullivan", lambda mf: derivation_tower(mf)[1], range(-7, 8)),
        ("aut-relative", lambda mf: derivation_tower(mf)[1], range(-12, 1)),
        ("loop-cellular", lambda mf: ConeComplex(mf.algebra).tower(), range(-8, 7)),
    ):
        yield name, tower(parse_model(WORKLOADS[name].model_text(11))), degrees


def test_tracked_runs_certify_every_barcode_and_rank() -> None:
    for label, fc, degrees in certified_towers():
        ss = SpectralSequence(fc)
        for n in degrees:
            certify_barcode(ss, n)


# A relative Sullivan model over the base a, b, c, with diagonally rescaled
# coefficients; the fiber stages default to the degrees 2, 4, 7 and 11.
RELATIVE = """\
flavor commutative
grading cohomological
gen a : 2 base
gen b : 2 base
gen c : 4 base
gen x : 2
gen u : 4
gen y : 7
gen z : 11
d y = 16/3 * x x x x + 4/3 * a b x x - 2 * c u
d z = 64 * x x x x x x + 27 * u u u - 2 * a a b b c
"""

# The minimal model of CP³ (builtin sullivan:cpn:3): stages 2 and 7.
CP3 = """\
flavor commutative
grading cohomological
gen x : 2
gen y : 7
d y = x^4
"""


def with_stages(text: str, stages: dict[str, int]) -> str:
    for name, stage in stages.items():
        text = re.sub(rf"^gen {name} : \d+$", rf"\g<0> stage {stage}", text, flags=re.M)
    return text


@pytest.mark.parametrize(
    "text, tower, stages, phi, degrees",
    [
        (
            RELATIVE, lambda mf: derivation_tower(mf)[1],
            {"x": 1, "u": 2, "y": 3, "z": 4}, {2: 1, 4: 2, 7: 3, 11: 4}, range(-12, 1),
        ),
        (
            CP3,
            lambda mf: ConeComplex(mf.algebra).tower(),
            {"x": 1, "y": 2}, {0: 0, 3: 2, 8: 3}, range(-8, 9),
        ),
    ],
    ids=["der/relative", "cone/cp3"],
)
def test_an_order_preserving_stage_relabeling_relabels_every_bar(
    text, tower, stages, phi, degrees
) -> None:
    # φ maps the levels of the tower with default stages to those of the
    # relabeled one; each bar (a, b) must become (φ(a), φ(b)), and each
    # kernel level a must become φ(a).
    before = SpectralSequence(tower(parse_model(text)))
    after = SpectralSequence(tower(parse_model(with_stages(text, stages))))
    lengths = set()
    for n in degrees:
        pairs, kernel = before.barcode(n)
        lengths |= {b - a for a, b in pairs}
        assert after.barcode(n) == (
            Counter({(phi[a], phi[b]): k for (a, b), k in pairs.items()}),
            Counter({phi[a]: k for a, k in kernel.items()}),
        ), n
    assert len(lengths) > 1  # bars of several lengths, so the relabeling is seen


def test_the_compressed_relative_tower_has_a_nonzero_d2_that_both_routes_see() -> None:
    # The Der tower of RELATIVE with its fiber stages compressed to 1..4.
    mf = parse_model(with_stages(RELATIVE, {"x": 1, "u": 2, "y": 3, "z": 4}))
    fc = derivation_tower(mf)[1]
    ss, ec = SpectralSequence(fc), ExactCoupleSS(fc)
    assert ss.d_matrix(2, 1, -3).rank() == 1  # d_2 out of (s, n) = (1, −2)
    for r in (1, 2):
        for s in range(0, fc.max_level + 1):
            for n in range(-8, 0):
                assert alignment_check(ss, ec, r, s, n - s) == [], (r, s, n)


def test_every_page_refuses_a_level_lowering_d() -> None:
    # An unfiltered complex has no spectral sequence: E_∞ is refused too.
    ss = SpectralSequence(level_lowering_tower())
    with pytest.raises(ValueError, match="lowers the filtration in degree 0"):
        ss.barcode(0)  # d sends position 0 (level 1) to position 0 (level 0)
    ss.barcode(-1)  # the degrees around it are filtered
    ss.barcode(1)
    for r in range(1, ss.stable_page + 1):
        for s, t in ((1, -1), (0, 1)):
            with pytest.raises(ValueError, match="lowers the filtration in degree 0"):
                ss.dim(r, s, t)
    with pytest.raises(ValueError, match="lowers the filtration"):
        ss.page_dims(ss.stable_page, [0, 1])
    with pytest.raises(ValueError, match="lowers the filtration"):
        ss.total_degree_check([0, 1])
    with pytest.raises(ValueError, match="lowers the filtration"):
        ss.entry(1, 1, 0)  # representatives come from the same elimination


def test_every_validated_builtin_tower_is_filtered() -> None:
    # Base generators sit at stage 0, so the cone of a relative model is filtered too.
    for label, fc, window in builtin_towers():
        assert_filtered(fc, window)
    hopf = ConeComplex(builtin("sullivan:hopf").algebra).tower()
    assert hopf.max_level == 2
    # x, y are base (level 1), z has stage 1 (level 2).
    assert sorted(set(hopf.levels(0))) == [0, 1, 2]


def test_relative_cone_matches_the_exact_couple() -> None:
    fc = ConeComplex(builtin("sullivan:hopf").algebra).tower()
    ss, ec = SpectralSequence(fc), ExactCoupleSS(fc)
    for r in range(1, 4):
        for s in range(0, fc.max_level + 1):
            for n in range(-4, 5):
                assert alignment_check(ss, ec, r, s, n - s) == [], (r, s, n)


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


def assert_z_span(ss: SpectralSequence, window, label="") -> None:
    """``z_span`` against ``reference_z`` for r ≤ stable_page."""
    fc = ss.fc
    for n in window:
        for s in range(0, fc.max_level + 1):
            for r in range(1, ss.stable_page + 1):
                z = reference_z(fc, r, s, n)
                assert spans_equal(ss.z_span(r, s, n), z), (label, r, s, n)


def test_z_span_matches_its_definition() -> None:
    for label, fc, window in builtin_towers():
        assert_z_span(SpectralSequence(fc), window, label)


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


@st.composite
def two_stage_cellular_towers(draw) -> FreeDgAlgebra:
    """Associative homological towers: stage-0 letters are cycles, and each
    stage-1 letter y has d a nonzero random combination of words in them, of
    native degree |y| − 1, so d² = 0."""
    low = [
        Generator(f"a{i}", draw(st.integers(2, 3)), stage=0)
        for i in range(draw(st.integers(1, 2)))
    ]
    low_algebra = FreeDgAlgebra("tensor", "homological", low)
    targets = [m for m in range(2, 7) if low_algebra.basis_in_degree(m)]
    high = [
        Generator(f"c{i}", draw(st.sampled_from(targets)) + 1, stage=1)
        for i in range(draw(st.integers(1, 2)))
    ]
    algebra = FreeDgAlgebra("tensor", "homological", low + high)
    for g in high:
        words = low_algebra.basis_in_degree(g.degree - 1)
        coeffs = draw(
            st.lists(st.integers(-2, 2), min_size=len(words), max_size=len(words)).filter(any)
        )
        algebra.set_differential(g.name, {w: Fraction(c) for w, c in zip(words, coeffs) if c})
    return algebra


RANDOM_WINDOW = range(-8, 3)


def assert_routes_agree(fc: FilteredComplex, window) -> None:
    """The barcode against the exact-couple oracle on pages 1..3 of a random
    tower: dimensions, d_r after the change of basis, pages as homology, Z_r,
    the certificate, E_∞ against H and the collapse report."""
    assert_filtered(fc, window)
    ss, ec = SpectralSequence(fc), ExactCoupleSS(fc)
    for r in range(1, 4):
        for s in range(0, fc.max_level + 1):
            for n in window:
                assert ss.dim(r, s, n - s) == ec.dim(r, s, n - s), (r, s, n)
                assert alignment_check(ss, ec, r, s, n - s) == [], (r, s, n)
    assert_pages_are_homology(ss, window, range(1, 4))
    assert_z_span(ss, window)
    for n in window:
        certify_barcode(ss, n)
    # The reports read pages through page_dims; the oracle reads every cell.
    def oracle_page(r: int) -> dict[tuple[int, int], int]:
        cells = ((s, n - s) for n in window for s in range(fc.max_level + 1))
        return {(s, t): dim for s, t in cells if (dim := ec.dim(r, s, t))}

    checked = ss.total_degree_check(window)
    assert all(ok for _, _, ok in checked.values())
    for n, (total, _, _) in checked.items():
        assert total == sum(ec.dim(ss.stable_page, s, n - s) for s in range(fc.max_level + 1)), n
    page1 = oracle_page(1)
    rows, columns = sorted({t for _, t in page1}), sorted({s for s, _ in page1})
    predicted = 1 if len(columns) <= 1 else 2 if len(rows) <= 1 else None
    report = collapse_report(ss, window)
    assert (report.rows, report.columns, report.predicted_page) == (rows, columns, predicted)
    assert report.verified == (
        predicted is not None and oracle_page(predicted) == oracle_page(ss.stable_page)
    )


@settings(max_examples=12, deadline=None, derandomize=True)
@given(two_stage_towers(), st.sampled_from(["self", "trivial"]))
def test_barcode_matches_exact_couple_on_random_towers(algebra, coefficients) -> None:
    u = COEFFICIENTS[coefficients](algebra)
    assert_routes_agree(DerComplex(algebra, u).tower(), RANDOM_WINDOW)
    assert restriction_sequence(algebra, u, 0, 1, list(RANDOM_WINDOW)) == []


# With trivial coefficients a cellular Der complex lives in the positive
# degrees |v| of its slots (v ↦ 1); words, and so the cost, multiply towards
# negative degrees.
CELL_WINDOW = range(-3, 8)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(two_stage_cellular_towers(), st.sampled_from(["self", "trivial"]))
def test_barcode_matches_exact_couple_on_random_cellular_towers(algebra, coefficients) -> None:
    u = COEFFICIENTS[coefficients](algebra)
    assert_routes_agree(DerComplex(algebra, u).tower(), CELL_WINDOW)
    assert restriction_sequence(algebra, u, 0, 1, list(CELL_WINDOW)) == []


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.one_of(two_stage_towers(), two_stage_cellular_towers()))
def test_barcode_matches_exact_couple_on_random_cones(algebra) -> None:
    # Levels 0 (the algebra), 1 and 2 (the slots of stages 0 and 1).
    assert_routes_agree(ConeComplex(algebra).tower(), CELL_WINDOW)


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
        ss = SpectralSequence(derivation_tower(mf)[1])
        reports[stage] = tower_report(ss, range(-4, 5), range(1, 7))
        collapse_report(ss, range(-4, 5))
        counts[stage] = len(calls)
    assert counts[5] == counts[500]
    assert reports[5].assembly == reports[500].assembly
