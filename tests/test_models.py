"""Unit tests for model parsing, builtins, validation, and the reports."""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dgtangent.algebra import FreeDgAlgebra, Generator
from dgtangent.derivations import DerComplex
from dgtangent.models import (
    ModelSyntaxError,
    ValidationReport,
    algebra_homology_dims,
    aut_homotopy,
    bracket_table,
    builtin,
    derivation_tower,
    diagonal_problems,
    fiber_homotopy_dims,
    loop_homology,
    model_family,
    parse_model,
    print_model,
    tower_report,
    validate_model,
)
from dgtangent.tower import SpectralSequence, collapse_report, relabel
from test_acceptance import convolution_rule_failures, convolution_values, trivial_coefficients

CELLCOALG_TEXT = """\
name cellcoalg
flavor associative
grading homological
gen u : 2
gen v : 3
gen w : 6
gen z : 7
d u = 0
d v = u
d w = v u - u v
d z = w + v^2
diag w = u ⊗ v + v ⊗ u
diag z = v ⊗ v
"""


def assembly_ok(tower) -> bool:
    return all(ok for (_, _, ok) in tower.assembly.values())


def test_parse_basic_sullivan_model() -> None:
    mf = parse_model(
        "flavor commutative\ngrading cohomological\ngen x : 2\ngen y : 3\nd y = x^2\n"
    )
    algebra = mf.algebra
    assert algebra.kind == "commutative"
    assert algebra.gen_degree("x") == 2
    assert algebra.diff["y"] == {("x", "x"): Fraction(1)}
    assert algebra.diff["x"] == {}


def test_parse_expression_terms_and_rationals() -> None:
    mf = parse_model(
        "flavor associative\ngrading homological\n"
        "gen a : 2\ngen b : 3\ngen c : 6\n"
        "d c = 1/2 * a b - 2 * b a\n"
    )
    assert mf.algebra.diff["c"] == {
        ("a", "b"): Fraction(1, 2),
        ("b", "a"): Fraction(-2),
    }


def test_parse_comments_stages_and_base() -> None:
    mf = parse_model(
        "# a relative model\n"
        "flavor commutative\n"
        "grading cohomological\n"
        "gen x : 2 base   # base line\n"
        "gen z : 3 stage 5\n"
    )
    assert mf.algebra.base == frozenset({"x"})
    assert mf.algebra.generators["z"].stage == 5


def test_parse_errors_carry_line_numbers() -> None:
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("flavor commutative\ngrading cohomological\ngen x : 2\nd x = q\n")
    assert "line 4" in str(err.value)
    with pytest.raises(ModelSyntaxError, match="unknown directive"):
        parse_model("flavor commutative\ngrading cohomological\nfrobnicate\n")
    with pytest.raises(ModelSyntaxError, match="flavor"):
        parse_model("grading cohomological\n")


def test_parse_rejects_degree_mismatch() -> None:
    # d must raise the degree by exactly one (cohomological).
    with pytest.raises(ModelSyntaxError, match="degree"):
        parse_model(
            "flavor commutative\ngrading cohomological\ngen x : 2\ngen y : 3\nd y = x\n"
        )


def test_parse_rejects_odd_square_in_commutative_flavor() -> None:
    with pytest.raises(ModelSyntaxError, match="odd"):
        parse_model(
            "flavor commutative\ngrading cohomological\ngen z : 3\nd z = z^2\n"
        )


def test_parse_accepts_ascii_tensor_marker() -> None:
    ascii_mf = parse_model(CELLCOALG_TEXT.replace("⊗", "(x)"))
    assert ascii_mf.diagonals == parse_model(CELLCOALG_TEXT).diagonals
    assert print_model(ascii_mf) == print_model(parse_model(CELLCOALG_TEXT))


def test_print_parse_roundtrip_on_builtins() -> None:
    names = [
        "ah:sphere:2",
        "ah:sphere:3",
        "ah:wedge:2,2",
        "ah:wedge:3,4",
        "sullivan:sphere:odd:3",
        "sullivan:sphere:even:2",
        "sullivan:cpn:2",
        "sullivan:hopf",
        "trivial-fibration:sullivan:sphere:even:2",
    ]
    for name in names:
        mf = builtin(name)
        text = print_model(mf)
        again = parse_model(text)
        assert again.algebra.diff == mf.algebra.diff, name
        assert again.algebra.generators == mf.algebra.generators, name
        assert print_model(again) == text, name


def test_print_parse_roundtrip_with_diagonals() -> None:
    mf = parse_model(CELLCOALG_TEXT)
    again = parse_model(print_model(mf))
    assert again.diagonals == mf.diagonals
    assert print_model(again) == print_model(mf)


def test_print_parse_roundtrip_with_stages() -> None:
    # No builtin declares a stage: stage and base print in that order.
    mf = parse_model(
        "flavor commutative\ngrading cohomological\ngen x : 3 stage 1\ngen y : 5 base stage 0\n"
    )
    text = print_model(mf)
    assert text == (
        "flavor commutative\ngrading cohomological\n"
        "gen x : 3 stage 1\ngen y : 5 stage 0 base\nd x = 0\nd y = 0\n"
    )
    assert print_model(parse_model(text)) == text


def test_builtin_shapes() -> None:
    sphere = builtin("ah:sphere:3")
    assert [(g.name, g.degree) for g in sphere.algebra.generators.values()] == [("x", 2)]
    assert sphere.algebra.diff["x"] == {}
    wedge = builtin("ah:wedge:2,2")
    assert [(g.name, g.degree) for g in wedge.algebra.generators.values()] == [
        ("a", 1),
        ("b", 1),
    ]
    s2 = builtin("sullivan:sphere:even:2")
    assert [(g.name, g.degree) for g in s2.algebra.generators.values()] == [
        ("x", 2),
        ("y", 3),
    ]
    assert s2.algebra.diff["y"] == {("x", "x"): Fraction(1)}
    cp2 = builtin("sullivan:cpn:2")
    assert cp2.algebra.diff["y"] == {("x", "x", "x"): Fraction(1)}
    hopf = builtin("sullivan:hopf")
    assert hopf.algebra.base == frozenset({"x", "y"})
    assert hopf.algebra.diff["z"] == {("x",): Fraction(1)}
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin("ah:torus:2")
    with pytest.raises(ValueError, match="odd"):
        builtin("sullivan:sphere:odd:4")


def test_validate_builtins_pass() -> None:
    for name in [
        "ah:sphere:2",
        "ah:sphere:3",
        "ah:wedge:2,3",
        "sullivan:sphere:odd:3",
        "sullivan:sphere:even:2",
        "sullivan:cpn:3",
        "sullivan:hopf",
    ]:
        report = validate_model(builtin(name))
        assert report.ok, (name, [c for c in report.checks if not c.ok])


def test_validate_flags_broken_models() -> None:
    # A degree-inhomogeneous differential is refused when it is set, so no
    # model that exists has one.
    mf = builtin("sullivan:sphere:even:2")
    with pytest.raises(ValueError, match="not homogeneous"):
        mf.algebra.set_differential("y", {("x", "x"): Fraction(1), ("y",): Fraction(1)})

    # d squared nonzero.
    bad_square = parse_model(
        "flavor associative\ngrading homological\ngen a : 1\ngen b : 2\ngen c : 3\n"
        "d b = a\nd c = b\n"
    )
    report = validate_model(bad_square)
    assert any(c.name.startswith("d squared") and not c.ok for c in report.checks)

    # Stage-violating differential: stage-2 generator hits stage-3 letters.
    inverted = parse_model(
        "flavor commutative\ngrading cohomological\n"
        "gen x : 2 stage 3\ngen y : 3 stage 2\nd y = x^2\n"
    )
    report = validate_model(inverted)
    assert any(c.name.startswith("stage condition") and not c.ok for c in report.checks)


def test_validate_checks_base_closure() -> None:
    leaky = parse_model(
        "flavor commutative\ngrading cohomological\n"
        "gen x : 2 base\ngen z : 1\ngen w : 2 base\nd w = x z\n"
    )
    report = validate_model(leaky)
    assert any(
        c.name == "base subalgebra closed under d" and not c.ok for c in report.checks
    )


def test_validate_diagonal_coderivation() -> None:
    good = parse_model(CELLCOALG_TEXT)
    report = validate_model(good)
    assert report.ok, [c for c in report.checks if not c.ok]

    broken = CELLCOALG_TEXT.replace("diag z = v ⊗ v", "diag z = 2 * v ⊗ v")
    report = validate_model(parse_model(broken))
    assert any(
        c.name == "diagonal is a coderivation on cells" and not c.ok
        for c in report.checks
    )


def test_model_family_detection() -> None:
    assert model_family(builtin("ah:sphere:2")) == "cellular"
    assert model_family(builtin("sullivan:cpn:1")) == "sullivan"
    mixed = parse_model("flavor associative\ngrading cohomological\ngen x : 1\n")
    assert model_family(mixed) == "generic"


def test_convolution_primitive_diagonal_vanishes() -> None:
    mf = builtin("ah:sphere:3")
    algebra = mf.algebra
    coalg = {}
    f = {"x": {(): Fraction(1)}}
    assert convolution_values(algebra, coalg, f, 2, f, 2) == {}


def test_convolution_single_pair_lands_on_top_cell() -> None:
    mf = parse_model(
        "flavor associative\ngrading homological\n"
        "gen u : 1\ngen v : 1\ngen w : 3\n"
        "diag w = u ⊗ v\n"
    )
    algebra = mf.algebra
    coalg = mf.diagonals
    f = {"u": {("u",): Fraction(1)}}
    g = {"v": {("v",): Fraction(1)}}
    out = convolution_values(algebra, coalg, f, 0, g, 0)
    assert list(out) == ["w"]
    assert out["w"] in ({("u", "v"): Fraction(1)}, {("u", "v"): Fraction(-1)})


def test_convolution_hand_checked_example() -> None:
    # f = (u -> 1) at degree 2, g = (v -> 1) at degree 3 on the four-cell
    # model: f*g = (w -> 1) and the first-page Leibniz rule gives
    # d(f*g) = -(z -> 1) matching df*g with f*dg = 0.
    mf = parse_model(CELLCOALG_TEXT)
    algebra = mf.algebra
    coalg = mf.diagonals
    der = DerComplex(algebra, trivial_coefficients(algebra))
    one = Fraction(1)
    f = {"u": {(): one}}
    g = {"v": {(): one}}
    product = convolution_values(algebra, coalg, f, 2, g, 3)
    assert product == {"w": {(): one}}
    assert der.differential_values(product, 6) == {"z": {(): -one}}
    df = der.differential_values(f, 2)
    assert df == {"v": {(): -one}}
    assert convolution_values(algebra, coalg, df, 3, g, 3) == {"z": {(): -one}}
    assert der.differential_values(g, 3) == {}


def test_multiplicativity_report() -> None:
    mf = parse_model(CELLCOALG_TEXT)
    assert convolution_rule_failures(mf.algebra, mf.diagonals, window=8) == (16, [])

    wedge = builtin("ah:wedge:2,3")
    assert convolution_rule_failures(wedge.algebra, {}, window=8) == (4, [])


def test_multiplicativity_check_fails_without_a_diagonal() -> None:
    # Without diag z, the product of u and v has no term to match ∂ of z.
    mf = parse_model(CELLCOALG_TEXT)
    diagonals = {g: diag for g, diag in mf.diagonals.items() if g != "z"}
    assert convolution_rule_failures(mf.algebra, diagonals, window=8) == (
        16, ["(u -> 1) * (v -> 1)", "(v -> 1) * (u -> 1)"]
    )
    assert diagonal_problems(mf.algebra, diagonals) == [
        "diag z: not a coderivation against the cellular differential"
    ]


@st.composite
def cellular_models_with_diagonals(draw):
    """Associative homological models with random reduced diagonals.

    Stage-0 letters a are cycles; each stage-1 letter c has d(c) = ±a plus
    words in the a, so d² = 0 and every c has a linear part; stage-2 letters
    t are cycles whose degree fits a pair of lower letters.  Each letter has
    a diagonal of up to three terms ±x ⊗ y, at least one on each t, over the
    pairs of lower letters whose cell degrees add up to its own.
    """
    low = [
        Generator(f"a{i}", draw(st.integers(1, 3)), stage=0)
        for i in range(draw(st.integers(1, 2)))
    ]
    targets = [draw(st.sampled_from(low)) for _ in range(draw(st.integers(1, 2)))]
    high = [Generator(f"c{i}", a.degree + 1, stage=1) for i, a in enumerate(targets)]
    low_algebra = FreeDgAlgebra("tensor", "homological", low)
    below = low + high
    top = []
    for i in range(draw(st.integers(1, 2))):
        x, y = draw(st.sampled_from(below)), draw(st.sampled_from(below))
        top.append(Generator(f"t{i}", x.degree + y.degree + 1, stage=2))
    algebra = FreeDgAlgebra("tensor", "homological", below + top)
    sign = st.sampled_from([1, -1])
    for c, a in zip(high, targets):
        words = [w for w in low_algebra.basis_in_degree(c.degree - 1) if len(w) > 1]
        extra = draw(st.lists(st.sampled_from(words), max_size=2, unique=True)) if words else []
        d = {(a.name,): Fraction(draw(sign))}
        algebra.set_differential(c.name, d | {w: Fraction(draw(sign)) for w in extra})
    diagonals = {}
    for v in below + top:
        pairs = [
            (x.name, y.name)
            for x, y in itertools.product(below, repeat=2)
            if x.degree + y.degree + 1 == v.degree
        ]
        if pairs:
            least = 1 if v in top else 0
            terms = draw(st.lists(st.sampled_from(pairs), min_size=least, max_size=3, unique=True))
            diagonals[v.name] = {pair: Fraction(draw(sign)) for pair in terms}
    return algebra, diagonals


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cellular_models_with_diagonals())
def test_convolution_rule_fails_exactly_where_the_diagonal_is_no_coderivation(model) -> None:
    # With the window at the top degree the rule runs over every pair of
    # generators; diagonal_problems states its transpose.
    algebra, diagonals = model
    window = max(map(algebra.gen_degree, algebra.generators))
    _, failures = convolution_rule_failures(algebra, diagonals, window)
    assert bool(failures) == bool(diagonal_problems(algebra, diagonals))


def test_loop_homology_odd_sphere_betti() -> None:
    report = loop_homology(builtin("ah:sphere:3"), window=8, pages=(1, 2))
    assert [report.betti[m] for m in range(0, 9)] == [1, 0, 1, 1, 1, 1, 1, 1, 1]
    assert assembly_ok(report.tower)
    assert report.e2_engine == report.e2_expected
    # Column s = 0 is the loop-space homology row, column s = 3 the cell row.
    assert report.e2_engine[(0, 0)] == 1
    assert report.e2_engine[(3, 0)] == 1
    assert report.e2_engine[(3, -4)] == 1


def test_loop_homology_even_sphere_matches_direct_cone() -> None:
    report = loop_homology(builtin("ah:sphere:2"), window=8, pages=(2, 3))
    assert assembly_ok(report.tower)  # engine assembly equals direct cone homology everywhere
    assert report.e2_engine == report.e2_expected
    # Frozen from the hand computation: classes x^(2j) survive in the algebra
    # column and (x -> x^b) for b odd or zero in the derivation column.
    assert [report.betti[m] for m in range(0, 9)] == [1, 0, 2, 1, 1, 1, 1, 1, 1]
    # A differential really moves on page 2 for the even sphere.
    assert report.tower.pages_internal[2] != report.tower.pages_internal[3]


def test_loop_homology_wedge_e2_shape() -> None:
    report = loop_homology(builtin("ah:wedge:2,2"), window=4)
    assert report.e2_engine == report.e2_expected
    assert report.e2_expected[(2, 0)] == 2  # two 2-cells
    assert report.betti[0] == 1
    assert assembly_ok(report.tower)


def test_loop_homology_rejects_sullivan_models() -> None:
    with pytest.raises(ValueError, match="homological"):
        loop_homology(builtin("sullivan:sphere:even:2"))


def test_aut_homotopy_even_sphere() -> None:
    report = aut_homotopy(
        builtin("trivial-fibration:sullivan:sphere:even:2"), window=8, pages=(1, 2)
    )
    assert [report.dims[n] for n in range(1, 9)] == [0, 0, 1, 0, 0, 0, 0, 0]
    assert report.degree_zero_dim == 1
    assert assembly_ok(report.tower)
    # hom-shaped table: fiber classes in degrees 2 and 3 against H^0 and H^2.
    assert report.hom_shaped == {(2, 0): 1, (2, 2): 1, (3, 0): 1, (3, 2): 1}
    # The first page already matches the hom-shaped table in (σ, τ) labels,
    # and its differential kills the (2, 0)/(3, 0) pair.
    assert relabel(report.tower.pages_internal[1], "relabeled") == report.hom_shaped
    assert relabel(report.tower.pages_internal[2], "relabeled") == {(2, 2): 1, (3, 0): 1}


def test_aut_homotopy_base_equals_total_is_zero() -> None:
    mf = parse_model(
        "flavor commutative\ngrading cohomological\n"
        "gen x : 2 base\ngen y : 3 base\nd y = x^2\n"
    )
    report = aut_homotopy(mf, window=6)
    assert all(d == 0 for d in report.dims.values())
    assert report.hom_shaped == {}


def test_aut_homotopy_hopf_fibration() -> None:
    report = aut_homotopy(builtin("sullivan:hopf"), window=6)
    assert assembly_ok(report.tower)
    # Fiber is a circle: one fiber class in degree 1.
    assert fiber_homotopy_dims(builtin("sullivan:hopf"), 6) == {1: 1}
    # Derivations fixing the base: slots z -> scalar, z -> x, z -> y, z -> xz...
    # Degree table equals the direct cohomology of the relative complex.
    der = DerComplex(
        builtin("sullivan:hopf").algebra, vanishing=frozenset({"x", "y"})
    )
    expected = {n: der.complex().homology(-n).dim for n in range(1, 7)}
    assert report.dims == expected


def test_aut_homotopy_stage_refinement_invariance() -> None:
    coarse = parse_model(
        "flavor commutative\ngrading cohomological\n"
        "gen x : 2\ngen y : 3\nd y = x^2\n"
    )
    refined = parse_model(
        "flavor commutative\ngrading cohomological\n"
        "gen x : 2 stage 1\ngen y : 3 stage 2\nd y = x^2\n"
    )
    a = aut_homotopy(coarse, window=8)
    b = aut_homotopy(refined, window=8)
    assert a.dims == b.dims
    assert assembly_ok(a.tower) and assembly_ok(b.tower)


# Sullivan builtins with the dimension of their top cohomology.
PRODUCT_FACTORS = {
    "sullivan:sphere:odd:3": 3,
    "sullivan:sphere:odd:5": 5,
    "sullivan:sphere:even:2": 2,
    "sullivan:sphere:even:4": 4,
    "sullivan:cpn:2": 4,
    "sullivan:cpn:3": 6,
}

PRODUCT_MODEL = Path(__file__).resolve().parent / "models" / "product-s2-s3.model"


def product_model_text(base: str, fiber: str) -> str:
    """ΛB ⊗ ΛF of two Sullivan builtins: the model of the product fibration
    B × F → B.  B's letters get the prefix ``b`` and the ``base`` flag, F's
    the prefix ``f``; each factor keeps its differential."""
    lines = [f"name product:{base},{fiber}", "flavor commutative", "grading cohomological"]
    gens, diffs = [], []
    for prefix, name, flag in (("b", base, " base"), ("f", fiber, "")):
        mf = builtin(name)
        letter = re.compile(rf"\b({'|'.join(mf.algebra.generators)})\b")
        for line in print_model(mf).splitlines():
            if line.startswith("gen "):
                gens.append(letter.sub(rf"{prefix}\1", line) + flag)
            elif line.startswith("d "):
                diffs.append(letter.sub(rf"{prefix}\1", line))
    return "\n".join(lines + gens + diffs) + "\n"


def test_aut_of_a_product_fibration_is_maps_into_aut_of_the_fiber() -> None:
    # aut₁(B × F → B) is the identity component of map(B, aut₁F), and aut₁F
    # is rationally a product of Eilenberg–MacLane spaces, so
    # dim π_n = Σ_k dim H^k(B) · dim π_{n+k}(aut₁F) for n ≥ 1.
    window = 10
    for base, fiber in itertools.product(PRODUCT_FACTORS, repeat=2):
        top = PRODUCT_FACTORS[base]
        h_base = algebra_homology_dims(builtin(base).algebra, range(0, top + 1))
        pi_fiber = aut_homotopy(builtin(fiber), window=window + top).dims
        expected = {
            n: sum(h_base[k] * pi_fiber[n + k] for k in h_base) for n in range(1, window + 1)
        }
        mf = parse_model(product_model_text(base, fiber))
        assert validate_model(mf).ok, (base, fiber)
        report = aut_homotopy(mf, window=window)
        assert report.dims == expected, (base, fiber)
        assert assembly_ok(report.tower), (base, fiber)


def test_golden_product_model_is_the_product_of_its_factors() -> None:
    text = product_model_text("sullivan:sphere:even:2", "sullivan:sphere:odd:3")
    assert PRODUCT_MODEL.read_text(encoding="utf-8") == text


def test_aut_bracket_table_even_sphere() -> None:
    report = aut_homotopy(builtin("sullivan:sphere:even:2"), window=8)
    table = bracket_table(report.der, 8)
    entries = {(e.degree_a, e.index_a, e.degree_b, e.index_b): e for e in table}
    # Only class: degree 3 (one dimension); [e, e] lands in degree 6 = 0.
    assert (3, 0, 3, 0) in entries
    assert all(c == "0" for c in entries[(3, 0, 3, 0)].coords)


def test_tower_report_collapse_for_truncated_coefficients() -> None:
    mf = builtin("ah:sphere:3")
    _, fc = derivation_tower(mf, trivial_coefficients(mf.algebra))
    ss = SpectralSequence(fc)
    report = tower_report(ss, range(-6, 7), (1, 2))
    collapse = collapse_report(ss, range(-6, 7))
    assert assembly_ok(report)
    assert collapse is not None
    assert collapse.predicted_page in (1, 2)
    assert collapse.verified
