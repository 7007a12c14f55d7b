"""Unit tests for free dg algebras: signs, bases, differentials, morphisms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dgtangent.algebra import (
    AlgebraMorphism,
    FreeDgAlgebra,
    Generator,
    el_add,
    el_scale,
    format_element,
    trivial_algebra,
)
from dgtangent.models import builtin, fiber_homotopy_dims, parse_model
from test_bench_outputs import WORKLOADS


def sullivan_s3_like() -> FreeDgAlgebra:
    """Free commutative on x (deg 2), y (deg 3) with dy = x^2."""
    a = FreeDgAlgebra(
        "commutative", "cohomological", [Generator("x", 2), Generator("y", 3)]
    )
    a.set_differential("y", {("x", "x"): Fraction(1)})
    return a


def tensor_acyclic() -> FreeDgAlgebra:
    """Free associative on a (deg 2), b (deg 3), homological, db = a."""
    a = FreeDgAlgebra("tensor", "homological", [Generator("a", 2), Generator("b", 3)])
    a.set_differential("b", {("a",): Fraction(1)})
    return a


def random_homogeneous(
    algebra: FreeDgAlgebra, degree: int, rng: random.Random
) -> dict:
    basis = algebra.basis_in_degree(degree)
    out: dict = {}
    for mono in basis:
        if rng.random() < 0.7:
            c = Fraction(rng.randint(-4, 4))
            if c:
                out[mono] = c
    return out


def test_generator_validation() -> None:
    with pytest.raises(ValueError):
        FreeDgAlgebra("commutative", "cohomological", [Generator("x", 0)])
    with pytest.raises(ValueError):
        FreeDgAlgebra(
            "tensor", "homological", [Generator("x", 2), Generator("x", 3)]
        )


@pytest.mark.parametrize(
    "kind, grading, message",
    [
        ("bogus", "cohomological", "unknown algebra kind 'bogus'"),
        ("commutative", "bogus", "unknown grading 'bogus'"),
        ("tensor", "Homological", "unknown grading 'Homological'"),
    ],
)
def test_an_unknown_kind_or_grading_is_refused_at_construction(kind, grading, message) -> None:
    # Refused before any basis is enumerated, not at the first gen_cdeg.
    with pytest.raises(ValueError, match=message):
        FreeDgAlgebra(kind, grading, [Generator("x", 2)])


def test_commutative_normalization_signs() -> None:
    a = sullivan_s3_like()
    # x even, y odd: yx = xy with no sign; y*y = 0.
    sign, mono = a.normalize_monomial(("y", "x"))
    assert (sign, mono) == (Fraction(1), ("x", "y"))
    sign, mono = a.normalize_monomial(("y", "y"))
    assert mono is None
    b = FreeDgAlgebra(
        "commutative", "cohomological", [Generator("u", 3), Generator("v", 5)]
    )
    # Two odd letters anticommute.
    sign, mono = b.normalize_monomial(("v", "u"))
    assert (sign, mono) == (Fraction(-1), ("u", "v"))


def test_tensor_words_keep_order() -> None:
    a = tensor_acyclic()
    m1 = a.mul(a.gen_element("a"), a.gen_element("b"))
    m2 = a.mul(a.gen_element("b"), a.gen_element("a"))
    assert m1 == {("a", "b"): Fraction(1)}
    assert m2 == {("b", "a"): Fraction(1)}


def test_multiplication_associative_randomized() -> None:
    rng = random.Random(2)
    for algebra in (sullivan_s3_like(), tensor_acyclic()):
        for _ in range(10):
            d1, d2, d3 = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 4)
            x = random_homogeneous(algebra, d1, rng)
            y = random_homogeneous(algebra, d2, rng)
            z = random_homogeneous(algebra, d3, rng)
            assert algebra.mul(algebra.mul(x, y), z) == algebra.mul(
                x, algebra.mul(y, z)
            )


def test_graded_commutativity_randomized() -> None:
    rng = random.Random(3)
    a = FreeDgAlgebra(
        "commutative",
        "cohomological",
        [Generator("x", 2), Generator("u", 3), Generator("v", 5)],
    )
    for _ in range(15):
        d1, d2 = rng.randint(2, 6), rng.randint(2, 6)
        x = random_homogeneous(a, d1, rng)
        y = random_homogeneous(a, d2, rng)
        sign = Fraction(-1) if (d1 % 2) and (d2 % 2) else Fraction(1)
        assert a.mul(x, y) == el_scale(a.mul(y, x), sign)


def test_differential_degree_validation() -> None:
    a = FreeDgAlgebra(
        "commutative", "cohomological", [Generator("x", 2), Generator("y", 3)]
    )
    with pytest.raises(ValueError):
        a.set_differential("y", {("x",): Fraction(1)})  # degree 2, expected 4


def test_differential_leibniz_randomized() -> None:
    rng = random.Random(4)
    for algebra in (sullivan_s3_like(), tensor_acyclic()):
        for _ in range(15):
            d1, d2 = rng.randint(2, 5), rng.randint(2, 5)
            x = random_homogeneous(algebra, d1, rng)
            y = random_homogeneous(algebra, d2, rng)
            lhs = algebra.differential(algebra.mul(x, y))
            sign = Fraction(-1) if d1 % 2 else Fraction(1)
            rhs = el_add(
                algebra.mul(algebra.differential(x), y),
                algebra.mul(x, algebra.differential(y)),
                sign,
            )
            assert lhs == rhs


def test_set_differential_after_differential_takes_effect() -> None:
    # d of each monomial is memoized; setting a differential starts afresh.
    a = sullivan_s3_like()
    xy = {("x", "y"): Fraction(1)}
    assert a.differential(xy) == {("x", "x", "x"): Fraction(1)}
    a.set_differential("y", {("x", "x"): Fraction(-3)})
    assert a.differential(xy) == {("x", "x", "x"): Fraction(-3)}
    a.set_differential("y", {})
    assert a.differential(xy) == {}


def test_d_squared_on_generators() -> None:
    assert sullivan_s3_like().d_squared_failures_on_generators() == []
    assert tensor_acyclic().d_squared_failures_on_generators() == []


def test_basis_enumeration_commutative() -> None:
    a = sullivan_s3_like()
    assert a.basis_in_degree(0) == [()]
    assert a.basis_in_degree(1) == []
    assert a.basis_in_degree(2) == [("x",)]
    assert a.basis_in_degree(3) == [("y",)]
    assert a.basis_in_degree(4) == [("x", "x")]
    assert a.basis_in_degree(5) == [("x", "y")]
    assert a.basis_in_degree(7) == [("x", "x", "y")]


def test_basis_enumeration_tensor() -> None:
    a = tensor_acyclic()
    assert a.basis_in_degree(4) == [("a", "a")]
    assert set(a.basis_in_degree(5)) == {("a", "b"), ("b", "a")}
    assert len(a.basis_in_degree(6)) == 2  # aaa, bb
    assert len(a.basis_in_degree(7)) == 3  # aab, aba, baa


def basis_counts(algebra: FreeDgAlgebra, top: int) -> list[int]:
    """Coefficients of t^0..t^top of the Hilbert series of the free algebra:
    1/(1 − Σ t^{dᵢ}) for words, ∏_odd (1 + t^d) · ∏_even 1/(1 − t^d) for
    graded-commutative monomials."""
    degrees = [algebra.gen_degree(g) for g in algebra.letters]
    counts = [1] + [0] * top
    if algebra.kind == "tensor":
        for n in range(1, top + 1):
            counts[n] = sum(counts[n - d] for d in degrees if d <= n)
        return counts
    for d in degrees:
        if d % 2:  # times (1 + t^d): read the old coefficients, high first
            for n in range(top, d - 1, -1):
                counts[n] += counts[n - d]
        else:  # times 1/(1 − t^d): read the new ones, low first
            for n in range(d, top + 1):
                counts[n] += counts[n - d]
    return counts


BASIS_BUILTINS = [
    "ah:sphere:2", "ah:sphere:5", "ah:wedge:2,3", "ah:wedge:3,4",
    "sullivan:sphere:odd:3", "sullivan:sphere:odd:5", "sullivan:sphere:even:2",
    "sullivan:sphere:even:4", "sullivan:cpn:1", "sullivan:cpn:3", "sullivan:hopf",
    "trivial-fibration:sullivan:cpn:2",
]


def case_algebra(name: str) -> FreeDgAlgebra:
    """A builtin's algebra, or for ``workload:NAME`` that of the workload's seed-11 model."""
    if name.startswith("workload:"):
        return parse_model(WORKLOADS[name.removeprefix("workload:")].model_text(11)).algebra
    return builtin(name).algebra


@pytest.mark.parametrize("name", BASIS_BUILTINS + [f"workload:{w}" for w in WORKLOADS])
def test_basis_sizes_follow_the_generating_function(name) -> None:
    algebra = case_algebra(name)
    gens = algebra.generators.values()
    # The canonical order, from the generators alone: by length, then letter
    # by letter in (degree, name) order.
    letter_key = {g.name: (g.degree, g.name) for g in gens}
    degree = {g.name: g.degree for g in gens}
    position = {letter: i for i, letter in enumerate(algebra.letters)}
    top = 16 if algebra.kind == "tensor" else 24
    for n, count in enumerate(basis_counts(algebra, top)):
        basis = algebra.basis_in_degree(n)
        assert len(basis) == count, (name, n)
        keys = [(len(m), tuple(letter_key[l] for l in m)) for m in basis]
        assert keys == sorted(set(keys)), (name, n)  # in key order, no repeats
        assert all(sum(degree[l] for l in m) == n for m in basis), (name, n)
        if algebra.kind == "commutative":
            for m in basis:
                assert list(m) == sorted(m, key=position.__getitem__), (name, m)
                odd = [l for l in m if degree[l] % 2]
                assert len(odd) == len(set(odd)), (name, m)


def test_one_letter_word_basis_is_deeper_than_the_recursion_limit() -> None:
    a = FreeDgAlgebra("tensor", "homological", [Generator("x", 1)])
    assert a.basis_in_degree(1200) == [("x",) * 1200]


def test_algebra_homology_sullivan_sphere() -> None:
    cx = sullivan_s3_like().algebra_complex()
    dims = [cx.homology(n).dim for n in range(0, 9)]
    assert dims == [1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_algebra_homology_tensor_acyclic() -> None:
    a = tensor_acyclic()
    cx = a.algebra_complex()
    # Homological degree n is internal degree -n.
    dims = [cx.homology(-n).dim for n in range(0, 9)]
    assert dims == [1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_quillen_homology_vanishes_for_acyclic_linear_part() -> None:
    a = tensor_acyclic()
    ind = a.indecomposables_complex()
    assert ind.d_squared_failures([-5, -4, -3, -2]) == []
    assert all(ind.homology(-n).dim == 0 for n in range(1, 6))


def test_quillen_homology_sphere() -> None:
    s = FreeDgAlgebra("tensor", "homological", [Generator("x", 2)])
    ind = s.indecomposables_complex()
    assert ind.homology(-2).dim == 1
    assert ind.homology(-1).dim == 0


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination on dense rows, independent of linalg."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_linear_homology(
    algebra: FreeDgAlgebra, degree: int, exclude: frozenset[str] = frozenset()
) -> int:
    """dim − rank d_out − rank d_in of the linear part of d on the generators
    of one native degree, leaving out ``exclude`` and every term hitting it."""
    step = -1 if algebra.grading == "homological" else 1

    def gens(n: int) -> list[str]:
        return sorted(
            g for g in algebra.generators
            if algebra.gen_degree(g) == n and g not in exclude
        )

    def rank_from(n: int) -> int:
        linear = {g: algebra.linear_part(algebra.diff[g]) for g in gens(n)}
        rows = [
            [linear[g].get(w, Fraction(0)) for w in gens(n + step)] for g in gens(n)
        ]
        return dense_rank(rows)

    return len(gens(degree)) - rank_from(degree) - rank_from(degree - step)


LINEAR_PART_MODEL = """\
flavor associative
grading homological
gen u : 2
gen v : 3
gen p : 3
gen w : 6
gen z : 7
d v = u
d p = 2 * u
d w = v u - u v
d z = w + v^2
"""


@pytest.mark.parametrize(
    "name",
    ["ah:sphere:2", "ah:sphere:3", "ah:wedge:2,2", "ah:wedge:2,3", "linear-part", "acyclic"],
)
def test_indecomposables_match_dense_linear_homology(name) -> None:
    if name == "linear-part":
        algebra = parse_model(LINEAR_PART_MODEL).algebra
    elif name == "acyclic":
        algebra = tensor_acyclic()
    else:
        algebra = builtin(name).algebra
    ind = algebra.indecomposables_complex()
    for n in range(1, 9):
        assert ind.homology(-n).dim == dense_linear_homology(algebra, n), n


@pytest.mark.parametrize(
    "name, expected",
    [("sullivan:hopf", {1: 1}), ("trivial-fibration:sullivan:cpn:2", {2: 1, 5: 1})],
)
def test_indecomposables_exclude_matches_fiber_homotopy(name, expected) -> None:
    mf = builtin(name)
    algebra, base = mf.algebra, mf.algebra.base
    ind = algebra.indecomposables_complex(base)
    dense = {n: dense_linear_homology(algebra, n, base) for n in range(1, 9)}
    assert {n: ind.homology(n).dim for n in range(1, 9)} == dense
    assert fiber_homotopy_dims(mf, 8) == {n: d for n, d in dense.items() if d}
    assert fiber_homotopy_dims(mf, 8) == expected


def test_stage_conditions() -> None:
    a = sullivan_s3_like()
    assert a.stage_condition_failures() == []
    # A self-referential differential violates the tower condition.
    b = FreeDgAlgebra(
        "commutative",
        "cohomological",
        [Generator("x", 2, stage=1), Generator("y", 3, stage=1)],
    )
    b.set_differential("y", {("x", "x"): Fraction(1)})
    assert b.stage_condition_failures() == ["y"]


def test_morphism_name_matching_and_check() -> None:
    a = sullivan_s3_like()
    f = AlgebraMorphism.name_matching(a, a)
    assert f.check() == []
    assert f.apply(a.mul(a.gen_element("x"), a.gen_element("y"))) == {
        ("x", "y"): Fraction(1)
    }
    k = trivial_algebra("cohomological")
    aug = AlgebraMorphism.augmentation(a, k)
    # Augmentation is not a chain map obstruction here (d has no linear part);
    # it kills both sides of the chain condition.
    assert aug.check() == []
    assert aug.apply(a.one()) == {(): Fraction(1)}
    assert aug.apply(a.gen_element("x")) == {}


def test_morphism_detects_non_chain_map() -> None:
    a = tensor_acyclic()
    images = {"a": {}, "b": a.gen_element("b")}
    f = AlgebraMorphism(a, a, images)
    problems = f.check()
    assert any("commute" in p for p in problems)


def test_apply_derivation_twisted_leibniz_randomized() -> None:
    rng = random.Random(5)
    for algebra in (sullivan_s3_like(), tensor_acyclic()):
        ident = AlgebraMorphism.identity(algebra)
        names = sorted(algebra.generators)
        for trial in range(12):
            # Random single-slot derivation of random operator parity.
            slot = names[trial % len(names)]
            val_deg = algebra.gen_degree(slot) + rng.choice([-1, 0, 1, 2])
            try:
                val = random_homogeneous(algebra, val_deg, rng)
            except ValueError:
                continue
            if not val:
                continue
            op_parity = (val_deg - algebra.gen_degree(slot)) % 2
            values = {slot: val}
            d1, d2 = rng.randint(2, 5), rng.randint(2, 5)
            x = random_homogeneous(algebra, d1, rng)
            y = random_homogeneous(algebra, d2, rng)
            lhs = algebra.apply_derivation(
                values, op_parity, algebra.mul(x, y), algebra, ident.images
            )
            fx = algebra.apply_derivation(values, op_parity, x, algebra, ident.images)
            fy = algebra.apply_derivation(values, op_parity, y, algebra, ident.images)
            sign = Fraction(-1) if op_parity and (d1 % 2) else Fraction(1)
            rhs = el_add(algebra.mul(fx, y), algebra.mul(x, fy), sign)
            assert lhs == rhs


def test_apply_derivation_augmentation_twist_kills_decomposables() -> None:
    a = sullivan_s3_like()
    k = trivial_algebra("cohomological")
    aug = AlgebraMorphism.augmentation(a, k)
    values = {"x": k.one()}  # x maps to 1 in the base field
    # On the decomposable x*x the twisted rule gives F(x)u(x) ± u(x)F(x) = 0.
    out = a.apply_derivation(values, 0, {("x", "x"): Fraction(1)}, k, aug.images)
    assert out == {}
    out1 = a.apply_derivation(values, 0, a.gen_element("x"), k, aug.images)
    assert out1 == {(): Fraction(1)}


def test_scalar_term_has_no_occurrences() -> None:
    # d a = 1 in a cellular model: the unit word has no letter to insert at.
    a = tensor_acyclic()
    ident = AlgebraMorphism.identity(a)
    assert a.occurrences({(): Fraction(1)}, a, ident.images) == []
    assert len(a.occurrences({("a",): Fraction(1), (): Fraction(2)}, a, ident.images)) == 1


def test_commutator_signs() -> None:
    a = tensor_acyclic()
    x, y = a.gen_element("a"), a.gen_element("b")
    # |a| even: [a,b] = ab - ba.
    assert a.commutator(x, y) == {("a", "b"): Fraction(1), ("b", "a"): Fraction(-1)}
    # [b,b] = bb + bb = 2 b^2 for odd b.
    assert a.commutator(y, y) == {("b", "b"): Fraction(2)}


def test_format_element() -> None:
    el = {("x", "y"): Fraction(2), (): Fraction(-1, 2)}
    text = format_element(el)
    assert "2*x*y" in text and "-1/2" in text
    assert format_element({}) == "0"
