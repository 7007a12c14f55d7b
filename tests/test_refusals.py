"""Engine refusals that no command reaches: each names what it refuses.

Every case calls one engine entry point on input it must refuse.  The raising
ones give an exception type and its message; the checks that return their
failures give the list they return.
"""

from __future__ import annotations

import pytest

from dgtangent.algebra import AlgebraMorphism, FreeDgAlgebra, Generator
from dgtangent.complexes import CochainComplex
from dgtangent.derivations import DerComplex, cup_product, restriction_sequence
from dgtangent.linalg import ONE, Matrix, Vector
from dgtangent.tower import FilteredComplex, SpectralSequence, relabel
from test_acceptance import trivial_coefficients


def sphere_model() -> FreeDgAlgebra:
    """The minimal model of S²: x of degree 2, y of degree 3, dy = x²."""
    a = FreeDgAlgebra("commutative", "cohomological", [Generator("x", 2), Generator("y", 3)])
    a.set_differential("y", {("x", "x"): ONE})
    return a


def complex_of(dims: dict[int, int], d: dict[int, list[Vector]]) -> CochainComplex:
    """Labels 0..dims[n]−1 in degree n, with d(n) given by its rows (0 if absent)."""

    def dim(n: int) -> int:
        return dims.get(n, 0)

    return CochainComplex(lambda n: range(dim(n)), lambda n: Matrix(dim(n), dim(n + 1), d.get(n)))


def point() -> FilteredComplex:
    """One basis element, in degree 0, at level 0."""
    return FilteredComplex(complex_of({0: 1}, {}), lambda label: 0, 1)


def not_homogeneous() -> list[str]:
    source = FreeDgAlgebra("commutative", "cohomological", [Generator("x", 2)])
    return AlgebraMorphism(source, sphere_model(), {"x": {("x",): ONE, ("x", "x"): ONE}}).check()


def morphism_from_elsewhere() -> DerComplex:
    return DerComplex(sphere_model(), AlgebraMorphism.identity(sphere_model()))


def second_factor_not_a_cocycle() -> dict:
    der = DerComplex(sphere_model())
    # (y -> 1) is a cocycle; ∂(x -> 1) = -2 (y -> x).
    return cup_product(der, {"y": {(): ONE}}, -3, {"x": {(): ONE}}, -2)


def trivial_lie_bracket() -> dict:
    a = sphere_model()
    return DerComplex(a, trivial_coefficients(a)).lie_bracket({}, 0, {}, 0)


CASES = {
    "gen_element": (lambda: sphere_model().gen_element("z"), KeyError, "unknown generator 'z'"),
    "normalize_monomial": (
        lambda: sphere_model().normalize_monomial(("x", "z")),
        KeyError,
        "unknown generator 'z' in monomial",
    ),
    "set_differential": (
        lambda: sphere_model().set_differential("z", {}),
        KeyError,
        "unknown generator 'z'",
    ),
    "morphism-check": (not_homogeneous, None, ["image of 'x' is not homogeneous"]),
    "differential-shape": (
        lambda: CochainComplex(lambda n: [0] if n == 0 else [], lambda n: Matrix(1, 1)).d(0),
        ValueError,
        "differential shape (1, 1) != bases (1, 0) at degree 0",
    ),
    "d-squared": (
        lambda: complex_of({0: 1, 1: 1, 2: 1}, {0: [{0: ONE}], 1: [{0: ONE}]})
        .d_squared_failures([-1, 0, 1]),
        None,
        [0],
    ),
    "der-source": (
        morphism_from_elsewhere,
        ValueError,
        "coefficient morphism must start at the algebra",
    ),
    "der-unknown-vanishing": (
        lambda: DerComplex(sphere_model(), vanishing={"z"}),
        ValueError,
        "vanishing set names unknown generators ['z']",
    ),
    "der-vanishing-not-closed": (
        lambda: DerComplex(sphere_model(), vanishing={"y"}),
        ValueError,
        "vanishing set is not closed under d (offenders: ['y'])",
    ),
    "lie-bracket": (
        trivial_lie_bracket,
        ValueError,
        "the Lie bracket needs coefficients in the algebra itself",
    ),
    "cup-product": (
        second_factor_not_a_cocycle,
        ValueError,
        "cup product: second factor is not a cocycle",
    ),
    "restriction-stages": (
        lambda: restriction_sequence(
            sphere_model(), AlgebraMorphism.identity(sphere_model()), 3, 2, [0]
        ),
        ValueError,
        "stage_low must be <= stage_high",
    ),
    "matrix-rows": (lambda: Matrix(2, 1, [{}]), ValueError, "row count mismatch"),
    "matrix-compose": (
        lambda: Matrix(1, 2).compose(Matrix(1, 1)),
        ValueError,
        "shape mismatch in compose",
    ),
    "levels": (
        lambda: FilteredComplex(complex_of({0: 1}, {}), lambda label: 2, 1).levels(0),
        ValueError,
        "filtration level 2 out of range",
    ),
    "page-dim": (
        lambda: SpectralSequence(point()).dim(0, 0, 0),
        ValueError,
        "pages are defined for r >= 1",
    ),
    "page-entry": (
        lambda: SpectralSequence(point()).entry(0, 0, 0),
        ValueError,
        "pages are defined for r >= 1",
    ),
    "relabel": (
        lambda: relabel({(0, 0): 1}, "sideways"),
        ValueError,
        "unknown bidegree convention 'sideways'",
    ),
}


@pytest.mark.parametrize("call, error, expected", CASES.values(), ids=CASES)
def test_engine_refusal(call, error, expected):
    if error is None:
        assert call() == expected
        return
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (expected,)
