"""Unit tests for derivation complexes, brackets, braces and restriction sequences."""

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
    to_cohomological,
)
from dgtangent.derivations import (
    ConeComplex,
    DerComplex,
    brace,
    cup_product,
    restriction_sequence,
    subalgebra_below_stage,
)
from dgtangent.linalg import ONE
from dgtangent.models import builtin
from test_acceptance import BUILTINS, COEFFICIENTS, trivial_coefficients
from test_algebra import BASIS_BUILTINS, basis_counts, case_algebra
from test_bench_outputs import WORKLOADS


def sullivan_s3() -> FreeDgAlgebra:
    a = FreeDgAlgebra(
        "commutative", "cohomological", [Generator("x", 2), Generator("y", 3)]
    )
    a.set_differential("y", {("x", "x"): Fraction(1)})
    return a


def tensor_sphere() -> FreeDgAlgebra:
    return FreeDgAlgebra("tensor", "homological", [Generator("x", 2)])


def tensor_acyclic() -> FreeDgAlgebra:
    a = FreeDgAlgebra("tensor", "homological", [Generator("a", 2), Generator("b", 3)])
    a.set_differential("b", {("a",): Fraction(1)})
    return a


def tensor_four_stage() -> FreeDgAlgebra:
    """T(a,b,c,e) with db = a, dc = ab - ba, de = bb - c (mixed word lengths)."""
    a = FreeDgAlgebra(
        "tensor",
        "homological",
        [Generator("a", 2), Generator("b", 3), Generator("c", 6), Generator("e", 7)],
    )
    a.set_differential("b", {("a",): Fraction(1)})
    a.set_differential(
        "c", {("a", "b"): Fraction(1), ("b", "a"): Fraction(-1)}
    )
    a.set_differential("e", {("b", "b"): Fraction(1), ("c",): Fraction(-1)})
    assert a.d_squared_failures_on_generators() == []
    return a


def test_der_basis_dimensions() -> None:
    der = DerComplex(sullivan_s3())
    # Degree -2: only (x -> 1).
    assert der.basis(-2) == [("x", ())]
    # Degree 0: (x -> x) and (y -> y).
    assert der.basis(0) == [("x", ("x",)), ("y", ("y",))]
    # Degree -3: (y -> 1).
    assert der.basis(-3) == [("y", ())]
    # Degree -1: (y -> x).
    assert der.basis(-1) == [("y", ("x",))]


def test_der_differential_oracle() -> None:
    # ∂(x -> 1) = -2 (y -> x) with identity coefficients.
    der = DerComplex(sullivan_s3())
    image = der.differential_values({"x": {(): Fraction(1)}}, -2)
    assert image == {"y": {("x",): Fraction(-2)}}


def test_der_cohomology_sullivan_s3() -> None:
    der = DerComplex(sullivan_s3())
    cx = der.complex()
    dims = {n: cx.homology_dim(n) for n in range(-8, 1)}
    expected = {-8: 0, -7: 0, -6: 0, -5: 0, -4: 0, -3: 1, -2: 0, -1: 0, 0: 1}
    assert dims == expected


def test_der_euler_class_representative() -> None:
    der = DerComplex(sullivan_s3())
    euler = {"x": {("x",): Fraction(1)}, "y": {("y",): Fraction(2)}}
    assert der.is_cocycle(euler, 0)
    vec = der.vector_of_values(euler, 0)
    h0 = der.complex().homology(0)
    assert h0.dim == 1
    assert h0.reduce(vec)
    # (x -> x) alone is not a cocycle.
    assert not der.is_cocycle({"x": {("x",): Fraction(1)}}, 0)


def test_trivial_coefficients_kill_decomposables() -> None:
    a = sullivan_s3()
    der = DerComplex(a, trivial_coefficients(a))
    # d(y) = x^2 is decomposable, so the twisted differential vanishes.
    assert der.differential_values({"x": {(): Fraction(1)}}, -2) == {}
    cx = der.complex()
    dims = {n: cx.homology_dim(n) for n in (-3, -2)}
    assert dims == {-3: 1, -2: 1}


def test_trivial_coefficients_linear_part_only() -> None:
    a = tensor_acyclic()
    der = DerComplex(a, trivial_coefficients(a))
    # Homological generators have cdeg -|v|, so the slot (v -> 1) sits in
    # internal degree +|v|: (a -> 1) at 2 and (b -> 1) at 3.
    assert der.basis(2) == [("a", ())]
    assert der.basis(3) == [("b", ())]
    image = der.differential_values({"a": {(): Fraction(1)}}, 2)
    assert image == {"b": {(): Fraction(-1)}}
    cx = der.complex()
    dims = {n: cx.homology_dim(n) for n in (2, 3)}
    assert dims == {2: 0, 3: 0}


def test_lie_bracket_antisymmetry_and_jacobi() -> None:
    rng = random.Random(11)
    a = sullivan_s3()
    der = DerComplex(a)

    def random_values(p: int) -> dict:
        out: dict = {}
        for v, mono in der.basis(p):
            if rng.random() < 0.8:
                c = Fraction(rng.randint(-3, 3))
                if c:
                    out.setdefault(v, {})
                    out[v][mono] = c
        return {v: el for v, el in out.items() if el}

    for _ in range(8):
        p, q, r = rng.choice([-3, -2, -1, 0]), rng.choice([-3, -2, 0]), rng.choice([-2, 0])
        f, g, h = random_values(p), random_values(q), random_values(r)
        fg = der.lie_bracket(f, p, g, q)
        gf = der.lie_bracket(g, q, f, p)
        sign = Fraction(-1) if (p % 2) and (q % 2) else Fraction(1)
        # [f,g] = -(-1)^{pq} [g,f]
        for v in set(fg) | set(gf):
            assert fg.get(v, {}) == el_scale(gf.get(v, {}), -sign)
        # Graded Leibniz form of Jacobi: [f,[g,h]] = [[f,g],h] + (-1)^{pq}[g,[f,h]].
        lhs = der.lie_bracket(f, p, der.lie_bracket(g, q, h, r), q + r)
        rhs1 = der.lie_bracket(der.lie_bracket(f, p, g, q), p + q, h, r)
        rhs2 = der.lie_bracket(g, q, der.lie_bracket(f, p, h, r), p + r)
        for v in set(lhs) | set(rhs1) | set(rhs2):
            combined = el_add(rhs1.get(v, {}), rhs2.get(v, {}), sign)
            assert lhs.get(v, {}) == combined


def test_bracket_with_differential_slot() -> None:
    # ∂F = [d, F] would need d itself as a derivation; instead check that
    # ∂ is a derivation of the bracket: ∂[f,g] = [∂f,g] + (-1)^p [f,∂g].
    a = sullivan_s3()
    der = DerComplex(a)
    f = {"x": {(): Fraction(1)}}  # degree -2
    g = {"x": {("x",): Fraction(1)}, "y": {("y",): Fraction(3)}}  # degree 0
    p, q = -2, 0
    lhs = der.differential_values(der.lie_bracket(f, p, g, q), p + q)
    rhs = el_scale({}, Fraction(0))
    t1 = der.lie_bracket(der.differential_values(f, p), p + 1, g, q)
    t2 = der.lie_bracket(f, p, der.differential_values(g, q), q + 1)
    for v in set(lhs) | set(t1) | set(t2):
        combined = el_add(t1.get(v, {}), t2.get(v, {}), Fraction(1))
        assert lhs.get(v, {}) == combined


def test_cup_product_hopf_square() -> None:
    # With base-field coefficients on the S^3 model, (x -> 1) cups with
    # itself to the generator (y -> 1): the cup square is nonzero.
    a = sullivan_s3()
    der = DerComplex(a, trivial_coefficients(a))
    f = {"x": {(): Fraction(1)}}
    square = cup_product(der, f, -2, f, -2)
    assert square == {"y": {(): Fraction(1)}}


def test_cup_product_refuses_non_cocycle() -> None:
    a = tensor_acyclic()
    der = DerComplex(a, trivial_coefficients(a))
    f = {"a": {(): Fraction(1)}}  # ∂f = -(b -> 1) ≠ 0
    with pytest.raises(ValueError):
        cup_product(der, f, 2, f, 2)


def test_brace_chain_leibniz() -> None:
    # ∂{d;f,g} = (-1)^q {d;∂f,g} + {d;f,∂g} on a model whose differential
    # has interacting linear and quadratic parts.  The brace raises degree
    # by p + q + 1.
    a = tensor_four_stage()
    der = DerComplex(a, trivial_coefficients(a))
    cases = [
        ({"a": {(): Fraction(1)}}, 2, {"a": {(): Fraction(1)}}, 2),
        ({"a": {(): Fraction(1)}}, 2, {"b": {(): Fraction(1)}}, 3),
        ({"b": {(): Fraction(1)}}, 3, {"a": {(): Fraction(1)}}, 2),
        ({"b": {(): Fraction(2)}}, 3, {"b": {(): Fraction(1)}}, 3),
        ({"a": {(): Fraction(3)}}, 2, {"c": {(): Fraction(1)}}, 6),
    ]
    nontrivial = 0
    for f, p, g, q in cases:
        lhs = der.differential_values(brace(der, f, p, g, q), p + q + 1)
        t1 = brace(der, der.differential_values(f, p), p + 1, g, q)
        t2 = brace(der, f, p, der.differential_values(g, q), q + 1)
        sign = Fraction(-1) if q % 2 else Fraction(1)
        if lhs or t1 or t2:
            nontrivial += 1
        for v in set(lhs) | set(t1) | set(t2):
            assert lhs.get(v, {}) == el_add(
                el_scale(t1.get(v, {}), sign), t2.get(v, {}), Fraction(1)
            )
    assert nontrivial >= 2  # the identity is exercised with nonzero terms


def test_cup_of_boundary_is_boundary() -> None:
    a = tensor_four_stage()
    der = DerComplex(a, trivial_coefficients(a))
    h = {"a": {(): Fraction(1)}}  # degree 2, ∂h = -(b -> 1)
    bdy = der.differential_values(h, 2)
    g = {"b": {(): Fraction(1)}}  # degree 3 cocycle? check first
    if der.is_cocycle(g, 3):
        prod = brace(der, bdy, 3, g, 3)
        p_prod = 3 + 3 + 1
        cx = der.complex()
        vec = der.vector_of_values(prod, p_prod)
        assert not cx.homology(p_prod).reduce(vec)


def test_cup_products_vanish_without_differential() -> None:
    a = FreeDgAlgebra(
        "tensor", "homological", [Generator("x", 1), Generator("y", 2)]
    )
    der = DerComplex(a, trivial_coefficients(a))
    f = {"x": {(): Fraction(1)}}
    g = {"y": {(): Fraction(1)}}
    assert cup_product(der, f, 1, g, 2) == {}


def test_restriction_sequence_exact() -> None:
    a = sullivan_s3()
    u = AlgebraMorphism.identity(a)
    for (low, high) in [(2, 3), (2, 4), (3, 4)]:
        assert restriction_sequence(a, u, low, high, list(range(-6, 3))) == [], (low, high)
        # Dimension additivity, from the three complexes themselves.
        below_low = {g for g in a.generators if a.gen_stage(g) < low}
        sub = subalgebra_below_stage(a, high)
        sub_u = AlgebraMorphism(sub, a, {g: u.images[g] for g in sub.generators})
        left = DerComplex(a, u, vanishing=set(sub.generators)).complex()
        middle = DerComplex(a, u, vanishing=below_low).complex()
        right = DerComplex(sub, sub_u, vanishing=below_low).complex()
        for p in range(-6, 3):
            assert left.dim(p) + right.dim(p) == middle.dim(p), (low, high, p)


def test_restriction_sequence_names_the_degree_of_a_failure(monkeypatch) -> None:
    # With the whole algebra in place of the stage-3 subalgebra, the right
    # complex keeps the slots of y that the left one has: no partition in the
    # degrees -2, 0 and their successors where y has slots.
    monkeypatch.setattr(
        "dgtangent.derivations.subalgebra_below_stage", lambda algebra, stage: algebra
    )
    a = sullivan_s3()
    assert restriction_sequence(a, AlgebraMorphism.identity(a), 2, 3, [-2, 0]) == [
        f"left and right slots do not partition the middle's at degree {p}" for p in (-1, 0, 1)
    ]


def test_restriction_sequence_names_a_restriction_that_is_no_chain_map(monkeypatch) -> None:
    # The real stage-6 subalgebra of CP², its d doubled: the slots still
    # partition, but ∂ of the x-slots (x -> 1) and (x -> x), whose y-component
    # is F(dy), doubles in the right complex, in degrees -2 and 0.
    real = subalgebra_below_stage

    def doubled(algebra: FreeDgAlgebra, stage: int) -> FreeDgAlgebra:
        sub = real(algebra, stage)
        for g in sub.generators:
            sub.set_differential(g, el_scale(sub.diff[g], Fraction(2)))
        return sub

    monkeypatch.setattr("dgtangent.derivations.subalgebra_below_stage", doubled)
    a = builtin("sullivan:cpn:2").algebra
    assert restriction_sequence(a, AlgebraMorphism.identity(a), 2, 6, range(-8, 2)) == [
        f"restriction is not a chain map at degree {p}" for p in (-2, 0)
    ]


def test_restriction_sequence_names_an_inclusion_that_is_no_chain_map(monkeypatch) -> None:
    # The left and middle complexes are built separately, so a DerComplex
    # that computes ∂ wrongly for one vanishing set shows as an inclusion
    # that is no chain map.  On CP² with stages 2 and 5, the left complex
    # vanishes on x, and its one nonzero ∂ in the window is
    # ∂(y -> y) = (y -> x³), in degree 0: doubled, it differs there only.
    real = DerComplex.differential_values

    def doubled_on_left(self: DerComplex, values: dict, p: int) -> dict:
        out = real(self, values, p)
        if self.vanishing != {"x"}:
            return out
        return {w: el_scale(el, Fraction(2)) for w, el in out.items()}

    monkeypatch.setattr(DerComplex, "differential_values", doubled_on_left)
    a = builtin("sullivan:cpn:2").algebra
    assert restriction_sequence(a, AlgebraMorphism.identity(a), 2, 5, range(-8, 2)) == [
        "inclusion is not a chain map at degree 0"
    ]


def test_restriction_sequence_non_cofibration_flag() -> None:
    a = FreeDgAlgebra(
        "commutative",
        "cohomological",
        [Generator("x", 2, stage=3), Generator("y", 3, stage=2)],
    )
    a.set_differential("y", {("x", "x"): Fraction(1)})
    assert restriction_sequence(a, AlgebraMorphism.identity(a), 2, 3, [-2]) == [
        "stages below 2 or 3 not closed under d (offenders: ['y'])"
    ]


def test_subalgebra_closure_error() -> None:
    a = FreeDgAlgebra(
        "commutative",
        "cohomological",
        [Generator("x", 2, stage=3), Generator("y", 3, stage=2)],
    )
    a.set_differential("y", {("x", "x"): Fraction(1)})
    with pytest.raises(ValueError):
        subalgebra_below_stage(a, 3)


def test_cone_d_squared_and_adjoint_chain_property() -> None:
    a = tensor_acyclic()
    cone = ConeComplex(a)
    cx = cone.complex()
    assert cx.d_squared_failures(list(range(-8, 1))) == []
    # ∂(Ad_q) = Ad_{dq} for q = b (odd) and q = ab.
    der = cone.der
    for q_el, q_deg in [
        (a.gen_element("b"), -3),
        (a.mul(a.gen_element("a"), a.gen_element("b")), -5),
    ]:
        lhs = der.differential_values(cone.adjoint_values(q_el), q_deg)
        rhs = cone.adjoint_values(a.differential(q_el))
        for v in set(lhs) | set(rhs):
            assert lhs.get(v, {}) == rhs.get(v, {})


def test_cone_loop_space_dimensions_for_even_sphere() -> None:
    # T(x_2) has vanishing differential and vanishing inner derivations, so
    # the cone homology is the full basis: algebra classes x^k in cone degree
    # -2k, derivation classes (x -> x^k) in cone degree 3-2k.
    cone = ConeComplex(tensor_sphere())
    cx = cone.complex()
    dims = {p: cx.homology(p).dim for p in range(-8, 4)}
    expected = {p: 0 for p in range(-8, 4)}
    for k in range(0, 7):
        if -8 <= -2 * k <= 3:
            expected[-2 * k] += 1
        if -8 <= 3 - 2 * k <= 3:
            expected[3 - 2 * k] += 1
    assert dims == expected


def test_cone_filtration_levels() -> None:
    cone = ConeComplex(tensor_sphere())
    fc = cone.tower()
    assert fc.max_level == 3
    for n in (-2, 1):
        for label, level in zip(cone.basis(n), fc.levels(n)):
            assert level == (0 if label[0] == "alg" else 3)  # stage(x)=2, +1


def _coefficient_cases() -> list[tuple[str, FreeDgAlgebra, AlgebraMorphism]]:
    cases = []
    for name in BUILTINS:
        a = builtin(name).algebra
        cases.append((f"{name} self", a, AlgebraMorphism.identity(a)))
        cases.append((f"{name} trivial", a, trivial_coefficients(a)))
        # A separate copy of the same model: u is name matching, U is not A.
        copy = builtin(name).algebra
        cases.append((f"{name} target", a, AlgebraMorphism.name_matching(a, copy)))
    for source, target in (
        ("sullivan:cpn:1", "sullivan:hopf"),
        ("sullivan:cpn:2", "sullivan:cpn:3"),
    ):
        a = builtin(source).algebra
        coeffs = AlgebraMorphism.name_matching(a, builtin(target).algebra)
        cases.append((f"{source} -> {target}", a, coeffs))
    return cases


def test_differential_values_match_the_apply_formula() -> None:
    # ∂F(w) = d_U F(w) − (−1)^p F(d_A w), with F∘d_A through DerComplex.apply,
    # slot by slot, on every single slot and on random sums of slots, many of
    # them with several monomials in one slot: ∂ itself visits only the
    # letters that carry a value.
    rng = random.Random(20261018)
    multi = 0
    for label, a, coeffs in _coefficient_cases():
        der = DerComplex(a, coeffs)
        for p in range(-6, 4):
            basis = der.basis(p)
            candidates = [der.values_of_vector({i: Fraction(1)}, p) for i in range(len(basis))]
            for _ in range(min(len(basis), 5)):
                vec = {}
                for i in rng.sample(range(len(basis)), min(len(basis), 6)):
                    vec[i] = Fraction(rng.choice([-7, -2, 1, 3, 5]), rng.randint(1, 4))
                values = der.values_of_vector(vec, p)
                multi += len(values) > 1 and any(len(el) > 1 for el in values.values())
                candidates.append(values)
            sign = Fraction(-1) ** p
            for values in candidates:
                expected = {}
                for w in der.slots:
                    term = el_add(
                        der.U.differential(values.get(w, {})),
                        der.apply(values, p, a.diff[w]),
                        -sign,
                    )
                    if term:
                        expected[w] = term
                assert der.differential_values(values, p) == expected, (label, p, values)
    assert multi >= 50


def odd_cubic_models() -> list[FreeDgAlgebra]:
    """Differentials with words of length 3 in odd letters, in both kinds."""
    c = FreeDgAlgebra(
        "commutative",
        "cohomological",
        [Generator("x", 3), Generator("y", 3), Generator("z", 3), Generator("v", 5), Generator("w", 8)],
    )
    c.set_differential("v", {("x", "y"): Fraction(1)})
    c.set_differential("w", {("x", "y", "z"): Fraction(2)})
    t = FreeDgAlgebra(
        "tensor",
        "homological",
        [Generator("a", 1), Generator("b", 1), Generator("e", 3), Generator("c", 4)],
    )
    t.set_differential("e", {("a", "b"): Fraction(1), ("b", "a"): Fraction(1)})
    t.set_differential("c", {("a", "b", "a"): Fraction(3), ("b", "a", "a"): Fraction(-1)})
    for a in (c, t):
        assert a.d_squared_failures_on_generators() == []
    return [c, t]


def literal_product(der: DerComplex, coeff: Fraction, factors: list) -> dict:
    term = {(): coeff}
    for factor in factors:
        term = der.U.mul(term, factor)
    return term


def literal_derivation(der: DerComplex, f: dict, p: int, el: dict) -> dict:
    """Σ_i (−1)^{p·Σ_{l<i}|x_l|}·u(x_1)…F(x_i)…u(x_k) over the words of el."""
    A, u = der.A, der.u.images
    out: dict = {}
    for mono, c in el.items():
        for i in range(len(mono)):
            sign = Fraction(-1) ** (p * sum(A.gen_degree(x) for x in mono[:i]))
            factors = [u[x] for x in mono[:i]] + [f.get(mono[i], {})]
            factors += [u[x] for x in mono[i + 1 :]]
            out = el_add(out, literal_product(der, sign * c, factors))
    return out


def literal_brace(der: DerComplex, f: dict, p: int, g: dict, q: int) -> dict:
    """Σ_{i<j} (−1)^{p·Σ_{l<i}|x_l| + q·(Σ_{l<j}|x_l| + p)}·u…f(x_i)…g(x_j)…u."""
    A, u = der.A, der.u.images
    out = {}
    for v in der.slots:
        acc: dict = {}
        for mono, c in A.diff[v].items():
            degs = [A.gen_degree(x) for x in mono]
            for i in range(len(mono)):
                for j in range(i + 1, len(mono)):
                    sign = Fraction(-1) ** (p * sum(degs[:i]) + q * (sum(degs[:j]) + p))
                    factors = [u[x] for x in mono]
                    factors[i], factors[j] = f.get(mono[i], {}), g.get(mono[j], {})
                    acc = el_add(acc, literal_product(der, sign * c, factors))
        if acc:
            out[v] = acc
    return out


def test_insertion_rule_matches_the_literal_formula() -> None:
    # apply_derivation, the F∘d_A part of ∂ and the brace all insert values
    # into words by one shared rule; here each is checked against the formula
    # written out term by term, with self, trivial and target coefficients.
    rng = random.Random(20261019)
    cases = _coefficient_cases()
    for a, copy in zip(odd_cubic_models(), odd_cubic_models()):
        cases += [
            (f"odd cubic {a.kind} self", a, AlgebraMorphism.identity(a)),
            (f"odd cubic {a.kind} trivial", a, trivial_coefficients(a)),
            (f"odd cubic {a.kind} target", a, AlgebraMorphism.name_matching(a, copy)),
        ]
    one = {(): Fraction(1)}
    explicit = {
        # On dw = 2xyz and dc = 3aba − baa: f after an odd letter, and g of
        # even nonzero degree inserted after an odd letter that follows f.
        "odd cubic commutative self": [
            ({"y": one}, -3, {"z": one}, -3),
            ({"x": one}, -3, {"z": {("v",): Fraction(1)}}, 2),
        ],
        "odd cubic tensor self": [
            ({"b": one}, 1, {"a": one}, 1),
            ({"a": one}, 1, {"a": {("e",): Fraction(1)}}, -2),
        ],
    }
    long_braces = 0
    for label, a, coeffs in cases:
        der = DerComplex(a, coeffs)
        bases = {p: der.complex().basis(p) for p in range(-8, 4)}
        degrees = [p for p, basis in bases.items() if basis]
        words = [m for n in range(-8, 9) for m in a.basis_in_cdeg(n) if len(m) >= 2]

        def random_values(p: int) -> dict:
            values: dict = {}
            for v, mono in rng.sample(bases[p], min(3, len(bases[p]))):
                values.setdefault(v, {})[mono] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            return values

        for _ in range(6):
            p, q = rng.choice(degrees), rng.choice(degrees)
            f, g = random_values(p), random_values(q)
            el = {m: Fraction(rng.randint(1, 5)) for m in rng.sample(words, min(4, len(words)))}
            assert der.apply(f, p, el) == literal_derivation(der, f, p, el), label
            expected = {}
            for w in der.slots:
                term = el_add(
                    der.U.differential(f.get(w, {})),
                    literal_derivation(der, f, p, a.diff[w]),
                    -Fraction(-1) ** p,
                )
                if term:
                    expected[w] = term
            assert der.differential_values(f, p) == expected, (label, p, f)
            got = brace(der, f, p, g, q)
            assert got == literal_brace(der, f, p, g, q), (label, p, q, f, g)
            long_braces += any(len(m) >= 3 for v in got for m in a.diff[v])
        for f, p, g, q in explicit.get(label, []):
            assert brace(der, f, p, g, q) == literal_brace(der, f, p, g, q) != {}, (label, f, g)
    assert long_braces >= 3  # braces on words of length 3 are exercised


def relative_der(algebra: FreeDgAlgebra, coefficients=AlgebraMorphism.identity) -> DerComplex:
    """Der with the base generators held fixed, as ``aut`` builds it."""
    return DerComplex(algebra, coefficients(algebra), vanishing=algebra.base)


def assert_slot_coordinates_round_trip(der: DerComplex, degrees: range, label: str) -> None:
    """Each basis vector survives values_of_vector then vector_of_values."""
    for p in degrees:
        for i in range(len(der.basis(p))):
            values = der.values_of_vector({i: ONE}, p)
            assert der.vector_of_values(values, p) == {i: ONE}, (label, p, i)


@pytest.mark.parametrize("name", BASIS_BUILTINS)
def test_slot_coordinates_round_trip_on_builtins(name) -> None:
    assert_slot_coordinates_round_trip(relative_der(builtin(name).algebra), range(-8, 3), name)


def test_slot_coordinates_round_trip_on_the_aut_workload() -> None:
    der = relative_der(case_algebra("workload:aut-relative"))
    assert sum(len(der.basis(p)) for p in range(-12, 1)) == 166
    assert_slot_coordinates_round_trip(der, range(-12, 1), "aut-relative")


@pytest.mark.parametrize(
    "values, p, message",
    [
        # A base generator is held fixed: it has no slot.
        ({"a": {(): ONE}}, -2, "value 1 at slot 'a' is not in the degree--2 basis"),
        # A live slot, but the monomial has the wrong degree.
        ({"z": {("x",): Fraction(-3, 2)}}, -11,
         "value -3/2*x at slot 'z' is not in the degree--11 basis"),
        # The right degree, but not the normal form of the monomial.
        ({"y": {("x", "a"): ONE}}, -3, "value x*a at slot 'y' is not in the degree--3 basis"),
        # A generator the model does not have.
        ({"q": {(): ONE}}, 0, "value 1 at slot 'q' is not in the degree-0 basis"),
    ],
    ids=["base-slot", "wrong-degree", "not-normal-form", "unknown-generator"],
)
def test_values_outside_the_basis_are_refused(values, p, message) -> None:
    der = relative_der(case_algebra("workload:aut-relative"))
    with pytest.raises(ValueError) as excinfo:
        der.vector_of_values(values, p)
    assert str(excinfo.value) == message


DER_SUM_CASES = (
    [(name, "self") for name in BASIS_BUILTINS]
    + [("sullivan:cpn:3", "trivial"), ("ah:wedge:2,3", "trivial")]
    + [(f"workload:{w}", "self") for w in WORKLOADS]
)


@pytest.mark.parametrize("name, coefficients", DER_SUM_CASES)
def test_der_basis_sizes_are_sums_over_slots(name, coefficients) -> None:
    # dim Der^p = Σ over the non-vanishing slots v of dim U in cdeg p + cdeg(v),
    # with U's dimensions from its Hilbert series.
    algebra = case_algebra(name)
    der = relative_der(algebra, COEFFICIENTS[coefficients])
    degrees = range(-12, 5)
    native = {
        (p, v): to_cohomological(p + algebra.gen_cdeg(v), der.U.grading)
        for p in degrees for v in der.slots
    }
    counts = basis_counts(der.U, max(native.values(), default=0))
    for p in degrees:
        expected = sum(counts[native[p, v]] for v in der.slots if native[p, v] >= 0)
        assert len(der.basis(p)) == expected, (name, coefficients, p)
