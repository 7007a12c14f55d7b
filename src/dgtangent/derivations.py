"""Derivation complexes of quasi-free dg algebras.

Given a quasi-free algebra A, a coefficient morphism u: A → U and a set of
generators on which derivations must vanish, the complex Der(A, U) in degree
p has basis the single-slot derivations (v ↦ m): the u-twisted derivation
sending generator v to the U-monomial m (with cdeg(m) − cdeg(v) = p) and every
other generator to zero.  The differential is ∂F = d_U∘F − (−1)^{|F|} F∘d_A.

Also here: the Lie bracket of derivations, the two-slot insertion brace and
the cup product it induces, the restriction short exact sequences for stages
of the generator tower, and the mapping cone of the adjoint map q ↦ [q,−].

Values go into words by the insertion rule of ``algebra`` (``occurrences``
and ``insert``); the brace adds only the sign of its (f, g) pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import (
    AlgebraMorphism,
    Element,
    FreeDgAlgebra,
    Monomial,
    el_add,
    el_add_term,
    format_element,
    insert,
)
from .complexes import CochainComplex
from .linalg import Matrix, Vector
from .tower import FilteredComplex

Slot = tuple[str, Monomial]  # (generator name, coefficient monomial)
Values = dict[str, Element]  # derivation by its values on generators


def slot_images(values: Values, *tag: str) -> dict[tuple, Fraction]:
    """Values as {(*tag, generator, monomial): coefficient}: the image of a
    basis label, as ``CochainComplex.matrix`` reads it."""
    return {(*tag, w, mono): c for w, el in values.items() for mono, c in el.items()}


class DerComplex:
    """Der_u(A, U), U = u.target, relative to a vanishing set of generators.

    The coefficient morphism u defaults to the identity of A.  Its stage
    tower (``tower``) puts a slot (v ↦ m) at the stage of v: F^s is spanned
    by the derivations vanishing on generators of stage < s, a subcomplex
    since each stage is closed under d in any algebra passing the stage
    condition.
    """

    def __init__(
        self,
        algebra: FreeDgAlgebra,
        u: AlgebraMorphism | None = None,
        vanishing: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        self.A = algebra
        self.u = u or AlgebraMorphism.identity(algebra)
        self.U = self.u.target
        if self.u.source is not algebra:
            raise ValueError("coefficient morphism must start at the algebra")
        self.vanishing = frozenset(vanishing)
        unknown = self.vanishing - set(algebra.generators)
        if unknown:
            raise ValueError(f"vanishing set names unknown generators {sorted(unknown)}")
        # Derivations vanishing on a subalgebra only form a complex when the
        # subalgebra is closed under d.
        offenders = closure_offenders(algebra, self.vanishing)
        if offenders:
            raise ValueError(
                f"vanishing set is not closed under d (offenders: {offenders})"
            )
        self.slots = [g for g in algebra.letters if g not in self.vanishing]
        self._complex: CochainComplex | None = None
        # The occurrences of the letters of d_A(w): the brace puts f at each
        # of them.  ∂ reads them by letter, each with its w.
        self._d_letters = {
            w: algebra.occurrences(algebra.diff[w], self.U, self.u.images) for w in self.slots
        }
        self._occurrences_of: dict[str, list[tuple[str, list[tuple]]]] = {}
        for w, occs in self._d_letters.items():
            for occ in occs:
                self._occurrences_of.setdefault(occ[0][occ[1]], []).append((w, [occ]))

    # ------------------------------------------------------------- structure

    def basis(self, p: int) -> list[Slot]:
        out: list[Slot] = []
        for v in self.slots:
            for mono in self.U.basis_in_cdeg(p + self.A.gen_cdeg(v)):
                out.append((v, mono))
        return out

    def values_of_vector(self, vec: Vector, p: int) -> Values:
        """The derivation with coordinates vec in ``self.complex().basis(p)``."""
        basis = self.basis(p)
        out: Values = {}
        for idx, coeff in vec.items():
            v, mono = basis[idx]
            out.setdefault(v, {})
            el_add_term(out[v], mono, coeff)
        return {v: el for v, el in out.items() if el}

    def vector_of_values(self, values: Values, p: int) -> Vector:
        """Coordinates of a derivation, by ``self.complex().index(p)``."""
        index = self.complex().index(p)
        out: Vector = {}
        for v, el in values.items():
            for mono, coeff in el.items():
                key = (v, mono)
                if key not in index:
                    raise ValueError(
                        f"value {format_element({mono: coeff})} at slot {v!r} "
                        f"is not in the degree-{p} basis"
                    )
                out[index[key]] = coeff
        return out

    # ----------------------------------------------------------- operations

    def apply(self, values: Values, p: int, el: Element) -> Element:
        """Evaluate the degree-p derivation with the given values on el."""
        return self.A.apply_derivation(values, p % 2, el, self.U, self.u.images)

    def differential_values(self, values: Values, p: int) -> Values:
        """∂F = d_U∘F − (−1)^p F∘d_A, as values on the non-vanishing slots.

        Only the letters v that carry a value contribute: d_U F(v) at v, and
        F(v) inserted at each occurrence of v in some d_A(w), at w.
        """
        parity = p % 2
        out = {v: self.U.differential(el) for v, el in values.items()}
        for v in values:
            for w, occs in self._occurrences_of.get(v, ()):
                insert(values, parity, occs, self.U, out.setdefault(w, {}), 1 - parity)
        return {w: el for w, el in out.items() if el}

    def is_cocycle(self, values: Values, p: int) -> bool:
        return not self.differential_values(values, p)

    # ------------------------------------------------------------- complexes

    def complex(self) -> CochainComplex:
        if self._complex is None:

            def diff_fn(p: int) -> Matrix:
                return self._complex.matrix(p, lambda slot: slot_images(
                    self.differential_values({slot[0]: {slot[1]: Fraction(1)}}, p)
                ))

            self._complex = CochainComplex(self.basis, diff_fn)
        return self._complex

    def tower(self) -> FilteredComplex:
        stage = self.A.gen_stage
        top = max(map(stage, self.slots), default=0)
        return FilteredComplex(self.complex(), lambda slot: stage(slot[0]), top)

    # -------------------------------------------------------------- brackets

    def lie_bracket(self, f: Values, p: int, g: Values, q: int) -> Values:
        """[F,G] = F∘G − (−1)^{pq} G∘F (identity coefficients only)."""
        if self.U is not self.A:
            raise ValueError("the Lie bracket needs coefficients in the algebra itself")
        sign = Fraction(-1) if (p % 2) and (q % 2) else Fraction(1)
        out: Values = {}
        for w in self.slots:
            term = self.apply(f, p, g.get(w, {}))
            term = el_add(term, self.apply(g, q, f.get(w, {})), -sign)
            if term:
                out[w] = term
        return out

    def format_values(self, values: Values) -> str:
        parts = [
            f"({v} -> {format_element(values[v])})"
            for v in sorted(values)
            if values[v]
        ]
        return " , ".join(parts) if parts else "0"


def closure_offenders(algebra: FreeDgAlgebra, subset: frozenset[str]) -> list[str]:
    """Generators in the subset whose differential leaves the subset's span."""
    bad = []
    for g in sorted(subset):
        for mono in algebra.diff[g]:
            if any(letter not in subset for letter in mono):
                bad.append(g)
                break
    return bad


# --------------------------------------------------------------------- brace


def brace(
    der: DerComplex, f: Values, p: int, g: Values, q: int
) -> Values:
    """The two-slot insertion {d; f, g}, of degree p + q + 1.

    For each generator v and each word x_1…x_k of d(v), insert f at position
    i and g at position j > i with u applied everywhere else; the Koszul sign
    moves each operator past the (current) letters to its left.  The
    positions of f are the occurrences of d(v) kept by the complex: at x_i, g
    is inserted into x_{i+1}…x_k by ``apply_derivation``, and the sign left
    to pair is that of moving g past x_1…x_i and f.  The chain identity for this sign convention is
    ∂{d;f,g} = (−1)^q {d;∂f,g} + {d;f,∂g},
    so the induced product of cohomology classes is well defined.
    """
    A, U, u_images = der.A, der.U, der.u.images
    out: Values = {}
    for v in der.slots:
        acc: Element = {}
        for mono, i, c, odd, prefix, _ in der._d_letters[v]:
            fx = f.get(mono[i])
            if fx:
                rest = A.apply_derivation(g, q % 2, {mono[i + 1 :]: c}, U, u_images)
                pair = (p * odd + q * (odd + A.gen_parity(mono[i]) + p)) % 2
                acc = el_add(acc, U.mul(prefix, fx, rest), Fraction((-1) ** pair))
        if acc:
            out[v] = acc
    return out


def cup_product(der: DerComplex, f: Values, p: int, g: Values, q: int) -> Values:
    """Cup product of derivation cocycles via the insertion brace."""
    if not der.is_cocycle(f, p):
        raise ValueError("cup product: first factor is not a cocycle")
    if not der.is_cocycle(g, q):
        raise ValueError("cup product: second factor is not a cocycle")
    return brace(der, f, p, g, q)


# ----------------------------------------------------- restriction sequences


def subalgebra_below_stage(algebra: FreeDgAlgebra, stage: int) -> FreeDgAlgebra:
    """The subalgebra generated by all generators of stage < ``stage``."""
    gens = [g for g in algebra.generators.values() if algebra.gen_stage(g.name) < stage]
    sub = FreeDgAlgebra(algebra.kind, algebra.grading, gens)
    offenders = closure_offenders(algebra, frozenset(g.name for g in gens))
    if offenders:
        raise ValueError(
            f"stage-{stage} subalgebra is not closed under d at {offenders}"
        )
    for g in gens:
        sub.set_differential(g.name, algebra.diff[g.name])
    return sub


def restriction_sequence(
    algebra: FreeDgAlgebra,
    u: AlgebraMorphism,
    stage_low: int,
    stage_high: int,
    degrees: Sequence[int],
) -> list[str]:
    """What fails of 0 → Der_{A_j}(A) → Der_{A_i}(A) → Der_{A_i}(A_j) → 0.

    Left: derivations vanishing below stage_high; middle: vanishing below
    stage_low; right: derivations of the stage_high subalgebra vanishing below
    stage_low.  Both maps act on slots, by inclusion and by projection, so
    additivity, injectivity, surjectivity and exactness in the middle all
    restate one fact: the left and right slots partition the middle's.  That
    is checked first, in every degree a map is built in (p and p + 1); then,
    per degree p, that both maps are chain maps, comparing the d of each slot
    by slot label: a left slot's is the same in the middle, and a middle
    slot's, cut to the right slots, is its d on the right ({} for a left
    slot).  A pair whose stages are not closed under d is not a cofibration:
    one message names its offenders.
    """
    if stage_low > stage_high:
        raise ValueError("stage_low must be <= stage_high")
    below_high = {
        g for g in algebra.generators if algebra.gen_stage(g) < stage_high
    }
    below_low = {g for g in algebra.generators if algebra.gen_stage(g) < stage_low}
    offenders = closure_offenders(algebra, frozenset(below_high))
    offenders += [g for g in closure_offenders(algebra, frozenset(below_low)) if g not in offenders]
    if offenders:
        return [f"stages below {stage_low} or {stage_high} not closed under d (offenders: {offenders})"]

    left = DerComplex(algebra, u, vanishing=below_high)
    middle = DerComplex(algebra, u, vanishing=below_low)
    sub = subalgebra_below_stage(algebra, stage_high)
    sub_u = AlgebraMorphism(sub, u.target, {g: u.images[g] for g in sub.generators})
    right = DerComplex(sub, sub_u, vanishing=below_low)
    cx_left, cx_mid, cx_right = left.complex(), middle.complex(), right.complex()

    problems = []
    for p in sorted({q for p in degrees for q in (p, p + 1)}):
        left_slots, right_slots = set(cx_left.basis(p)), set(cx_right.basis(p))
        if left_slots & right_slots or left_slots | right_slots != set(cx_mid.basis(p)):
            problems.append(f"left and right slots do not partition the middle's at degree {p}")
    if problems:
        return problems

    def d_by_slot(cx: CochainComplex, p: int) -> dict[Slot, dict[Slot, Fraction]]:
        target, rows = cx.basis(p + 1), zip(cx.basis(p), cx.d(p).rows)
        return {slot: {target[j]: c for j, c in row.items()} for slot, row in rows}

    for p in degrees:
        d_left, d_mid, d_right = (d_by_slot(cx, p) for cx in (cx_left, cx_mid, cx_right))
        kept, at = set(cx_right.basis(p + 1)), f"at degree {p}"
        if any(d_mid[slot] != d for slot, d in d_left.items()):
            problems.append(f"inclusion is not a chain map {at}")
        cut = {slot: {t: c for t, c in d.items() if t in kept} for slot, d in d_mid.items()}
        if any(d != d_right.get(slot, {}) for slot, d in cut.items()):
            problems.append(f"restriction is not a chain map {at}")
    return problems


# ---------------------------------------------------------------------- cone


ConeLabel = tuple  # ("alg", monomial) or ("der", generator, monomial)


class ConeComplex:
    """Mapping cone of the adjoint map q ↦ [q, −] into the derivations.

    Degree p holds the algebra in degree p and the derivations in degree
    p − 1; the differential is D(q, φ) = (dq, Ad_q − ∂φ).  The filtration
    (``tower``) puts the algebra summand at level 0 and a derivation slot at
    the stage of its generator plus one, base generators of a relative model
    at stage 0.
    """

    def __init__(self, algebra: FreeDgAlgebra) -> None:
        self.A = algebra
        self.der = DerComplex(algebra)
        self._complex: CochainComplex | None = None

    def basis(self, p: int) -> list[ConeLabel]:
        out: list[ConeLabel] = [("alg", mono) for mono in self.A.basis_in_cdeg(p)]
        out.extend(("der", v, mono) for v, mono in self.der.basis(p - 1))
        return out

    def slot_level(self, v: str) -> int:
        return 1 if v in self.A.base else self.A.gen_stage(v) + 1

    def adjoint_values(self, q: Element) -> Values:
        """Ad_q: the inner derivation w ↦ [q, w] on generators."""
        out: Values = {}
        for w in self.der.slots:
            term = self.A.commutator(q, self.A.gen_element(w))
            if term:
                out[w] = term
        return out

    def complex(self) -> CochainComplex:
        if self._complex is None:

            def image(label: ConeLabel, p: int) -> dict[ConeLabel, Fraction]:
                """D(q, φ) = (dq, Ad_q − ∂φ) on one basis label."""
                if label[0] == "alg":
                    q = {label[1]: Fraction(1)}
                    out = {("alg", m): c for m, c in self.A.differential(q).items()}
                    out.update(slot_images(self.adjoint_values(q), "der"))
                    return out
                values = self.der.differential_values({label[1]: {label[2]: Fraction(1)}}, p - 1)
                return {key: -c for key, c in slot_images(values, "der").items()}

            def diff_fn(p: int) -> Matrix:
                return self._complex.matrix(p, lambda label: image(label, p))

            self._complex = CochainComplex(self.basis, diff_fn)
        return self._complex

    def tower(self) -> FilteredComplex:
        def level(label: ConeLabel) -> int:
            return 0 if label[0] == "alg" else self.slot_level(label[1])

        top = max(map(self.slot_level, self.A.generators), default=1)
        return FilteredComplex(self.complex(), level, top)
