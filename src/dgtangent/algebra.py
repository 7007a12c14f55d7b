"""Quasi-free differential graded algebras over the rationals.

Two kinds of free algebra are supported:

- ``tensor``: the free associative algebra on graded generators (words);
- ``commutative``: the free graded-commutative algebra (exterior on odd
  generators, polynomial on even ones).

Monomials are tuples of generator names.  Commutative monomials are kept
sorted by the generator ordering (degree, then name); sorting introduces the
Koszul sign, and a repeated odd letter collapses the monomial to zero.
Elements are sparse dicts mapping monomials to nonzero rationals.

Gradings: an algebra is stored with its native grading (``homological`` or
``cohomological``) and all degree arithmetic below uses native degrees.  The
internal cohomological degree (used by complexes and spectral sequences) is
the negation for homologically graded algebras; parities are unaffected, so
every Koszul sign can be read off native degrees.

The one insertion rule for u-twisted derivations lives here:
``FreeDgAlgebra.occurrences`` lists each letter of a word with the parity of
the letters before it and the u-images around it, and ``insert`` sums a
derivation's values over that list.  ``apply_derivation``, ∂ on Der and the
brace use them.  ``differential`` (u = id) keeps its own loop and memoizes d
of each monomial.  Routed through ``occurrences`` + ``insert``, which build
the u-image products before and after every letter, d gives the same records
but makes an in-process ``loop`` run on the benchmark's CP² model
(``--max-degree 8``) 1.7–2× slower: medians of 40 runs went from
18–26 ms to 33–43 ms (four rounds, CPython 3.11, two shared Xeon vCPUs).

Every generator has positive degree, so each degree has a finite basis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .complexes import CochainComplex, to_cohomological
from .linalg import Matrix, el_add, el_add_term, el_scale

Monomial = tuple[str, ...]
Element = dict[Monomial, Fraction]

KIND_TENSOR = "tensor"
KIND_COMMUTATIVE = "commutative"

UNIT: Monomial = ()


class Generator(NamedTuple):
    """A free algebra generator: name, native degree, tower stage, base flag.

    ``stage`` indexes the tower of subalgebras (None: the degree, as read by
    ``FreeDgAlgebra.gen_stage``); ``base`` marks the fixed generators of a
    relative model.
    """

    name: str
    degree: int
    stage: int | None = None
    base: bool = False


class FreeDgAlgebra:
    """A free graded algebra with a quasi-free differential."""

    def __init__(self, kind: str, grading: str, generators: Sequence[Generator]) -> None:
        if kind not in (KIND_TENSOR, KIND_COMMUTATIVE):
            raise ValueError(f"unknown algebra kind {kind!r}")
        self.kind = kind
        self.grading = grading
        # The native degree step of d; to_cohomological refuses an unknown grading.
        self._d_step = to_cohomological(1, grading)
        self.generators: dict[str, Generator] = {}
        for gen in generators:
            if gen.name in self.generators:
                raise ValueError(f"duplicate generator name {gen.name!r}")
            if gen.degree <= 0:
                raise ValueError(
                    f"generator {gen.name!r} has nonpositive degree {gen.degree}"
                )
            self.generators[gen.name] = gen
        # Letters sort by (degree, name); monomials by (length, letter keys).
        self._letter_key = {g.name: (g.degree, g.name) for g in self.generators.values()}
        # The one generator order: bases, Der slots and printed models follow it.
        self.letters = tuple(sorted(self.generators, key=self._letter_key.__getitem__))
        self._parity = {g.name: g.degree % 2 for g in self.generators.values()}
        # The fixed generators of a relative model: Der vanishes on them, the
        # stage condition exempts them and the cone puts them at stage 0.
        self.base = frozenset(g.name for g in self.generators.values() if g.base)
        self.diff: dict[str, Element] = {g: {} for g in self.generators}
        self._d_memo: dict[Monomial, Element] = {}  # d of each monomial met so far

    # ---------------------------------------------------------------- degrees

    def gen_degree(self, name: str) -> int:
        return self.generators[name].degree

    def gen_cdeg(self, name: str) -> int:
        return to_cohomological(self.generators[name].degree, self.grading)

    def gen_parity(self, name: str) -> int:
        return self._parity[name]

    def gen_stage(self, name: str) -> int:
        gen = self.generators[name]
        return gen.degree if gen.stage is None else gen.stage

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(self.generators[l].degree for l in mono)

    def element_degree(self, el: Element) -> int | None:
        """Native degree of a homogeneous element (None for 0; error if mixed)."""
        degrees = {self.monomial_degree(m) for m in el}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def monomial_key(self, mono: Monomial) -> tuple:
        return (len(mono), tuple(self._letter_key[l] for l in mono))

    def sorted_monomials(self, monos: Iterable[Monomial]) -> list[Monomial]:
        return sorted(monos, key=self.monomial_key)

    # ------------------------------------------------------------ arithmetic

    def one(self) -> Element:
        return {UNIT: Fraction(1)}

    def gen_element(self, name: str) -> Element:
        if name not in self.generators:
            raise KeyError(f"unknown generator {name!r}")
        return {(name,): Fraction(1)}

    def normalize_monomial(self, letters: Monomial) -> tuple[int, Monomial | None]:
        """Canonical form of a raw word: (±1, monomial) or (0, None)."""
        try:
            odd = [letter for letter in letters if self._parity[letter]]
        except KeyError as exc:
            raise KeyError(f"unknown generator {exc.args[0]!r} in monomial") from None
        if self.kind == KIND_TENSOR:
            return 1, letters
        # Commutative: sort the letters.  The Koszul sign is that of the
        # permutation of the odd letters; a repeated odd letter gives zero.
        key = self._letter_key
        sign = 1
        for i, a in enumerate(odd):
            for b in odd[i + 1 :]:
                if a == b:
                    return 0, None
                if key[a] > key[b]:
                    sign = -sign
        return sign, tuple(sorted(letters, key=key.__getitem__))

    def mul(self, *factors: Element) -> Element:
        """The product of the factors; each word of it is normalized once."""
        words = factors[0]
        for factor in factors[1:]:
            step: Element = {}
            for w, c in words.items():
                for m, fc in factor.items():
                    el_add_term(step, w + m, fc if c == 1 else c * fc)
            words = step
        out: Element = {}
        for w, c in words.items():
            sign, mono = self.normalize_monomial(w)
            if mono is not None:
                el_add_term(out, mono, c if sign > 0 else -c)
        return out

    def commutator(self, a: Element, b: Element) -> Element:
        """[a,b] = ab − (−1)^{|a||b|} ba for homogeneous a, b."""
        pa = (self.element_degree(a) or 0) % 2
        pb = (self.element_degree(b) or 0) % 2
        sign = Fraction(-1) if pa and pb else Fraction(1)
        return el_add(self.mul(a, b), self.mul(b, a), -sign)

    # ---------------------------------------------------------- differential

    def set_differential(self, name: str, value: Element) -> None:
        if name not in self.generators:
            raise KeyError(f"unknown generator {name!r}")
        value = {m: c for m, c in value.items() if c != 0}
        if value:
            expected = self.gen_degree(name) + self._d_step
            actual = self.element_degree(value)
            if actual != expected:
                raise ValueError(
                    f"d({name}) has native degree {actual}, expected {expected}"
                )
        self.diff[name] = value
        self._d_memo.clear()

    def differential(self, el: Element) -> Element:
        """Extend d over words by the (untwisted) graded Leibniz rule."""
        out: Element = {}
        for mono, coeff in el.items():
            d_mono = self._d_memo.get(mono)
            if d_mono is None:
                d_mono = self._d_memo[mono] = self._monomial_differential(mono)
            for m, c in (d_mono if coeff == 1 else el_scale(d_mono, coeff)).items():
                el_add_term(out, m, c)
        return out

    def _monomial_differential(self, mono: Monomial) -> Element:
        out: Element = {}
        odd = 0
        for i, letter in enumerate(mono):
            for dm, dc in self.diff[letter].items():
                sign, nm = self.normalize_monomial(mono[:i] + dm + mono[i + 1 :])
                if nm is not None:
                    el_add_term(out, nm, dc if sign == (-1) ** odd else -dc)
            odd ^= self._parity[letter]
        return out

    def d_squared_failures_on_generators(self) -> list[str]:
        bad = []
        for name in sorted(self.generators):
            if self.differential(self.differential(self.gen_element(name))):
                bad.append(name)
        return bad

    def linear_part(self, el: Element) -> dict[str, Fraction]:
        """Coefficients of the word-length-one part of an element."""
        return {mono[0]: c for mono, c in el.items() if len(mono) == 1}

    # -------------------------------------------------- derivation extension

    def occurrences(
        self, el: Element, target: "FreeDgAlgebra", u_images: dict[str, Element]
    ) -> list[tuple]:
        """One (mono, i, c, odd, P, S) per letter x_i of each monomial c·mono of el.

        odd is the parity of the letters before x_i; P and S are the products
        in the target of the u-images of the letters before and after it.  A
        letter whose P vanishes is left out: no insertion there survives.  A
        scalar (the empty monomial) has no letters, hence no occurrences.
        """
        out = []
        for mono, coeff in el.items():
            if not mono:
                continue
            prefix = [target.one()]
            for letter in mono[:-1]:
                prefix.append(target.mul(prefix[-1], u_images[letter]))
            suffix = [target.one()]
            for letter in reversed(mono[1:]):
                suffix.append(target.mul(u_images[letter], suffix[-1]))
            suffix.reverse()
            odd = 0
            for i, (before, after) in enumerate(zip(prefix, suffix)):
                if before:
                    out.append((mono, i, coeff, odd, before, after))
                odd ^= self.gen_parity(mono[i])
        return out

    def apply_derivation(
        self,
        values: dict[str, Element],
        op_parity: int,
        el: Element,
        target: "FreeDgAlgebra",
        u_images: dict[str, Element],
    ) -> Element:
        """Apply the u-twisted derivation with the given slot values to el.

        The extension rule over a word x_1…x_k is
        Σ_i (−1)^{p(|x_1|+…+|x_{i−1}|)} u(x_1)…u(x_{i−1})·F(x_i)·u(x_{i+1})…u(x_k),
        with the products taken in the target algebra.
        """
        hit = {m: c for m, c in el.items() if any(map(values.get, m))}
        if not hit:
            return {}
        return insert(values, op_parity, self.occurrences(hit, target, u_images), target)

    # ------------------------------------------------------------ towers

    def stage_condition_failures(self) -> list[str]:
        """Generators whose differential uses letters of stage >= their own.

        Base generators are allowed anywhere, and are not checked themselves.
        """
        bad = []
        for name in sorted(self.generators.keys() - self.base):
            s = self.gen_stage(name)
            for mono in self.diff[name]:
                if any(l not in self.base and self.gen_stage(l) >= s for l in mono):
                    bad.append(name)
                    break
        return bad

    # ------------------------------------------------------------ bases

    def basis_in_degree(self, degree: int) -> list[Monomial]:
        """All monomials of the given native degree, in canonical order.

        Both walkers visit ``letters`` in order, so each yields the monomials
        of one length in ``monomial_key`` order, and a stable sort by length
        finishes the job: the tensor walker is a depth-first search over words
        that tries the letters in order at each position; the commutative one
        fixes each letter's multiplicity in turn, from the largest down, so a
        monomial with more copies of an earlier letter comes first.
        """
        if degree < 0:
            return []
        if degree == 0:
            return [UNIT]
        letters = self.letters
        deg = {letter: self.gen_degree(letter) for letter in letters}
        found: list[Monomial] = []
        if self.kind == KIND_TENSOR:
            # Depth-first over words, on an explicit stack: a word is as long
            # as its degree, deeper than Python's recursion limit allows.
            word: list[str] = []
            stack = [iter(letters)]  # per letter of word, and one more: letters to try
            remaining = degree
            while stack:
                letter = next(stack[-1], None)
                if letter is None:
                    stack.pop()
                    if word:
                        remaining += deg[word.pop()]
                elif deg[letter] <= remaining:
                    word.append(letter)
                    remaining -= deg[letter]
                    if remaining:
                        stack.append(iter(letters))
                    else:
                        found.append(tuple(word))
                        remaining += deg[word.pop()]
        else:
            def walk_c(idx: int, prefix: list[str], remaining: int) -> None:
                if remaining == 0:
                    found.append(tuple(prefix))
                    return
                if idx >= len(letters):
                    return
                letter = letters[idx]
                d = deg[letter]
                max_mult = min(remaining // d, 1) if d % 2 else remaining // d
                for mult in range(max_mult, -1, -1):
                    walk_c(idx + 1, prefix + [letter] * mult, remaining - mult * d)

            walk_c(0, [], degree)
        found.sort(key=len)
        return found

    def basis_in_cdeg(self, cdeg: int) -> list[Monomial]:
        return self.basis_in_degree(to_cohomological(cdeg, self.grading))

    # ------------------------------------------------------------ complexes

    def algebra_complex(self) -> CochainComplex:
        """The underlying cochain complex (bases of monomials, matrix of d)."""

        def diff_fn(n: int) -> Matrix:
            return cx.matrix(n, lambda mono: self.differential({mono: Fraction(1)}))

        cx = CochainComplex(self.basis_in_cdeg, diff_fn)
        return cx

    def indecomposables_complex(
        self, exclude: frozenset[str] = frozenset()
    ) -> CochainComplex:
        """Generators with the linear part of d (the chain complex of cells).

        Generators in ``exclude`` are left out together with every linear
        term that hits them: relative models pass their base generators, and
        the result is the linear part of the fiber.
        """

        def basis_fn(n: int) -> list[str]:
            return [g for g in self.letters if self.gen_cdeg(g) == n and g not in exclude]

        def diff_fn(n: int) -> Matrix:
            return cx.matrix(n, lambda g: {
                w: c for w, c in self.linear_part(self.diff[g]).items() if w not in exclude
            })

        cx = CochainComplex(basis_fn, diff_fn)
        return cx


def insert(
    values: dict[str, Element],
    parity: int,
    occurrences: list[tuple],
    target: FreeDgAlgebra,
    out: Element | None = None,
    negate: int = 0,
) -> Element:
    """Σ (−1)^{parity·odd}·c·P·F(x_i)·S over occurrences (mono, i, c, odd, P, S).

    With F given by its values on generators and the occurrences of an
    element from ``FreeDgAlgebra.occurrences``, this is the u-twisted
    derivation F applied to that element: the one insertion rule behind
    ``apply_derivation``, the differential of Der(A, U) and the brace.  The
    sum is added to ``out`` when given, and subtracted when ``negate`` is 1.
    """
    out = {} if out is None else out
    for mono, i, coeff, odd, before, after in occurrences:
        value = values.get(mono[i])
        if value and after:
            c = -coeff if (parity & odd) ^ negate else coeff
            for mono, val in target.mul(before, value, after).items():
                el_add_term(out, mono, c if val == 1 else c * val)
    return out


def trivial_algebra(grading: str) -> FreeDgAlgebra:
    """The base field as a free algebra with no generators."""
    return FreeDgAlgebra(KIND_COMMUTATIVE, grading, [])


class AlgebraMorphism:
    """A dg algebra morphism given by generator images in the target."""

    def __init__(
        self,
        source: FreeDgAlgebra,
        target: FreeDgAlgebra,
        images: dict[str, Element],
    ) -> None:
        self.source = source
        self.target = target
        self.images = {g: dict(images.get(g, {})) for g in source.generators}

    @classmethod
    def name_matching(cls, source: FreeDgAlgebra, target: FreeDgAlgebra) -> "AlgebraMorphism":
        """Send each generator to the same-named target generator (else 0)."""
        images: dict[str, Element] = {}
        for g, gen in source.generators.items():
            if g in target.generators and target.gen_degree(g) == gen.degree:
                images[g] = target.gen_element(g)
            else:
                images[g] = {}
        return cls(source, target, images)

    @classmethod
    def identity(cls, algebra: FreeDgAlgebra) -> "AlgebraMorphism":
        return cls(algebra, algebra, {g: algebra.gen_element(g) for g in algebra.generators})

    @classmethod
    def augmentation(cls, source: FreeDgAlgebra, target: FreeDgAlgebra) -> "AlgebraMorphism":
        """Kill every generator (the unit map composed with the counit)."""
        return cls(source, target, {g: {} for g in source.generators})

    def apply(self, el: Element) -> Element:
        out: Element = {}
        for mono, coeff in el.items():
            term = self.target.one()
            for letter in mono:
                term = self.target.mul(term, self.images[letter])
                if not term:
                    break
            for tm, tc in term.items():
                el_add_term(out, tm, coeff * tc)
        return out

    def check(self) -> list[str]:
        """Degree preservation and the chain property on generators; once
        both hold, out of a commutative source, graded commutativity of the
        images (an odd image squares to zero)."""
        problems: list[str] = []
        for g in sorted(self.source.generators):
            img = self.images[g]
            if img:
                src_cdeg = self.source.gen_cdeg(g)
                try:
                    native = self.target.element_degree(img)
                except ValueError:
                    problems.append(f"image of {g!r} is not homogeneous")
                    continue
                tgt_cdeg = to_cohomological(native, self.target.grading)  # type: ignore[arg-type]
                if tgt_cdeg != src_cdeg:
                    problems.append(
                        f"image of {g!r} has degree {tgt_cdeg}, expected {src_cdeg}"
                    )
            lhs = self.apply(self.source.diff[g])
            rhs = self.target.differential(img)
            if el_add(lhs, rhs, Fraction(-1)):
                problems.append(f"morphism does not commute with d on {g!r}")
        if self.source.kind == KIND_COMMUTATIVE and not problems:
            gens = sorted(self.source.generators)
            for i, g in enumerate(gens):
                for h in gens[i:]:
                    if self.target.commutator(self.images[g], self.images[h]):
                        problems.append(f"images of {g!r} and {h!r} do not graded-commute")
        return problems


def format_element(el: Element) -> str:
    """Human-readable rendering, e.g. ``2*x*y - 1/2*q``; unit monomial is 1."""
    if not el:
        return "0"
    parts: list[str] = []
    for mono in sorted(el, key=lambda m: (len(m), m)):
        coeff = el[mono]
        word = "*".join(mono) if mono else "1"
        if coeff == 1 and mono:
            term = word
        elif coeff == -1 and mono:
            term = f"-{word}"
        elif mono:
            term = f"{coeff}*{word}"
        else:
            term = str(coeff)
        parts.append(term)
    text = " + ".join(parts)
    return text.replace("+ -", "- ")
