"""Model files: grammar, builtin library, validation, and high-level reports.

The model grammar is line-oriented UTF-8 with ``#`` comments; a leading
byte-order mark is skipped, and any whitespace ends a directive:

    name TEXT                        optional metadata
    description TEXT                 optional metadata
    flavor associative|commutative
    grading homological|cohomological
    gen NAME : INT [stage INT] [base]
    d NAME = EXPR
    diag NAME = DEXPR

EXPR is ``0`` or a sum of terms joined by ``+``/``-``; each term is
``[RATIONAL *] NAME[^INT] (NAME[^INT])*`` with rationals written ``p`` or
``p/q``; ``1`` denotes the unit.  DEXPR, the reduced diagonal of a cell, is
a sum of terms ``[RATIONAL *] NAME ⊗ NAME``, stored like an element as a
{(left, right): coefficient} dict; the ASCII spelling ``(x)`` is accepted
for ``⊗`` on input and ``⊗`` is canonical on output.  Every generator's
differential defaults to 0.  Names match ``[A-Za-z_][A-Za-z0-9_]*``; INT is
an optionally signed run of ASCII digits, ``-?[0-9]+``.  A file has at most
one line of each header directive (``name`` to ``grading``), each generator
at most one ``d`` and one ``diag``, and a ``gen`` line each option at most once.
Each builtin model is a text in this grammar, parsed like a file, so
``print builtin:NAME`` shows exactly that text.

Two model families get extra validation and reports: homological associative
models ("cellular models": one cell of dimension degree + 1 per generator)
and cohomological commutative models, optionally relative via ``base``
generator flags.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

from .algebra import (
    AlgebraMorphism,
    Element,
    FreeDgAlgebra,
    Generator,
    KIND_COMMUTATIVE,
    KIND_TENSOR,
    el_add_term,
)
from .complexes import (
    GRADING_COHOMOLOGICAL,
    GRADING_HOMOLOGICAL,
    to_cohomological,
)
from .derivations import (
    ConeComplex,
    DerComplex,
    closure_offenders,
)
from .tower import FilteredComplex, SpectralSequence

KIND_OF_FLAVOR = {"associative": KIND_TENSOR, "commutative": KIND_COMMUTATIVE}
FLAVORS = tuple(KIND_OF_FLAVOR)
GRADINGS = (GRADING_HOMOLOGICAL, GRADING_COHOMOLOGICAL)

# Header directives, each allowed once, and the values each may take (None: any text).
_HEADERS = {"name": None, "description": None, "flavor": FLAVORS, "grading": GRADINGS}

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"-?[0-9]+")
_EXPR_TOKEN_RE = re.compile(
    r"\s*([0-9]+/[0-9]+|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\^|\*|\+|-|⊗|\(x\))"
)


# The reduced diagonal of one cell, {(left, right): coefficient}; primitive
# cells have none.
Diagonal = dict[tuple[str, str], Fraction]


class ModelSyntaxError(ValueError):
    """A model file failed to parse; the message starts with the offending
    line number unless the fault is in the file as a whole (None)."""

    def __init__(self, line_no: int | None, message: str) -> None:
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class ModelFile(NamedTuple):
    """Parsed model: its algebra, the diagonals of its cells, and metadata."""

    algebra: FreeDgAlgebra
    diagonals: dict[str, Diagonal]
    name: str = ""
    description: str = ""


def model_family(mf: ModelFile) -> str:
    """"cellular" / "sullivan" / "generic" according to flavor and grading."""
    kind, grading = mf.algebra.kind, mf.algebra.grading
    if kind == KIND_TENSOR and grading == GRADING_HOMOLOGICAL:
        return "cellular"
    if kind == KIND_COMMUTATIVE and grading == GRADING_COHOMOLOGICAL:
        return "sullivan"
    return "generic"


# ---------------------------------------------------------------- parsing


def _tokenize_expression(text: str, line_no: int) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _EXPR_TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ModelSyntaxError(
                    line_no, f"unexpected character {text[pos:].strip()[0]!r}"
                )
            break
        token = match.group(1)
        tokens.append("⊗" if token == "(x)" else token)
        pos = match.end()
    return tokens


def _parse_int(text: str, line_no: int | None, what: str) -> int:
    """The one integer reader: an optionally signed run of ASCII digits."""
    if not _INT_RE.fullmatch(text):
        raise ModelSyntaxError(line_no, f"bad {what} {text!r}")
    try:
        return int(text)
    except ValueError:  # beyond the interpreter's limit on int() digits
        raise ModelSyntaxError(line_no, f"number of {len(text)} digits is too long") from None


def _parse_rational(token: str, line_no: int) -> Fraction:
    if "/" in token:
        num, den = (_parse_int(part, line_no, "coefficient") for part in token.split("/"))
        if den == 0:
            raise ModelSyntaxError(line_no, f"zero denominator in {token!r}")
        return Fraction(num, den)
    return Fraction(_parse_int(token, line_no, "coefficient"))


def _parse_terms(
    tokens: list[str], line_no: int
) -> list[tuple[Fraction, list[tuple[str, int]]]]:
    """Shared sum-of-terms parser: (coefficient, [(factor name, power)]).

    Powers stay unexpanded, so each caller can refuse an oversized one first.
    """
    terms: list[tuple[Fraction, list[tuple[str, int]]]] = []
    sign = Fraction(1)
    pos = 0

    def error(msg: str) -> ModelSyntaxError:
        return ModelSyntaxError(line_no, msg)

    while pos < len(tokens):
        token = tokens[pos]
        if token == "+":
            sign = Fraction(1)
            pos += 1
            continue
        if token == "-":
            sign = -sign
            pos += 1
            continue
        coeff = sign
        factors: list[tuple[str, int]] = []
        if re.fullmatch(r"[0-9]+(/[0-9]+)?", token):
            coeff *= _parse_rational(token, line_no)
            pos += 1
            if pos < len(tokens) and tokens[pos] == "*":
                pos += 1
        while pos < len(tokens) and (
            NAME_RE.fullmatch(tokens[pos]) or tokens[pos] == "⊗"
        ):
            if tokens[pos] == "⊗":
                factors.append(("⊗", 1))
                pos += 1
                continue
            name = tokens[pos]
            pos += 1
            power = 1
            if pos < len(tokens) and tokens[pos] == "^":
                pos += 1
                if pos >= len(tokens):
                    raise error("expected an integer exponent after ^")
                power = _parse_int(tokens[pos], line_no, "exponent")
                if power < 1:
                    raise error("exponents must be >= 1")
                pos += 1
            factors.append((name, power))
        if pos < len(tokens) and tokens[pos] not in "+-":
            raise error(f"unexpected token {tokens[pos]!r}")
        terms.append((coeff, factors))
        sign = Fraction(1)
    return terms


def parse_expression(
    algebra: FreeDgAlgebra, text: str, line_no: int = 0
) -> Element:
    """Parse an EXPR, the value of a differential, into a normalized element.

    Every generator has degree >= 1, so a word of d(v) has at most |v| + 1
    letters; a word longer than the largest such bound is refused before its
    powers are expanded.
    """
    terms = _parse_terms(_tokenize_expression(text, line_no), line_no)
    max_letters = max(map(algebra.gen_degree, algebra.generators), default=0) + 1
    out: Element = {}
    for coeff, factors in terms:
        if ("⊗", 1) in factors:
            raise ModelSyntaxError(line_no, "⊗ is only allowed in diag lines")
        letters = sum(power for _, power in factors)
        if letters > max_letters:
            raise ModelSyntaxError(
                line_no, f"a word of {letters} letters has degree at least {letters}, "
                f"more than any differential here (at most {max_letters})"
            )
        if coeff == 0:
            continue
        for letter, _ in factors:
            if letter not in algebra.generators:
                raise ModelSyntaxError(line_no, f"unknown generator {letter!r}")
        word = tuple(letter for letter, power in factors for _ in range(power))
        norm_sign, mono = algebra.normalize_monomial(word)
        if mono is None:
            raise ModelSyntaxError(
                line_no, "square of an odd generator vanishes in a commutative algebra"
            )
        el_add_term(out, mono, coeff * norm_sign)
    return out


def parse_diagonal(
    algebra: FreeDgAlgebra, text: str, line_no: int = 0
) -> Diagonal:
    """Parse a DEXPR into combined terms, in the order of (left, right) as a word."""
    terms = _parse_terms(_tokenize_expression(text, line_no), line_no)
    combined: Diagonal = {}
    for coeff, factors in terms:
        shape = [(name if name == "⊗" else "NAME", power) for name, power in factors]
        if shape != [("NAME", 1), ("⊗", 1), ("NAME", 1)]:
            raise ModelSyntaxError(
                line_no, "each diagonal term must be NAME ⊗ NAME"
            )
        key = (factors[0][0], factors[2][0])
        for letter in key:
            if letter not in algebra.generators:
                raise ModelSyntaxError(line_no, f"unknown generator {letter!r}")
        el_add_term(combined, key, coeff)
    return dict(sorted(combined.items(), key=lambda kv: algebra.monomial_key(kv[0])))


def parse_model(text: str) -> ModelFile:
    """Parse a model file, raising ModelSyntaxError with a line number."""
    settings: dict[str, str] = {}
    generators: dict[str, Generator] = {}
    body: list[tuple[int, str, str, str]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, rest = (line.split(None, 1) + [""])[:2]
        if head in _HEADERS:
            if head in settings:
                raise ModelSyntaxError(line_no, f"duplicate {head} line")
            allowed = _HEADERS[head]
            if allowed is not None and rest not in allowed:
                raise ModelSyntaxError(line_no, f"{head} must be one of {allowed}")
            settings[head] = rest
        elif head == "gen":
            words = rest.replace(":", " : ").split()
            if len(words) < 3 or words[1] != ":":
                raise ModelSyntaxError(line_no, "expected `gen NAME : INT ...`")
            gen_name = words[0]
            if not NAME_RE.fullmatch(gen_name):
                raise ModelSyntaxError(line_no, f"bad generator name {gen_name!r}")
            if gen_name in generators:
                raise ModelSyntaxError(line_no, f"duplicate generator {gen_name!r}")
            degree = _parse_int(words[2], line_no, "degree")
            if degree <= 0:
                raise ModelSyntaxError(
                    line_no, f"generator {gen_name!r} has nonpositive degree {degree}"
                )
            options: dict[str, int | None] = {}
            option_words = iter(words[3:])
            for word in option_words:
                if word not in ("stage", "base"):
                    raise ModelSyntaxError(line_no, f"unexpected token {word!r} in gen line")
                if word in options:
                    raise ModelSyntaxError(line_no, f"duplicate {word} in gen line")
                options[word] = None
                if word == "stage":
                    value = next(option_words, None)
                    if value is None:
                        raise ModelSyntaxError(line_no, "stage requires an integer")
                    options[word] = stage = _parse_int(value, line_no, "stage")
                    if stage < 0:
                        raise ModelSyntaxError(line_no, f"stage {stage} is negative")
            generators[gen_name] = Generator(gen_name, degree, options.get("stage"), "base" in options)
        elif head in ("d", "diag"):
            lhs, eq, rhs = rest.partition("=")
            if not eq:
                value = "EXPR" if head == "d" else "DEXPR"
                raise ModelSyntaxError(line_no, f"expected `{head} NAME = {value}`")
            body.append((line_no, head, lhs.strip(), rhs.strip()))
        else:
            raise ModelSyntaxError(line_no, f"unknown directive {head!r}")

    for head in ("flavor", "grading"):
        if head not in settings:
            raise ModelSyntaxError(None, f"missing `{head}` line")

    algebra = FreeDgAlgebra(
        KIND_OF_FLAVOR[settings["flavor"]], settings["grading"], list(generators.values())
    )
    done: set[tuple[str, str]] = set()
    diagonals: dict[str, Diagonal] = {}
    for line_no, head, gen_name, expr in body:
        if gen_name not in generators:
            raise ModelSyntaxError(line_no, f"{head} for unknown generator {gen_name!r}")
        if (head, gen_name) in done:
            raise ModelSyntaxError(line_no, f"duplicate {head} line for {gen_name!r}")
        done.add((head, gen_name))
        if head == "diag":
            diagonals[gen_name] = parse_diagonal(algebra, expr, line_no)
            continue
        element = parse_expression(algebra, expr, line_no)
        try:
            algebra.set_differential(gen_name, element)
        except ValueError as exc:
            raise ModelSyntaxError(line_no, str(exc)) from None
    # A primitive cell has no diagonal, also when its diag terms cancel.
    diagonals = {g: terms for g, terms in diagonals.items() if terms}
    return ModelFile(algebra, diagonals, settings.get("name", ""), settings.get("description", ""))


# ---------------------------------------------------------------- printing


def _signed_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """``a - 2 * b + ...`` from (coefficient, body) pairs; an empty body is 1."""
    parts: list[str] = []
    for coeff, body in terms:
        magnitude = abs(coeff)
        if not body:
            term = str(magnitude)
        else:
            term = body if magnitude == 1 else f"{magnitude} * {body}"
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {term}")
    return " ".join(parts) or "0"


def format_expression(algebra: FreeDgAlgebra, el: Element) -> str:
    """Canonical EXPR text for an element (powers grouped, sorted terms)."""
    return _signed_sum(
        (
            el[mono],
            " ".join(
                letter if size == 1 else f"{letter}^{size}"
                for letter, size in ((letter, len(list(run))) for letter, run in groupby(mono))
            ),
        )
        for mono in algebra.sorted_monomials(el)
    )


def print_model(mf: ModelFile) -> str:
    """Canonical text form, a fixed point of print_model ∘ parse_model."""
    algebra = mf.algebra
    flavor = {kind: flavor for flavor, kind in KIND_OF_FLAVOR.items()}[algebra.kind]
    lines: list[str] = []
    if mf.name:
        lines.append(f"name {mf.name}")
    if mf.description:
        lines.append(f"description {mf.description}")
    lines.append(f"flavor {flavor}")
    lines.append(f"grading {algebra.grading}")
    for g in algebra.generators.values():
        decl = f"gen {g.name} : {g.degree}"
        if g.stage is not None:
            decl += f" stage {g.stage}"
        if g.name in algebra.base:
            decl += " base"
        lines.append(decl)
    for g, value in algebra.diff.items():
        lines.append(f"d {g} = {format_expression(algebra, value)}")
    for gen_name in (g for g in algebra.letters if g in mf.diagonals):
        terms = ((c, f"{a} ⊗ {b}") for (a, b), c in mf.diagonals[gen_name].items())
        lines.append(f"diag {gen_name} = {_signed_sum(terms)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- builtins

# Family pattern -> (least value of each parameter, parity the one parameter
# must have or None, the model text after the `name` line).
_BUILTINS = {
    "ah:sphere:<n>": ((2,), None, lambda n: f"""
description loop-space model of the {n}-sphere
flavor associative
grading homological
gen x : {n - 1}
d x = 0
"""),
    "ah:wedge:<n>,<m>": ((2, 2), None, lambda n, m: f"""
description loop-space model of a wedge of a {n}- and a {m}-sphere
flavor associative
grading homological
gen a : {n - 1}
gen b : {m - 1}
d a = 0
d b = 0
"""),
    "sullivan:sphere:odd:<n>": ((3,), "odd", lambda n: f"""
description minimal model of the odd {n}-sphere
flavor commutative
grading cohomological
gen x : {n}
d x = 0
"""),
    "sullivan:sphere:even:<n>": ((2,), "even", lambda n: f"""
description minimal model of the even {n}-sphere
flavor commutative
grading cohomological
gen x : {n}
gen y : {2 * n - 1}
d x = 0
d y = x^2
"""),
    "sullivan:cpn:<n>": ((1,), None, lambda n: f"""
description minimal model of complex projective {n}-space
flavor commutative
grading cohomological
gen x : 2
gen y : {2 * n + 1}
d x = 0
d y = x^{n + 1}
"""),
    "sullivan:hopf": ((), None, lambda: """
description circle bundle over the even 2-sphere with total space the 3-sphere
flavor commutative
grading cohomological
gen x : 2 base
gen y : 3 base
gen z : 1
d x = 0
d y = x^2
d z = x
"""),
}


def builtin_names() -> list[str]:
    """Representative builtin names (the numeric families are open-ended)."""
    return [*_BUILTINS, "trivial-fibration:<sullivan builtin>"]


def _builtin_text(name: str) -> str:
    """The model text of a builtin name; ValueError if there is none."""
    inner = name.removeprefix("trivial-fibration:")
    if inner != name:
        lines = _builtin_text(inner).splitlines()
        if "flavor commutative" not in lines or "grading cohomological" not in lines:
            raise ValueError("trivial-fibration wrappers apply to sullivan builtins only")
        lines[:2] = [
            f"name {name}",
            f"description {inner} as the fiber of a fibration over a point",
        ]
        return "".join(line.removesuffix(" base") + "\n" for line in lines)
    for pattern, (minimums, parity, text) in _BUILTINS.items():
        prefix = pattern.split("<", 1)[0]
        if not (name.startswith(prefix) if minimums else name == pattern):
            continue
        rest = name[len(prefix) :]
        # A one-parameter family reads all of the rest, so `2,3` is one bad parameter.
        params = rest.split(",") if len(minimums) > 1 else [rest][: len(minimums)]
        if len(params) != len(minimums):
            raise ValueError(f"builtin {name!r} requires two parameters n,m")
        values = []
        for param, minimum in zip(params, minimums):
            try:
                values.append(_parse_int(param, None, "parameter"))
            except ModelSyntaxError:
                raise ValueError(f"bad parameter {param!r} in builtin {name!r}") from None
            if values[-1] < minimum:
                raise ValueError(f"builtin {name!r} requires parameter >= {minimum}")
        if parity is not None and values[0] % 2 != (parity == "odd"):
            raise ValueError(f"builtin {name!r} requires an {parity} degree")
        return f"name {name}{text(*values)}"
    raise ValueError(f"unknown builtin model {name!r}")


def builtin(name: str) -> ModelFile:
    """The builtin model library, keyed by colon-separated names."""
    return parse_model(_builtin_text(name))


def load_model(spec_text: str) -> ModelFile:
    """Resolve ``builtin:NAME`` or a file path into a parsed model."""
    if spec_text.startswith("builtin:"):
        return builtin(spec_text[len("builtin:") :])
    with open(spec_text, "r", encoding="utf-8-sig") as handle:
        return parse_model(handle.read())


# ------------------------------------------------------------ cell diagonals


def diagonal_problems(algebra: FreeDgAlgebra, diagonals: dict[str, Diagonal]) -> list[str]:
    """Degree mismatches and failures of the coderivation condition.

    Each generator v names one cell of dimension deg(v) + 1; cells without a
    diagonal are primitive.  With trivial coefficients the coderivation
    condition is the transpose of the first-page product rule for the
    convolution product, so ``ss --check-multiplicative`` reports this check.
    """
    cell = lambda name: algebra.gen_degree(name) + 1
    lin = {g: algebra.linear_part(algebra.diff[g]) for g in algebra.generators}
    out: list[str] = []
    for name in sorted(diagonals):
        for left, right in diagonals[name]:
            if cell(left) + cell(right) != cell(name):
                out.append(f"diag {name}: cell degrees of {left} ⊗ {right} do not add up")
    for name in sorted(algebra.generators):
        # Both sides of Δ̄(∂c) = (∂⊗1 + 1⊗∂)(Δ̄c) as pair dictionaries.
        lhs: Diagonal = {}
        for target, coeff in lin[name].items():
            for pair, c in diagonals.get(target, {}).items():
                el_add_term(lhs, pair, coeff * c)
        rhs: Diagonal = {}
        for (left, right), c in diagonals.get(name, {}).items():
            for target, coeff in lin[left].items():
                el_add_term(rhs, (target, right), c * coeff)
            sign = -1 if cell(left) % 2 else 1
            for target, coeff in lin[right].items():
                el_add_term(rhs, (left, target), sign * c * coeff)
        if lhs != rhs:
            out.append(f"diag {name}: not a coderivation against the cellular differential")
    return out


# ---------------------------------------------------------------- validation


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class ValidationReport(NamedTuple):
    family: str
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def validate_model(mf: ModelFile) -> ValidationReport:
    """Structural checks: d² = 0, stages, family conditions."""
    family = model_family(mf)
    algebra = mf.algebra
    bad_squares = algebra.d_squared_failures_on_generators()
    checks = [
        CheckResult(
            "d squared is zero on generators",
            not bad_squares,
            ", ".join(bad_squares),
        )
    ]

    stage_bad = algebra.stage_condition_failures()
    checks.append(
        CheckResult(
            "stage condition (d lands below the stage)",
            not stage_bad,
            ", ".join(stage_bad),
        )
    )

    if algebra.base:
        closure_bad = closure_offenders(algebra, algebra.base)
        checks.append(
            CheckResult(
                "base subalgebra closed under d",
                not closure_bad,
                ", ".join(closure_bad),
            )
        )
        checks.append(
            CheckResult(
                "base flags require a sullivan model",
                family == "sullivan",
                f"family is {family}",
            )
        )

    if mf.diagonals:
        if family != "cellular":
            checks.append(
                CheckResult(
                    "diagonal data requires a cellular model",
                    False,
                    f"family is {family}",
                )
            )
        else:
            problems = diagonal_problems(algebra, mf.diagonals)
            checks.append(
                CheckResult(
                    "diagonal is a coderivation on cells",
                    not problems,
                    "; ".join(problems),
                )
            )
    return ValidationReport(family, checks)


# ------------------------------------------------------------- loop report


class LoopHomologyReport(NamedTuple):
    """Free-loop-space homology of a cellular model via the adjoint cone."""

    betti: dict[int, int]
    tower: TowerReport
    e2_engine: dict[tuple[int, int], int]
    e2_expected: dict[tuple[int, int], int]


def algebra_homology_dims(algebra: FreeDgAlgebra, degrees: Sequence[int]) -> dict[int, int]:
    """Homology of the underlying complex, keyed by native degree."""
    cx = algebra.algebra_complex()
    return {n: cx.homology_dim(to_cohomological(n, algebra.grading)) for n in degrees}


def quillen_dims(
    algebra: FreeDgAlgebra,
    degrees: Sequence[int],
    exclude: frozenset[str] = frozenset(),
) -> dict[int, int]:
    """Homology of the indecomposables without ``exclude``, keyed by native degree."""
    cx = algebra.indecomposables_complex(exclude)
    return {n: cx.homology_dim(to_cohomological(n, algebra.grading)) for n in degrees}


def hom_table(
    rows: dict[int, int], cols: dict[int, int]
) -> dict[tuple[int, int], int]:
    """The nonzero products rows[s]·cols[t], keyed by (s, t): the dimensions
    of Hom between two graded spaces, bigraded by source and target degree."""
    return {
        (s, t): rows[s] * cols[t]
        for s in rows
        for t in cols
        if rows[s] * cols[t]
    }


def loop_homology(
    mf: ModelFile, window: int = 10, pages: Sequence[int] = ()
) -> LoopHomologyReport:
    """Loop-space homology report for a cellular model.

    Classes of the adjoint-cone spectral sequence at filtration s and
    internal total degree n are reported in loop degree m = 2s − n: a
    derivation slot (v ↦ w) then sits at (s, t) = (deg v + 1, deg w), the
    bidegrees of maps from degree-s cells into the degree-t loop homology,
    and the algebra column s = 0 supplies the cell-free summand.  Pages
    keep the internal (s, t) with loop degree −t in the window; the second
    page is compared with Hom keyed by (s, −degree).  These labels hold
    only when each generator's stage is its degree, so any other stage is
    refused.
    """
    if model_family(mf) != "cellular":
        raise ValueError("loop homology requires an associative homological model")
    algebra = mf.algebra
    for g in algebra.generators.values():
        if algebra.gen_stage(g.name) != g.degree:
            raise ValueError(
                f"loop homology needs stage = degree: {g.name!r} has degree {g.degree}, "
                f"stage {g.stage}"
            )
    ss = SpectralSequence(ConeComplex(algebra).tower())
    max_level = ss.fc.max_level

    # {2s − m : 0 ≤ s ≤ max_level, 0 ≤ m ≤ window}, once window ≥ 1
    needed_n = range(-window, 2 * max_level + 1)
    tower = tower_report(ss, needed_n, sorted({*pages, 2, ss.stable_page}))
    betti: dict[int, int] = {m: 0 for m in range(0, window + 1)}
    for (s, t), dim in tower.pages_internal[ss.stable_page].items():
        if 0 <= s - t <= window:
            betti[s - t] += dim
    in_window = {
        r: {(s, t): dim for (s, t), dim in page.items() if 0 <= -t <= window}
        for r, page in tower.pages_internal.items()
    }

    # Cells of degree s ≥ 1: indecomposable homology in degree s − 1 (none in 0).
    h_cells = {0: 1}
    q_dims = quillen_dims(algebra, list(range(1, max_level)))
    for s in range(1, max_level + 1):
        h_cells[s] = q_dims.get(s - 1, 0)
    h_loops = algebra_homology_dims(algebra, list(range(0, window + 1)))
    e2_expected = hom_table(h_cells, {-m: dim for m, dim in h_loops.items()})
    return LoopHomologyReport(
        betti=betti,
        tower=tower._replace(pages_internal={r: in_window[r] for r in pages}),
        e2_engine=in_window[2],
        e2_expected=e2_expected,
    )


# -------------------------------------------------------------- aut report


class BracketEntry(NamedTuple):
    """One Lie bracket of homotopy classes: [a_i, b_j] in class coordinates."""

    degree_a: int
    index_a: int
    degree_b: int
    index_b: int
    coords: list[str]


class AutHomotopyReport(NamedTuple):
    """Rational homotopy of the identity component of fiberwise self-maps."""

    dims: dict[int, int]
    degree_zero_dim: int
    hom_shaped: dict[tuple[int, int], int]
    tower: TowerReport
    der: DerComplex


def fiber_homotopy_dims(mf: ModelFile, window: int) -> dict[int, int]:
    """Linear-part homology of the fiber generators, keyed by degree."""
    dims = quillen_dims(
        mf.algebra, list(range(1, window + 1)), exclude=mf.algebra.base
    )
    return {n: d for n, d in dims.items() if d}


def aut_homotopy(
    mf: ModelFile, window: int = 10, pages: Sequence[int] = ()
) -> AutHomotopyReport:
    """Dimensions of H^{-n} of the base-fixing derivations, with pages.

    Degree n ≥ 1 of the table is the rational homotopy in degree n, read
    off the direct column of the assembly check.  Pages are keyed by
    internal bidegree; the command line prints them also in the (σ, τ)
    labels of the hom-shaped table.
    """
    if model_family(mf) != "sullivan":
        raise ValueError(
            "self-equivalence homotopy requires a commutative cohomological model"
        )
    der, fc = derivation_tower(mf)
    tower = tower_report(SpectralSequence(fc), range(-window, 1), pages)
    direct = {-n: h for n, (_, h, _) in tower.assembly.items()}
    if mf.algebra.base == mf.algebra.generators.keys():
        tower = tower._replace(assembly={})  # no fiber generators: nothing to assemble
    pi_f = fiber_homotopy_dims(mf, window)
    h_total = algebra_homology_dims(mf.algebra, list(range(0, window + 1)))
    return AutHomotopyReport(
        dims={n: direct[n] for n in range(1, window + 1)},
        degree_zero_dim=direct[0],
        hom_shaped=hom_table(pi_f, h_total),
        tower=tower,
        der=der,
    )


def bracket_table(der: DerComplex, window: int) -> list[BracketEntry]:
    """Lie brackets of the cohomology representatives in degrees 1..window,
    reduced to class coordinates."""
    cx = der.complex()
    entries: list[BracketEntry] = []
    degrees = [n for n in range(1, window + 1) if cx.homology_dim(-n)]
    for n_a in degrees:
        h_a = cx.homology(-n_a)
        for n_b in degrees:
            if n_b < n_a or n_a + n_b > window:
                continue
            h_b = cx.homology(-n_b)
            h_out = cx.homology(-(n_a + n_b))
            for i, rep_a in enumerate(h_a.basis):
                values_a = der.values_of_vector(rep_a, -n_a)
                for j, rep_b in enumerate(h_b.basis):
                    if n_b == n_a and j < i:
                        continue
                    values_b = der.values_of_vector(rep_b, -n_b)
                    bracket = der.lie_bracket(values_a, -n_a, values_b, -n_b)
                    vec = der.vector_of_values(bracket, -(n_a + n_b))
                    coords = h_out.reduce(vec)
                    coord_list = [str(coords.get(k, 0)) for k in range(h_out.dim)]
                    entries.append(BracketEntry(n_a, i, n_b, j, coord_list))
    return entries


# ----------------------------------------------------- generic ss reporting


class TowerReport(NamedTuple):
    """Spectral-sequence run of a tower over a window of total degrees."""

    pages_internal: dict[int, dict[tuple[int, int], int]]
    assembly: dict[int, tuple[int, int, bool]]


def derivation_tower(
    mf: ModelFile, u: AlgebraMorphism | None = None
) -> tuple[DerComplex, FilteredComplex]:
    """Der_u(A, U) of the model's algebra A and its stage tower.

    u: A → U defaults to the identity of A; base-flagged generators are held
    fixed.
    """
    der = DerComplex(mf.algebra, u, vanishing=mf.algebra.base)
    return der, der.tower()


def tower_report(ss: SpectralSequence, degrees: Sequence[int], pages: Sequence[int]) -> TowerReport:
    """The pages and the assembly check of ``ss`` over the total degrees ``degrees``."""
    return TowerReport(
        pages_internal={r: ss.page_dims(r, degrees) for r in pages},
        assembly=ss.total_degree_check(degrees),
    )
