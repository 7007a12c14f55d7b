"""Acceptance suite: one test per contract criterion, one line of output each.

Each test prints ``criterion N (<label>): PASS <detail>`` on success (visible
with ``pytest -s``; with ``-v`` the test name itself is the pass/fail line)
and asserts exact equalities throughout — no tolerances anywhere.

Independent oracles (criteria 7 and 8) are re-derived inside this file with
their own monomial bookkeeping and their own dense Gaussian elimination so
they share no code with the package modules they check.  The convolution
rule of criterion 9(d) lives here too: the package states the same identity
once, as validate's coderivation check on the diagonals.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import dgtangent
from dgtangent.algebra import AlgebraMorphism, FreeDgAlgebra, trivial_algebra
from dgtangent.derivations import (
    ConeComplex,
    DerComplex,
    brace,
    cup_product,
    restriction_sequence,
    slot_images,
    subalgebra_below_stage,
)
from dgtangent.complexes import CochainComplex, GRADING_HOMOLOGICAL
from dgtangent.linalg import Matrix, el_add, el_add_term
from dgtangent.models import (
    aut_homotopy,
    builtin,
    derivation_tower,
    loop_homology,
    model_family,
    parse_model,
    validate_model,
)
from dgtangent.tower import (
    ExactCoupleSS,
    SpectralSequence,
    alignment_check,
    collapse_report,
)

# The concrete builtin instances exercised by every "all builtins" clause.
# (trivial-fibration:sullivan:hopf is excluded: erasing the base flags of the
# circle-bundle model leaves d(z) = x with stage(x) ≥ stage(z), so it is not
# a tower of cofibrations and validate refuses it.)
BUILTINS = [
    "ah:sphere:2",
    "ah:sphere:3",
    "ah:wedge:2,2",
    "ah:wedge:2,3",
    "sullivan:sphere:odd:3",
    "sullivan:sphere:even:2",
    "sullivan:cpn:2",
    "sullivan:hopf",
    "trivial-fibration:sullivan:sphere:even:2",
]


def trivial_coefficients(algebra: FreeDgAlgebra) -> AlgebraMorphism:
    """u: A → k sending every generator to zero (base-field coefficients)."""
    return AlgebraMorphism.augmentation(algebra, trivial_algebra(algebra.grading))


# The coefficient morphisms of ``ss --coefficients self|trivial``.
COEFFICIENTS = {"self": AlgebraMorphism.identity, "trivial": trivial_coefficients}

# An associative homological model with interacting linear and quadratic
# differential terms and a declared diagonal; used where the builtin models
# (all of which have d = 0) would make a property vacuous.
CELLCOALG_TEXT = """
flavor associative
grading homological
gen u : 2
gen v : 3
gen w : 6
gen z : 7
d v = u
d w = v u - u v
d z = w + v^2
diag w = u (x) v + v (x) u
diag z = v (x) v
"""

WINDOW = list(range(-10, 11))

# Child processes import the package from where this process found it, so
# the suite also runs from a checkout with no PYTHONPATH set.
PACKAGE_ROOT = str(Path(dgtangent.__file__).resolve().parents[1])
MODELS_DIR = Path(__file__).resolve().parent / "models"
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH")))),
)


def _algebras():
    return [(name, builtin(name).algebra) for name in BUILTINS]


def _native_basis(algebra, n):
    cdeg = -n if algebra.grading == GRADING_HOMOLOGICAL else n
    return algebra.basis_in_cdeg(cdeg)


def _report(number, label, detail=""):
    print(f"criterion {number} ({label}): PASS {detail}".rstrip())


# --------------------------------------------------------------------------
# Independent dense linear algebra for the pinned oracles (criteria 7, 8).
# --------------------------------------------------------------------------


def dense_rank(rows):
    """Rank of a dense list-of-lists matrix over Fraction, by elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_criterion_01_structure_suite():
    """d² = 0 on all basis monomials to degree 12; 1000 random sign laws."""
    t0 = time.monotonic()
    monomials_checked = 0
    for name, algebra in _algebras():
        for n in range(0, 13):
            for mono in _native_basis(algebra, n):
                el = {mono: Fraction(1)}
                assert algebra.differential(algebra.differential(el)) == {}, (
                    name,
                    n,
                    mono,
                )
                monomials_checked += 1
    assert monomials_checked > 500

    rng = random.Random(20260814)
    algebras = _algebras()

    def random_element(algebra, n):
        basis = _native_basis(algebra, n)
        if not basis:
            return None
        el = {}
        for mono in rng.sample(basis, k=min(2, len(basis))):
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            el[mono] = el.get(mono, Fraction(0)) + c
        return {m: c for m, c in el.items() if c}

    checks = 0
    while checks < 1000:
        name, algebra = algebras[rng.randrange(len(algebras))]
        na, nb = rng.randint(1, 6), rng.randint(1, 6)
        a = random_element(algebra, na)
        b = random_element(algebra, nb)
        if a is None or b is None:
            continue
        # Leibniz: d is a degree ±1 derivation of the product.
        lhs = algebra.differential(algebra.mul(a, b))
        sign = Fraction(-1) if na % 2 else Fraction(1)
        rhs = {}
        for mono, c in algebra.mul(algebra.differential(a), b).items():
            rhs[mono] = rhs.get(mono, Fraction(0)) + c
        for mono, c in algebra.mul(a, algebra.differential(b)).items():
            rhs[mono] = rhs.get(mono, Fraction(0)) + sign * c
        rhs = {m: c for m, c in rhs.items() if c}
        assert lhs == rhs, (name, na, nb)
        checks += 1
        # Koszul sign of the twist (commutative flavor), associativity (all).
        if algebra.kind == "commutative":
            swap_sign = Fraction(-1) if (na * nb) % 2 else Fraction(1)
            swapped = {
                m: swap_sign * c for m, c in algebra.mul(b, a).items()
            }
            assert algebra.mul(a, b) == {m: c for m, c in swapped.items() if c}
            checks += 1
        nc = rng.randint(1, 4)
        c_el = random_element(algebra, nc)
        if c_el is not None:
            assert algebra.mul(algebra.mul(a, b), c_el) == algebra.mul(
                a, algebra.mul(b, c_el)
            )
            checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"structure suite took {elapsed:.1f}s"
    _report(1, "structure suite", f"{monomials_checked} monomials, {checks} random checks, {elapsed:.1f}s")


def test_criterion_02_jacobi_zariski_exactness():
    """Short exact restriction sequences for every d-closed stage pair."""
    pairs_checked = 0
    for name, algebra in _algebras():
        u = AlgebraMorphism.identity(algebra)
        stages = sorted({algebra.gen_stage(g) for g in algebra.generators})
        cuts = stages + [max(stages) + 1]
        valid_pairs = 0
        for lo, hi in itertools.combinations(cuts, 2):
            failures = restriction_sequence(algebra, u, lo, hi, WINDOW)
            if any("not closed under d" in failure for failure in failures):
                # a cut through a non-d-closed subset is not a cofibration
                # stage; the check must flag it rather than report exactness
                assert len(failures) == 1 and "offenders" in failures[0], (name, lo, hi)
                continue
            # Empty: dimensions add, both maps are chain maps, and the
            # sequence is exact, in every degree of the window.
            assert failures == [], (name, lo, hi)
            valid_pairs += 1
        assert valid_pairs >= 1, name
        pairs_checked += valid_pairs
    _report(2, "restriction exactness", f"{pairs_checked} stage pairs, degrees |p| <= 10")


def test_criterion_03_engine_oracle_equivalence():
    """Sum of stable entries per antidiagonal equals direct cohomology."""
    combos = 0
    for name in BUILTINS:
        mf = builtin(name)
        t0 = time.monotonic()
        towers = []
        for coefficients in ("self", "trivial"):
            _, fc = derivation_tower(mf, COEFFICIENTS[coefficients](mf.algebra))
            towers.append((coefficients, fc))
        cone = ConeComplex(mf.algebra)
        towers.append(("cone", cone.tower()))
        for coefficients, fc in towers:
            ss = SpectralSequence(fc)
            for n, (total, direct, ok) in ss.total_degree_check(WINDOW).items():
                assert ok, (name, coefficients, n, total, direct)
            combos += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"{name}: {elapsed:.1f}s"
    _report(3, "assembly vs direct cohomology", f"{combos} (model, coefficients) pairs")


def test_criterion_04_dual_route_equality():
    """Filtered Z/B pages and exact-couple derived pages agree to r = 6."""
    # Two-generator tensor models have large high-degree bases; their sweep
    # windows are narrowed to keep the exact-couple route affordable.
    windows = {
        "ah:wedge:2,2": range(-6, 7),
        "ah:wedge:2,3": range(-5, 5),
    }
    cells = 0
    for name in BUILTINS:
        mf = builtin(name)
        der, fc = derivation_tower(mf)
        ss, ec = SpectralSequence(fc), ExactCoupleSS(fc)
        for r in range(1, 7):
            for s in range(0, fc.max_level + 1):
                for n in windows.get(name, range(-10, 11)):
                    assert alignment_check(ss, ec, r, s, n - s) == [], (name, r, s, n)
                    cells += 1
        # Third route for d_1: a first-page class is a derivation determined
        # by its values on level-s generators (extended by zero); its usual
        # differential, reduced in the next column, must be the d_1 row.
        for s in range(0, fc.max_level + 1):
            for n in windows.get(name, range(-10, 11)):
                src = ss.entry(1, s, n)
                if not src.dim:
                    continue
                d1 = ss.d_matrix(1, s, n - s)
                tgt = ss.entry(1, s + 1, n + 1)
                for i, rep in enumerate(src.basis):
                    values = der.values_of_vector(rep, n)
                    dvals = der.differential_values(values, n)
                    vec = der.vector_of_values(dvals, n + 1)
                    assert tgt.reduce(vec) == dict(d1.rows[i]), (name, s, n, i)
    _report(4, "dual-route pages and d_r", f"{cells} aligned cells, r <= 6")


def test_criterion_05_first_page_law():
    """E_1 is hom(stage-s generators, coefficient homology)-shaped."""
    cellular = [n for n in BUILTINS if model_family(builtin(n)) == "cellular"]
    entries = 0
    for name in cellular:
        mf = builtin(name)
        algebra = mf.algebra
        for coefficients in ("self", "trivial"):
            der, fc = derivation_tower(mf, COEFFICIENTS[coefficients](mf.algebra))
            ss = SpectralSequence(fc)
            if coefficients == "self":
                u_cx = der.U.algebra_complex()
                h_u = lambda c: u_cx.homology(c).dim
            else:
                h_u = lambda c: 1 if c == 0 else 0
            page1 = ss.page_dims(1, WINDOW)
            for n in WINDOW:
                for s in range(0, fc.max_level + 1):
                    expected = sum(
                        h_u(n + algebra.gen_cdeg(v))
                        for v in algebra.generators
                        if algebra.gen_stage(v) == s
                    )
                    assert page1.get((s, n - s), 0) == expected, (
                        name, coefficients, s, n,
                    )
                    entries += 1
            # d_(1) = 0 for these models (their differential vanishes), so
            # d_1 = hom(d_(1), 1) = 0 and the second page equals the first.
            for (s, t), dim in page1.items():
                if dim:
                    assert ss.d_matrix(1, s, t).is_zero(), (name, coefficients, s, t)
            assert ss.page_dims(2, WINDOW) == page1, (name, coefficients)

    # The commutative Lambda(x_2, y_3) tower is the documented exception:
    # the quadratic term of d makes the honest first-page differential
    # nonzero, killing the (x -> 1) / (y -> x) pair, while the stable page
    # still assembles to the direct cohomology.
    mf = builtin("sullivan:sphere:even:2")
    der, fc = derivation_tower(mf)
    ss = SpectralSequence(fc)
    assert der.differential_values({"x": {(): Fraction(1)}}, -2) == {
        "y": {("x",): Fraction(-2)}
    }
    assert ss.page_dims(1, WINDOW) == {(2, -4): 1, (2, -2): 1, (3, -6): 1, (3, -4): 1}
    d1 = ss.d_matrix(1, 2, -4)
    assert (d1.nrows, d1.ncols) == (1, 1) and not d1.is_zero()
    assert ss.page_dims(ss.stable_page, WINDOW) == {(2, -2): 1, (3, -6): 1}
    _report(5, "first-page law", f"{entries} cells hom-shaped; quadratic exception exhibited")


def test_criterion_06_collapse_and_vanishing():
    """0-truncated coefficients degenerate at page 2; vanishing regions."""
    # (a) trivial coefficients are 0-truncated and non-negatively graded:
    # every page from the second on equals the stable page.
    for name in BUILTINS:
        mf = builtin(name)
        _, fc = derivation_tower(mf, trivial_coefficients(mf.algebra))
        ss = SpectralSequence(fc)
        stable = ss.page_dims(ss.stable_page, WINDOW)
        for r in range(2, ss.stable_page + 1):
            assert ss.page_dims(r, WINDOW) == stable, (name, r)
        col = collapse_report(ss, WINDOW)
        if col.predicted_page is not None:
            assert col.verified, (name, col)

    # (b) For an elementary cofibration of height s (one stage, generators
    # in degree s+1, d landing below) and coefficients concentrated in
    # degrees >= k, the relative derivation complex vanishes in all degrees
    # p >= s + 2 - k: cell-by-cell there is no basis slot there at all.
    cellular = [n for n in BUILTINS if model_family(builtin(n)) == "cellular"]
    slots_checked = 0
    for name in cellular + ["cellcoalg"]:
        algebra = (
            parse_model(CELLCOALG_TEXT).algebra
            if name == "cellcoalg"
            else builtin(name).algebra
        )
        stages = sorted({algebra.gen_stage(g) for g in algebra.generators})
        for sigma in stages:
            degrees = {
                algebra.gen_degree(g)
                for g in algebra.generators
                if algebra.gen_stage(g) == sigma
            }
            assert len(degrees) == 1  # elementary: single-degree stage
            height = next(iter(degrees)) - 1  # generators sit in degree s+1
            sub = subalgebra_below_stage(algebra, sigma + 1)
            below = {g for g in sub.generators if sub.gen_stage(g) < sigma}
            der = DerComplex(sub, vanishing=below)
            for k in range(0, 4):
                for p in range(height + 2 - k, height + 2 - k + 8):
                    for (v, mono) in der.basis(p):
                        value_deg = -(p + sub.gen_cdeg(v))  # homological
                        assert value_deg < k, (name, sigma, k, p, v, mono)
                        slots_checked += 1
                    truncated = [
                        slot
                        for slot in der.basis(p)
                        if -(p + sub.gen_cdeg(slot[0])) >= k
                    ]
                    assert truncated == [], (name, sigma, k, p)

    # (c) For b-truncated coefficients (no homology above degree b, realized
    # as the quotient module killing value degrees > b), the relative
    # cohomology vanishes in all degrees p <= s - b.
    checked_h = 0
    for name in ["ah:sphere:2", "ah:sphere:3", "ah:wedge:2,2", "cellcoalg"]:
        algebra = (
            parse_model(CELLCOALG_TEXT).algebra
            if name == "cellcoalg"
            else builtin(name).algebra
        )
        stages = sorted({algebra.gen_stage(g) for g in algebra.generators})
        for sigma in stages:
            degs = {
                algebra.gen_degree(g)
                for g in algebra.generators
                if algebra.gen_stage(g) == sigma
            }
            height = next(iter(degs)) - 1
            sub = subalgebra_below_stage(algebra, sigma + 1)
            below = {g for g in sub.generators if sub.gen_stage(g) < sigma}
            der = DerComplex(sub, vanishing=below)
            full = der.complex()
            for b in range(0, 4):

                def keep(p, slot):
                    return -(p + sub.gen_cdeg(slot[0])) <= b

                def basis_fn(p, der=der, b=b):
                    return [s for s in der.basis(p) if keep(p, s)]

                def diff_fn(p, der=der, full=full, b=b):
                    src = [i for i, s in enumerate(der.basis(p)) if keep(p, s)]
                    tgt = {
                        j: jj
                        for jj, j in enumerate(
                            i
                            for i, s in enumerate(der.basis(p + 1))
                            if keep(p + 1, s)
                        )
                    }
                    d = full.d(p)
                    m = Matrix(len(src), len(tgt))
                    for ii, i in enumerate(src):
                        for col, val in d.rows[i].items():
                            if col in tgt:
                                m.rows[ii][tgt[col]] = val
                    return m

                quotient = CochainComplex(basis_fn, diff_fn)
                assert quotient.d_squared_failures(WINDOW) == []
                for p in range(height - b - 6, height - b + 1):
                    assert quotient.homology(p).dim == 0, (name, sigma, b, p)
                    checked_h += 1
    _report(
        6,
        "collapse and vanishing regions",
        f"{slots_checked} truncated slots empty, {checked_h} vanishing degrees",
    )


def test_criterion_07_loop_homology_s3():
    """Betti numbers of the free loop space of the 3-sphere, three ways."""
    t0 = time.monotonic()
    report = loop_homology(builtin("ah:sphere:3"), window=8)
    betti = [report.betti[m] for m in range(0, 9)]
    assert betti == [1, 0, 1, 1, 1, 1, 1, 1, 1]

    # Independent dense oracle for the cone of T(x), |x| = 2, d = 0: the
    # cone holds words x^a (level 0) and maps (x -> x^c) shifted one degree
    # down.  The differential is assembled from scratch: d vanishes on T(x)
    # and the bracket [x^a, x] cancels because |x| is even, so every dense
    # block must eliminate to rank zero and dimensions count basis slots.
    def dense_cone_basis(n):  # internal (cohomological) degree n
        labels = []
        if n <= 0 and n % 2 == 0:
            labels.append(("alg", -n // 2))  # x^a with -2a = n
        if n <= 3 and (3 - n) % 2 == 0:
            # (x -> x^c) has internal degree 2 - 2c, shifted up by one
            labels.append(("der", (3 - n) // 2))
        return labels

    def bracket_with_x(a):  # [x^a, x] as a dense dict over powers
        out = {}
        out[a + 1] = out.get(a + 1, Fraction(0)) + 1
        sign = Fraction(-1) if (2 * a * 2) % 2 else Fraction(1)
        out[a + 1] = out.get(a + 1, Fraction(0)) - sign
        return {k: v for k, v in out.items() if v}

    dense_dims = {}
    ranks = {}
    for n in WINDOW:
        src, tgt = dense_cone_basis(n), dense_cone_basis(n + 1)
        rows = []
        for label in src:
            row = [Fraction(0)] * len(tgt)
            if label[0] == "alg":
                br = bracket_with_x(label[1])
                for j, t in enumerate(tgt):
                    if t[0] == "der" and t[1] in br:
                        row[j] = br[t[1]]
            rows.append(row)
        ranks[n] = dense_rank(rows) if rows and tgt else 0
        assert ranks[n] == 0, n  # everything cancels for an even generator
    for n in WINDOW:
        dense_dims[n] = len(dense_cone_basis(n)) - ranks[n] - ranks.get(n - 1, 0)
    cone_homology = {n: direct for n, (_, direct, _) in report.tower.assembly.items()}
    assert cone_homology  # engine degrees all lie inside the window
    for n, dim in cone_homology.items():
        assert dense_dims[n] == dim, n

    # Classical cross-check: H(LS^3) = (exterior on degree 3) x (polynomial
    # on degree 2), so the Betti number in degree m counts pairs (i, j) with
    # i in {0, 3}, j even, i + j = m.
    classical = [
        sum(1 for i in (0, 3) for j in range(0, m + 1, 2) if i + j == m)
        for m in range(0, 9)
    ]
    assert betti == classical
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"{elapsed:.1f}s"
    _report(7, "loop homology of the 3-sphere", f"betti {tuple(betti)}, {elapsed:.1f}s")


def test_criterion_08_aut_s2():
    """Self-equivalence homotopy of the even 2-sphere, engine vs by hand."""
    t0 = time.monotonic()
    report = aut_homotopy(
        builtin("trivial-fibration:sullivan:sphere:even:2"), window=8
    )
    assert report.dims == {n: (1 if n == 3 else 0) for n in range(1, 9)}
    assert report.degree_zero_dim == 1

    # By hand: Lambda(x_2, y_3), dy = x^2.  Monomials are (a, e) = x^a y^e,
    # slots are (x -> m) in degree |m| - 2 and (y -> m) in degree |m| - 3;
    # the two Leibniz consequences are (del F)(y) = -(-1)^p 2 x F(x) for
    # x-slots and (del F)(y) = d(F(y)) for y-slots, with d(x^a y) = x^{a+2}.
    def monos(deg):
        out = []
        for e in (0, 1):
            rem = deg - 3 * e
            if rem >= 0 and rem % 2 == 0:
                out.append((rem // 2, e))
        return out

    def slots(p):
        out = [("x", m) for m in monos(p + 2)]
        out += [("y", m) for m in monos(p + 3)]
        return out

    def differential(p):
        src, tgt = slots(p), slots(p + 1)
        pos = {s: j for j, s in enumerate(tgt)}
        rows = []
        for gen, (a, e) in src:
            row = [Fraction(0)] * len(tgt)
            if gen == "x":
                # (del F)(y) = -(-1)^p * (x F(x) + F(x) x) = -(-1)^p 2 x^{a+1} y^e
                sign = Fraction(-1) if p % 2 == 0 else Fraction(1)
                target = ("y", (a + 1, e))
                if target in pos:
                    row[pos[target]] = 2 * sign
            else:
                # (del F)(y) = d(x^a y^e) = e * x^{a+2}
                if e == 1:
                    target = ("y", (a + 2, 0))
                    if target in pos:
                        row[pos[target]] = Fraction(1)
            rows.append(row)
        return rows, len(tgt)

    hand_dims = {}
    rank_cache = {}
    for p in range(-9, 1):
        rows, _ = differential(p)
        rank_cache[p] = dense_rank(rows) if rows else 0
    for n in range(1, 9):
        p = -n
        n_slots = len(slots(p))
        assert n_slots <= 10  # hand-checkable size
        hand_dims[n] = n_slots - rank_cache[p] - rank_cache.get(p - 1, 0)
    assert hand_dims == report.dims
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"{elapsed:.1f}s"
    _report(8, "self-equivalences of the 2-sphere", f"dims {hand_dims}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# The first-page product rule for the convolution product (criterion 9(d)).
# With trivial coefficients it is the transpose of the coderivation condition
# that validate checks (models.diagonal_problems); this is its direct form.
# --------------------------------------------------------------------------


def convolution_values(algebra, diagonals, f, p_f, g, p_g):
    """Convolution of two cell functionals along the reduced diagonal.

    (f ∗ g)(c) = (−1)^{p_f+p_g} Σ_{c' ⊗ c''} (−1)^{p_g·|c'|} f(c')·g(c'')
    with |c'| the cell degree; the result has degree p_f + p_g + 1.  The
    global twist makes the first-page differential a derivation of ∗:
    ∂(f ∗ g) = ∂f ∗ g + (−1)^{p_f} f ∗ ∂g.
    """
    tau = Fraction(-1 if (p_f + p_g) % 2 else 1)
    out = {}
    for name, diagonal in diagonals.items():
        total = {}
        for (a, b), coeff in diagonal.items():
            left, right = f.get(a), g.get(b)
            if not left or not right:
                continue
            sign = -1 if (p_g * (algebra.gen_degree(a) + 1)) % 2 else 1
            for mono, c in algebra.mul(left, right).items():
                el_add_term(total, mono, tau * sign * coeff * c)
        if total:
            out[name] = total
    return out


def convolution_rule_failures(algebra, diagonals, window):
    """The pairs checked and the failures of ∂(f∗g) = ∂f∗g + (−1)^{p_f} f∗∂g.

    Runs over the trivial-coefficient derivations (v ↦ 1) of degree
    p = |v| up to the window; these span the nonzero first-page row of the
    trivial-coefficient tower.
    """
    der = DerComplex(algebra, trivial_coefficients(algebra))
    names = [g for g in sorted(algebra.generators) if algebra.gen_degree(g) <= window]
    failures = []
    for a, b in itertools.product(names, repeat=2):
        p_f, p_g = algebra.gen_degree(a), algebra.gen_degree(b)
        f, g = {a: {(): Fraction(1)}}, {b: {(): Fraction(1)}}
        product = convolution_values(algebra, diagonals, f, p_f, g, p_g)
        df, dg = der.differential_values(f, p_f), der.differential_values(g, p_g)
        lhs = slot_images(der.differential_values(product, p_f + p_g + 1))
        rhs = el_add(
            slot_images(convolution_values(algebra, diagonals, df, p_f + 1, g, p_g)),
            slot_images(convolution_values(algebra, diagonals, f, p_f, dg, p_g + 1)),
            Fraction(-1 if p_f % 2 else 1),
        )
        if lhs != rhs:
            failures.append(f"({a} -> 1) * ({b} -> 1)")
    return len(names) ** 2, failures


def test_criterion_09_products():
    """Cup products on classes: well-defined, commutative, associative."""
    # (a) On the two named cellular models the differential vanishes, so
    # every brace insertion vanishes: all class products are zero, which is
    # trivially well-defined, graded commutative and associative.  Verify
    # literally on every class pair in the window.
    pairs = 0
    for name in ("ah:wedge:2,2", "ah:sphere:3"):
        algebra = builtin(name).algebra
        der = DerComplex(algebra)
        cx = der.complex()
        reps = []
        for p in range(-8, 9):
            h = cx.homology(p)
            reps.extend((rep, p) for rep in h.basis[:4])
        for (rf, p), (rg, q) in itertools.product(reps, repeat=2):
            f = der.values_of_vector(rf, p)
            g = der.values_of_vector(rg, q)
            assert cup_product(der, f, p, g, q) == {}
            pairs += 1

    # (b) Nontrivial products: base-field coefficients on Lambda(x_2, y_3).
    # The square of the degree -2 class (x -> 1) is the generator (y -> 1);
    # all class pairs satisfy [f][g] = (-1)^{pq} [g][f] and all triples
    # associate on the nose.
    algebra = builtin("sullivan:sphere:even:2").algebra
    der = DerComplex(algebra, trivial_coefficients(algebra))
    cx = der.complex()
    f = {"x": {(): Fraction(1)}}
    assert cup_product(der, f, -2, f, -2) == {"y": {(): Fraction(1)}}
    classes = []
    for p in range(-8, 1):
        h = cx.homology(p)
        classes.extend((rep, p) for rep in h.basis)
    assert classes

    def cls(values, deg):
        return cx.homology(deg).reduce(der.vector_of_values(values, deg))

    for (rf, p), (rg, q) in itertools.product(classes, repeat=2):
        fv = der.values_of_vector(rf, p)
        gv = der.values_of_vector(rg, q)
        fg = brace(der, fv, p, gv, q)
        gf = brace(der, gv, q, fv, p)
        assert der.is_cocycle(fg, p + q + 1)
        sign = Fraction(-1) if (p * q) % 2 else Fraction(1)
        left = cls(fg, p + q + 1)
        right = {k: sign * c for k, c in cls(gf, p + q + 1).items()}
        assert left == {k: c for k, c in right.items() if c}, (p, q)
        pairs += 1
    for (rf, p), (rg, q), (rh, r) in itertools.product(classes, repeat=3):
        fv = der.values_of_vector(rf, p)
        gv = der.values_of_vector(rg, q)
        hv = der.values_of_vector(rh, r)
        left = brace(der, brace(der, fv, p, gv, q), p + q + 1, hv, r)
        right = brace(der, fv, p, brace(der, gv, q, hv, r), q + r + 1)
        deg = p + q + r + 2
        assert cls(left, deg) == cls(right, deg), (p, q, r)

    # (c) Coboundary absorption on a model with a genuinely nonzero
    # differential: a nonzero brace against a coboundary is a boundary.
    algebra = parse_model(CELLCOALG_TEXT).algebra
    der = DerComplex(algebra, trivial_coefficients(algebra))
    cx = der.complex()
    h = {"u": {(): Fraction(1)}}  # not a cocycle: its boundary hits (v -> 1)
    bdy = der.differential_values(h, 2)
    assert bdy
    g = {"v": {(): Fraction(1)}}
    assert der.is_cocycle(g, 3)
    prod = brace(der, bdy, 3, g, 3)  # inserts into the v^2 term of d(z)
    assert prod  # the product is nonzero on the nose ...
    vec = der.vector_of_values(prod, 3 + 3 + 1)
    assert not cx.homology(7).reduce(vec)  # ... but dies on classes

    # (d) First-page product rule for the convolution product, exhaustively
    # on the wedge (primitive diagonal) and on the diagonal-carrying model.
    wedge, cellcoalg = builtin("ah:wedge:2,2"), parse_model(CELLCOALG_TEXT)
    assert convolution_rule_failures(wedge.algebra, wedge.diagonals, 8) == (4, [])
    assert convolution_rule_failures(cellcoalg.algebra, cellcoalg.diagonals, 8) == (16, [])
    _report(9, "products", f"{pairs} class pairs, convolution rule on 20 pairs")


ACCEPTANCE_COMMANDS = [
    ("validate", "builtin:sullivan:sphere:even:2"),
    ("homology", "builtin:ah:sphere:3"),
    ("quillen", "builtin:ah:wedge:2,3"),
    ("der", "builtin:sullivan:hopf", "--range=-6..6", "--reps"),
    ("ss", "builtin:sullivan:sphere:even:2", "--coefficients", "self", "--pages", "1..4"),
    (
        "ss",
        "builtin:ah:wedge:2,2",
        "--coefficients",
        "trivial",
        "--check-collapse",
        "--check-multiplicative",
    ),
    ("loop", "builtin:ah:sphere:3", "--max-degree", "8"),
    ("loop", "builtin:ah:wedge:2,3", "--max-degree", "6"),
    ("aut", "builtin:trivial-fibration:sullivan:sphere:even:2", "--window", "8", "--brackets"),
    # A relative model: base generators fixed, brackets and listed pages.
    ("aut", "builtin:sullivan:hopf", "--window", "8", "--brackets", "--pages", "1..4"),
    ("hochschild", "builtin:ah:sphere:2", "--window", "6"),
    # A relative model with nonzero brackets (the golden aut-brackets-real).
    ("aut", str(MODELS_DIR / "brackets-real.model"), "--window", "10", "--brackets"),
]


def test_criterion_10_determinism():
    """Byte-identical structured records across two process runs.

    The runs use different hash seeds, so a dependence on the iteration
    order of a set of strings would show even when the caller fixes
    ``PYTHONHASHSEED``.
    """
    for argv in ACCEPTANCE_COMMANDS:
        cmd = [sys.executable, "-m", "dgtangent.cli", *argv, "--format", "records"]
        first, second = (
            subprocess.run(cmd, capture_output=True, env=CHILD_ENV | {"PYTHONHASHSEED": seed})
            for seed in ("0", "4242")
        )
        assert first.returncode == second.returncode == 0, (argv, first.stderr)
        assert first.stdout == second.stdout, argv
        assert first.stdout.strip()
        for line in first.stdout.splitlines():
            json.loads(line)  # every record is one JSON object
    _report(10, "determinism", f"{len(ACCEPTANCE_COMMANDS)} commands, two runs each")
