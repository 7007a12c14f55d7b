"""Golden ``--format records`` corpus.

Each file under ``tests/golden/`` is the exact stdout of one CLI command, and
the command must still print it byte for byte.  The corpus pins every number
and every record layout, so a refactor that claims to change no output can be
checked against it.  A few commands also have their table-mode stdout pinned
(``*.txt``), so the text lines built from the reports are checked too.

After a change that is meant to alter output, regenerate the corpus with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff of ``tests/golden/`` before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from dgtangent.cli import main
from dgtangent.complexes import CochainComplex, to_cohomological
from dgtangent.derivations import ConeComplex, DerComplex
from dgtangent.models import builtin, derivation_tower
from dgtangent.tower import SpectralSequence
from test_acceptance import COEFFICIENTS, MODELS_DIR
from test_cli import hochschild_betti

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CELLULAR = ("ah:sphere:2", "ah:sphere:3", "ah:wedge:2,2", "ah:wedge:2,3")
SULLIVAN = (
    "sullivan:sphere:odd:3",
    "sullivan:sphere:even:2",
    "sullivan:cpn:2",
    "sullivan:hopf",
    "trivial-fibration:sullivan:sphere:even:2",
)

# Commands run on every builtin, with their options.
PER_BUILTIN = {
    "validate": (),
    "homology": ("--window", "6"),
    "quillen": ("--window", "6"),
    "der": ("--window", "4"),
    "ss": ("--window", "4", "--check-collapse"),
}


def _slug(name: str) -> str:
    return name.replace(":", "_").replace(",", "_")


def golden_cases() -> dict[str, tuple[str, ...]]:
    """File stem -> CLI arguments (without ``--format records``)."""
    cases: dict[str, tuple[str, ...]] = {}
    for name in CELLULAR + SULLIVAN:
        for command, options in PER_BUILTIN.items():
            cases[f"{command}-{_slug(name)}"] = (command, f"builtin:{name}", *options)
    for name in CELLULAR:
        model = f"builtin:{name}"
        cases[f"loop-{_slug(name)}"] = ("loop", model, "--max-degree", "4", "--pages", "1..3")
        cases[f"hochschild-{_slug(name)}"] = ("hochschild", model, "--window", "4")
    # The cone of a relative model, filtered with the base at stage 0.
    cases["hochschild-sullivan_hopf"] = ("hochschild", "builtin:sullivan:hopf", "--window", "4")
    for name in SULLIVAN:
        cases[f"aut-{_slug(name)}"] = (
            "aut", f"builtin:{name}", "--window", "6", "--pages", "1..3", "--brackets",
        )
    for convention in ("internal", "flipped", "relabeled"):
        for name in ("ah:sphere:2", "sullivan:cpn:2"):
            cases[f"ss-{convention}-{_slug(name)}"] = (
                "ss", f"builtin:{name}", "--window", "4", "--pages", "1..3",
                "--convention", convention,
            )
    cases["ss-multiplicative-ah_wedge_2_2"] = (
        "ss", "builtin:ah:wedge:2,2", "--window", "4", "--check-multiplicative",
    )
    cases["der-reps-sullivan_hopf"] = ("der", "builtin:sullivan:hopf", "--range=-6..2", "--reps")
    cases["der-reps-ah_sphere_2"] = ("der", "builtin:ah:sphere:2", "--window", "4", "--reps")
    cases["der-target-ah_sphere_2"] = (
        "der", "builtin:ah:sphere:2", "--target", "builtin:ah:sphere:2", "--range=-4..4",
    )
    cases["der-target-sullivan_cpn_1"] = (
        "der", "builtin:sullivan:cpn:1", "--target", "builtin:sullivan:hopf", "--window", "4",
    )
    cases["ss-trivial-sullivan_cpn_1"] = (
        "ss", "builtin:sullivan:cpn:1", "--coefficients", "trivial", "--window", "4",
    )
    cases["ss-target-sullivan_cpn_1"] = (
        "ss", "builtin:sullivan:cpn:1", "--coefficients", "target=builtin:sullivan:hopf",
        "--window", "4",
    )
    # S² × S³ → S², the model of test_models.product_model_text.
    cases["aut-product-s2-s3"] = (
        "aut", str(MODELS_DIR / "product-s2-s3.model"), "--window", "6", "--pages", "1..3",
        "--brackets",
    )
    # The four-cell model of test_models.CELLCOALG_TEXT, the one with diag lines.
    cellcoalg = str(MODELS_DIR / "cellcoalg.model")
    cases["validate-cellcoalg"] = ("validate", cellcoalg)
    cases["ss-multiplicative-model-cellcoalg"] = (
        "ss", cellcoalg, "--coefficients", "trivial", "--check-multiplicative",
    )
    # S³ × S⁵ with d = 0: [(w ↦ u), (u ↦ 1)] = −(w ↦ 1), a nonzero bracket.
    cases["aut-s3-s5"] = (
        "aut", str(MODELS_DIR / "s3-s5.model"), "--window", "6", "--brackets",
    )
    # Base a, b, c and fiber y, z, w with d y = ab, d z = ac, d w = c²a: six
    # nonzero brackets, whose coordinates pin the order of the Der bases.
    cases["aut-brackets-real"] = (
        "aut", str(MODELS_DIR / "brackets-real.model"), "--window", "10", "--brackets",
    )
    # Every generator base: no fiber, so empty pages and no assembly rows.
    cases["aut-base-only"] = (
        "aut", str(MODELS_DIR / "base-only.model"), "--window", "3", "--pages", "1..2",
    )
    return cases


CASES = golden_cases()

# Cases whose table-mode stdout is pinned as well: at least one per command
# that prints a report, and every kind of table row.
TABLE_CASES = (
    "aut-base-only",
    "aut-s3-s5",
    "aut-sullivan_hopf",
    "der-reps-sullivan_hopf",
    "hochschild-ah_sphere_2",
    "homology-sullivan_cpn_2",
    "loop-ah_sphere_3",
    "quillen-ah_wedge_2_3",
    "ss-multiplicative-model-cellcoalg",
    "ss-sullivan_cpn_2",
    "validate-cellcoalg",
)


def run_records(argv: tuple[str, ...], fmt: str = "records") -> tuple[int, str]:
    """Exit status and stdout of one in-process run in format ``fmt``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main([*argv, "--format", fmt])
    return status, buffer.getvalue()


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_records(stem):
    status, out = run_records(CASES[stem])
    assert status == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{stem}.jsonl").read_bytes()


@pytest.mark.parametrize("stem", TABLE_CASES)
def test_golden_tables(stem):
    status, out = run_records(CASES[stem], "table")
    assert status == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{stem}.txt").read_bytes()


def golden_files() -> dict[str, tuple[tuple[str, ...], str]]:
    """Golden file name -> (CLI arguments, format)."""
    files = {f"{stem}.jsonl": (argv, "records") for stem, argv in CASES.items()}
    files.update({f"{stem}.txt": (CASES[stem], "table") for stem in TABLE_CASES})
    return files


def test_golden_corpus_has_no_stray_files():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(golden_files())


def golden_window_complexes():
    """(label, complex, internal degrees) over the windows of the corpus."""
    for name in CELLULAR + SULLIVAN:
        mf = builtin(name)
        algebra = mf.algebra
        grading = algebra.grading
        yield (
            f"{name}/algebra",
            algebra.algebra_complex(),
            [to_cohomological(n, grading) for n in range(0, 7)],
        )
        yield (
            f"{name}/indecomposables",
            algebra.indecomposables_complex(),
            [to_cohomological(n, grading) for n in range(1, 7)],
        )
        for coefficients in ("self", "trivial"):
            der, _ = derivation_tower(mf, COEFFICIENTS[coefficients](mf.algebra))
            yield f"{name}/der-{coefficients}", der.complex(), range(-4, 5)
    for name in (*CELLULAR, "sullivan:hopf"):
        fc = ConeComplex(builtin(name).algebra).tower()
        # hochschild --window 4 reads -4..4; loop --max-degree 4 reads
        # 2s − m for levels s ≤ max_level and 0 ≤ m ≤ 4.
        yield f"{name}/cone", fc.complex, range(-4, 2 * fc.max_level + 1)


def test_homology_dim_matches_subquotient():
    for label, cx, degrees in golden_window_complexes():
        for n in degrees:
            assert cx.homology_dim(n) == cx.homology(n).dim, (label, n)


def _records(stem: str, table: str) -> list[dict]:
    """The records of one table of a golden file, in file order."""
    lines = (GOLDEN_DIR / f"{stem}.jsonl").read_text(encoding="utf-8").splitlines()
    return [r for r in map(json.loads, lines) if r.get("table") == table]


def _dims(stem: str, table: str) -> dict[int, int]:
    """Degree -> dimension of one table of a golden file."""
    return {r["degree"]: r["dimension"] for r in _records(stem, table)}


@pytest.mark.parametrize("d", [2, 3])
def test_golden_hochschild_of_a_sphere_is_its_free_loop_homology(d):
    # Cohen–Jones: HH^n(C_*ΩX) ≅ H_{d−n}(LX), read off the Hochschild oracle.
    betti = hochschild_betti(builtin(f"ah:sphere:{d}"), range(0, d + 5))
    assert _dims(f"hochschild-ah_sphere_{d}", "cone cohomology") == {
        n: betti[d - n] if d >= n else 0 for n in range(-4, 5)
    }


@pytest.mark.parametrize("name", ["ah:wedge:2,2", "ah:wedge:2,3"])
def test_golden_hochschild_of_a_wedge_is_q_plus_outer_derivations(name):
    # d = 0 and the graded centre of T(V) is Q (dim V ≥ 2), so the cone
    # cohomology is Q in degree 0 plus Der/Inn, with Inn ≅ A/Q one degree down.
    a = builtin(name).algebra
    der = DerComplex(a)
    assert _dims(f"hochschild-{_slug(name)}", "cone cohomology") == {
        n: (n == 0) + (n == 1) + len(der.basis(n - 1)) - len(a.basis_in_cdeg(n - 1))
        for n in range(-4, 5)
    }


# Generator degrees of the Adams–Hilton builtins, where d = 0: H_*(ΩX) = T(V).
AH_DEGREES = {
    "ah:sphere:2": (1,),
    "ah:sphere:3": (2,),
    "ah:wedge:2,2": (1, 1),
    "ah:wedge:2,3": (1, 2),
}
# The degrees of the nonzero rational cohomology of each Sullivan builtin's space.
SULLIVAN_COHOMOLOGY = {
    "sullivan:sphere:odd:3": {0, 3},
    "sullivan:sphere:even:2": {0, 2},
    "sullivan:cpn:2": {0, 2, 4},
    "sullivan:hopf": {0, 3},  # the total space, S³
    "trivial-fibration:sullivan:sphere:even:2": {0, 2},  # the fiber, S²
}
# The degrees of both ends of each linear term of d: only d z = x on the Hopf model.
LINEAR_TERMS = {"sullivan:hopf": [(1, 2)]}


def _words(degrees: tuple[int, ...], top: int) -> dict[int, int]:
    """The coefficients of t^0..t^top in 1/(1 − Σ_v t^|v|): the words of T(V)."""
    counts = [1]
    for k in range(1, top + 1):
        counts.append(sum(counts[k - d] for d in degrees if d <= k))
    return dict(enumerate(counts))


@pytest.mark.parametrize("name", CELLULAR + SULLIVAN)
def test_golden_homology_is_that_of_the_space(name):
    if name in AH_DEGREES:
        expected = _words(AH_DEGREES[name], 6)
    else:
        expected = {n: int(n in SULLIVAN_COHOMOLOGY[name]) for n in range(7)}
    assert _dims(f"homology-{_slug(name)}", f"algebra homology of {name}") == expected


@pytest.mark.parametrize("name", CELLULAR + SULLIVAN)
def test_golden_quillen_counts_generators_off_the_linear_part(name):
    # One class per generator, less both ends of each linear term; one cell
    # of dimension |g| + 1 per generator of a cellular model.
    degrees = [g.degree for g in builtin(name).algebra.generators.values()]
    cells = [degrees.count(d) for d in sorted(set(degrees))] if name in CELLULAR else []
    for ends in LINEAR_TERMS.get(name, []):
        for d in ends:
            degrees.remove(d)
    stem = f"quillen-{_slug(name)}"
    table = "generator-level homology (linear part)"
    assert _dims(stem, table) == {k: degrees.count(k) for k in range(1, 7)}
    # Each record's "dimension" holds the cell count of one dimension, in
    # increasing dimension; the dimension itself is not in the record.
    assert [r["dimension"] for r in _records(stem, "cells per dimension")] == cells


def _without_brackets(stem: str) -> str:
    lines = (GOLDEN_DIR / f"{stem}.jsonl").read_text(encoding="utf-8").splitlines(True)
    return "".join(line for line in lines if json.loads(line).get("table") != "bracket")


# Commands that read only dimensions, with the stdout they must print when
# no subquotient can be built.
DIMENSION_ONLY = {
    "loop": (CASES["loop-ah_wedge_2_2"], "loop-ah_wedge_2_2"),
    "hochschild": (CASES["hochschild-ah_sphere_3"], "hochschild-ah_sphere_3"),
    "ss": (CASES["ss-sullivan_cpn_2"], "ss-sullivan_cpn_2"),
    "der": (CASES["der-sullivan_hopf"], "der-sullivan_hopf"),
    "aut": (
        ("aut", "builtin:sullivan:hopf", "--window", "6", "--pages", "1..3"),
        "aut-sullivan_hopf",
    ),
}


@pytest.mark.parametrize("command", sorted(DIMENSION_ONLY))
def test_dimension_only_commands_build_no_subquotient(command, monkeypatch):
    def refuse(self, n):
        raise AssertionError(f"homology({n}) built for a dimension")

    def refuse_z_span(self, r, s, n):
        raise AssertionError(f"z_span({r}, {s}, {n}) built for a dimension")

    eliminate = SpectralSequence.eliminate

    def untracked_only(self, n, track=False):
        assert not track, f"tracked elimination of degree {n} for a dimension"
        return eliminate(self, n)

    monkeypatch.setattr(CochainComplex, "homology", refuse)
    monkeypatch.setattr(SpectralSequence, "z_span", refuse_z_span)
    monkeypatch.setattr(SpectralSequence, "eliminate", untracked_only)
    argv, stem = DIMENSION_ONLY[command]
    status, out = run_records(argv)
    assert status == 0
    if command == "aut":
        assert out == _without_brackets(stem)
    else:
        assert out.encode("utf-8") == (GOLDEN_DIR / f"{stem}.jsonl").read_bytes()


def regenerate() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.iterdir():
        stale.unlink()
    files = golden_files()
    for filename, (argv, fmt) in sorted(files.items()):
        status, out = run_records(argv, fmt)
        if status != 0:
            print(f"{filename}: exit status {status}", file=sys.stderr)
            return 1
        (GOLDEN_DIR / filename).write_bytes(out.encode("utf-8"))
    print(f"wrote {len(files)} files to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
