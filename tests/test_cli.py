"""End-to-end checks of the command-line interface.

Covers exit statuses (0 success, 1 invalid input, 2 usage mistakes),
byte-stable record output across independent processes, and agreement
between the spectral-sequence assembly column and the direct derivation
cohomology command.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dgtangent.algebra import AlgebraMorphism
from dgtangent.cli import _parse_pages, main
from dgtangent.complexes import CochainComplex
from dgtangent.linalg import ONE, el_add_term
from dgtangent.models import algebra_homology_dims, builtin, parse_model, validate_model
from dgtangent.tower import CollapseReport
from test_acceptance import CHILD_ENV


def run_main(capsys, *argv):
    """Exit status, stdout and stderr of ``main``; flag mistakes leave through argparse."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "dgtangent.cli", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


def records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ------------------------------------------------------------ exit statuses


def test_validate_builtin_exits_zero(capsys):
    code, out, _ = run_main(capsys, "validate", "builtin:sullivan:sphere:odd:3")
    assert code == 0
    assert "valid" in out


def test_validate_broken_model_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text(
        "flavor commutative\ngrading cohomological\n"
        "gen x : 2\ngen y : 3\nd y = x\n",
        encoding="utf-8",
    )
    code, _, err = run_main(capsys, "validate", str(bad))
    assert code == 1
    assert "native degree" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "flavor commutative\ngrading cohomological\nflavor associative\ngen x : 2\n",
            "line 3: duplicate flavor line",
        ),
        (
            "flavor commutative\ngrading cohomological\ngen x : 2\ngrading homological\n",
            "line 4: duplicate grading line",
        ),
        (
            "flavor commutative\ngrading cohomological\ngen x : 2 stage 0 stage 1\n",
            "line 3: duplicate stage in gen line",
        ),
        (
            "flavor associative\ngrading homological\ngen a : 1\ngen c : 3\n"
            "diag c = a (x) a - a (x) a\ndiag c = 2 * a (x) a\n",
            "line 6: duplicate diag line for 'c'",
        ),
        (
            "name a\nname b\nflavor commutative\ngrading cohomological\ngen x : 2\n",
            "line 2: duplicate name line",
        ),
        (
            "flavor commutative\ngrading cohomological\ndescription one\ngen x : 2\n"
            "description two\n",
            "line 5: duplicate description line",
        ),
        (
            "flavor commutative\ngrading cohomological\ngen x : 2 base base\n",
            "line 3: duplicate base in gen line",
        ),
    ],
    ids=[
        "flavor", "grading", "stage", "diag-after-cancelling-diag", "name", "description",
        "base",
    ],
)
@pytest.mark.parametrize("command", ["print", "validate"])
def test_duplicate_model_line_exits_one(command, text, message, tmp_path, capsys):
    model = tmp_path / "dup.model"
    model.write_text(text, encoding="utf-8")
    code, out, err = run_main(capsys, command, str(model))
    assert (code, out) == (1, "")
    assert message in err


def test_first_bad_body_line_in_file_order_is_named(tmp_path, capsys):
    # The diag line for an unknown generator comes before the bad d line.
    model = tmp_path / "order.model"
    model.write_text(
        "flavor associative\ngrading homological\ngen a : 1\n"
        "diag q = a ⊗ a\nd a = b\n",
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "print", str(model))
    assert (code, out) == (1, "")
    assert "line 4: diag for unknown generator 'q'" in err


def test_failing_validate_records_are_pinned(tmp_path, capsys):
    # d² c = d b = a: the d² check fails on c.
    bad = tmp_path / "bad.model"
    bad.write_text(
        "name bad-square\nflavor associative\ngrading homological\n"
        "gen a : 1\ngen b : 2\ngen c : 3\nd b = a\nd c = b\n",
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "validate", str(bad), "--format", "records")
    assert (code, err) == (1, "")
    assert out == (
        '{"check": "d squared is zero on generators", "command": "validate",'
        ' "detail": "c", "model": "bad-square", "ok": false}\n'
        '{"check": "stage condition (d lands below the stage)", "command": "validate",'
        ' "detail": "", "model": "bad-square", "ok": true}\n'
    )


@pytest.mark.parametrize(
    "command", ["homology", "quillen", "der", "ss", "loop", "aut", "hochschild"]
)
def test_model_commands_refuse_a_model_that_fails_validate(tmp_path, capsys, command):
    # d² c = d b = a: main validates the model before any command runs.
    bad = tmp_path / "bad.model"
    bad.write_text(
        "flavor associative\ngrading homological\n"
        "gen a : 1\ngen b : 2\ngen c : 3\nd b = a\nd c = b\n",
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, command, str(bad), "--format", "records")
    assert (code, out) == (1, "")
    assert err.startswith("invalid model:\n")


@pytest.mark.parametrize(
    "text, stderr",
    [
        (
            "flavor associative\ngrading homological\n"
            "gen a : 1\ngen b : 2\ngen c : 3\nd b = a\nd c = b\n",
            "invalid model:\n"
            "model (unnamed) [cellular]\n"
            "  FAIL d squared is zero on generators (c)\n"
            "  ok   stage condition (d lands below the stage)\n"
            "INVALID\n",
        ),
        (
            "name inverted\nflavor commutative\ngrading cohomological\n"
            "gen x : 2 stage 3\ngen y : 3 stage 2\nd y = x^2\n",
            "invalid model:\n"
            "model inverted [sullivan]\n"
            "  ok   d squared is zero on generators\n"
            "  FAIL stage condition (d lands below the stage) (y)\n"
            "INVALID\n",
        ),
    ],
    ids=["d-squared", "stage"],
)
def test_invalid_model_refusal_prints_the_validate_table(tmp_path, capsys, text, stderr):
    bad = tmp_path / "bad.model"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_main(capsys, "homology", str(bad), "--format", "records")
    assert (code, out, err) == (1, "", stderr)


def test_validate_refuses_diagonal_data_on_a_sullivan_model(tmp_path, capsys):
    model = tmp_path / "sullivan-diag.model"
    model.write_text(
        "flavor commutative\ngrading cohomological\n"
        "gen x : 2\ngen y : 3\nd y = x^2\ndiag y = x ⊗ x\n",
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "validate", str(model))
    assert (code, err) == (1, "")
    assert out == (
        "model (unnamed) [sullivan]\n"
        "  ok   d squared is zero on generators\n"
        "  ok   stage condition (d lands below the stage)\n"
        "  FAIL diagonal data requires a cellular model (family is sullivan)\n"
        "INVALID\n"
    )


def test_der_refuses_a_target_with_the_wrong_grading(tmp_path, capsys):
    # ah:sphere:2 is homological: its x of degree 1 has cohomological degree −1.
    target = tmp_path / "cohomological.model"
    target.write_text("flavor associative\ngrading cohomological\ngen x : 1\n", encoding="utf-8")
    code, out, err = run_main(capsys, "der", "builtin:ah:sphere:2", "--target", str(target))
    assert (code, out) == (1, "")
    assert "image of 'x' has degree 1, expected -1" in err


def test_aut_refuses_a_cellular_model_without_traceback():
    code, out, err = run_process("aut", "builtin:ah:sphere:2")
    assert (code, out) == (1, "")
    assert "requires a commutative cohomological model" in err
    assert "Traceback" not in err


BROKEN_DIAGONAL_MODEL = """\
name cellcoalg
flavor associative
grading homological
gen t : 1
gen u : 2
gen v : 3
gen w : 6
gen z : 7
d t = -3/2
d v = u
d w = v u - u v
d z = w + v^2
diag w = v ⊗ u + u ⊗ v + u ⊗ u
diag z = -2/3 * v ⊗ v + u ⊗ t
"""


def test_broken_diagonal_validate_and_print_are_pinned(tmp_path, capsys):
    # u ⊗ u and u ⊗ t have the wrong cell degrees, and -2/3 * v ⊗ v is no
    # coderivation; terms print and are checked in letter order.
    model = tmp_path / "broken.model"
    model.write_text(BROKEN_DIAGONAL_MODEL, encoding="utf-8")
    code, out, err = run_main(capsys, "validate", str(model), "--format", "records")
    assert (code, err) == (1, "")
    ok = '"detail": "", "model": "cellcoalg", "ok": true}\n'
    assert out == (
        '{"check": "d squared is zero on generators", "command": "validate", ' + ok
        + '{"check": "stage condition (d lands below the stage)", "command": "validate", '
        + ok
        + '{"check": "diagonal is a coderivation on cells", "command": "validate",'
        ' "detail": "diag w: cell degrees of u \\u2297 u do not add up;'
        ' diag z: cell degrees of u \\u2297 t do not add up;'
        ' diag z: not a coderivation against the cellular differential",'
        ' "model": "cellcoalg", "ok": false}\n'
    )
    code, out, err = run_main(capsys, "print", str(model))
    assert (code, err) == (0, "")
    assert out == (
        "name cellcoalg\nflavor associative\ngrading homological\n"
        "gen t : 1\ngen u : 2\ngen v : 3\ngen w : 6\ngen z : 7\n"
        "d t = -3/2\nd u = 0\nd v = u\nd w = -u v + v u\nd z = w + v^2\n"
        "diag w = u ⊗ u + u ⊗ v + v ⊗ u\n"
        "diag z = u ⊗ t - 2/3 * v ⊗ v\n"
    )


def test_generator_named_eps_is_an_ordinary_cell(tmp_path, capsys):
    # CP² with its 2-cell's generator renamed eps: the same model, the same loop records.
    text = (
        "name cp2\nflavor associative\ngrading homological\n"
        "gen {x} : 1\ngen c : 3\nd c = {x} {x}\n"
    )
    outputs = []
    for letter in ("a", "eps"):
        model = tmp_path / f"{letter}.model"
        model.write_text(text.format(x=letter), encoding="utf-8")
        assert run_main(capsys, "validate", str(model))[0] == 0
        code, out, _ = run_main(
            capsys, "loop", str(model), "--max-degree", "4", "--format", "records"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_unparseable_model_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("flavor commutative\nfrobnicate x\n", encoding="utf-8")
    code, _, err = run_main(capsys, "homology", str(bad))
    assert code == 1
    assert "line 2" in err


CELLULAR_HEADER = "flavor associative\ngrading homological\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("flavor tensor\n", "line 1: flavor must be one of ('associative', 'commutative')"),
        (CELLULAR_HEADER + "gen a 1\n", "line 3: expected `gen NAME : INT ...`"),
        (CELLULAR_HEADER + "gen 1a : 1\n", "line 3: bad generator name '1a'"),
        (CELLULAR_HEADER + "gen a : 1\ngen a : 2\n", "line 4: duplicate generator 'a'"),
        (CELLULAR_HEADER + "gen a : 1 fiber\n", "line 3: unexpected token 'fiber' in gen line"),
        (CELLULAR_HEADER + "gen a : 1 stage\n", "line 3: stage requires an integer"),
        (CELLULAR_HEADER + "gen a : 1\nd a 0\n", "line 4: expected `d NAME = EXPR`"),
        (CELLULAR_HEADER + "gen a : 1\ndiag a 0\n", "line 4: expected `diag NAME = DEXPR`"),
        (
            CELLULAR_HEADER + "gen a : 1\ngen b : 3\nd b = a ⊗ a\n",
            "line 5: ⊗ is only allowed in diag lines",
        ),
        (
            CELLULAR_HEADER + "gen a : 1\ngen b : 3\ndiag b = a a\n",
            "line 5: each diagonal term must be NAME ⊗ NAME",
        ),
        (
            CELLULAR_HEADER + "gen a : 1\ngen b : 3\ndiag b = a ⊗ q\n",
            "line 5: unknown generator 'q'",
        ),
    ],
    ids=[
        "flavor", "gen-shape", "gen-name", "duplicate-gen", "gen-token", "stage-value",
        "d-shape", "diag-shape", "tensor-in-d", "diag-term", "diag-unknown",
    ],
)
def test_parser_refusals_name_their_line(tmp_path, capsys, text, message):
    """Each refusal of the model parser exits 1 with empty stdout and its message."""
    model = tmp_path / "bad.model"
    model.write_text(text, encoding="utf-8")
    assert run_main(capsys, "print", str(model)) == (1, "", f"{message}\n")


def test_byte_order_mark_and_tabs_after_directives_are_accepted(tmp_path, capsys):
    plain = (Path(__file__).resolve().parent / "models" / "cellcoalg.model").read_text(
        encoding="utf-8"
    )
    variants = {
        "plain": plain,
        "bom": "\ufeff" + plain,
        "tabs": "".join(line.replace(" ", "\t", 1) for line in plain.splitlines(True)),
    }
    outputs = {}
    for label, text in variants.items():
        model = tmp_path / f"{label}.model"
        model.write_text(text, encoding="utf-8")
        code, out, err = run_main(capsys, "validate", str(model), "--format", "records")
        assert (code, err) == (0, ""), label
        outputs[label] = out
    assert outputs["bom"] == outputs["tabs"] == outputs["plain"]


@pytest.mark.parametrize("separator", [" ", "\t"])
def test_unknown_directive_names_itself(tmp_path, capsys, separator):
    bad = tmp_path / "bad.model"
    bad.write_text(f"flavor commutative\nfrobnicate{separator}x\n", encoding="utf-8")
    code, out, err = run_main(capsys, "validate", str(bad))
    assert (code, out) == (1, "")
    assert "line 2: unknown directive 'frobnicate'" in err


def test_unknown_builtin_exits_one(capsys):
    code, _, err = run_main(capsys, "validate", "builtin:nope")
    assert code == 1
    assert "nope" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "builtin:ah:sphere:2"])
    assert exc.value.code == 2


TOP_USAGE = (
    "usage: dgtangent [-h]\n"
    "                 {validate,homology,quillen,der,ss,loop,aut,hochschild,print}\n"
    "                 ...\n"
)
TOP_HELP = TOP_USAGE + """
Exact-arithmetic tangent-cohomology workbench for quasi-free differential
graded algebras: derivation complexes, generator-tower spectral sequences,
free-loop-space homology, and the rational homotopy of fiberwise self-
equivalences.

positional arguments:
  {validate,homology,quillen,der,ss,loop,aut,hochschild,print}
    validate            run all structural checks
    homology            algebra homology dimensions
    quillen             generator-level (indecomposable) homology
    der                 derivation cohomology dimensions
    ss                  spectral-sequence pages of the derivation tower
    loop                free-loop-space homology of a cellular model
    aut                 rational homotopy of fiberwise self-equivalences
    hochschild          adjoint-cone tower of a model
    print               canonical text form of a model

options:
  -h, --help            show this help message and exit

Builtin models: ah:sphere:<n>, ah:wedge:<n>,<m>, sullivan:sphere:odd:<n>,
sullivan:sphere:even:<n>, sullivan:cpn:<n>, sullivan:hopf, trivial-
fibration:<sullivan builtin>
"""


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        # Every case builds all nine sub-command parsers.
        (
            ["loop", "M", "--max-degree", "0"], 2, "",
            TOP_USAGE + "dgtangent: error: the degree window must be at least 1\n",
        ),
        (
            ["frobnicate"], 2, "",
            TOP_USAGE + "dgtangent: error: argument command: invalid choice: 'frobnicate' "
            "(choose from 'validate', 'homology', 'quillen', 'der', 'ss', 'loop', 'aut', "
            "'hochschild', 'print')\n",
        ),
        (
            [], 2, "",
            TOP_USAGE + "dgtangent: error: the following arguments are required: command\n",
        ),
        (["--help"], 0, TOP_HELP, ""),
    ],
)
def test_top_level_parser_output_is_pinned(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (code, out, err)


def test_multiplicative_check_refuses_cohomological_model(capsys):
    code, out, err = run_main(
        capsys, "ss", "builtin:sullivan:cpn:1", "--check-multiplicative"
    )
    assert code == 1
    assert out == ""
    assert "cell coalgebras require homological grading" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        # The flag checks the model's own diag lines and takes no value.
        (("--check-multiplicative", "model"), "unrecognized arguments: model"),
        (("--check-multiplicative", "cellular"), "unrecognized arguments: cellular"),
        # The diagonal data is no option of its own.
        (("--diag", "primitive"), "unrecognized arguments: --diag primitive"),
    ],
    ids=["multiplicative-with-a-value", "bad-diag", "diag-without-multiplicative"],
)
def test_ss_flag_mistakes_exit_before_computing(monkeypatch, capsys, flags, message):
    def refuse(*args, **kwargs):
        raise AssertionError("tower_report ran before the flags were checked")

    monkeypatch.setattr("dgtangent.cli.tower_report", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["ss", "builtin:ah:sphere:2", *flags])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert message in captured.err


def test_multiplicative_refusal_comes_before_the_spectral_sequence(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("tower_report ran before the model was refused")

    monkeypatch.setattr("dgtangent.cli.tower_report", refuse)
    code, out, err = run_main(
        capsys, "ss", "builtin:sullivan:cpn:1", "--check-multiplicative"
    )
    assert code == 1
    assert out == ""
    assert "cell coalgebras require homological grading" in err


def test_unverified_collapse_prediction_exits_one(monkeypatch, capsys):
    # A predicted collapse that the pages do not bear out fails the run,
    # and its record says so.
    failed = CollapseReport([0], [0, 2], 2, "single row: d_r for r >= 2 leaves the row", False)
    monkeypatch.setattr("dgtangent.cli.collapse_report", lambda ss, degrees: failed)
    code, out, _ = run_main(
        capsys, "ss", "builtin:sullivan:cpn:2", "--window", "4", "--check-collapse",
        "--format", "records",
    )
    assert code == 1
    (collapse,) = [r for r in records(out) if r.get("table") == "collapse"]
    assert (collapse["predicted_page"], collapse["verified"]) == (2, False)


def test_bad_pages_is_usage_error(capsys):
    code, _, err = run_main(capsys, "ss", "builtin:ah:sphere:2", "--pages", "x")
    assert code == 2


@pytest.mark.parametrize(
    "command, model",
    [
        ("ss", "builtin:ah:sphere:2"),
        ("loop", "builtin:ah:sphere:2"),
        ("aut", "builtin:sullivan:hopf"),
        ("hochschild", "builtin:ah:sphere:2"),
    ],
)
def test_repeated_page_is_usage_error(command, model, capsys):
    code, out, err = run_main(capsys, command, model, "--pages", "2,1,2")
    assert (code, out) == (2, "")
    assert "page 2 is listed more than once in '2,1,2'" in err


def test_page_parsing_is_linear_in_the_page_count():
    t0 = time.monotonic()
    assert _parse_pages("1..100000") == list(range(1, 100001))
    assert time.monotonic() - t0 < 2


@pytest.mark.parametrize(
    "argv",
    [
        ("der", "builtin:sullivan:hopf", "--range", "0..1_0"),
        ("der", "builtin:sullivan:hopf", "--range", "٠..٢"),
        ("der", "builtin:sullivan:hopf", "--window", "1_0"),
        ("der", "builtin:sullivan:hopf", "--window", "+3"),
        ("ss", "builtin:ah:sphere:2", "--pages", " 1, +2"),
        ("ss", "builtin:ah:sphere:2", "--pages", "1..٣"),
        ("loop", "builtin:ah:sphere:2", "--max-degree", " 4"),
    ],
    ids=["range-underscore", "range-arabic-digits", "window-underscore", "window-plus",
         "pages-spaces-plus", "pages-arabic-digit", "max-degree-space"],
)
def test_integer_flags_take_only_ascii_digit_runs(capsys, argv):
    # Flags read integers like model texts do, -?[0-9]+; anything else is a
    # usage error from argparse.
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (2, "")
    assert repr(argv[-1]) in err


@pytest.mark.parametrize(
    "command, model, flag, value",
    [
        ("ss", "builtin:nope", "--pages", "0"),
        ("der", "missing.model", "--range", "3..1"),
        ("ss", "invalid.model", "--coefficients", "mystery"),
    ],
    ids=["unknown-builtin", "missing-file", "invalid-model"],
)
def test_flag_mistakes_exit_two_before_the_model_is_read(
    tmp_path, monkeypatch, capsys, command, model, flag, value
):
    # Each model would exit 1 if it were read; argparse refuses the flag first.
    (tmp_path / "invalid.model").write_text(
        "flavor commutative\ngrading cohomological\ngen x : 2\ngen y : 3\nd y = x\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)

    def refuse(spec):
        raise AssertionError(f"model {spec} was read before the flags were checked")

    monkeypatch.setattr("dgtangent.cli.load_model", refuse)
    code, out, err = run_main(capsys, command, model, flag, value)
    assert (code, out) == (2, "")
    assert f"argument {flag}: " in err and repr(value) in err


def test_hochschild_prints_the_stable_page_once(capsys):
    # ah:sphere:2 has stable page 4; listing it adds no second copy.
    code, out, _ = run_main(
        capsys, "hochschild", "builtin:ah:sphere:2", "--window", "1", "--pages", "3..4"
    )
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("page")] == [
        "page 3 [internal]:",
        "page 4 [internal]:",
    ]


def test_bad_coefficients_is_usage_error(capsys):
    code, _, err = run_main(
        capsys, "ss", "builtin:ah:sphere:2", "--coefficients", "mystery"
    )
    assert code == 2


def test_loop_on_commutative_model_exits_one(capsys):
    code, _, err = run_main(capsys, "loop", "builtin:sullivan:hopf")
    assert code == 1
    assert "associative homological" in err


@pytest.mark.parametrize("stage", [1, 30000])
def test_loop_refuses_a_stage_other_than_the_degree(tmp_path, capsys, stage):
    # Loop degrees are read off the cone levels as if each generator sat at
    # the stage of its degree; any other stage would mislabel every class.
    model = tmp_path / "stage.model"
    model.write_text(
        "flavor associative\ngrading homological\ngen a : 1 stage 0\n"
        f"gen c : 3 stage {stage}\nd c = a a\n",
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "loop", str(model), "--max-degree", "4")
    assert code == 1
    assert out == ""
    assert "stage = degree" in err and "'a'" in err


@pytest.mark.parametrize(
    "text, line",
    [
        ("flavor commutative\ngrading cohomological\ngen x : 2\ngen y : 3\n"
         "d y = 1/0 * x^2\n", 5),
        ("flavor associative\ngrading homological\ngen u : 1\ngen v : 3\n"
         "diag v = 1/0 * u ⊗ u\n", 5),
    ],
    ids=["d-line", "diag-line"],
)
def test_zero_denominator_is_syntax_error(tmp_path, capsys, text, line):
    model = tmp_path / "zero.model"
    model.write_text(text, encoding="utf-8")
    code, _, err = run_main(capsys, "validate", str(model))
    assert code == 1
    assert f"line {line}" in err and "1/0" in err


@pytest.mark.parametrize(
    "line",
    ["d y = x^99999999999999999999", "diag y = x^99999999999999999999 ⊗ x"],
    ids=["d-line", "diag-line"],
)
def test_oversized_exponent_is_refused_before_expansion(tmp_path, capsys, line):
    model = tmp_path / "power.model"
    model.write_text(
        f"flavor associative\ngrading homological\ngen x : 1\ngen y : 3\n{line}\n",
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "validate", str(model))
    assert code == 1
    assert out == ""
    assert "line 5" in err


@pytest.mark.parametrize(
    "expr",
    ["1" * 5000 + " x^2", "1/" + "1" * 5000 + " x^2", "x^" + "1" * 5000],
    ids=["coefficient", "denominator", "exponent"],
)
def test_number_beyond_int_digit_limit_names_its_line(tmp_path, capsys, expr):
    # CPython's int() refuses strings of more than 4 300 digits by default.
    model = tmp_path / "long.model"
    model.write_text(
        f"flavor commutative\ngrading cohomological\ngen x : 2\ngen y : 3\nd y = {expr}\n",
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "validate", str(model))
    assert code == 1
    assert out == ""
    assert "line 5" in err and "5000 digits" in err


@pytest.mark.parametrize(
    "line, message",
    [
        ("gen x : 1_0", "line 3: bad degree '1_0'"),
        ("gen x : +2", "line 3: bad degree '+2'"),
        ("gen x : ٣", "line 3: bad degree '٣'"),
        ("gen x : 2 stage 0_1", "line 3: bad stage '0_1'"),
        ("gen x : 2\ngen y : 3\nd y = ٢ x^2", "line 5: unexpected character '٢'"),
        ("gen x : 2\ngen y : 3\nd y = x^٢", "line 5: unexpected character '٢'"),
    ],
    ids=[
        "degree-underscore", "degree-plus", "degree-arabic-indic", "stage-underscore",
        "coefficient-arabic-indic", "exponent-arabic-indic",
    ],
)
def test_integer_that_is_not_ascii_digits_names_its_line(tmp_path, capsys, line, message):
    # Python's int() reads all six; a model integer is -?[0-9]+ only.
    model = tmp_path / "int.model"
    model.write_text(f"flavor commutative\ngrading cohomological\n{line}\n", encoding="utf-8")
    code, out, err = run_main(capsys, "print", str(model))
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize(
    "expr, message",
    [
        ("y^", "line 5: expected an integer exponent after ^"),
        ("y^0", "line 5: exponents must be >= 1"),
        ("2 3 y", "line 5: unexpected token '3'"),
    ],
    ids=["missing-exponent", "zero-exponent", "two-coefficients"],
)
def test_malformed_term_names_its_line(tmp_path, expr, message):
    model = tmp_path / "term.model"
    model.write_text(
        f"flavor commutative\ngrading cohomological\ngen y : 2\ngen x : 3\nd x = {expr}\n",
        encoding="utf-8",
    )
    code, out, err = run_process("validate", str(model))
    assert (code, out) == (1, "")
    assert message in err
    assert "Traceback" not in err


def test_negative_stage_is_syntax_error(tmp_path, capsys):
    model = tmp_path / "stage.model"
    model.write_text(
        "flavor commutative\ngrading cohomological\ngen x : 2 stage -3\n",
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "validate", str(model))
    assert code == 1
    assert out == ""
    assert "line 3" in err and "stage -3" in err


def test_nonpositive_degree_names_its_line(tmp_path, capsys):
    model = tmp_path / "degree.model"
    model.write_text(
        "flavor commutative\ngrading cohomological\ngen x : 0\n", encoding="utf-8"
    )
    code, out, err = run_main(capsys, "validate", str(model))
    assert code == 1
    assert out == ""
    assert "line 3" in err and "nonpositive degree 0" in err


def test_non_utf8_model_names_the_file(tmp_path, capsys):
    model = tmp_path / "latin1.model"
    model.write_bytes(b"\xff flavor commutative\n")
    code, out, err = run_main(capsys, "validate", str(model))
    assert code == 1
    assert out == ""
    assert f"cannot read model {model}: not UTF-8 text (" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "missing `flavor` line"),
        ("flavor commutative\ngen x : 2\n", "missing `grading` line"),
    ],
    ids=["empty", "no-grading"],
)
def test_file_level_errors_name_no_line(tmp_path, capsys, text, message):
    model = tmp_path / "partial.model"
    model.write_text(text, encoding="utf-8")
    code, out, err = run_main(capsys, "validate", str(model))
    assert code == 1
    assert out == ""
    assert message in err and not re.search(r"line \d", err)


def test_reversed_degree_range_is_usage_error(capsys):
    code, out, err = run_main(capsys, "der", "builtin:sullivan:cpn:2", "--range", "3..-3")
    assert code == 2
    assert "3..-3" in err
    assert out == ""


def test_negative_range_needs_no_equals_sign(capsys):
    model = "builtin:sullivan:sphere:odd:3"
    spaced = run_main(capsys, "der", model, "--range", "-6..2", "--format", "records")
    joined = run_main(capsys, "der", model, "--range=-6..2", "--format", "records")
    assert spaced == joined
    for abbreviation in ("--ra", "--ran", "--rang"):
        argv = ("der", model, abbreviation, "-6..2", "--format", "records")
        assert run_main(capsys, *argv) == joined, abbreviation
    assert spaced[0] == 0
    assert [r["degree"] for r in records(spaced[1])] == list(range(-6, 3))


def test_reversed_page_range_is_usage_error(capsys):
    code, _, err = run_main(capsys, "ss", "builtin:ah:sphere:2", "--pages", "3..1")
    assert code == 2
    assert "3..1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("der", "builtin:sullivan:cpn:2", "--target", "builtin:sullivan:cpn:3"),
        ("ss", "builtin:sullivan:cpn:2", "--coefficients", "target=builtin:sullivan:cpn:3"),
    ],
    ids=["der", "ss"],
)
def test_target_that_is_not_a_chain_map_exits_one(capsys, argv):
    code, out, err = run_main(capsys, *argv, "--window", "3")
    assert code == 1
    assert out == ""
    assert "does not commute with d on 'y'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("der", "builtin:sullivan:hopf", "--target", ""),
        ("ss", "builtin:sullivan:hopf", "--coefficients", "target="),
    ],
    ids=["der", "ss"],
)
def test_empty_target_model_name_exits_one(capsys, argv):
    # An empty model name is a name that cannot be read, not "no target".
    code, out, err = run_main(capsys, *argv, "--window", "2")
    assert code == 1
    assert out == ""
    assert "cannot read model" in err


@pytest.mark.parametrize("command", ["der", "ss"])
def test_target_whose_images_do_not_graded_commute_exits_one(tmp_path, capsys, command):
    # Name matching Λ(x, y) → T(x, y) commutes with d (u(x²) = x x = d y), but
    # x y ≠ y x and y y ≠ 0 in the tensor algebra: no algebra morphism.
    paths = {}
    for flavor in ("commutative", "associative"):
        paths[flavor] = tmp_path / f"{flavor}.model"
        paths[flavor].write_text(
            f"flavor {flavor}\ngrading cohomological\ngen x : 2\ngen y : 3\nd y = x x\n",
            encoding="utf-8",
        )
    source, target = str(paths["commutative"]), str(paths["associative"])
    argv = {
        "der": ("der", source, "--target", target, "--window", "6"),
        "ss": ("ss", source, "--coefficients", f"target={target}", "--window", "4"),
    }[command]
    code, out, err = run_main(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "images of 'x' and 'y' do not graded-commute" in err
    assert "images of 'y' and 'y' do not graded-commute" in err


@pytest.mark.parametrize("command", ["der", "ss", "loop", "hochschild"])
def test_constant_term_in_d_is_computed(tmp_path, capsys, command):
    # d a = 1 makes the algebra acyclic; the unit word has no letters.
    path = tmp_path / "unit.model"
    path.write_text(
        "flavor associative\ngrading homological\ngen a : 1\ngen b : 2\nd a = 1\n",
        encoding="utf-8",
    )
    code, out, _ = run_main(capsys, command, str(path), "--format", "records")
    assert code == 0
    assembly = [rec for rec in records(out) if rec.get("table") == "assembly"]
    assert all(rec["ok"] for rec in assembly)
    assert assembly or command == "der"


def test_words_longer_than_the_recursion_limit_are_enumerated(tmp_path, capsys):
    # The degree-n word in one letter of degree 1 has n letters.
    path = tmp_path / "one-letter.model"
    path.write_text(
        "flavor associative\ngrading homological\ngen x : 1\nd x = 0\n", encoding="utf-8"
    )
    code, out, err = run_main(
        capsys, "homology", str(path), "--window", "1200", "--format", "records"
    )
    assert (code, err) == (0, "")
    table = f"algebra homology of {path}"
    assert _dimensions(out, table) == {n: 1 for n in range(0, 1201)}


def test_hochschild_filters_relative_cone_base_first(capsys):
    # The circle bundle has d z = x with x in the base: the base sits at
    # stage 0, so its cone is filtered and every page is defined.
    code, out, err = run_main(
        capsys, "hochschild", "builtin:sullivan:hopf", "--window", "3", "--format", "records"
    )
    assert code == 0
    assert err == ""
    assembly = [rec for rec in records(out) if rec.get("table") == "assembly"]
    assert [rec["degree"] for rec in assembly] == list(range(-3, 4))
    assert all(rec["ok"] for rec in assembly)


# ---------------------------------------------------------------- content


def test_loop_table_for_odd_sphere(capsys):
    code, out, _ = run_main(
        capsys, "loop", "builtin:ah:sphere:3", "--max-degree", "8"
    )
    assert code == 0
    dims = []
    for line in out.splitlines():
        if line.strip().startswith("degree"):
            parts = line.replace(":", " ").split()
            dims.append((int(parts[1]), int(parts[2])))
        if "second page" in line:
            break
    table = dict(dims)
    assert [table[m] for m in range(0, 9)] == [1, 0, 1, 1, 1, 1, 1, 1, 1]


# Vigué-Poirrier–Sullivan models ΛV ⊗ ΛsV, δ(sv) = −s(dv), of free loop
# spaces ("The homology theory of the closed geodesic problem", J. Differential
# Geom. 11 (1976)): `homology` of each is H*(LX; Q), from no code of the cone.
# Each pairs the cellular model that `loop` reads with the Sullivan model of the
# same space; stages put each generator after the letters of its differential.
LOOP_ORACLES = {
    "S3": (
        "builtin:ah:sphere:3",
        "gen x : 3 stage 1\ngen sx : 2 stage 1\nd x = 0\nd sx = 0\n",
    ),
    "S2": (
        "builtin:ah:sphere:2",
        "gen x : 2 stage 1\ngen sx : 1 stage 1\ngen y : 3 stage 2\ngen sy : 2 stage 3\n"
        "d x = 0\nd sx = 0\nd y = x^2\nd sy = -2 x sx\n",
    ),
    "S4": (
        "builtin:ah:sphere:4",
        "gen x : 4 stage 1\ngen sx : 3 stage 1\ngen y : 7 stage 2\ngen sy : 6 stage 3\n"
        "d x = 0\nd sx = 0\nd y = x^2\nd sy = -2 x sx\n",
    ),
    "CP2": (
        "flavor associative\ngrading homological\ngen a : 1\ngen c : 3\nd c = a a\n",
        "gen x : 2 stage 1\ngen sx : 1 stage 1\ngen y : 5 stage 2\ngen sy : 4 stage 3\n"
        "d x = 0\nd sx = 0\nd y = x^3\nd sy = -3 x^2 sx\n",
    ),
}

LOOP_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="loop Betti numbers are wrong off odd spheres: models.loop_homology "
    "reads the loop degree of a cone class as s − t (ROADMAP item 1a)",
)


def _dimensions(text, table):
    return {rec["degree"]: rec["dimension"] for rec in records(text) if rec.get("table") == table}


@pytest.mark.parametrize(
    "space", ["S3", *(pytest.param(s, marks=LOOP_DEFECT) for s in ("S2", "S4", "CP2"))]
)
def test_loop_betti_numbers_match_the_vigue_sullivan_model(space, tmp_path, capsys):
    cellular, sullivan = LOOP_ORACLES[space]
    if not cellular.startswith("builtin:"):
        (tmp_path / "cellular.model").write_text(cellular, encoding="utf-8")
        cellular = str(tmp_path / "cellular.model")
    oracle = tmp_path / "free-loop.model"
    oracle.write_text(
        "flavor commutative\ngrading cohomological\n" + sullivan, encoding="utf-8"
    )
    assert run_main(capsys, "validate", str(oracle))[0] == 0
    code, out, _ = run_main(capsys, "homology", str(oracle), "--window", "10", "--format", "records")
    assert code == 0
    expected = _dimensions(out, f"algebra homology of {oracle}")
    assert sorted(expected) == list(range(0, 11))
    code, out, _ = run_main(capsys, "loop", cellular, "--max-degree", "10", "--format", "records")
    assert code == 0
    assert _dimensions(out, "free-loop-space homology") == expected


def hochschild_complex(algebra):
    """A ⊕ A⊗sV for a quasi-free A = (T(V), d) graded homologically.  It is the small Hochschild complex of A (Loday, "Cyclic
    Homology", §3.1), so its homology in degree m is H_m(LX; Q) when A is an
    Adams–Hilton model of X (Goodwillie, Topology 24 (1985)), with no
    Poincaré duality and no code of the cone.  Labels ("a", w) and
    ("s", w, v) stand for w and w⊗sv; degrees are cohomological, n = −m."""
    deg = algebra.monomial_degree

    def basis(n):
        return [("a", w) for w in algebra.basis_in_degree(-n)] + [
            ("s", w, v)
            for v in algebra.letters
            for w in algebra.basis_in_degree(-n - algebra.gen_degree(v) - 1)
        ]

    def image(label):
        # D(a) = da; D(a⊗sv) = da⊗sv + (−1)^|a| [av − (−1)^{|a||v|} va
        #   − Σ (−1)^{|x|+|y|(|a|+|x|+|w_i|+1)} (y·a·x)⊗sw_i], summed over the
        #   words x·w_i·y of dv.
        out = {}
        for dw, c in algebra.differential({label[1]: ONE}).items():
            el_add_term(out, (label[0], dw, *label[2:]), c)
        if label[0] == "s":
            _, w, v = label
            sign = (-1) ** deg(w)
            el_add_term(out, ("a", w + (v,)), sign * ONE)
            el_add_term(out, ("a", (v,) + w), -sign * (-1) ** (deg(w) * algebra.gen_degree(v)) * ONE)
            for word, c in algebra.diff[v].items():
                for i, letter in enumerate(word):
                    x, y = word[:i], word[i + 1 :]
                    e = deg(x) + deg(y) * (deg(w) + deg(x) + algebra.gen_degree(letter) + 1)
                    el_add_term(out, ("s", y + w + x, letter), -sign * (-1) ** e * c)
        return out

    cx = CochainComplex(basis, lambda n: cx.matrix(n, image))
    return cx


def hochschild_betti(cellular, degrees):
    hh = hochschild_complex(cellular.algebra)
    return {m: hh.homology_dim(-m) for m in degrees}


def cellular_model(source):
    """The model of a ``builtin:NAME`` or of a model text."""
    if source.startswith("builtin:"):
        return builtin(source.removeprefix("builtin:"))
    return parse_model(source)


@pytest.mark.parametrize(
    "source",
    [*(f"builtin:ah:sphere:{n}" for n in (2, 3, 4, 5)), "builtin:ah:wedge:3,3", LOOP_ORACLES["CP2"][0]],
    ids=["S2", "S3", "S4", "S5", "S3vS3", "CP2"],
)
def test_the_hochschild_oracle_squares_to_zero(source):
    hh = hochschild_complex(cellular_model(source).algebra)
    assert hh.d_squared_failures(range(-12, 1)) == []


@pytest.mark.parametrize("space", ["S3", "S2", "S4", "CP2"])
def test_the_hochschild_oracle_matches_the_vigue_sullivan_model(space):
    cellular, sullivan = LOOP_ORACLES[space]
    vps = parse_model("flavor commutative\ngrading cohomological\n" + sullivan)
    assert validate_model(vps).ok
    expected = algebra_homology_dims(vps.algebra, range(11))
    assert hochschild_betti(cellular_model(cellular), range(11)) == expected


def test_the_hochschild_oracle_counts_necklaces_on_a_wedge_of_two_3_spheres():
    # HH_0 and HH_1 of T(a, b), |a| = |b| = 2, each count the N(k) binary
    # necklaces of length k in degree 2k, resp. 2k + 1.
    betti = hochschild_betti(builtin("ah:wedge:3,3"), range(13))
    assert list(betti.values()) == [1, 0, 2, 2, 3, 3, 4, 4, 6, 6, 8, 8, 14]


@pytest.mark.parametrize(
    "name",
    [
        "ah:sphere:3",
        "ah:sphere:5",
        pytest.param(
            "ah:wedge:3,3",
            marks=pytest.mark.xfail(
                strict=True,
                reason="loop reads 1, 0, 0, 2, 0, 4, 0, 6, 0, 12, 0 on S³ ∨ S³, which "
                "is no Poincaré-duality space (ROADMAP item 1a)",
            ),
        ),
    ],
)
def test_loop_matches_the_hochschild_oracle(name, capsys):
    code, out, _ = run_main(capsys, "loop", f"builtin:{name}", "--max-degree", "10", "--format", "records")
    assert code == 0
    assert _dimensions(out, "free-loop-space homology") == hochschild_betti(builtin(name), range(11))


SULLIVAN_BUILTINS = (
    "sullivan:sphere:odd:3", "sullivan:sphere:odd:5", "sullivan:sphere:even:2",
    "sullivan:sphere:even:4", "sullivan:cpn:1", "sullivan:cpn:2", "sullivan:cpn:3",
    "sullivan:hopf", "trivial-fibration:sullivan:sphere:even:2",
)


def constant_sphere_maps():
    """(m, X) for each odd sphere S^m and Sullivan builtin X that validates
    and into which the name-matching map from S^m's model is constant."""
    for m in (3, 5):
        sphere = builtin(f"sullivan:sphere:odd:{m}").algebra
        for name in SULLIVAN_BUILTINS:
            space = builtin(name)
            images = AlgebraMorphism.name_matching(sphere, space.algebra).images
            if validate_model(space).ok and not any(images.values()):
                yield m, name


@pytest.mark.parametrize("m, target", list(constant_sphere_maps()))
def test_der_target_from_odd_sphere_is_shifted_target_cohomology(m, target, capsys):
    # π_n(map(X, S^m; const)) ⊗ Q = H^{m−n}(X; Q) (Thom 1956; Haefliger,
    # Trans. AMS 273 (1982)): dim H^p(Der) = dim H^{m+p}(X) for the constant map.
    source = f"sullivan:sphere:odd:{m}"
    code, out, _ = run_main(capsys, "homology", f"builtin:{target}", "--window", "10", "--format", "records")
    assert code == 0
    h = _dimensions(out, f"algebra homology of {target}")
    code, out, _ = run_main(
        capsys, "der", f"builtin:{source}", "--target", f"builtin:{target}",
        "--range=-8..2", "--format", "records",
    )
    assert code == 0
    der = _dimensions(out, "derivation cohomology (target coefficients)")
    assert der == {p: h.get(m + p, 0) for p in range(-8, 3)}


def test_der_target_into_cp2_is_cp2_cohomology(capsys):
    code, out, _ = run_main(
        capsys, "der", "builtin:sullivan:sphere:odd:3", "--target", "builtin:sullivan:cpn:2",
        "--range=-8..2", "--format", "records",
    )
    assert code == 0
    der = _dimensions(out, "derivation cohomology (target coefficients)")
    assert {p for p, dim in der.items() if dim} == {-3, -1, 1}
    assert set(der.values()) == {0, 1}


def test_multiplicativity_failure_rows_exit_one(monkeypatch, capsys):
    from dgtangent.models import diagonal_problems

    def without_diag_z(algebra, diagonals):
        kept = {g: diag for g, diag in diagonals.items() if g != "z"}
        return diagonal_problems(algebra, kept)

    # validate reads the model's diagonals; only the product check loses diag z.
    monkeypatch.setattr("dgtangent.cli.diagonal_problems", without_diag_z)
    model = Path(__file__).resolve().parent / "models" / "cellcoalg.model"
    code, out, _ = run_main(
        capsys, "ss", str(model), "--coefficients", "trivial", "--check-multiplicative"
    )
    assert code == 1
    assert out.endswith(
        "first-page product rule over 16 pairs: FAILS\n"
        "  fails on diag z: not a coderivation against the cellular differential\n"
    )


def test_loop_e2_mismatch_exits_one(monkeypatch, capsys):
    from dgtangent.models import loop_homology

    def mismatched(*args, **kwargs):
        report = loop_homology(*args, **kwargs)
        engine = dict(report.e2_engine)
        engine[(0, 0)] += 1
        return report._replace(e2_engine=engine)

    monkeypatch.setattr("dgtangent.cli.loop_homology", mismatched)
    code, out, _ = run_main(capsys, "loop", "builtin:ah:sphere:3", "--max-degree", "4")
    assert "MISMATCH" in out
    assert "assembly" in out and "MISMATCH" not in out.split("assembly", 1)[1]
    assert code == 1


def test_loop_respects_max_degree(capsys):
    code, out, _ = run_main(
        capsys,
        "loop",
        "builtin:ah:sphere:2",
        "--max-degree",
        "5",
        "--format",
        "records",
    )
    assert code == 0
    degrees = [
        rec["degree"]
        for rec in records(out)
        if rec.get("table") == "free-loop-space homology"
    ]
    assert degrees and max(degrees) == 5


def test_aut_records_carry_hom_table(capsys):
    code, out, _ = run_main(
        capsys,
        "aut",
        "builtin:trivial-fibration:sullivan:sphere:even:2",
        "--window",
        "8",
        "--format",
        "records",
    )
    assert code == 0
    hom = {
        (rec["s"], rec["t"]): rec["dimension"]
        for rec in records(out)
        if rec.get("table") == "hom"
    }
    assert hom == {(2, 0): 1, (2, 2): 1, (3, 0): 1, (3, 2): 1}


def test_ss_assembly_matches_der_command(capsys):
    model = "builtin:sullivan:sphere:even:2"
    code, out_ss, _ = run_main(
        capsys, "ss", model, "--window", "8", "--format", "records"
    )
    assert code == 0
    assembled = {
        rec["degree"]: (rec["assembled"], rec["direct"])
        for rec in records(out_ss)
        if rec.get("table") == "assembly"
    }
    code, out_der, _ = run_main(
        capsys, "der", model, "--range=-8..8", "--format", "records"
    )
    assert code == 0
    der_dims = {
        rec["degree"]: rec["dimension"]
        for rec in records(out_der)
        if "degree" in rec and "dimension" in rec
    }
    assert assembled
    for n, (total, direct) in assembled.items():
        assert total == direct == der_dims[n]


def test_print_is_canonical_fixed_point(tmp_path, capsys):
    code, out, _ = run_main(capsys, "print", "builtin:sullivan:cpn:3")
    assert code == 0
    path = tmp_path / "roundtrip.model"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = run_main(capsys, "print", str(path))
    assert code == 0
    assert out2 == out


def test_der_target_coefficients(tmp_path, capsys):
    code, out, _ = run_main(
        capsys,
        "der",
        "builtin:ah:sphere:2",
        "--target",
        "builtin:ah:sphere:2",
        "--range=-4..4",
    )
    assert code == 0
    assert "target coefficients" in out


# --------------------------------------------------- homotopy invariance

# Two models of CP² on each side: the minimal one, and one with a contractible
# pair (d u = w) and a triangular change of generators, y ↦ y + x u on the
# Sullivan side and c ↦ c + a u on the Adams–Hilton side (Félix–Halperin–
# Thomas, GTM 205, §14).  Totals are invariants of the space; page tables
# depend on the stages and are not.
SULLIVAN_CP2 = "flavor commutative\ngrading cohomological\n"
CELLULAR_CP2 = "flavor associative\ngrading homological\n"
CP2_MODELS = {
    SULLIVAN_CP2: (
        "gen x : 2\ngen y : 5\nd y = x^3\n",
        # w's default stage 4 is not below u's stage 3: d u = w would break the stage condition.
        "gen x : 2\ngen u : 3\ngen w : 4 stage 2\ngen y : 5\nd u = w\nd y = x^3 + x w\n",
    ),
    CELLULAR_CP2: (
        "gen a : 1\ngen c : 3\nd c = a a\n",
        "gen a : 1\ngen w : 1\ngen u : 2\ngen c : 3\nd u = w\nd c = a a - a w\n",
    ),
}

# (model header, command, the table of totals it prints)
INVARIANT_TOTALS = [
    (SULLIVAN_CP2, ("homology", "--window", "11"), "algebra homology of cp2"),
    (SULLIVAN_CP2, ("der", "--range=-10..5"), "derivation cohomology (self coefficients)"),
    (
        SULLIVAN_CP2,
        ("aut", "--window", "10"),
        "homotopy of the identity component of self-equivalences",
    ),
    # Two letters of degree one triple the cone per degree: at 6 each command
    # takes about 3 s on the second model, at 8 about 23 s.
    (CELLULAR_CP2, ("loop", "--max-degree", "6"), "free-loop-space homology"),
    (CELLULAR_CP2, ("hochschild", "--window", "6"), "cone cohomology"),
]


@pytest.mark.parametrize(
    "header, argv, table", INVARIANT_TOTALS, ids=[argv[0] for _, argv, _ in INVARIANT_TOTALS]
)
def test_cp2_totals_do_not_depend_on_the_model(tmp_path, capsys, header, argv, table):
    totals = []
    for i, body in enumerate(CP2_MODELS[header]):
        model = tmp_path / f"cp2-{i}.model"
        model.write_text("name cp2\n" + header + body, encoding="utf-8")
        assert run_main(capsys, "validate", str(model))[0] == 0
        code, out, _ = run_main(capsys, argv[0], str(model), *argv[1:], "--format", "records")
        assert code == 0
        rows = records(out)
        assert all(r["engine"] == r["expected"] for r in rows if r.get("table") == "e2")
        kept = [r for r in rows if r.get("table") == table]
        assert kept
        if argv[0] == "aut":
            _, text, _ = run_main(capsys, argv[0], str(model), *argv[1:])
            kept.append(re.search(r"degree-zero classes.*", text).group())
        totals.append(kept)
    assert totals[0] == totals[1]


# ----------------------------------------------------------- determinism


def test_records_byte_identical_across_processes():
    argv = (
        "ss",
        "builtin:ah:sphere:2",
        "--coefficients",
        "trivial",
        "--window",
        "6",
        "--pages",
        "1..3",
        "--check-collapse",
        "--format",
        "records",
    )
    code1, out1, _ = run_process(*argv)
    code2, out2, _ = run_process(*argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip()


def test_loop_records_byte_identical_across_processes():
    argv = ("loop", "builtin:ah:wedge:2,2", "--max-degree", "6", "--format", "records")
    code1, out1, _ = run_process(*argv)
    code2, out2, _ = run_process(*argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # Both cost a short run more than its engine work; the records are
    # NamedTuples and plain classes.
    code = (
        "import sys, dgtangent.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
