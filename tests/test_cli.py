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
from pathlib import Path

import pytest

from dgtangent.cli import main
from test_acceptance import CHILD_ENV


def run_main(capsys, *argv):
    code = main(list(argv))
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
    ],
    ids=["flavor", "grading", "stage", "diag-after-cancelling-diag"],
)
@pytest.mark.parametrize("command", ["print", "validate"])
def test_duplicate_model_line_exits_one(command, text, message, tmp_path, capsys):
    model = tmp_path / "dup.model"
    model.write_text(text, encoding="utf-8")
    code, out, err = run_main(capsys, command, str(model))
    assert (code, out) == (1, "")
    assert message in err


def test_failing_validate_records_are_pinned(tmp_path, capsys):
    # d² c = d b = a: both the d² check and the ε-extension check fail on c.
    bad = tmp_path / "bad.model"
    bad.write_text(
        "name bad-square\nflavor associative\ngrading homological\n"
        "gen a : 1\ngen b : 2\ngen c : 3\nd b = a\nd c = b\n",
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "validate", str(bad), "--format", "records")
    assert (code, err) == (1, "")
    assert out == (
        '{"check": "differential degrees", "command": "validate", "detail": "",'
        ' "model": "bad-square", "ok": true}\n'
        '{"check": "d squared is zero on generators", "command": "validate",'
        ' "detail": "c", "model": "bad-square", "ok": false}\n'
        '{"check": "stage condition (d lands below the stage)", "command": "validate",'
        ' "detail": "", "model": "bad-square", "ok": true}\n'
        '{"check": "cell degrees at least one", "command": "validate", "detail": "",'
        ' "model": "bad-square", "ok": true}\n'
        '{"check": "square-tracking extension squares to zero", "command": "validate",'
        ' "detail": "\\u03b5-extension is not a complex: d\\u0304\\u00b2 \\u2260 0 on'
        " ['c']\", \"model\": \"bad-square\", \"ok\": false}\n"
    )


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
        '{"check": "differential degrees", "command": "validate", ' + ok
        + '{"check": "d squared is zero on generators", "command": "validate", ' + ok
        + '{"check": "stage condition (d lands below the stage)", "command": "validate", '
        + ok
        + '{"check": "cell degrees at least one", "command": "validate", ' + ok
        + '{"check": "square-tracking extension squares to zero", "command": "validate", '
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
        # Only the loop parser is built; the usage line still lists all nine.
        # The other three build all nine.
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


def test_multiplicative_without_diag_is_usage_error(capsys):
    code, _, err = run_main(
        capsys, "ss", "builtin:ah:sphere:2", "--check-multiplicative"
    )
    assert code == 2
    assert "--diag" in err


def test_multiplicative_check_refuses_cohomological_model(capsys):
    code, out, err = run_main(
        capsys, "ss", "builtin:sullivan:cpn:1", "--check-multiplicative", "--diag", "primitive"
    )
    assert code == 1
    assert out == ""
    assert "cell coalgebras require homological grading" in err


@pytest.mark.parametrize(
    "flags",
    [("--check-multiplicative",), ("--diag", "primitive")],
    ids=["multiplicative-without-diag", "diag-without-multiplicative"],
)
def test_ss_flag_mistakes_exit_before_computing(monkeypatch, capsys, flags):
    def refuse(*args, **kwargs):
        raise AssertionError("tower_report ran before the flags were checked")

    monkeypatch.setattr("dgtangent.cli.tower_report", refuse)
    code, out, err = run_main(capsys, "ss", "builtin:ah:sphere:2", *flags)
    assert code == 2
    assert out == ""
    assert "--check-multiplicative" in err and "--diag" in err


def test_multiplicative_refusal_comes_before_the_spectral_sequence(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("tower_report ran before the model was refused")

    monkeypatch.setattr("dgtangent.cli.tower_report", refuse)
    code, out, err = run_main(
        capsys, "ss", "builtin:sullivan:cpn:1", "--check-multiplicative", "--diag", "primitive"
    )
    assert code == 1
    assert out == ""
    assert "cell coalgebras require homological grading" in err


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


def test_hochschild_refuses_pages_of_unfiltered_cone(capsys):
    # The absolute cone of the circle bundle has d z = x with stage(x) > stage(z).
    code, out, err = run_main(capsys, "hochschild", "builtin:sullivan:hopf", "--window", "4")
    assert code == 1
    assert out == ""
    assert "lowers the filtration" in err


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


def test_loop_e2_mismatch_exits_one(monkeypatch, capsys):
    from dgtangent.models import loop_homology

    def mismatched(*args, **kwargs):
        report = loop_homology(*args, **kwargs)
        engine = dict(report.e2_engine)
        engine[(0, 0)] += 1
        return report._replace(e2_engine=engine, e2_matches=False)

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
