"""Command-line front end.

Commands: ``validate``, ``homology``, ``quillen``, ``der``, ``ss``, ``loop``,
``aut``, ``hochschild``.  Models are file paths or ``builtin:NAME``.  Output
is an aligned text table (default) or line-delimited JSON records
(``--format records``); records are byte-stable across runs.  ``main`` is
the one command runner: it loads the model (validated, except for
``validate`` and ``print``), hands each ``cmd_*`` one ``Output`` to fill,
prints it, and forms every exit status: 0 on success, 1 on a ``ValueError``
(validation or input failure, an engine refusal) or a failed check, 2 on a
flag mistake.  argparse checks every flag before the model is read: its
``type=`` converters read flag integers like model-file integers
(``-?[0-9]+``), ranges, page lists and the shape of ``--coefficients``.
``ss``, ``loop``, ``aut`` and ``hochschild`` each render one
``TowerReport``: ``_page_rows`` prints its pages, relabeled here and only
here by ``tower.relabel`` (``loop`` relabels its two second-page tables too).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Sequence

from .algebra import AlgebraMorphism, trivial_algebra
from .complexes import GRADING_HOMOLOGICAL
from .derivations import ConeComplex
from .models import (
    ModelFile,
    TowerReport,
    _parse_int,
    algebra_homology_dims,
    aut_homotopy,
    bracket_table,
    builtin_names,
    derivation_tower,
    diagonal_problems,
    load_model,
    loop_homology,
    model_family,
    print_model,
    quillen_dims,
    tower_report,
    validate_model,
)
from .tower import SpectralSequence, collapse_report, relabel

TABLE = "table"
RECORDS = "records"


def integer(text: str) -> int:
    """A flag's integer, read like one in a model text: ``-?[0-9]+``."""
    return _parse_int(text, None, "integer")


def _parse_range(text: str, what: str = "degree") -> tuple[int, int]:
    """``A..B`` as (A, B); a flag mistake unless A and B are integers, A <= B."""
    lo, _, hi = text.partition("..")
    try:
        bounds = integer(lo), integer(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} range {text!r}") from None
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"empty {what} range {text!r}")
    return bounds


def _parse_pages(text: str) -> list[int]:
    """``A..B`` or a comma list of distinct page numbers, each at least 1."""
    if ".." in text:
        lo, hi = _parse_range(text, "page")
        pages = list(range(lo, hi + 1))
    else:
        try:
            pages = [integer(p) for p in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad page list {text!r}") from None
    if not pages or any(p < 1 for p in pages):
        raise argparse.ArgumentTypeError(f"page numbers start at 1, not {text!r}")
    for p, count in Counter(pages).items():
        if count > 1:
            raise argparse.ArgumentTypeError(f"page {p} is listed more than once in {text!r}")
    return pages


def _coefficient_choice(text: str) -> str:
    """``self``, ``trivial`` or ``target=MODEL``; the model is read later."""
    if text in ("self", "trivial") or text.startswith("target="):
        return text
    raise argparse.ArgumentTypeError(f"must be self, trivial or target=MODEL, not {text!r}")


def _load(spec_text: str) -> ModelFile:
    try:
        return load_model(spec_text)
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read model {spec_text}: not UTF-8 text ({exc})") from None
    except OSError as exc:
        raise ValueError(f"cannot read model: {exc}") from None


def _validated(spec_text: str) -> ModelFile:
    mf = _load(spec_text)
    rows = Output(TABLE, "validate", spec_text)
    if not cmd_validate(None, mf, rows):
        raise ValueError("invalid model:\n" + "\n".join(rows.lines))
    return mf


def _coefficients(mf: ModelFile, choice: str) -> tuple[str, AlgebraMorphism]:
    """The label and the coefficient morphism u: A → U of ``self``, ``trivial``
    or ``target=MODEL`` (same-named generators); a ``ValueError`` unless u
    is a dg algebra morphism."""
    algebra = mf.algebra
    if choice == "self":
        u = AlgebraMorphism.identity(algebra)
    elif choice == "trivial":
        u = AlgebraMorphism.augmentation(algebra, trivial_algebra(algebra.grading))
    else:
        target = _validated(choice[len("target=") :]).algebra
        u, choice = AlgebraMorphism.name_matching(algebra, target), "target"
    if problems := u.check():
        raise ValueError(
            f"{choice} coefficients are not a dg algebra morphism: " + "; ".join(problems)
        )
    return choice, u


class Output:
    """Collects table lines and record dicts, then prints one of them."""

    def __init__(self, mode: str, command: str, model: str) -> None:
        self.mode = mode
        self.command = command
        self.model = model
        self.lines: list[str] = []
        self.records: list[dict] = []

    def row(self, text: str = "", **fields) -> None:
        """One fact: its table line and, when ``fields`` are given, its record."""
        self.lines.append(text)
        if fields:
            self.records.append({"command": self.command, "model": self.model, **fields})

    def emit(self) -> None:
        if self.mode == RECORDS:
            encode = json.JSONEncoder(sort_keys=True, default=str).encode
            for rec in self.records:
                print(encode(rec))
        else:
            for text in self.lines:
                print(text)


def _dims_rows(out: Output, label: str, dims: dict[int, int], key: str = "degree") -> None:
    out.row(f"{label}:")
    for n in sorted(dims):
        out.row(f"  {key} {n:>3}: {dims[n]}", **{key: n, "dimension": dims[n], "table": label})


def _page_rows(out: Output, conventions: Sequence[str], tower: TowerReport) -> None:
    """Every page of ``tower``, relabeled in each of ``conventions`` in turn."""
    for r, page in tower.pages_internal.items():
        for convention in conventions:
            table = relabel(page, convention)
            out.row(f"page {r} [{convention}]:")
            if not table:
                out.row("  (empty)")
            for (s, t) in sorted(table):
                out.row(
                    f"  ({s}, {t}): {table[(s, t)]}",
                    r=r, s=s, t=t, dimension=table[(s, t)], convention=convention,
                )


def _assembly_rows(out: Output, assembly: dict[int, tuple[int, int, bool]]) -> bool:
    out.row("assembly (sum of stable entries vs. direct cohomology):")
    for n in sorted(assembly):
        total, direct, ok = assembly[n]
        flag = "ok" if ok else "MISMATCH"
        out.row(
            f"  degree {n:>3}: {total} vs {direct} {flag}",
            degree=n, assembled=total, direct=direct, ok=ok, table="assembly",
        )
    return all(ok for _, _, ok in assembly.values())


# ------------------------------------------------------------- subcommands


def cmd_validate(args: argparse.Namespace | None, mf: ModelFile, out: Output) -> bool:
    report = validate_model(mf)
    out.row(f"model {mf.name or '(unnamed)'} [{report.family}]")
    for c in report.checks:
        detail = f" ({c.detail})" if c.detail else ""
        out.row(
            f"  {'ok' if c.ok else 'FAIL':4} {c.name}{detail}",
            check=c.name, ok=c.ok, detail=c.detail,
        )
    out.row("valid" if report.ok else "INVALID")
    return report.ok


def cmd_homology(args: argparse.Namespace, mf: ModelFile, out: Output) -> bool:
    dims = algebra_homology_dims(mf.algebra, list(range(0, args.window + 1)))
    _dims_rows(out, f"algebra homology of {out.model}", dims)
    return True


def cmd_quillen(args: argparse.Namespace, mf: ModelFile, out: Output) -> bool:
    dims = quillen_dims(mf.algebra, list(range(1, args.window + 1)))
    _dims_rows(out, "generator-level homology (linear part)", dims)
    if model_family(mf) == "cellular":
        cells = {}
        for g in mf.algebra.generators.values():
            cells[g.degree + 1] = cells.get(g.degree + 1, 0) + 1
        _dims_rows(out, "cells per dimension", cells, key="dimension")
    return True


def cmd_der(args: argparse.Namespace, mf: ModelFile, out: Output) -> bool:
    choice = "self" if args.target is None else f"target={args.target}"
    coefficients, u = _coefficients(mf, choice)
    der, _ = derivation_tower(mf, u)
    lo, hi = args.range or (-args.window, args.window)
    cx = der.complex()
    dims = {n: cx.homology_dim(n) for n in range(lo, hi + 1)}
    vanish = f" fixing {sorted(mf.algebra.base)}" if mf.algebra.base else ""
    _dims_rows(out, f"derivation cohomology{vanish} ({coefficients} coefficients)", dims)
    if args.reps:
        out.row("representatives:")
        for n in range(lo, hi + 1):
            h = cx.homology(n)
            for i, rep in enumerate(h.basis):
                text = der.format_values(der.values_of_vector(rep, n))
                out.row(f"  degree {n}, class {i}: {text}", degree=n, index=i, representative=text)
    return True


def cmd_ss(args: argparse.Namespace, mf: ModelFile, out: Output) -> bool:
    _, u = _coefficients(mf, args.coefficients)
    # The first-page product rule on the functionals (v ↦ 1) is the transpose
    # of the coderivation condition on the diag lines, which validate checks;
    # a cohomological model has no cells and is refused before any page.
    if args.check_multiplicative and mf.algebra.grading != GRADING_HOMOLOGICAL:
        raise ValueError("cell coalgebras require homological grading")
    ss = SpectralSequence(derivation_tower(mf, u)[1])
    degrees = range(-args.window, args.window + 1)
    report = tower_report(ss, degrees, args.pages)
    conventions = (
        [args.convention]
        if args.convention
        else ["internal", "relabeled" if model_family(mf) == "sullivan" else "flipped"]
    )
    _page_rows(out, conventions, report)
    out.row(f"stable page: {ss.stable_page}")
    ok = _assembly_rows(out, report.assembly)
    if args.check_collapse:
        col = collapse_report(ss, degrees)
        out.row(
            "collapse: "
            + (
                f"predicted at page {col.predicted_page} ({col.reason}); "
                f"verified: {col.verified}"
                if col.predicted_page is not None
                else "no single-row or single-column prediction"
            ),
            table="collapse",
            region_ok=None,  # unused; kept so that records keep their keys
            **col._asdict(),
        )
        if col.predicted_page is not None and not col.verified:
            ok = False
    if args.check_multiplicative:
        problems = diagonal_problems(mf.algebra, mf.diagonals)
        pairs = sum(g.degree <= args.window for g in mf.algebra.generators.values()) ** 2
        verdict = "ok" if not problems else "FAILS"
        out.row(
            f"first-page product rule over {pairs} pairs: {verdict}",
            table="multiplicativity", pairs=pairs, ok=not problems,
        )
        for problem in problems:
            out.row(f"  fails on {problem}")
        ok = ok and not problems
    return ok


def cmd_loop(args: argparse.Namespace, mf: ModelFile, out: Output) -> bool:
    report = loop_homology(mf, window=args.max_degree, pages=args.pages)
    _dims_rows(out, "free-loop-space homology", report.betti)
    _page_rows(out, ["flipped"], report.tower)
    out.row("second page vs hom(cells, loop homology):")
    engine = relabel(report.e2_engine, "flipped")
    expected = relabel(report.e2_expected, "flipped")
    for key in sorted(set(engine) | set(expected)):
        got, want = engine.get(key, 0), expected.get(key, 0)
        flag = "ok" if got == want else "MISMATCH"
        out.row(
            f"  {key}: {got} vs {want} {flag}",
            s=key[0], t=key[1], engine=got, expected=want, table="e2",
        )
    return _assembly_rows(out, report.tower.assembly) and report.e2_engine == report.e2_expected


def cmd_aut(args: argparse.Namespace, mf: ModelFile, out: Output) -> bool:
    report = aut_homotopy(mf, window=args.window, pages=args.pages)
    _dims_rows(out, "homotopy of the identity component of self-equivalences", report.dims)
    out.row(f"degree-zero classes (not part of the table): {report.degree_zero_dim}")
    out.row("hom-shaped table (fiber degree σ vs cohomology degree τ):")
    for key in sorted(report.hom_shaped):
        out.row(
            f"  {key}: {report.hom_shaped[key]}",
            s=key[0], t=key[1], dimension=report.hom_shaped[key], table="hom",
        )
    _page_rows(out, ["internal", "relabeled"], report.tower)
    if args.brackets:
        out.row("brackets on classes:")
        for e in bracket_table(report.der, args.window):
            n = e.degree_a + e.degree_b
            terms = [f"{c}*e({n},{k})" for k, c in enumerate(e.coords) if c != "0"]
            out.row(
                f"  [e({e.degree_a},{e.index_a}), e({e.degree_b},{e.index_b})] = "
                + (" + ".join(terms) or "0"),
                table="bracket", **e._asdict(),
            )
    return _assembly_rows(out, report.tower.assembly) if report.tower.assembly else True


def cmd_hochschild(args: argparse.Namespace, mf: ModelFile, out: Output) -> bool:
    ss = SpectralSequence(ConeComplex(mf.algebra).tower())
    degrees = range(-args.window, args.window + 1)
    report = tower_report(ss, degrees, [*args.pages, ss.stable_page])  # and the E_∞ page
    _page_rows(out, ["internal"], report)
    _dims_rows(out, "cone cohomology", {n: report.assembly[n][1] for n in degrees})
    return _assembly_rows(out, report.assembly)


def cmd_print(args: argparse.Namespace, mf: ModelFile, out: Output) -> bool:
    sys.stdout.write(print_model(mf))
    return True


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgtangent",
        description=(
            "Exact-arithmetic tangent-cohomology workbench for quasi-free "
            "differential graded algebras: derivation complexes, generator-tower "
            "spectral sequences, free-loop-space homology, and the rational "
            "homotopy of fiberwise self-equivalences."
        ),
        epilog="Builtin models: " + ", ".join(builtin_names()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, window_default: int | None = 10) -> None:
        p.add_argument("model", help="model file path or builtin:NAME")
        if window_default is not None:
            p.add_argument(
                "--window", type=integer, default=window_default, metavar="N",
                help=f"degree window (default {window_default})",
            )
        p.add_argument(
            "--format", choices=(TABLE, RECORDS), default=TABLE,
            help="aligned table or line-delimited JSON records",
        )

    def pages(p: argparse.ArgumentParser, default: str | tuple, help: str) -> None:
        p.add_argument("--pages", type=_parse_pages, default=default, metavar="A..B", help=help)

    p = sub.add_parser("validate", help="run all structural checks")
    common(p, window_default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="algebra homology dimensions")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("quillen", help="generator-level (indecomposable) homology")
    common(p)
    p.set_defaults(func=cmd_quillen)

    p = sub.add_parser("der", help="derivation cohomology dimensions")
    common(p)
    p.add_argument("--target", metavar="MODEL", help="coefficient target model")
    p.add_argument(
        "--range", type=_parse_range, metavar="A..B",
        help="explicit degree range, e.g. --range -6..2",
    )
    p.add_argument("--reps", action="store_true", help="print class representatives")
    p.set_defaults(func=cmd_der)

    p = sub.add_parser("ss", help="spectral-sequence pages of the derivation tower")
    common(p)
    p.add_argument(
        "--coefficients", type=_coefficient_choice, default="self", metavar="C",
        help="self, trivial, or target=MODEL (default self)",
    )
    pages(p, "1..6", "pages to print")
    p.add_argument(
        "--convention", choices=("internal", "flipped", "relabeled"),
        help="bidegree labels (default: internal plus the family-appropriate one)",
    )
    p.add_argument(
        "--check-collapse", action="store_true",
        help="detect single-row/column degeneration and verify it",
    )
    p.add_argument(
        "--check-multiplicative", action="store_true",
        help="check the first-page product rule for the convolution product "
        "of the model's diag lines",
    )
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("loop", help="free-loop-space homology of a cellular model")
    common(p, window_default=None)
    p.add_argument(
        "--max-degree", type=integer, default=10, metavar="N",
        help="largest loop degree reported (default 10)",
    )
    pages(p, (), "also print these pages")
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("aut", help="rational homotopy of fiberwise self-equivalences")
    common(p)
    pages(p, (), "also print these pages")
    p.add_argument("--brackets", action="store_true", help="print bracket tables")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("hochschild", help="adjoint-cone tower of a model")
    common(p, window_default=8)
    pages(p, "1..2", "pages to print (default 1..2)")
    p.set_defaults(func=cmd_hochschild)

    p = sub.add_parser("print", help="canonical text form of a model")
    p.add_argument("model", help="model file path or builtin:NAME")
    p.set_defaults(func=cmd_print, format=TABLE)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # argparse reads a value such as -6..2 as an option: glue it to --range
    # or to an abbreviation of it (--r alone also abbreviates --reps).
    for at in range(len(argv) - 2, -1, -1):
        if len(argv[at]) > 3 and "--range".startswith(argv[at]):
            argv[at : at + 2] = [f"{argv[at]}={argv[at + 1]}"]
    args = parser.parse_args(argv)
    if getattr(args, "window", 1) < 1 or getattr(args, "max_degree", 1) < 1:
        parser.error("the degree window must be at least 1")
    load = _load if args.command in ("validate", "print") else _validated
    try:
        mf = load(args.model)
        out = Output(args.format, args.command, mf.name or args.model)
        ok = args.func(args, mf, out)
    except ValueError as exc:  # input failures and engine refusals
        print(str(exc), file=sys.stderr)
        return 1
    out.emit()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
