"""Command-line front end.

Commands: ``validate``, ``homology``, ``quillen``, ``der``, ``ss``, ``loop``,
``aut``, ``hochschild``.  Models are file paths or ``builtin:NAME``.  Output
is an aligned text table (default) or line-delimited JSON records
(``--format records``); records are byte-stable across runs.  Exit status is
0 on success, 1 on validation or input failure, 2 on usage errors.  Page
tables are relabeled at output time by ``tower.relabel``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .algebra import AlgebraMorphism, trivial_algebra
from .models import (
    ModelFile,
    ModelSyntaxError,
    algebra_homology_dims,
    aut_homotopy,
    builtin_names,
    cone_spectral_sequence,
    derivation_tower,
    load_model,
    loop_homology,
    model_family,
    multiplicativity_check,
    print_model,
    quillen_dims,
    relabel,
    tower_report,
    validate_model,
)

TABLE = "table"
RECORDS = "records"


class CliError(Exception):
    """An input or validation failure: message printed, exit status 1."""


class UsageError(Exception):
    """A flag-level mistake: message printed, exit status 2."""


def _parse_range(text: str, what: str) -> tuple[int, int]:
    """``A..B`` as (A, B); a usage error unless A and B are integers, A <= B."""
    lo, _, hi = text.partition("..")
    try:
        bounds = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad {what} range {text!r}") from None
    if bounds[0] > bounds[1]:
        raise UsageError(f"empty {what} range {text!r}")
    return bounds


def _parse_pages(text: str) -> list[int]:
    if ".." in text:
        lo, hi = _parse_range(text, "page")
        pages = list(range(lo, hi + 1))
    else:
        try:
            pages = [int(p) for p in text.split(",")]
        except ValueError:
            raise UsageError(f"bad page list {text!r}") from None
    if not pages or any(p < 1 for p in pages):
        raise UsageError("page numbers start at 1")
    for p in pages:
        if pages.count(p) > 1:
            raise UsageError(f"page {p} is listed more than once in {text!r}")
    return pages


def _load(spec_text: str) -> ModelFile:
    try:
        return load_model(spec_text)
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read model {spec_text}: not UTF-8 text ({exc})") from None
    except (ModelSyntaxError, ValueError) as exc:
        raise CliError(str(exc)) from None
    except OSError as exc:
        raise CliError(f"cannot read model: {exc}") from None


def _validated(spec_text: str) -> ModelFile:
    mf = _load(spec_text)
    report = validate_model(mf)
    if not report.ok:
        raise CliError(
            "invalid model:\n" + "\n".join(report.lines())
        )
    return mf


def _coefficients(mf: ModelFile, choice: str) -> tuple[str, AlgebraMorphism]:
    """The label and the coefficient morphism u: A → U of ``self``, ``trivial``
    or ``target=MODEL`` (same-named generators); exit 1 unless u is a dg
    algebra morphism."""
    algebra = mf.algebra
    if choice == "self":
        u = AlgebraMorphism.identity(algebra)
    elif choice == "trivial":
        u = AlgebraMorphism.augmentation(algebra, trivial_algebra(algebra.grading))
    elif choice.startswith("target="):
        target = _validated(choice[len("target=") :]).algebra
        u, choice = AlgebraMorphism.name_matching(algebra, target), "target"
    else:
        raise UsageError(f"--coefficients must be self, trivial or target=PATH, not {choice!r}")
    if problems := u.check():
        raise CliError(
            f"{choice} coefficients are not a dg algebra morphism: " + "; ".join(problems)
        )
    return choice, u


class Output:
    """Collects table lines or record dicts, then prints one of them."""

    def __init__(self, mode: str, command: str, model: str) -> None:
        self.mode = mode
        self.command = command
        self.model = model
        self.lines: list[str] = []
        self.records: list[dict] = []

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def record(self, **fields) -> None:
        base = {"command": self.command, "model": self.model}
        base.update(fields)
        self.records.append(base)

    def emit(self) -> None:
        if self.mode == RECORDS:
            encode = json.JSONEncoder(sort_keys=True, default=str).encode
            for rec in self.records:
                print(encode(rec))
        else:
            for text in self.lines:
                print(text)


def _dims_rows(out: Output, label: str, dims: dict[int, int], key: str = "degree") -> None:
    out.line(f"{label}:")
    for n in sorted(dims):
        out.line(f"  {key} {n:>3}: {dims[n]}")
        out.record(**{key: n, "dimension": dims[n], "table": label})


def _page_rows(
    out: Output,
    convention: str,
    r: int,
    table: dict[tuple[int, int], int],
) -> None:
    out.line(f"page {r} [{convention}]:")
    if not table:
        out.line("  (empty)")
    for (s, t) in sorted(table):
        out.line(f"  ({s}, {t}): {table[(s, t)]}")
        out.record(r=r, s=s, t=t, dimension=table[(s, t)], convention=convention)


def _assembly_rows(out: Output, assembly: dict[int, tuple[int, int, bool]]) -> bool:
    ok_all = True
    out.line("assembly (sum of stable entries vs. direct cohomology):")
    for n in sorted(assembly):
        total, direct, ok = assembly[n]
        ok_all = ok_all and ok
        flag = "ok" if ok else "MISMATCH"
        out.line(f"  degree {n:>3}: {total} vs {direct} {flag}")
        out.record(
            degree=n, assembled=total, direct=direct, ok=ok, table="assembly"
        )
    return ok_all


# ------------------------------------------------------------- subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    mf = _load(args.model)
    report = validate_model(mf)
    out = Output(args.format, "validate", mf.name or args.model)
    for text in report.lines():
        out.line(text)
    for check in report.checks:
        out.record(check=check.name, ok=check.ok, detail=check.detail)
    out.emit()
    return 0 if report.ok else 1


def cmd_homology(args: argparse.Namespace) -> int:
    mf = _validated(args.model)
    dims = algebra_homology_dims(mf.algebra, list(range(0, args.window + 1)))
    out = Output(args.format, "homology", mf.name or args.model)
    _dims_rows(out, f"algebra homology of {mf.name or args.model}", dims)
    out.emit()
    return 0


def cmd_quillen(args: argparse.Namespace) -> int:
    mf = _validated(args.model)
    dims = quillen_dims(mf.algebra, list(range(1, args.window + 1)))
    out = Output(args.format, "quillen", mf.name or args.model)
    _dims_rows(out, "generator-level homology (linear part)", dims)
    if model_family(mf) == "cellular":
        cells = {}
        for g in mf.algebra.generators.values():
            cells[g.degree + 1] = cells.get(g.degree + 1, 0) + 1
        _dims_rows(out, "cells per dimension", cells, key="dimension")
    out.emit()
    return 0


def cmd_der(args: argparse.Namespace) -> int:
    mf = _validated(args.model)
    coefficients, u = _coefficients(mf, f"target={args.target}" if args.target else "self")
    der, _ = derivation_tower(mf, u)
    if args.range:
        lo, hi = _parse_range(args.range, "degree")
    else:
        lo, hi = -args.window, args.window
    cx = der.complex()
    dims = {n: cx.homology_dim(n) for n in range(lo, hi + 1)}
    out = Output(args.format, "der", mf.name or args.model)
    vanish = f" fixing {sorted(mf.base_names())}" if mf.base_names() else ""
    _dims_rows(out, f"derivation cohomology{vanish} ({coefficients} coefficients)", dims)
    if args.reps:
        out.line("representatives:")
        for n in range(lo, hi + 1):
            h = cx.homology(n)
            for i, rep in enumerate(h.basis):
                text = der.format_values(der.values_of_vector(rep, n))
                out.line(f"  degree {n}, class {i}: {text}")
                out.record(degree=n, index=i, representative=text)
    out.emit()
    return 0


def cmd_ss(args: argparse.Namespace) -> int:
    mf = _validated(args.model)
    _, u = _coefficients(mf, args.coefficients)
    pages = _parse_pages(args.pages)
    if args.check_multiplicative and not args.diag:
        raise UsageError("--check-multiplicative requires --diag primitive|model")
    if args.diag and not args.check_multiplicative:
        raise UsageError("--diag requires --check-multiplicative")
    mult = None
    try:
        # A model the product check refuses is refused before any page is built.
        if args.check_multiplicative:
            diagonals = {} if args.diag == "primitive" else mf.diagonals
            mult = multiplicativity_check(mf.algebra, diagonals, window=args.window)
        report = tower_report(
            mf,
            u,
            window=args.window,
            pages=pages,
            check_collapse=args.check_collapse,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out = Output(args.format, "ss", mf.name or args.model)
    conventions = (
        [args.convention]
        if args.convention
        else ["internal", "relabeled" if model_family(mf) == "sullivan" else "flipped"]
    )
    for r in pages:
        for convention in conventions:
            _page_rows(out, convention, r, relabel(report.pages_internal[r], convention))
    out.line(f"stable page: {report.stable_page}")
    ok = _assembly_rows(out, report.assembly)
    if args.check_collapse and report.collapse is not None:
        col = report.collapse
        out.line(
            "collapse: "
            + (
                f"predicted at page {col.predicted_page} ({col.reason}); "
                f"verified: {col.verified}"
                if col.predicted_page is not None
                else "no single-row or single-column prediction"
            )
        )
        out.record(table="collapse", **col.as_record())
        if col.predicted_page is not None and not col.verified:
            ok = False
    if mult is not None:
        verdict = "ok" if mult.ok else "FAILS"
        out.line(
            f"first-page product rule over {mult.pairs_checked} pairs: {verdict}"
        )
        for failure in mult.failures:
            out.line(f"  fails on {failure}")
        out.record(
            table="multiplicativity", pairs=mult.pairs_checked, ok=mult.ok
        )
        ok = ok and mult.ok
    out.emit()
    return 0 if ok else 1


def cmd_loop(args: argparse.Namespace) -> int:
    mf = _validated(args.model)
    pages = _parse_pages(args.pages) if args.pages else ()
    try:
        report = loop_homology(mf, window=args.max_degree, pages=pages)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out = Output(args.format, "loop", mf.name or args.model)
    _dims_rows(out, "free-loop-space homology", report.betti)
    for r in pages:
        _page_rows(out, "flipped", r, relabel(report.pages_internal[r], "flipped"))
    out.line("second page vs hom(cells, loop homology):")
    keys = sorted(set(report.e2_engine) | set(report.e2_expected))
    for key in keys:
        got = report.e2_engine.get(key, 0)
        want = report.e2_expected.get(key, 0)
        flag = "ok" if got == want else "MISMATCH"
        out.line(f"  {key}: {got} vs {want} {flag}")
        out.record(s=key[0], t=key[1], engine=got, expected=want, table="e2")
    ok = _assembly_rows(out, report.assembly) and report.e2_matches
    out.emit()
    return 0 if ok else 1


def cmd_aut(args: argparse.Namespace) -> int:
    mf = _validated(args.model)
    pages = _parse_pages(args.pages) if args.pages else ()
    try:
        report = aut_homotopy(mf, window=args.window, pages=pages)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out = Output(args.format, "aut", mf.name or args.model)
    _dims_rows(out, "homotopy of the identity component of self-equivalences", report.dims)
    out.line(f"degree-zero classes (not part of the table): {report.degree_zero_dim}")
    out.line("hom-shaped table (fiber degree σ vs cohomology degree τ):")
    for key in sorted(report.hom_shaped):
        out.line(f"  {key}: {report.hom_shaped[key]}")
        out.record(s=key[0], t=key[1], dimension=report.hom_shaped[key], table="hom")
    for r in pages:
        _page_rows(out, "internal", r, report.pages_internal[r])
        _page_rows(out, "relabeled", r, relabel(report.pages_internal[r], "relabeled"))
    if args.brackets:
        out.line("brackets on classes:")
        for entry in report.brackets():
            out.line(f"  {entry.text}")
            out.record(
                table="bracket",
                degree_a=entry.degree_a,
                index_a=entry.index_a,
                degree_b=entry.degree_b,
                index_b=entry.index_b,
                coords=entry.coords,
            )
    ok = _assembly_rows(out, report.assembly) if report.assembly else True
    out.emit()
    return 0 if ok else 1


def cmd_hochschild(args: argparse.Namespace) -> int:
    mf = _validated(args.model)
    ss = cone_spectral_sequence(mf)
    degrees = list(range(-args.window, args.window + 1))
    pages = _parse_pages(args.pages) if args.pages else (1, 2)
    try:
        tables = {r: ss.page_dims(r, degrees) for r in pages}
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out = Output(args.format, "hochschild", mf.name or args.model)
    for r in pages:
        _page_rows(out, "internal", r, tables[r])
    _page_rows(out, "internal", ss.stable_page, ss.einf_dims(degrees))
    dims = {n: ss.fc.complex.homology_dim(n) for n in degrees}
    _dims_rows(out, "cone cohomology", dims)
    ok = _assembly_rows(out, ss.total_degree_check(degrees))
    out.emit()
    return 0 if ok else 1


def cmd_print(args: argparse.Namespace) -> int:
    mf = _load(args.model)
    sys.stdout.write(print_model(mf))
    return 0


# ------------------------------------------------------------------ parser


COMMANDS = ("validate", "homology", "quillen", "der", "ss", "loop", "aut", "hochschild", "print")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every sub-command, or of ``command`` alone when it is one
    of ``COMMANDS``; the top-level usage line is the same either way."""
    only = command if command in COMMANDS else None
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
    # With one sub-command built, the metavar keeps all nine in the usage
    # line.  With all built, argparse prints the same text by itself, and an
    # unset metavar keeps "command" as the argument's name in its errors.
    metavar = "{" + ",".join(COMMANDS) + "}" if only else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name: str, help_text: str) -> argparse.ArgumentParser | None:
        return sub.add_parser(name, help=help_text) if only in (None, name) else None

    def common(p: argparse.ArgumentParser, window_default: int | None = 10) -> None:
        p.add_argument("model", help="model file path or builtin:NAME")
        if window_default is not None:
            p.add_argument(
                "--window", type=int, default=window_default, metavar="N",
                help=f"degree window (default {window_default})",
            )
        p.add_argument(
            "--format", choices=(TABLE, RECORDS), default=TABLE,
            help="aligned table or line-delimited JSON records",
        )

    if p := add("validate", "run all structural checks"):
        common(p, window_default=None)
        p.set_defaults(func=cmd_validate)

    if p := add("homology", "algebra homology dimensions"):
        common(p)
        p.set_defaults(func=cmd_homology)

    if p := add("quillen", "generator-level (indecomposable) homology"):
        common(p)
        p.set_defaults(func=cmd_quillen)

    if p := add("der", "derivation cohomology dimensions"):
        common(p)
        p.add_argument("--target", metavar="MODEL", help="coefficient target model")
        p.add_argument(
            "--range", metavar="A..B",
            help="explicit degree range, e.g. --range -6..2",
        )
        p.add_argument("--reps", action="store_true", help="print class representatives")
        p.set_defaults(func=cmd_der)

    if p := add("ss", "spectral-sequence pages of the derivation tower"):
        common(p)
        p.add_argument(
            "--coefficients", default="self", metavar="C",
            help="self, trivial, or target=MODEL (default self)",
        )
        p.add_argument("--pages", default="1..6", metavar="A..B", help="pages to print")
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
            help="check the first-page product rule for the convolution product",
        )
        p.add_argument(
            "--diag", choices=("primitive", "model"),
            help="diagonal data for --check-multiplicative",
        )
        p.set_defaults(func=cmd_ss)

    if p := add("loop", "free-loop-space homology of a cellular model"):
        p.add_argument("model", help="model file path or builtin:NAME")
        p.add_argument(
            "--max-degree", type=int, default=10, metavar="N",
            help="largest loop degree reported (default 10)",
        )
        p.add_argument("--pages", metavar="A..B", help="also print these pages")
        p.add_argument("--format", choices=(TABLE, RECORDS), default=TABLE)
        p.set_defaults(func=cmd_loop)

    if p := add("aut", "rational homotopy of fiberwise self-equivalences"):
        common(p)
        p.add_argument("--pages", metavar="A..B", help="also print these pages")
        p.add_argument("--brackets", action="store_true", help="print bracket tables")
        p.set_defaults(func=cmd_aut)

    if p := add("hochschild", "adjoint-cone tower of a model"):
        common(p, window_default=8)
        p.add_argument("--pages", metavar="A..B", help="pages to print (default 1..2)")
        p.set_defaults(func=cmd_hochschild)

    if p := add("print", "canonical text form of a model"):
        p.add_argument("model", help="model file path or builtin:NAME")
        p.set_defaults(func=cmd_print)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv else None)
    # argparse reads a value such as -6..2 as an option: glue it to --range
    # or to an abbreviation of it (--r alone also abbreviates --reps).
    for at in range(len(argv) - 2, -1, -1):
        if len(argv[at]) > 3 and "--range".startswith(argv[at]):
            argv[at : at + 2] = [f"{argv[at]}={argv[at + 1]}"]
    args = parser.parse_args(argv)
    if getattr(args, "window", 1) < 1 or getattr(args, "max_degree", 1) < 1:
        parser.error("the degree window must be at least 1")
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
