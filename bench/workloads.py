"""The three benchmark workloads and their seeded model generator.

Each workload is a fixed-shape base model plus one ``dgtangent`` command.
A seed rescales every generator, v ↦ λ_v·v, with λ_v drawn from a small set
of nonzero rationals.  The rescaled algebra is isomorphic to the base one, so
basis sizes and every reported dimension are the same for every seed; only
the coefficient arithmetic changes.

``python3 bench/check.py`` checks the generator: every generated model must
pass ``dgtangent validate``, and two seeds must give the same normalised
records, equal to the committed table under ``bench/expected/``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SCALES = tuple(
    Fraction(text)
    for text in ("1", "-1", "2", "-2", "3", "1/2", "-3/2", "2/3")
)

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    flavor: str
    grading: str
    # (name, degree, is_base) in declaration order
    generators: tuple[tuple[str, int, bool], ...]
    # generator -> monomials of its differential, each with coefficient 1
    differentials: dict[str, tuple[tuple[str, ...], ...]]
    # command arguments; "{model}" is replaced by the model path
    args: tuple[str, ...]

    def model_text(self, seed: int) -> str:
        """The base model with the seed's diagonal rescaling applied."""
        rng = random.Random(f"{self.name}/{seed}")
        scale = {name: rng.choice(SCALES) for name, _, _ in self.generators}
        lines = [
            f"name bench:{self.name}",
            f"description {self.name} base model, diagonally rescaled",
            f"flavor {self.flavor}",
            f"grading {self.grading}",
        ]
        for name, degree, is_base in self.generators:
            lines.append(f"gen {name} : {degree}" + (" base" if is_base else ""))
        for name, _, _ in self.generators:
            # d(λ_v v) = Σ c·Πλ_w·m, so d v = Σ c·Πλ_w / λ_v · m.
            terms = []
            for letters in self.differentials.get(name, ()):
                c = 1 / scale[name]
                for letter in letters:
                    c *= scale[letter]
                terms.append((c, letters))
            lines.append(f"d {name} = {_format_terms(terms)}")
        return "\n".join(lines) + "\n"

    def command(self, model_path: str) -> list[str]:
        return [model_path if a == "{model}" else a for a in self.args]

    def expected_records(self) -> list[dict]:
        path = EXPECTED_DIR / f"{self.name}.jsonl"
        with path.open(encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]


def _format_terms(terms: list[tuple[Fraction, tuple[str, ...]]]) -> str:
    if not terms:
        return "0"
    out = []
    for coeff, letters in terms:
        sign = "-" if coeff < 0 else "+"
        out.append(f"{sign} {abs(coeff)} * {' '.join(letters)}")
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else text


WORKLOADS = {
    w.name: w
    for w in (
        # Adams-Hilton model of CP^2; stage equals degree, as the loop-degree
        # bookkeeping of `loop` requires.
        Workload(
            name="loop-cellular",
            flavor="associative",
            grading="homological",
            generators=(("a", 1, False), ("c", 3, False)),
            differentials={"c": (("a", "a"),)},
            args=("loop", "{model}", "--max-degree", "8", "--format", "records"),
        ),
        # Sullivan model of CP^2 x CP^3 x S^4 x S^3.
        Workload(
            name="ss-sullivan",
            flavor="commutative",
            grading="cohomological",
            generators=(
                ("x1", 2, False), ("y1", 5, False),
                ("x2", 2, False), ("y2", 7, False),
                ("x3", 4, False), ("y3", 7, False),
                ("z", 3, False),
            ),
            differentials={
                "y1": (("x1", "x1", "x1"),),
                "y2": (("x2", "x2", "x2", "x2"),),
                "y3": (("x3", "x3"),),
            },
            args=(
                "ss", "{model}", "--window", "7", "--check-collapse",
                "--format", "records",
            ),
        ),
        # Relative Sullivan model over the closed base generators a, b, c.
        Workload(
            name="aut-relative",
            flavor="commutative",
            grading="cohomological",
            generators=(
                ("a", 2, True), ("b", 2, True), ("c", 4, True),
                ("x", 2, False), ("u", 4, False),
                ("y", 7, False), ("z", 11, False),
            ),
            differentials={
                "y": (
                    ("x", "x", "x", "x"),
                    ("a", "b", "x", "x"),
                    ("c", "u"),
                ),
                "z": (
                    ("x", "x", "x", "x", "x", "x"),
                    ("u", "u", "u"),
                    ("a", "a", "b", "b", "c"),
                ),
            },
            args=(
                "aut", "{model}", "--window", "12", "--brackets",
                "--pages", "1..4", "--format", "records",
            ),
        ),
    )
}


def normalized(records: list[dict]) -> list[dict]:
    """Records with the seed-dependent bracket coordinates summarised.

    A rescaling multiplies the class coordinates of a bracket by nonzero
    factors, so bracket records are folded into one record per pair of
    degrees: how many brackets, and how many of them are nonzero.  Every
    other record is a dimension or a check and is kept as it is.
    """
    out = [rec for rec in records if rec.get("table") != "bracket"]
    summary: dict[tuple[int, int], list[int]] = {}
    for rec in records:
        if rec.get("table") == "bracket":
            counts = summary.setdefault((rec["degree_a"], rec["degree_b"]), [0, 0])
            counts[0] += 1
            counts[1] += any(c != "0" for c in rec["coords"])
    for (degree_a, degree_b), (entries, nonzero) in sorted(summary.items()):
        out.append({
            "table": "bracket-summary", "degree_a": degree_a,
            "degree_b": degree_b, "entries": entries, "nonzero": nonzero,
        })
    return out
