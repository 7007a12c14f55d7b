"""Outside-in per-layer tracer for one ``dgtangent`` CLI process.

    PYTHONPATH=src python3 bench/tracer.py TRACE.json CLI-ARGS...

runs ``dgtangent.cli.main(CLI-ARGS)`` with the public boundaries of every
module wrapped from outside the package, then writes the per-layer totals to
TRACE.json.  Each wrapped call is a span of the layer (module) that defines
the function.  A layer's self time is its spans' time minus the time of the
spans they enclose, so the self times of all layers add up to the time
inside ``cli.main``.  Spans are folded into per-boundary totals as they
close rather than kept one by one: the hot boundaries close a few hundred
thousand times per run.

``from … import`` binds a name at import time, so every module-level copy of
a wrapped function is rebound, and each ``diff_fn`` handed to a
``CochainComplex`` is wrapped and charged to the module that defines it.
``Matrix.solve`` is left out: only the exact-couple oracle calls it, and no
CLI command runs that oracle.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "models", "algebra", "derivations", "complexes", "tower", "linalg")

# (layer, owner, attribute): owner is a class name or None for a function.
BOUNDARIES = (
    ("linalg", "Echelon", "insert"),
    ("linalg", "Matrix", "kernel_basis"),
    ("linalg", "Matrix", "rank"),
    ("linalg", "Matrix", "apply"),
    ("linalg", "Subquotient", "__init__"),
    ("linalg", None, "preimage_by_images"),
    ("linalg", None, "preimage_in_span"),
    ("complexes", "CochainComplex", "d"),
    ("complexes", "CochainComplex", "homology"),
    ("algebra", "FreeDgAlgebra", "basis_in_degree"),
    ("algebra", "FreeDgAlgebra", "differential"),
    ("algebra", "FreeDgAlgebra", "apply_derivation"),
    ("derivations", "DerComplex", "basis"),
    ("derivations", "DerComplex", "differential_values"),
    ("derivations", "DerComplex", "values_of_vector"),
    ("derivations", "DerComplex", "vector_of_values"),
    ("derivations", "DerComplex", "lie_bracket"),
    ("derivations", "ConeComplex", "basis"),
    ("tower", "SpectralSequence", "entry"),
    ("tower", "SpectralSequence", "z_span"),
    ("tower", "SpectralSequence", "page_dims"),
    ("tower", "SpectralSequence", "total_degree_check"),
    ("tower", None, "collapse_report"),
    ("models", None, "load_model"),
    ("models", None, "validate_model"),
    ("models", None, "loop_homology"),
    ("models", None, "aut_homotopy"),
    ("models", None, "tower_report"),
    ("models", None, "derivation_tower"),
    ("models", None, "algebra_homology_dims"),
    ("models", None, "quillen_dims"),
    ("models", None, "fiber_homotopy_dims"),
    ("cli", "Output", "emit"),
    ("cli", None, "main"),
)


class Tracer:
    """Span totals per layer and per boundary, plus exact work counters."""

    def __init__(self) -> None:
        # Time of the closed child spans of the innermost open span; each
        # span saves its parent's value on entry and restores it on exit.
        self.child_s = [0.0]
        self.self_s = {layer: [0.0] for layer in LAYERS}
        self.stats: dict[str, list] = {}  # boundary -> [calls, inclusive s, depth]
        self.counts: Counter[str] = Counter()
        self.seen: dict[str, set] = {}

    def wrap(self, fn, layer: str, boundary: str, after=None):
        """``fn`` recorded as a span of ``layer``; ``after(args, result)``
        updates counters once the span has closed."""
        child_s = self.child_s
        layer_self = self.self_s[layer]
        stat = self.stats.setdefault(boundary, [0, 0.0, 0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = child_s[0]
            child_s[0] = 0.0
            stat[2] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                layer_self[0] += elapsed - child_s[0]
                child_s[0] = saved + elapsed
                stat[0] += 1
                stat[2] -= 1
                if not stat[2]:  # inclusive time of the outermost call only
                    stat[1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def distinct(self, name: str, key) -> None:
        self.seen.setdefault(name, set()).add(key)

    # ------------------------------------------------------------ counters

    def _after_insert(self, args, enlarged) -> None:
        if enlarged:
            self.counts["insert_useful"] += 1

    def _after_basis(self, args, basis) -> None:
        algebra, degree = args
        self.distinct("basis", (id(algebra), degree))
        self.counts["basis_elems"] += len(basis)

    def _after_entry(self, args, _entry) -> None:
        ss, r, s, n = args
        self.distinct("entry", (id(ss), r, s, n))

    def _after_emit(self, args, _result) -> None:
        out = args[0]
        self.counts["records"] += len(out.records) if out.mode == "records" else 0

    def _after_diff(self, args, matrix) -> None:
        self.counts["d_nnz"] += sum(len(row) for row in matrix.rows)

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every boundary and rebind each imported copy."""
        import importlib

        # Importing the package is start-up work of the command, charged to cli.
        start = time.perf_counter()
        modules = {
            layer: importlib.import_module(f"dgtangent.{layer}") for layer in LAYERS
        }
        elapsed = time.perf_counter() - start
        self.self_s["cli"][0] += elapsed
        self.stats["import"] = [1, elapsed, 0]
        hooks = {
            "Echelon.insert": self._after_insert,
            "FreeDgAlgebra.basis_in_degree": self._after_basis,
            "SpectralSequence.entry": self._after_entry,
            "Output.emit": self._after_emit,
        }
        replaced = {}
        for layer, owner, attr in BOUNDARIES:
            boundary = f"{owner}.{attr}" if owner else attr
            after = hooks.get(boundary)
            if owner is None:
                original = getattr(modules[layer], attr)
                replaced[id(original)] = self.wrap(original, layer, boundary, after)
            else:
                cls = getattr(modules[layer], owner)
                setattr(cls, attr, self.wrap(cls.__dict__[attr], layer, boundary, after))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, name, replaced[id(value)])
        self._wrap_diff_fns(modules["complexes"].CochainComplex)

    def _wrap_diff_fns(self, cochain_complex) -> None:
        original_init = cochain_complex.__init__
        tracer = self

        @functools.wraps(original_init)
        def init(self, basis_fn, diff_fn, name=""):
            layer = diff_fn.__module__.rpartition(".")[2]
            boundary = f"{layer}.diff_fn"
            after = tracer._after_diff if layer == "derivations" else None
            original_init(self, basis_fn, tracer.wrap(diff_fn, layer, boundary, after), name)

        cochain_complex.__init__ = init

    # -------------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the run (times in seconds, counts exact)."""
        calls = {b: stat[0] for b, stat in self.stats.items()}
        incl = {b: stat[1] for b, stat in self.stats.items()}
        counts = self.counts
        d_calls = calls["CochainComplex.d"]
        d_misses = sum(n for b, n in calls.items() if b.endswith(".diff_fn"))
        inserts = calls["Echelon.insert"]
        out = {f"{layer}.self_s": self.self_s[layer][0] for layer in LAYERS}
        out.update({
            "linalg.inserts": inserts,
            "linalg.insert_useful_ratio": counts["insert_useful"] / inserts if inserts else 0.0,
            "linalg.kernel_calls": calls["Matrix.kernel_basis"],
            "tower.entry_s": incl["SpectralSequence.entry"],
            "tower.entries": len(self.seen.get("entry", ())),
            "tower.z_span_calls": calls["SpectralSequence.z_span"],
            "algebra.basis_calls": calls["FreeDgAlgebra.basis_in_degree"],
            "algebra.basis_distinct": len(self.seen.get("basis", ())),
            "algebra.basis_elems": counts["basis_elems"],
            "algebra.apply_derivation_calls": calls["FreeDgAlgebra.apply_derivation"],
            "derivations.assembly_s": incl.get("derivations.diff_fn", 0.0),
            "derivations.d_nnz": counts["d_nnz"],
            "derivations.der_basis_calls": calls["DerComplex.basis"],
            "derivations.bracket_calls": calls["DerComplex.lie_bracket"],
            "complexes.d_calls": d_calls,
            "complexes.d_cache_hit_ratio": (d_calls - d_misses) / d_calls if d_calls else 0.0,
            "complexes.homology_calls": calls["CochainComplex.homology"],
            "models.load_s": incl["load_model"],
            "models.validate_s": incl["validate_model"],
            "cli.emit_s": incl["Output.emit"],
            "cli.records": counts["records"],
        })
        return out


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import dgtangent.cli

    try:
        status = dgtangent.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        report = {
            "metrics": tracer.metrics(),
            "calls": {b: stat[0] for b, stat in sorted(tracer.stats.items())},
        }
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
