"""The benchmark tracer wraps package functions by name.

``bench/tracer.py`` lists the boundaries it wraps as (module, owner,
attribute) triples.  A rename in the package would make ``--trace 1`` runs
fail, so every triple must still resolve.  It also replaces
``CochainComplex.__init__`` by an ``init`` that wraps each ``diff_fn``, so
that ``init`` must take the same parameters.  Both are read from the
tracer's source without importing or editing it.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from dgtangent.complexes import CochainComplex

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_constant(name: str):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACER}")


def test_tracer_boundaries_resolve():
    layers = tracer_constant("LAYERS")
    boundaries = tracer_constant("BOUNDARIES")
    assert boundaries
    missing = []
    for layer, owner, attr in boundaries:
        assert layer in layers
        module = importlib.import_module(f"dgtangent.{layer}")
        if owner is None:
            found = callable(getattr(module, attr, None))
        else:
            # The tracer reads the attribute from the class's own namespace.
            found = attr in vars(getattr(module, owner, object))
        if not found:
            missing.append((layer, owner, attr))
    assert missing == []


def test_tracer_init_matches_cochain_complex():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    inits = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "init"
    ]
    assert len(inits) == 1
    args = inits[0].args
    assert not (args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg)
    traced = [a.arg for a in args.args], [ast.literal_eval(d) for d in args.defaults]
    params = inspect.signature(CochainComplex.__init__).parameters.values()
    expected = (
        [p.name for p in params],
        [p.default for p in params if p.default is not inspect.Parameter.empty],
    )
    assert traced == expected
