"""Exact-arithmetic workbench for tangent cohomology of quasi-free dg algebras.

Subpackage layout:

- ``linalg``      sparse exact linear algebra over the rationals
- ``complexes``   graded cochain complexes, homology dimensions and subquotients
- ``algebra``     free graded algebras, differentials, morphisms, cone models
- ``derivations`` derivation complexes and their operations
- ``tower``       filtered complexes and the stage-filtration spectral sequence
- ``models``      model files, built-in models, loop and self-equivalence reports
- ``cli``         command-line entry point (``dgtangent``)
"""

from __future__ import annotations

__version__ = "1.0.0"
