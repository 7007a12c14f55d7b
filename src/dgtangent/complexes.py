"""Graded cochain complexes with exact homology and chosen representatives.

A complex is a basis in each cohomological degree plus the image of every
basis element.  Two callables give it: the (finite, ordered) basis of a
degree, and the differential from degree n to n+1, which ``matrix`` builds
from the images through the label → position ``index`` of the target basis.
Bases, indices and matrices are cached, so a complex can be backed by
expensive symbolic enumeration and still be queried repeatedly.

Homology has two readers.  ``homology_dim`` counts dim H^n by rank–nullity
from the cached rank of each differential; every caller that needs only a
dimension goes through it.  ``homology`` builds the subquotient of cocycles
modulo coboundaries, for callers that read representatives or class
coordinates.

All degrees here are cohomological.  Models stored with homological grading
convert on the way in (degree n becomes -n) and back on the way out; the
helper at the bottom centralizes that convention and is its own inverse.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence

from .linalg import Matrix, Subquotient

Image = Callable[[Hashable], Mapping[Hashable, Fraction]]


class CochainComplex:
    """A cochain complex given by per-degree bases and differential matrices."""

    def __init__(
        self,
        basis_fn: Callable[[int], Sequence[Hashable]],
        diff_fn: Callable[[int], Matrix],
        name: str = "",
    ) -> None:
        self._basis_fn = basis_fn
        self._diff_fn = diff_fn
        self.name = name
        self._basis_cache: dict[int, list[Hashable]] = {}
        self._index_cache: dict[int, dict[Hashable, int]] = {}
        self._diff_cache: dict[int, Matrix] = {}
        self._rank_cache: dict[int, int] = {}
        self._homology_cache: dict[int, Subquotient] = {}

    def basis(self, n: int) -> list[Hashable]:
        if n not in self._basis_cache:
            self._basis_cache[n] = list(self._basis_fn(n))
        return self._basis_cache[n]

    def index(self, n: int) -> dict[Hashable, int]:
        """Position of each degree-n basis label."""
        if n not in self._index_cache:
            self._index_cache[n] = {label: j for j, label in enumerate(self.basis(n))}
        return self._index_cache[n]

    def dim(self, n: int) -> int:
        return len(self.basis(n))

    def matrix(self, n: int, image: Image) -> Matrix:
        """Degree n → n+1 matrix whose row i is ``image(basis(n)[i])``, a {target
        label: nonzero coefficient} mapping, in the positions of ``index(n + 1)``."""
        target = self.index(n + 1)
        rows = [{target[t]: c for t, c in image(label).items()} for label in self.basis(n)]
        return Matrix(self.dim(n), self.dim(n + 1), rows)

    def d(self, n: int) -> Matrix:
        """Differential matrix from degree n to degree n+1."""
        if n not in self._diff_cache:
            m = self._diff_fn(n)
            expected = (self.dim(n), self.dim(n + 1))
            if (m.nrows, m.ncols) != expected:
                raise ValueError(
                    f"differential shape {(m.nrows, m.ncols)} != bases {expected} at degree {n}"
                )
            self._diff_cache[n] = m
        return self._diff_cache[n]

    def homology_dim(self, n: int) -> int:
        """dim H^n = dim C^n − rank d^n − rank d^{n−1}."""
        for m in (n, n - 1):
            if m not in self._rank_cache:
                self._rank_cache[m] = self.d(m).rank()
        return self.dim(n) - self._rank_cache[n] - self._rank_cache[n - 1]

    def d_squared_failures(self, degrees: Sequence[int]) -> list[int]:
        """Degrees n in the list where d(n+1)∘d(n) is not zero."""
        bad = []
        for n in degrees:
            if not self.d(n).compose(self.d(n + 1)).is_zero():
                bad.append(n)
        return bad

    def homology(self, n: int) -> Subquotient:
        """H^n as cocycles modulo coboundaries; ``basis`` holds the chosen
        cocycle representatives and ``reduce`` gives class coordinates."""
        if n not in self._homology_cache:
            cycles = self.d(n).kernel_basis()
            boundaries = [row for row in self.d(n - 1).rows if row]
            self._homology_cache[n] = Subquotient(cycles, boundaries)
        return self._homology_cache[n]


GRADING_HOMOLOGICAL = "homological"
GRADING_COHOMOLOGICAL = "cohomological"


def to_cohomological(degree: int, grading: str) -> int:
    """Internal (cohomological) degree of an element stored with ``grading``."""
    if grading == GRADING_HOMOLOGICAL:
        return -degree
    if grading == GRADING_COHOMOLOGICAL:
        return degree
    raise ValueError(f"unknown grading {grading!r}")

