"""Rank-n free one-form calculus with a central basis.

The calculus is finite data: wedge constants c^a_{ij} mapping the tensor square
onto two-forms, exterior constants D^a_i encoding d(e_i), and an ordered list of
derivations realizing d on the algebra.  One-forms, tensor squares and two-forms
are coefficient arrays over the algebra backend; the canonical flip is the
coefficient transpose and the symmetrizer is its average with the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    BackendDescriptor,
    DerivationSpec,
    combine,
    derive,
    products,
)
from .errors import BackendMismatch, NoSolution

_ANTISYM_TOL = 1e-12


def _as_element_rows(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def _sum_pairs(xs: Sequence[AlgebraElement], ys: Sequence[AlgebraElement],
               sign: float) -> list:
    """x + sign y entry by entry, in one kernel call (same backend throughout)."""
    if not xs:
        return []
    be = xs[0].backend
    for x, y in zip(xs, ys):
        if x.backend != be or y.backend != be:
            raise BackendMismatch("coefficients live on different backends")
    return combine(be, [[(1.0, x), (sign, y)] for x, y in zip(xs, ys)])


def _flat(t: "TensorSquare") -> list:
    return [c for row in t.coeffs for c in row]


def _square(flat: list, n: int) -> list:
    return [flat[i * n:(i + 1) * n] for i in range(n)]


class OneForm:
    """Sum e_i a_i over the central basis, stored as the coefficient vector a."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[AlgebraElement]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("empty one-form")
        be = coeffs[0].backend
        if any(c.backend != be for c in coeffs):
            raise BackendMismatch("one-form coefficients on mixed backends")
        self.coeffs = coeffs

    @property
    def backend(self) -> BackendDescriptor:
        return self.coeffs[0].backend

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(_sum_pairs(self.coeffs, other.coeffs, 1.0))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(_sum_pairs(self.coeffs, other.coeffs, -1.0))

    def __neg__(self) -> "OneForm":
        return OneForm([-a for a in self.coeffs])

    def right_mul(self, a: AlgebraElement) -> "OneForm":
        return OneForm(products([(c, a) for c in self.coeffs]))

    def left_mul(self, a: AlgebraElement) -> "OneForm":
        # central basis: a e_i = e_i a, so the left action multiplies coefficients from the left
        return OneForm(products([(a, c) for c in self.coeffs]))

    def scale(self, z: complex) -> "OneForm":
        return OneForm([c * z for c in self.coeffs])

    def norm(self) -> float:
        return max(c.norm() for c in self.coeffs)


class TensorSquare:
    """Sum e_i (x) e_j a_ij, stored as the n x n coefficient array."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        rows = _as_element_rows(coeffs)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("tensor square needs a square coefficient array")
        self.coeffs = rows

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @property
    def backend(self) -> BackendDescriptor:
        return self.coeffs[0][0].backend

    @classmethod
    def zero(cls, backend: BackendDescriptor, rank: int) -> "TensorSquare":
        z = AlgebraElement.zero(backend)
        return cls([[z] * rank for _ in range(rank)])

    @classmethod
    def basis(cls, backend: BackendDescriptor, rank: int, i: int, j: int,
              coeff: complex = 1.0) -> "TensorSquare":
        out = [[AlgebraElement.zero(backend)] * rank for _ in range(rank)]
        out[i][j] = AlgebraElement.from_scalar(backend, coeff)
        return cls(out)

    def __add__(self, other: "TensorSquare") -> "TensorSquare":
        return TensorSquare(_square(_sum_pairs(_flat(self), _flat(other), 1.0), self.rank))

    def __sub__(self, other: "TensorSquare") -> "TensorSquare":
        return TensorSquare(_square(_sum_pairs(_flat(self), _flat(other), -1.0), self.rank))

    def __neg__(self) -> "TensorSquare":
        return self.scale(-1.0)

    def scale(self, z: complex) -> "TensorSquare":
        return TensorSquare([[a * z for a in r] for r in self.coeffs])

    def right_mul(self, a: AlgebraElement) -> "TensorSquare":
        return TensorSquare(_square(products([(c, a) for c in _flat(self)]), self.rank))

    def left_mul(self, a: AlgebraElement) -> "TensorSquare":
        return TensorSquare(_square(products([(a, c) for c in _flat(self)]), self.rank))

    def norm(self) -> float:
        return max(c.norm() for r in self.coeffs for c in r)


class TwoForm:
    """Sum f_a b_a over the chosen two-form basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[AlgebraElement]):
        self.coeffs = tuple(coeffs)

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(_sum_pairs(self.coeffs, other.coeffs, 1.0))

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(_sum_pairs(self.coeffs, other.coeffs, -1.0))

    def right_mul(self, a: AlgebraElement) -> "TwoForm":
        return TwoForm(products([(c, a) for c in self.coeffs]))

    def norm(self) -> float:
        return max((c.norm() for c in self.coeffs), default=0.0)


def sigma(t: TensorSquare) -> TensorSquare:
    """Canonical flip: coefficient transpose."""
    n = t.rank
    return TensorSquare([[t.coeffs[j][i] for j in range(n)] for i in range(n)])


def p_sym(t: TensorSquare) -> TensorSquare:
    """Symmetrizer (1 + sigma)/2; its range is Ker(wedge)."""
    return (t + sigma(t)).scale(0.5)


@dataclass(frozen=True)
class CubeProjectors:
    """Flips on the scalar n^3 coefficient index space E (x) E (x) E.

    s12 and s23 are sigma_12 and sigma_23 as permutation matrices, p12 and p23
    the projectors (1 + sigma)/2, and b12, b23 orthonormal bases of their ranges.
    """

    s12: np.ndarray
    s23: np.ndarray
    p12: np.ndarray
    p23: np.ndarray
    b12: np.ndarray
    b23: np.ndarray


def cube_projectors(n: int) -> CubeProjectors:
    """The flips of the n^3 index cube, their symmetrizers and range bases."""
    dim = n ** 3
    cube = np.arange(dim).reshape(n, n, n)
    eye = np.eye(dim)
    # both flips are involutions, so row (i, j, k) of sigma_12 picks column (j, i, k)
    s12 = eye[cube.transpose(1, 0, 2).ravel()]
    s23 = eye[cube.transpose(0, 2, 1).ravel()]
    p12 = 0.5 * (eye + s12)
    p23 = 0.5 * (eye + s23)
    bases = []
    for p in (p12, p23):
        u, sv, _ = np.linalg.svd(p)
        bases.append(u[:, :int(np.sum(sv > 0.5))])
    return CubeProjectors(s12, s23, p12, p23, *bases)


@dataclass(frozen=True)
class BraidReport:
    braid_residual: float
    dim_ran_p12: int
    dim_ran_p23: int
    rank_p12_on_ran_p23: int
    rank_p23_on_ran_p12: int
    bijective: bool


class CalculusSpec:
    """The differential calculus: wedge constants, exterior constants, derivations.

    Invariants enforced at construction: the wedge constants are antisymmetric
    in the lower pair (so the flip's symmetric part lies in Ker(wedge)), they
    realize the full two-form basis, and d compose d vanishes on the supplied
    generators.
    """

    def __init__(self, rank: int, two_form_rank: int, wedge_constants, exterior_constants,
                 derivations: Sequence[DerivationSpec], backend: BackendDescriptor,
                 generators: Sequence[AlgebraElement] = ()):
        self.rank = int(rank)
        self.two_form_rank = int(two_form_rank)
        self.wedge_constants = np.asarray(wedge_constants, dtype=complex).reshape(
            self.two_form_rank, self.rank, self.rank)
        self.exterior_constants = np.asarray(exterior_constants, dtype=complex).reshape(
            self.two_form_rank, self.rank)
        self.derivations = tuple(derivations)
        self.backend = backend
        self.generators = tuple(generators)
        if len(self.derivations) != self.rank:
            raise ValueError("need one derivation per basis one-form")
        self._validate()

    def _validate(self) -> None:
        c = self.wedge_constants
        anti = np.max(np.abs(c + np.transpose(c, (0, 2, 1)))) if c.size else 0.0
        if anti > _ANTISYM_TOL:
            raise ValueError(f"wedge constants are not antisymmetric (residual {anti:.3e})")
        if self.two_form_rank:
            flat = c.reshape(self.two_form_rank, self.rank * self.rank)
            if np.linalg.matrix_rank(flat, tol=1e-10) != self.two_form_rank:
                raise ValueError("wedge constants do not realize the two-form basis")
        res = self.d_squared_residual()
        if res > 10 * self.backend.tol:
            raise ValueError(f"d compose d does not vanish on generators (residual {res:.3e})")

    # -- consistency -------------------------------------------------------

    def d_squared_residual(self) -> float:
        """max_a |d1(d0(a))| over the generator list."""
        worst = 0.0
        for a in self.generators:
            worst = max(worst, self.d1(self.d0(a)).norm())
        return worst

    # -- building blocks ----------------------------------------------------

    def basis_one_form(self, i: int) -> OneForm:
        coeffs = [AlgebraElement.zero(self.backend)] * self.rank
        coeffs[i] = AlgebraElement.unit(self.backend)
        return OneForm(coeffs)

    def basis_tensor(self, i: int, j: int) -> TensorSquare:
        return TensorSquare.basis(self.backend, self.rank, i, j)

    # -- differential structure ---------------------------------------------

    def d0(self, a: AlgebraElement) -> OneForm:
        """d(a) = sum_i e_i partial_i(a)."""
        if not a.backend.same_algebra(self.backend):
            raise BackendMismatch("element does not live on the calculus backend")
        return OneForm([derive(d, a) for d in self.derivations])

    def wedge(self, t: TensorSquare) -> TwoForm:
        """Quotiented multiplication: b_a = sum_ij c^a_ij a_ij."""
        n, m = self.rank, self.two_form_rank
        c = self.wedge_constants
        return TwoForm(combine(t.backend, [[(c[alpha, i, j], t.coeffs[i][j])
                                            for i in range(n) for j in range(n)
                                            if c[alpha, i, j] != 0.0]
                                           for alpha in range(m)]))

    def d1(self, omega: OneForm) -> TwoForm:
        """d(sum e_i a_i): alpha-coefficient sum_i D^a_i a_i - sum_ik c^a_ik partial_k(a_i)."""
        n, m = self.rank, self.two_form_rank
        d, c = self.exterior_constants, self.wedge_constants
        slots = []
        for alpha in range(m):
            terms = []
            for i in range(n):
                if d[alpha, i] != 0.0:
                    terms.append((d[alpha, i], omega.coeffs[i]))
                for k in range(n):
                    if c[alpha, i, k] != 0.0:
                        terms.append((-c[alpha, i, k],
                                      derive(self.derivations[k], omega.coeffs[i])))
            slots.append(terms)
        return TwoForm(combine(omega.backend, slots))

    def wedge_section(self, b: TwoForm) -> TensorSquare:
        """Minimal-norm preimage of a two-form under the wedge (the Q-inverse).

        The preimage is the antisymmetric representative; with the shipped
        wedge tables it is the unique antisymmetric solution.
        """
        n, m = self.rank, self.two_form_rank
        if m == 0:
            return TensorSquare.zero(self.backend, n)
        flat = self.wedge_constants.reshape(m, n * n)
        pinv = np.linalg.pinv(flat)
        flat = combine(self.backend, [[(pinv[ij, a], b.coeffs[a]) for a in range(m)
                                       if pinv[ij, a] != 0.0] for ij in range(n * n)])
        t = TensorSquare(_square(flat, n))
        res = (self.wedge(t) - b).norm()
        if res > 1e3 * self.backend.tol * max(1.0, b.norm()):
            raise NoSolution(f"two-form outside the wedge range (residual {res:.3e})")
        return t

    # -- braid diagnostics ----------------------------------------------------

    def braid_check(self) -> BraidReport:
        """Verify the braid identity and the restricted-projector bijectivity.

        Everything happens on the scalar n^3 coefficient index space: the flips
        act by index permutation regardless of the algebra coefficients.
        """
        c = cube_projectors(self.rank)
        braid = float(np.max(np.abs(c.s12 @ c.s23 @ c.s12 - c.s23 @ c.s12 @ c.s23)))
        r12_on_23 = int(np.linalg.matrix_rank(c.p12 @ c.b23, tol=1e-10))
        r23_on_12 = int(np.linalg.matrix_rank(c.p23 @ c.b12, tol=1e-10))
        dim12, dim23 = c.b12.shape[1], c.b23.shape[1]
        bijective = (r12_on_23 == dim23 == dim12 == r23_on_12)
        return BraidReport(braid, dim12, dim23, r12_on_23, r23_on_12, bijective)


def random_one_form(spec: CalculusSpec, rng: np.random.Generator, **kw) -> OneForm:
    from .algebra import random_element
    return OneForm([random_element(spec.backend, rng, **kw) for _ in range(spec.rank)])


def random_tensor_square(spec: CalculusSpec, rng: np.random.Generator, **kw) -> TensorSquare:
    from .algebra import random_element
    n = spec.rank
    return TensorSquare([[random_element(spec.backend, rng, **kw) for _ in range(n)]
                         for _ in range(n)])
