"""Rank-n free one-form calculus with a central basis.

The calculus is finite data: wedge constants c^a_{ij} mapping the tensor square
onto two-forms, exterior constants D^a_i encoding d(e_i), and an ordered list of
derivations realizing d on the algebra.  One-forms, tensor squares and two-forms
are coefficient arrays over the algebra backend, and share the `Module` base
that does their coefficientwise arithmetic; the canonical flip is the
coefficient transpose and the symmetrizer is its average with the identity.
`CalculusSpec` solves the scalar torsion equations once, at construction.

Each operation that needs the algebra kernel is a batched form (`p_sym_many`,
`right_mul_many`, `CalculusSpec.d1_many`, ...) that evaluates it for many
inputs in one kernel call; one input is a list of one.  The bimodule action
(`right_mul_many`, `left_mul_many`) is the untruncated product `wide_products`,
as in the algebra laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    MATRIX,
    AlgebraElement,
    BackendDescriptor,
    DerivationSpec,
    combine,
    contract,
    derive_many,
    finite,
    random_elements,
    wide_products,
    worst,
)
from .errors import BackendMismatch, NoSolution


def _square(flat: list, n: int) -> list:
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def _coefficients(x) -> list:
    """The coefficients of an algebra element (itself), a one-form, two-form or tensor square."""
    if isinstance(x, AlgebraElement):
        return [x]
    if isinstance(x, TensorSquare):
        return [c for row in x.coeffs for c in row]
    return list(x.coeffs)


def _rebuild(xs: Sequence["Module"], flat: list) -> list:
    """Objects shaped like xs from their coefficients, concatenated in order."""
    out, pos = [], 0
    for x in xs:
        if isinstance(x, TensorSquare):
            size = x.rank * x.rank
            out.append(TensorSquare(_square(flat[pos:pos + size], x.rank)))
        else:
            size = len(x.coeffs)
            out.append(type(x)(flat[pos:pos + size]))
        pos += size
    return out


def _sums(pairs, sign: float) -> list:
    """cx + sign cy for the coefficients of every like-shaped pair, flat, in one kernel call."""
    flat = [(cx, cy) for x, y in pairs for cx, cy in zip(_coefficients(x), _coefficients(y))]
    return combine(flat[0][0].backend, [[(1.0, cx), (sign, cy)] for cx, cy in flat]) if flat else []


def _pairwise(pairs: Sequence[tuple], sign: float) -> list:
    """x + sign y for every pair of like-shaped objects, in one kernel call."""
    return _rebuild([x for x, _ in pairs], _sums(pairs, sign))


def worst_difference(pairs) -> float:
    """max |x - y| over the pairs, coefficient by coefficient, in one kernel call;
    x and y are algebra elements, one-forms, tensor squares or two-forms."""
    return worst(d.norm() for d in _sums(pairs, -1.0))


def subtract_many(pairs: Sequence[tuple]) -> list:
    """x - y for every pair of one-forms, tensor squares or two-forms, in one kernel call."""
    return _pairwise(pairs, -1.0)


def right_mul_many(pairs: Sequence[Tuple["Module", AlgebraElement]]) -> list:
    """x a for every (module object x, element a), untruncated, in one kernel call."""
    return _rebuild([x for x, _ in pairs],
                    wide_products([(c, a) for x, a in pairs for c in _coefficients(x)]))


def left_mul_many(pairs: Sequence[Tuple[AlgebraElement, "Module"]]) -> list:
    """a x for every (element a, module object x), untruncated, in one kernel
    call; the basis is central, so a multiplies each coefficient from the left."""
    return _rebuild([x for _, x in pairs],
                    wide_products([(a, c) for a, x in pairs for c in _coefficients(x)]))


class Module:
    """The arithmetic shared by one-forms, tensor squares, two-forms and
    functionals, coefficient by coefficient through `_coefficients` and
    `_rebuild`; each kind adds only its constructor checks, rank and backend."""

    __slots__ = ("coeffs",)

    def scale(self, z: complex) -> "Module":
        return _rebuild([self], [c * z for c in _coefficients(self)])[0]

    def norm(self) -> float:
        return worst(c.norm() for c in _coefficients(self))


class OneForm(Module):
    """Sum e_i a_i over the central basis, stored as the coefficient vector a."""

    __slots__ = ()

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


class TensorSquare(Module):
    """Sum e_i (x) e_j a_ij, stored as the n x n coefficient array."""

    __slots__ = ()

    def __init__(self, coeffs):
        rows = tuple(tuple(r) for r in coeffs)
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


class TwoForm(Module):
    """Sum f_a b_a over the chosen two-form basis."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence[AlgebraElement]):
        self.coeffs = tuple(coeffs)


def sigma(t: TensorSquare) -> TensorSquare:
    """Canonical flip: coefficient transpose."""
    n = t.rank
    return TensorSquare([[t.coeffs[j][i] for j in range(n)] for i in range(n)])


def p_sym_many(ts: Sequence[TensorSquare]) -> List[TensorSquare]:
    """The symmetrizer (1 + sigma)/2 of every tensor square, in one kernel
    call; its range is Ker(wedge)."""
    return [s.scale(0.5) for s in _pairwise([(t, sigma(t)) for t in ts], 1.0)]


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

    Invariants enforced at construction: the generators, the inner
    derivations' elements and the wedge and exterior constants are finite
    (where every W_alpha below is exactly zero, as at fuzzy_sphere(1), d
    compose d cannot see a NaN generator), the wedge constants are
    antisymmetric in the lower pair (so the flip's symmetric part lies in
    Ker(wedge)), they realize the full two-form basis, and d compose d
    vanishes on the supplied generators.  Where the derivations are inner,
    d compose d is [W_alpha, a] (see `d_squared_residual`), and the bound
    |[W, a]| <= 2 N max|W| max|a| settles the check when it is at most the
    tolerance: the commutators are formed only when it is not, or when it is
    NaN.  The rank of the m x n^2 wedge table c is decided once, and the
    torsion equations c . Gamma^i = -D_i are solved once for nabla0 and the
    Koszul brackets: torsion_particular (n x n x n) holds c^+(-D_i).  The
    direct solve reads c and D themselves.
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
        if not all(map(finite, self.generators + tuple(
                delta.element for delta in self.derivations if delta.kind == "inner"))):
            raise ValueError("generators and derivation elements must be finite")
        self._validate()

    def _validate(self) -> None:
        c = self.wedge_constants
        if not (np.isfinite(c).all() and np.isfinite(self.exterior_constants).all()):
            raise ValueError("wedge and exterior constants must be finite")
        anti = np.max(np.abs(c + np.transpose(c, (0, 2, 1)))) if c.size else 0.0
        if not anti <= DEFAULT_TOL:
            raise ValueError(f"wedge constants are not antisymmetric (residual {anti:.3e})")
        n, m = self.rank, self.two_form_rank
        flat = c.reshape(m, n * n)
        if np.linalg.matrix_rank(flat, tol=1e-10) != m:
            raise ValueError("wedge constants do not realize the two-form basis")
        self._wedge_pinv = np.linalg.pinv(flat)
        # column by column: one product with the whole of -D can flip signed zeros
        self.torsion_particular = np.array(
            [(self._wedge_pinv @ -self.exterior_constants[:, i]).reshape(n, n)
             for i in range(n)])
        tol = 10 * DEFAULT_TOL
        ws = self._jacobi_forms()
        # entrywise |[W, a]| <= 2 N max|W| max|a|: a bound at most tol settles
        # the check without the commutators; a NaN bound settles nothing
        if ws is not None and (2 * self.backend.size * worst(w.norm() for w in ws)
                               * worst(a.norm() for a in self.generators)) <= tol:
            return
        res = self.d_squared_residual() if ws is None else self._commutator_residual(ws)
        if not res <= tol:
            raise ValueError(f"d compose d does not vanish on generators (residual {res:.3e})")

    # -- consistency -------------------------------------------------------

    def d_squared_residual(self) -> float:
        """max_a |d1(d0(a))| over the generator list.

        On the matrix backend, when every derivation is inner (a -> i [Y_i, a])
        and the wedge table is exactly antisymmetric, the Jacobi identity gives
        d1(d0(a))^alpha = [W_alpha, a] with
        W_alpha = i sum_i D^alpha_i Y_i + sum_{k<i} c^alpha_ik [Y_k, Y_i],
        so each generator costs two products per two-form instead of the six
        that d0_many and d1_many take.  Every other calculus goes through both.
        """
        ws = self._jacobi_forms()
        if ws is None:
            return worst(w.norm() for w in self.d1_many(self.d0_many(self.generators)))
        return self._commutator_residual(ws)

    def _commutator_residual(self, ws: Sequence[AlgebraElement]) -> float:
        """max |[W, a]| over the elements W and the generators a."""
        comms = contract(self.backend, [[(1.0, w, a), (-1.0, a, w)]
                                        for w in ws for a in self.generators])
        return worst(r.norm() for r in comms)

    def _jacobi_forms(self) -> Optional[List[AlgebraElement]]:
        """W_alpha of `d_squared_residual` for every two-form alpha, from the
        brackets [Y_k, Y_i] the wedge table uses; None for a calculus that
        must go through d0_many and d1_many."""
        c, d = self.wedge_constants, self.exterior_constants
        if not (self.backend.kind == MATRIX and self.generators
                and all(delta.kind == "inner" for delta in self.derivations)
                and np.array_equal(c, -np.transpose(c, (0, 2, 1)))):
            return None
        n, m = self.rank, self.two_form_rank
        ys = [delta.element for delta in self.derivations]
        pairs = [(k, i) for i in range(n) for k in range(i) if np.any(c[:, i, k] != 0.0)]
        brackets = contract(self.backend, [[(1.0, ys[k], ys[i]), (-1.0, ys[i], ys[k])]
                                           for k, i in pairs])
        return combine(self.backend, [[(1j * d[alpha, i], ys[i]) for i in range(n)
                                       if d[alpha, i] != 0.0]
                                      + [(c[alpha, i, k], b) for (k, i), b in zip(pairs, brackets)
                                         if c[alpha, i, k] != 0.0]
                                      for alpha in range(m)])

    # -- differential structure ---------------------------------------------

    def d0_many(self, elements: Sequence[AlgebraElement]) -> List[OneForm]:
        """d(a) = sum_i e_i partial_i(a) for every element a; the derivations'
        kernel calls are shared by all."""
        if any(a.backend != self.backend for a in elements):
            raise BackendMismatch("element does not live on the calculus backend")
        n = self.rank
        flat = derive_many([(d, a) for a in elements for d in self.derivations])
        return [OneForm(flat[s * n:(s + 1) * n]) for s in range(len(elements))]

    def wedge_many(self, ts: Sequence[TensorSquare]) -> List[TwoForm]:
        """The quotiented multiplication b_a = sum_ij c^a_ij a_ij of every
        tensor square, in one kernel call."""
        if not ts:
            return []
        n, m = self.rank, self.two_form_rank
        c = self.wedge_constants
        flat = combine(ts[0].backend, [[(c[alpha, i, j], t.coeffs[i][j])
                                        for i in range(n) for j in range(n)
                                        if c[alpha, i, j] != 0.0]
                                       for t in ts for alpha in range(m)])
        return [TwoForm(flat[s * m:(s + 1) * m]) for s in range(len(ts))]

    def d1_many(self, omegas: Sequence[OneForm]) -> List[TwoForm]:
        """d(sum e_i a_i) for every one-form, with alpha-coefficient
        sum_i D^a_i a_i - sum_ik c^a_ik partial_k(a_i), in one kernel call
        after the derivations' own."""
        if not omegas:
            return []
        n, m = self.rank, self.two_form_rank
        d, c = self.exterior_constants, self.wedge_constants
        used = [(i, k) for i in range(n) for k in range(n) if np.any(c[:, i, k] != 0.0)]
        derived = iter(derive_many([(self.derivations[k], omega.coeffs[i])
                                    for omega in omegas for i, k in used]))
        slots = []
        for omega in omegas:
            partial = {ik: next(derived) for ik in used}
            for alpha in range(m):
                terms = []
                for i in range(n):
                    if d[alpha, i] != 0.0:
                        terms.append((d[alpha, i], omega.coeffs[i]))
                    for k in range(n):
                        if c[alpha, i, k] != 0.0:
                            terms.append((-c[alpha, i, k], partial[i, k]))
                slots.append(terms)
        flat = combine(omegas[0].backend, slots)
        return [TwoForm(flat[s * m:(s + 1) * m]) for s in range(len(omegas))]

    def wedge_section_many(self, bs: Sequence[TwoForm]) -> List[TensorSquare]:
        """The minimal-norm preimage under the wedge (the Q-inverse) of every
        two-form, in three kernel calls.

        The preimage is the antisymmetric representative; with the shipped
        wedge tables it is the unique antisymmetric solution.  A two-form
        outside the wedge range, or holding NaN, raises NoSolution.
        """
        if not bs:
            return []
        n, m = self.rank, self.two_form_rank
        pinv = self._wedge_pinv
        flat = combine(self.backend, [[(pinv[ij, a], b.coeffs[a]) for a in range(m)
                                       if pinv[ij, a] != 0.0]
                                      for b in bs for ij in range(n * n)])
        ts = [TensorSquare(_square(flat[s * n * n:(s + 1) * n * n], n)) for s in range(len(bs))]
        for b, miss in zip(bs, subtract_many(list(zip(self.wedge_many(ts), bs)))):
            res = miss.norm()
            if not res <= 1e3 * DEFAULT_TOL * max(1.0, b.norm()):
                raise NoSolution(f"two-form outside the wedge range (residual {res:.3e})")
        return ts

    # -- braid diagnostics ----------------------------------------------------

    def braid_check(self) -> BraidReport:
        """Verify the braid identity and the restricted-projector bijectivity.

        Everything happens on the scalar n^3 coefficient index space: the flips
        act by index permutation regardless of the algebra coefficients.  Each
        symmetrizer's numerical rank on the other's SVD range basis decides
        bijectivity, independently of phi_g_invert's closed form.
        """
        dim = self.rank ** 3
        cube = np.arange(dim).reshape((self.rank,) * 3)
        eye = np.eye(dim)
        # both flips are involutions, so row (i, j, k) of sigma_12 picks column (j, i, k)
        s12 = eye[cube.transpose(1, 0, 2).ravel()]
        s23 = eye[cube.transpose(0, 2, 1).ravel()]
        p12, p23 = 0.5 * (eye + s12), 0.5 * (eye + s23)
        b12, b23 = [u[:, :int(np.sum(sv > 0.5))]
                    for u, sv, _ in (np.linalg.svd(p) for p in (p12, p23))]
        braid = float(np.max(np.abs(s12 @ s23 @ s12 - s23 @ s12 @ s23)))
        r12_on_23 = int(np.linalg.matrix_rank(p12 @ b23, tol=1e-10))
        r23_on_12 = int(np.linalg.matrix_rank(p23 @ b12, tol=1e-10))
        dim12, dim23 = b12.shape[1], b23.shape[1]
        bijective = (r12_on_23 == dim23 == dim12 == r23_on_12)
        return BraidReport(braid, dim12, dim23, r12_on_23, r23_on_12, bijective)


def random_samples(spec: CalculusSpec, rng: np.random.Generator, count: int,
                   kinds: str) -> List[tuple]:
    """`count` generic samples for property tests, each a tuple with one entry
    per letter of `kinds`: an algebra element (a), a one-form (w) or a tensor
    square (t).  One `random_elements` call draws every coefficient, sample
    after sample and entry after entry, a tensor square's row by row."""
    n = spec.rank
    size = {"a": 1, "w": n, "t": n * n}
    flat = iter(random_elements(spec.backend, rng, count * sum(size[x] for x in kinds)))
    build = {"a": lambda: next(flat),
             "w": lambda: OneForm([next(flat) for _ in range(n)]),
             "t": lambda: TensorSquare([[next(flat) for _ in range(n)] for _ in range(n)])}
    return [tuple(build[x]() for x in kinds) for _ in range(count)]
