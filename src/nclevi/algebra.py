"""Unital *-algebra backends: dense complex matrices and truncated twisted Fourier algebras.

Every other module consumes these elements as coefficient arithmetic.  Both
backends are finite data: an N x N complex matrix, or finitely many Fourier
modes of Z^t with a hard truncation radius, stored as a read-only int64 mode
array (K, t) in lexicographic order beside a read-only complex coefficient
vector (K,).  Elements are immutable after construction and all operations
are pure.

Every graded product and sum goes through one kernel, `contract`, which
computes out[s] = sum of c a b over the terms (c, a, b) of slot s for many
slots at once: one ragged outer product of all mode pairs, one Weyl phase
exp(i pi <k, theta l>) per pair and one coalescing pass by (slot, mode).
Contributions to one output mode are added in (output mode, a-mode, b-mode)
order whatever order the terms came in, so a sum does not depend on how its
operands were split into terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import BackendMismatch, NonSkew, TruncationOverflow

DEFAULT_TOL = 1e-12

# Relative weight below which beyond-radius modes of a product are treated as
# floating-point dust rather than genuine overflow.
_DUST_REL = 1e-14

# Mode pairs the graded kernel forms per pass.  A pair's temporaries take
# about 200 bytes, so a pass stays near 3 MB however large the contraction;
# a slot is never split, so one slot larger than this is a pass of its own.
_PAIRS_PER_PASS = 1 << 14

MATRIX = "matrix"
GRADED = "graded"


@dataclass(frozen=True)
class BackendDescriptor:
    """Identifies one concrete algebra: either M_N(C) or a twisted Fourier algebra.

    For the graded backend the generators satisfy U_k U_l = e^{2 pi i theta_kl} U_l U_k
    and basis modes are Weyl-normalized: U^k U^l = e^{pi i <k, theta l>} U^{k+l}.
    """

    kind: str
    size: int = 0            # matrix backend: N
    dim: int = 0             # graded backend: t
    twist: tuple = ()        # graded backend: row-major t*t entries of theta
    radius: int = 0          # graded backend: per-coordinate sup-norm bound
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.kind == MATRIX:
            if self.size < 1:
                raise ValueError("matrix backend needs size N >= 1")
        elif self.kind == GRADED:
            if self.dim < 1:
                raise ValueError("graded backend needs dimension t >= 1")
            if self.radius < 1:
                raise ValueError("graded backend needs truncation radius R >= 1")
            th = self.theta
            if th.shape != (self.dim, self.dim):
                raise ValueError("twist matrix has wrong shape")
            skew = np.max(np.abs(th + th.T)) if self.dim else 0.0
            if skew > 1e-12:
                raise NonSkew(f"twist matrix is not skew-symmetric (|theta+theta^T| = {skew:.3e})")
        else:
            raise ValueError(f"unknown backend kind {self.kind!r}")

    @classmethod
    def matrix(cls, size: int, tol: float = DEFAULT_TOL) -> "BackendDescriptor":
        return cls(kind=MATRIX, size=size, tol=tol)

    @classmethod
    def graded(cls, dim: int, twist, radius: int, tol: float = DEFAULT_TOL) -> "BackendDescriptor":
        th = np.asarray(twist, dtype=float).reshape(dim, dim)
        return cls(kind=GRADED, dim=dim, twist=tuple(map(float, th.ravel())), radius=radius, tol=tol)

    @cached_property
    def theta(self) -> np.ndarray:
        th = np.asarray(self.twist, dtype=float).reshape(self.dim, self.dim)
        th.setflags(write=False)
        return th

    def with_radius(self, radius: int) -> "BackendDescriptor":
        """Same algebra, another truncation window (used internally for lifts)."""
        if self.kind != GRADED or radius == self.radius:
            return self
        return _window(self, radius)

    def same_algebra(self, other: "BackendDescriptor") -> bool:
        """True when the two descriptors differ at most in truncation radius."""
        if self.kind != other.kind:
            return False
        if self.kind == MATRIX:
            return self.size == other.size
        return self.dim == other.dim and self.twist == other.twist


@lru_cache(maxsize=256)
def _window(backend: BackendDescriptor, radius: int) -> BackendDescriptor:
    return BackendDescriptor(kind=GRADED, dim=backend.dim, twist=backend.twist,
                             radius=radius, tol=backend.tol)


def _check_same(a: "AlgebraElement", b: "AlgebraElement") -> None:
    if a.backend != b.backend:
        raise BackendMismatch(f"operands live on different backends: {a.backend} vs {b.backend}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _canonical(backend: BackendDescriptor, k: np.ndarray, c: np.ndarray):
    """Checked, sorted, zero-free read-only (modes, coefficients, support radius)."""
    rad = np.abs(k).max(axis=1) if len(k) else np.zeros(0, dtype=np.int64)
    if np.any(rad > backend.radius):
        raise TruncationOverflow(f"mode {tuple(k[int(np.argmax(rad))].tolist())} exceeds "
                                 f"truncation radius {backend.radius}")
    order = np.lexsort(k.T[::-1])
    k, c, rad = k[order], c[order], rad[order]
    if np.any(np.all(k[1:] == k[:-1], axis=1)):
        raise ValueError("a mode is given twice")
    nz = c != 0.0
    return _frozen(k[nz]), _frozen(c[nz]), int(rad[nz].max(initial=0))


class AlgebraElement:
    """A member of a backend algebra.

    Matrix backend: wraps an N x N complex ndarray.  Graded backend: wraps the
    int64 mode array (K, t), sorted lexicographically with no repeats, and
    the complex coefficient vector (K,) with no zero entries; `mode_array`
    and `coeff_array` expose them read-only.  Instances are immutable.
    """

    __slots__ = ("backend", "_mat", "_k", "_c", "_rad")

    def __init__(self, backend: BackendDescriptor, *, mat: Optional[np.ndarray] = None,
                 modes: Optional[Mapping[tuple, complex]] = None):
        self.backend = backend
        if backend.kind == MATRIX:
            if mat is None:
                raise ValueError("matrix backend element needs a matrix")
            arr = np.asarray(mat, dtype=complex)
            if arr.shape != (backend.size, backend.size):
                raise ValueError(f"expected {backend.size}x{backend.size} matrix, got {arr.shape}")
            self._mat = _frozen(arr.copy())
            self._k = self._c = None
            self._rad = 0
            return
        modes = modes or {}
        keys = [tuple(int(x) for x in k) for k in modes]
        bad = [k for k in keys if len(k) != backend.dim]
        if bad:
            raise ValueError(f"mode {bad[0]} has wrong dimension")
        self._mat = None
        self._k, self._c, self._rad = _canonical(
            backend, np.array(keys, dtype=np.int64).reshape(len(keys), backend.dim),
            np.array([complex(v) for v in modes.values()], dtype=complex))

    @classmethod
    def _graded(cls, backend: BackendDescriptor, k: np.ndarray, c: np.ndarray,
                rad: Optional[int] = None) -> "AlgebraElement":
        """Wrap canonical read-only arrays (sorted, no repeats, no zeros) without checks."""
        out = object.__new__(cls)
        out.backend, out._mat, out._k, out._c, out._rad = backend, None, k, c, rad
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, backend: BackendDescriptor) -> "AlgebraElement":
        if backend.kind == MATRIX:
            return cls(backend, mat=np.zeros((backend.size, backend.size), dtype=complex))
        return cls._graded(backend, _frozen(np.zeros((0, backend.dim), dtype=np.int64)),
                           _frozen(np.zeros(0, dtype=complex)), 0)

    @classmethod
    def unit(cls, backend: BackendDescriptor) -> "AlgebraElement":
        if backend.kind == MATRIX:
            return cls(backend, mat=np.eye(backend.size, dtype=complex))
        return cls._graded(backend, _frozen(np.zeros((1, backend.dim), dtype=np.int64)),
                           _frozen(np.ones(1, dtype=complex)), 0)

    @classmethod
    def from_matrix(cls, backend: BackendDescriptor, mat) -> "AlgebraElement":
        return cls(backend, mat=mat)

    @classmethod
    def from_modes(cls, backend: BackendDescriptor, modes: Mapping) -> "AlgebraElement":
        return cls(backend, modes=modes)

    @classmethod
    def from_arrays(cls, backend: BackendDescriptor, modes, coeffs) -> "AlgebraElement":
        """The graded element with integer modes (K, t) and coefficients (K,), in any order."""
        k = np.asarray(modes)
        if k.ndim != 2 or k.shape[1] != backend.dim or not np.issubdtype(k.dtype, np.integer):
            raise ValueError(f"modes must be an integer array of shape (K, {backend.dim})")
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (len(k),):
            raise ValueError("need one coefficient per mode")
        return cls._graded(backend, *_canonical(backend, k.astype(np.int64), c))

    @classmethod
    def single_mode(cls, backend: BackendDescriptor, mode: Sequence[int], coeff: complex = 1.0) -> "AlgebraElement":
        return cls(backend, modes={tuple(mode): coeff})

    @classmethod
    def from_scalar(cls, backend: BackendDescriptor, z: complex) -> "AlgebraElement":
        out = cls.unit(backend)
        return out * complex(z)

    # -- data views --------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        if self.backend.kind != MATRIX:
            raise BackendMismatch("not a matrix-backend element")
        return self._mat

    def _require_graded(self) -> None:
        if self.backend.kind != GRADED:
            raise BackendMismatch("not a graded-backend element")

    @property
    def mode_array(self) -> np.ndarray:
        """Read-only int64 modes (K, t) in lexicographic order."""
        self._require_graded()
        return self._k

    @property
    def coeff_array(self) -> np.ndarray:
        """Read-only complex coefficients (K,), row for row with `mode_array`."""
        self._require_graded()
        return self._c

    @property
    def modes(self) -> Mapping[tuple, complex]:
        """A fresh {mode: coefficient} dict in lexicographic mode order."""
        self._require_graded()
        return dict(zip(map(tuple, self._k.tolist()), self._c.tolist()))

    def coefficient(self, mode: Sequence[int]) -> complex:
        self._require_graded()
        rows = np.flatnonzero(np.all(self._k == np.asarray(mode, dtype=np.int64), axis=1))
        return complex(self._c[rows[0]]) if rows.size else 0j

    def support_radius(self) -> int:
        if self._rad is None:
            self._rad = int(np.abs(self._k).max(initial=0))
        return self._rad

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        return combine(self.backend, [[(1.0, self), (1.0, other)]])[0]

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        return combine(self.backend, [[(1.0, self), (-1.0, other)]])[0]

    def __neg__(self) -> "AlgebraElement":
        return self * (-1.0)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        z = complex(other)
        if self.backend.kind == MATRIX:
            return AlgebraElement(self.backend, mat=self._mat * z)
        c = self._c * z
        nz = c != 0.0
        if nz.all():
            return AlgebraElement._graded(self.backend, self._k, _frozen(c), self._rad)
        return AlgebraElement._graded(self.backend, _frozen(self._k[nz]), _frozen(c[nz]))

    def __rmul__(self, other) -> "AlgebraElement":
        return self.__mul__(other)

    def star(self) -> "AlgebraElement":
        return star(self)

    def norm(self) -> float:
        return norm(self)

    def __repr__(self) -> str:
        if self.backend.kind == MATRIX:
            return f"AlgebraElement(matrix {self.backend.size}x{self.backend.size}, |.|={self.norm():.3g})"
        terms = ", ".join(f"{k}:{v:.3g}" for k, v in list(self.modes.items())[:4])
        more = "..." if len(self._c) > 4 else ""
        return f"AlgebraElement(graded {{{terms}{more}}})"


# -- the contraction kernel -----------------------------------------------------

Term = Tuple[complex, AlgebraElement, AlgebraElement]


def contract(backend: BackendDescriptor,
             slots: Sequence[Sequence[Term]]) -> List[AlgebraElement]:
    """out[s] = sum of c a b over the terms (c, a, b) of slots[s], one element per slot.

    Operands may sit on any window of backend's algebra.  A graded slot's
    result sits on the smallest window holding backend's, every operand's and
    every product's support, so nothing overflows; an empty slot is zero.
    Matrix slots are summed term by term in the given order.
    """
    if backend.kind == MATRIX:
        out = []
        for terms in slots:
            acc = np.zeros((backend.size, backend.size), dtype=complex)
            for c, a, b in terms:
                _check_algebra(backend, a, b)
                prod = a._mat @ b._mat
                acc = acc + (prod if c == 1.0 else prod * c)
            out.append(AlgebraElement(backend, mat=acc))
        return out
    return _graded_contract(backend, slots)


def _check_algebra(backend: BackendDescriptor, *elements: AlgebraElement) -> None:
    for x in elements:
        if x.backend is not backend and not x.backend.same_algebra(backend):
            raise BackendMismatch("operands live on unrelated backends")


def _graded_contract(backend: BackendDescriptor,
                     slots: Sequence[Sequence[Term]]) -> List[AlgebraElement]:
    """The graded kernel: the one place that forms Weyl phases and coalesces modes."""
    operands: list = []
    where: dict = {}
    t_ops, t_coef, t_slot = [], [], []
    for s, terms in enumerate(slots):
        for c, a, b in terms:
            for x in (a, b):
                i = where.get(id(x))
                if i is None:
                    i = where[id(x)] = len(operands)
                    operands.append(x)
                t_ops.append(i)
            t_coef.append(c)
            t_slot.append(s)
    nslots = len(slots)
    if not operands:
        return [AlgebraElement.zero(backend) for _ in range(nslots)]
    _check_algebra(backend, *operands)
    size, rad, win = np.array([(len(x._c), x.support_radius(), x.backend.radius)
                               for x in operands], dtype=np.int64).T
    kk = np.concatenate([x._k for x in operands])
    cc = np.concatenate([x._c for x in operands])
    offset = np.cumsum(size) - size
    t_a, t_b = np.array(t_ops).reshape(-1, 2).T
    t_slot = np.array(t_slot)
    t_coef = np.array(t_coef, dtype=complex)
    window = np.full(nslots, backend.radius, dtype=np.int64)
    np.maximum.at(window, t_slot, np.maximum(np.maximum(win[t_a], win[t_b]),
                                             rad[t_a] + rad[t_b]))
    rows = kk @ backend.theta if backend.theta.any() else None
    t_pairs = size[t_a] * size[t_b]
    # modes lie in the box |k_i| <= reach; code (slot, mode) in base 2 reach + 1
    reach = int(window.max())
    base = 2 * reach + 1
    box = base ** backend.dim
    if box * nslots >= 2 ** 62:
        raise OverflowError("mode box too large for the int64 mode code")
    stride = base ** np.arange(backend.dim - 1, -1, -1, dtype=np.int64)

    out: List[AlgebraElement] = []
    windows = {r: backend.with_radius(r) for r in set(window.tolist())}
    for s0, s1, lo_t, hi_t in _passes(t_slot, t_pairs, nslots):
        npairs = t_pairs[lo_t:hi_t]
        term = np.repeat(np.arange(lo_t, hi_t), npairs)
        within = np.arange(len(term)) - np.repeat(np.cumsum(npairs) - npairs, npairs)
        nb = size[t_b[term]]
        ia = offset[t_a[term]] + within // nb
        ib = offset[t_b[term]] + within % nb
        ka, kb = kk[ia], kk[ib]
        value = t_coef[term]
        if rows is not None:
            value = value * np.exp(1j * np.pi * (rows[ia] * kb).sum(axis=1))
        value = value * cc[ia] * cc[ib]
        mode = ka + kb
        slot = t_slot[term]
        code = (mode + reach) @ stride + (slot - s0) * box
        # canonical order: slot, output mode, then a-mode (which fixes the b-mode)
        order = np.lexsort(((ka + reach) @ stride, code))
        code = code[order]
        first = np.empty(len(code), dtype=bool)
        first[:1] = True
        np.not_equal(code[1:], code[:-1], out=first[1:])
        group = np.cumsum(first) - 1
        value = value[order]
        coef = (np.bincount(group, weights=value.real)
                + 1j * np.bincount(group, weights=value.imag))
        keep = coef != 0.0
        lead = order[first][keep]
        gmode, gcoef = _frozen(mode[lead]), _frozen(coef[keep])
        bounds = np.searchsorted(slot[lead], np.arange(s0, s1 + 1))
        # support radius per slot: the largest |k_i| over its rows (0 when empty)
        grad = np.abs(gmode).max(axis=1, initial=0)
        filled = bounds[1:] > bounds[:-1]
        srad = np.zeros(s1 - s0, dtype=np.int64)
        srad[filled] = np.maximum.reduceat(grad, bounds[:-1][filled]) if filled.any() else 0
        bounds, srad = bounds.tolist(), srad.tolist()
        for s in range(s0, s1):
            lo, hi = bounds[s - s0], bounds[s - s0 + 1]
            out.append(AlgebraElement._graded(windows[int(window[s])],
                                              gmode[lo:hi], gcoef[lo:hi], srad[s - s0]))
    return out


def _passes(t_slot: np.ndarray, t_pairs: np.ndarray, nslots: int) -> list:
    """(s0, s1, first term, end term) of consecutive slot ranges, each forming about
    _PAIRS_PER_PASS mode pairs at most."""
    if int(t_pairs.sum()) <= _PAIRS_PER_PASS:
        return [(0, nslots, 0, len(t_slot))]
    ends = np.cumsum(np.bincount(t_slot, weights=t_pairs, minlength=nslots))
    cuts = [0]
    while cuts[-1] < nslots:
        done = ends[cuts[-1] - 1] if cuts[-1] else 0.0
        nxt = int(np.searchsorted(ends, done + _PAIRS_PER_PASS, side="right"))
        cuts.append(min(nslots, max(nxt, cuts[-1] + 1)))
    term_cut = np.searchsorted(t_slot, cuts).tolist()
    return list(zip(cuts[:-1], cuts[1:], term_cut[:-1], term_cut[1:]))


def combine(backend: BackendDescriptor,
            slots: Sequence[Sequence[Tuple[complex, AlgebraElement]]]) -> List[AlgebraElement]:
    """out[s] = sum of c a over the terms (c, a) of slots[s], one element per slot.

    Graded sums are `contract` against the unit, on the same windows; matrix
    sums add the scaled matrices in the given order.
    """
    if backend.kind == MATRIX:
        out = []
        for terms in slots:
            acc = np.zeros((backend.size, backend.size), dtype=complex)
            for c, a in terms:
                _check_algebra(backend, a)
                acc = acc + (a._mat if c == 1.0 else a._mat * c)
            out.append(AlgebraElement(backend, mat=acc))
        return out
    unit = AlgebraElement.unit(backend)
    return contract(backend, [[(c, a, unit) for c, a in terms] for terms in slots])


# -- module-level operations ------------------------------------------------

def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Backend product; graded case is the twisted convolution of Fourier modes."""
    return products([(a, b)])[0]


def products(pairs: Sequence[Tuple[AlgebraElement, AlgebraElement]]) -> List[AlgebraElement]:
    """mul(a, b) for every pair, in one kernel call.

    A graded product keeps the window of its operands, which share one
    backend: a coefficient beyond it raises TruncationOverflow unless it is
    below _DUST_REL relative to the product's largest coefficient (or to 1),
    in which case it is dropped.
    """
    if not pairs:
        return []
    for a, b in pairs:
        _check_same(a, b)
    prods = contract(pairs[0][0].backend, [[(1.0, a, b)] for a, b in pairs])
    return [_restrict(p, a.backend) for p, (a, _) in zip(prods, pairs)]


def _restrict(prod: AlgebraElement, be: BackendDescriptor) -> AlgebraElement:
    if be.kind == MATRIX or prod.support_radius() <= be.radius:
        return lift(prod, be)
    inside = np.abs(prod._k).max(axis=1) <= be.radius
    loud = ~inside & (np.abs(prod._c) > _DUST_REL * max(norm(prod), 1.0))
    if loud.any():
        raise TruncationOverflow(f"product support {tuple(prod._k[np.argmax(loud)].tolist())} "
                                 f"exceeds truncation radius {be.radius}")
    return AlgebraElement._graded(be, _frozen(prod._k[inside]), _frozen(prod._c[inside]))


def star(a: AlgebraElement) -> AlgebraElement:
    """Adjoint: conjugate transpose / mode reflection with conjugated coefficients."""
    if a.backend.kind == MATRIX:
        return AlgebraElement(a.backend, mat=a._mat.conj().T)
    # reflection reverses the lexicographic order
    return AlgebraElement._graded(a.backend, _frozen(-a._k[::-1]),
                                  _frozen(np.conj(a._c[::-1])), a._rad)


def trace(a: AlgebraElement) -> complex:
    """Normalized trace (matrix backend) or zero-mode coefficient (graded backend)."""
    if a.backend.kind == MATRIX:
        return complex(np.trace(a._mat)) / a.backend.size
    return a.coefficient((0,) * a.backend.dim)


def norm(a: AlgebraElement) -> float:
    """Entrywise / coefficientwise max modulus; the residual norm used everywhere."""
    if a.backend.kind == MATRIX:
        return float(np.max(np.abs(a._mat))) if a.backend.size else 0.0
    return float(np.abs(a._c).max(initial=0.0))


@dataclass(frozen=True)
class DerivationSpec:
    """A derivation of the backend algebra.

    kind "inner":   a -> i [X, a] for a fixed element X.
    kind "grading": U^k -> 2 pi i k_j U^k on the graded backend.
    kind "zero":    the zero action; the structure action used by the
                    structure-constant models, where the algebra is scalar.
    """

    kind: str
    element: Optional[AlgebraElement] = None
    index: int = -1

    def __post_init__(self):
        if self.kind not in ("inner", "grading", "zero"):
            raise ValueError(f"unknown derivation kind {self.kind!r}")
        if self.kind == "inner" and self.element is None:
            raise ValueError("inner derivation needs a fixed element")
        if self.kind == "grading" and self.index < 0:
            raise ValueError("grading derivation needs a coordinate index")

    @classmethod
    def inner(cls, element: AlgebraElement) -> "DerivationSpec":
        return cls(kind="inner", element=element)

    @classmethod
    def grading(cls, index: int) -> "DerivationSpec":
        return cls(kind="grading", index=index)

    @classmethod
    def zero(cls) -> "DerivationSpec":
        return cls(kind="zero")


def derive(delta: DerivationSpec, a: AlgebraElement) -> AlgebraElement:
    """Apply a derivation; C-linear and Leibniz by construction."""
    if delta.kind == "zero":
        return AlgebraElement.zero(a.backend)
    if delta.kind == "inner":
        x = delta.element
        if not x.backend.same_algebra(a.backend):
            raise BackendMismatch("inner derivation element lives on another backend")
        if x.backend != a.backend:
            x = lift(x, a.backend)
        return 1j * (mul(x, a) - mul(a, x))
    if a.backend.kind != GRADED:
        raise BackendMismatch("grading derivation requires the graded backend")
    if delta.index >= a.backend.dim:
        raise BackendMismatch("grading index exceeds backend dimension")
    j = delta.index
    moving = a._k[:, j] != 0
    k = a._k[moving]
    return AlgebraElement._graded(a.backend, _frozen(k),
                                  _frozen(2j * np.pi * k[:, j] * a._c[moving]))


def lift(a: AlgebraElement, backend: BackendDescriptor) -> AlgebraElement:
    """Reinterpret an element in a compatible backend (e.g. a larger truncation)."""
    if a.backend == backend:
        return a
    if not a.backend.same_algebra(backend):
        raise BackendMismatch("cannot lift between unrelated backends")
    if a.support_radius() > backend.radius:
        raise TruncationOverflow("element does not fit in the target radius")
    if backend.kind == MATRIX:
        return AlgebraElement(backend, mat=a._mat)
    return AlgebraElement._graded(backend, a._k, a._c, a._rad)


def wide_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product computed in a window that provably fits it; result may be lifted."""
    return contract(a.backend, [[(1.0, a, b)]])[0]


def wide_sum(elements: Sequence[AlgebraElement]) -> AlgebraElement:
    """Sum of elements that may sit on differently sized windows of one algebra."""
    elements = list(elements)
    if not elements:
        raise ValueError("empty sum")
    return combine(elements[0].backend, [[(1.0, e) for e in elements]])[0]


def is_central(a: AlgebraElement, generators: Iterable[AlgebraElement]) -> bool:
    """Generator-based centrality test: max |[a, g]| <= tol over the given generators."""
    return first_noncentral([a], generators) is None


def first_noncentral(elements: Sequence[AlgebraElement],
                     generators: Iterable[AlgebraElement]) -> Optional[int]:
    """Index of the first element failing `is_central`, or None if every one passes.

    The commutators of every element with every generator come from one kernel call.
    """
    generators = list(generators)
    if not elements or not generators:
        return None
    backend = generators[0].backend
    for x in (*elements, *generators):
        _check_same(x, generators[0])
    comms = contract(backend, [[(1.0, a, g), (-1.0, g, a)]
                               for a in elements for g in generators])
    # slots run element by element, so the first failing slot names the element
    return next((s // len(generators) for s, c in enumerate(comms)
                 if norm(c) > backend.tol), None)


def random_element(backend: BackendDescriptor, rng: np.random.Generator,
                   radius: int = 1, nmodes: int = 4, scale: float = 1.0) -> AlgebraElement:
    """A generic element for property tests (bounded support on the graded backend)."""
    if backend.kind == MATRIX:
        n = backend.size
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return AlgebraElement(backend, mat=scale * m / max(1.0, np.sqrt(n)))
    r = min(radius, backend.radius)
    data: dict = {}
    for _ in range(nmodes):
        k = tuple(int(x) for x in rng.integers(-r, r + 1, size=backend.dim))
        data[k] = data.get(k, 0.0) + scale * complex(rng.standard_normal(), rng.standard_normal())
    return AlgebraElement(backend, modes=data)
