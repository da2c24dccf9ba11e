"""Unital *-algebra backends: dense complex matrices and truncated twisted Fourier algebras.

Every other module consumes these elements as coefficient arithmetic.  Both
backends are finite data: an N x N complex matrix, of which a multiple of the
identity is held as two numbers, or finitely many Fourier modes of Z^t with a
hard truncation radius, stored as a read-only int64 mode array (K, t) in
lexicographic order beside a read-only complex coefficient vector (K,).
Elements are immutable after construction and all operations are pure.

Every element of an algebra carries that algebra's one descriptor.  The
truncation radius R bounds outside input only: the constructors that take
modes refuse a mode beyond it.  Every computed result (`contract`, the product
`a * b` = `wide_mul`, `wide_sum` and the inner derivations of `derive_many`)
keeps every mode its products have, on the same descriptor.

Graded products and sums run one kernel over terms (c, x_1, ..., x_w):
`contract` computes out[s] = sum of c a b over the terms (c, a, b) of slot s
(w = 2) and `combine` out[s] = sum of c a over the terms (c, a) (w = 1), for
many slots at once: one ragged outer product of each term's operands' mode
rows, one Weyl phase exp(i pi <k, theta l>) per pair of operands (none in a
sum) and one coalescing pass by (slot, mode).  Each distinct operand's mode
rows are coded as integers once per call, so a row tuple's code is the sum
of its rows' codes, and output modes are formed only at the first tuple of
each coalesced group.  Contributions to one output mode are added in (output
mode, a-mode, term) order whatever order the terms came in, so a sum does
not depend on how its operands were split into terms, and a slot's result
does not depend on the other slots of its call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import BackendMismatch, NonSkew, TruncationOverflow

# The one absolute tolerance of the centrality, symmetry, skew, d compose d and
# suite checks, on every backend.
DEFAULT_TOL = 1e-12

# Row tuples (mode pairs in a product) the graded kernel forms per pass.  A
# pair's temporaries take about 120 bytes, so a pass stays near 0.5 MB however
# large the contraction; a slot is never split, so one slot larger than this
# is a pass of its own.
_PAIRS_PER_PASS = 1 << 12

MATRIX = "matrix"
GRADED = "graded"


def require_skew(theta, dim: Optional[int] = None) -> np.ndarray:
    """theta as a float array; NonSkew, naming the violation, unless it is
    square (dim x dim if given) with |theta + theta^T| <= DEFAULT_TOL."""
    th = np.asarray(theta, dtype=float)
    if th.ndim != 2 or th.shape[0] != th.shape[1]:
        raise NonSkew(f"deformation matrix must be square, got shape {th.shape}")
    if dim is not None and th.shape[0] != dim:
        raise NonSkew(f"deformation matrix must be {dim}x{dim}, got {th.shape[0]}x{th.shape[0]}")
    dev = float(np.max(np.abs(th + th.T))) if th.size else 0.0
    if not dev <= DEFAULT_TOL:
        raise NonSkew(f"deformation matrix is not skew-symmetric: |theta + theta^T| = {dev:.3e}")
    return th


@dataclass(frozen=True)
class BackendDescriptor:
    """Identifies one concrete algebra: either M_N(C) or a twisted Fourier algebra.

    For the graded backend the generators satisfy U_k U_l = e^{2 pi i theta_kl} U_l U_k
    and basis modes are Weyl-normalized: U^k U^l = e^{pi i <k, theta l>} U^{k+l}.
    A descriptor names the algebra and its truncation radius only; every check
    on its elements uses the module's DEFAULT_TOL.  Elements are combined only
    with elements of an equal descriptor: the radius is part of the algebra.
    """

    kind: str
    size: int = 0            # matrix backend: N
    dim: int = 0             # graded backend: t
    twist: tuple = ()        # graded backend: row-major t*t entries of theta
    radius: int = 0          # graded backend: per-coordinate sup-norm bound

    def __post_init__(self):
        if self.kind == MATRIX:
            if self.size < 1:
                raise ValueError("matrix backend needs size N >= 1")
        elif self.kind == GRADED:
            if self.dim < 1:
                raise ValueError("graded backend needs dimension t >= 1")
            if self.radius < 1:
                raise ValueError("graded backend needs truncation radius R >= 1")
            require_skew(self.theta)
        else:
            raise ValueError(f"unknown backend kind {self.kind!r}")

    @classmethod
    def matrix(cls, size: int) -> "BackendDescriptor":
        return cls(kind=MATRIX, size=size)

    @classmethod
    def graded(cls, dim: int, twist, radius: int) -> "BackendDescriptor":
        th = np.asarray(twist, dtype=float).reshape(dim, dim)
        return cls(kind=GRADED, dim=dim, twist=tuple(map(float, th.ravel())), radius=radius)

    @cached_property
    def theta(self) -> np.ndarray:
        th = np.asarray(self.twist, dtype=float).reshape(self.dim, self.dim)
        th.setflags(write=False)
        return th


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _canonical(k: np.ndarray, c: np.ndarray):
    """Sorted, zero-free read-only (modes, coefficients, support radius)."""
    order = np.lexsort(k.T[::-1])
    k, c = k[order], c[order]
    if (k[1:] == k[:-1]).all(axis=1).any():
        raise ValueError("a mode is given twice")
    nz = c != 0.0
    k, c = k[nz], c[nz]
    return _frozen(k), _frozen(c), int(np.abs(k).max(initial=0))


def _truncated(backend: BackendDescriptor, keys: list, c: np.ndarray):
    """`_canonical` of outside input, integer mode tuples within the truncation
    radius: compared as Python ints, which no int64 conversion wraps or overflows."""
    far = [k for k in keys if max((abs(int(x)) for x in k), default=0) > backend.radius]
    if far:
        raise TruncationOverflow(f"mode {tuple(map(int, far[0]))} exceeds "
                                 f"truncation radius {backend.radius}")
    return _canonical(np.array(keys, dtype=np.int64).reshape(len(keys), backend.dim), c)


class AlgebraElement:
    """A member of a backend algebra.

    Matrix backend: wraps an N x N complex ndarray, or for an element c I of
    M_N(C) with N >= 2 made by `zero`, `unit`, scalar `*`, `star`, `contract`
    or `combine` its central form: the pair (diagonal entry, off-diagonal
    entry), which `central_form` exposes.  `matrix` builds the full array
    from it on each call.  Graded backend: wraps the int64 mode array (K, t),
    sorted lexicographically with no repeats, and the complex coefficient
    vector (K,) with no zero entries; `mode_array` and `coeff_array` expose
    them read-only.  Instances are immutable.  The validated constructors are
    `from_matrix` and `from_modes`, each for its own backend kind; they raise
    BackendMismatch on the other.
    """

    __slots__ = ("backend", "_mat", "_k", "_c", "_rad")

    @classmethod
    def _matrix(cls, backend: BackendDescriptor, mat: np.ndarray) -> "AlgebraElement":
        """Wrap a fresh complex N x N array, or a central form (2,), read-only,
        without a copy or checks."""
        out = object.__new__(cls)
        out.backend, out._mat, out._k, out._c, out._rad = backend, _frozen(mat), None, None, 0
        return out

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
            return cls._matrix(backend, _zero_matrix(backend.size))
        return cls._graded(backend, _frozen(np.zeros((0, backend.dim), dtype=np.int64)),
                           _frozen(np.zeros(0, dtype=complex)), 0)

    @classmethod
    def unit(cls, backend: BackendDescriptor) -> "AlgebraElement":
        if backend.kind == MATRIX:
            return cls._matrix(backend, np.eye(1, dtype=complex) if backend.size == 1
                               else np.array([1.0, 0.0], dtype=complex))
        return cls._graded(backend, _frozen(np.zeros((1, backend.dim), dtype=np.int64)),
                           _frozen(np.ones(1, dtype=complex)), 0)

    @classmethod
    def from_matrix(cls, backend: BackendDescriptor, mat) -> "AlgebraElement":
        """A matrix-backend element holding a C-ordered complex copy of mat."""
        if backend.kind != MATRIX:
            raise BackendMismatch("from_matrix needs a matrix backend")
        arr = np.asarray(mat, dtype=complex)
        if arr.shape != (backend.size, backend.size):
            raise ValueError(f"expected {backend.size}x{backend.size} matrix, got {arr.shape}")
        return cls._matrix(backend, arr.copy())

    @classmethod
    def from_modes(cls, backend: BackendDescriptor, modes: Mapping) -> "AlgebraElement":
        """A graded element from {mode: coefficient}; modes beyond the radius
        overflow, and mode entries must be ints (not bools) or NumPy integers."""
        if backend.kind != GRADED:
            raise BackendMismatch("from_modes needs a graded backend")
        keys = [tuple(k) for k in modes]
        loose = [x for k in keys for x in k
                 if not isinstance(x, (int, np.integer)) or isinstance(x, bool)]
        if loose:
            raise ValueError(f"mode entry {loose[0]!r} is not an integer")
        bad = [k for k in keys if len(k) != backend.dim]
        if bad:
            raise ValueError(f"mode {bad[0]} has wrong dimension")
        return cls._graded(backend, *_truncated(
            backend, keys, np.array([complex(v) for v in modes.values()], dtype=complex)))

    @classmethod
    def single_mode(cls, backend: BackendDescriptor, mode: Sequence[int], coeff: complex = 1.0) -> "AlgebraElement":
        return cls.from_modes(backend, {tuple(mode): coeff})

    # -- data views --------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The read-only N x N array; built afresh from a central form."""
        if self.backend.kind != MATRIX:
            raise BackendMismatch("not a matrix-backend element")
        return self._mat if self._mat.ndim == 2 else _frozen(_full(self._mat, self.backend.size))

    @property
    def central_form(self) -> Optional[np.ndarray]:
        """The read-only (diagonal entry, off-diagonal entry) pair of a matrix
        element held as c I, None for one held as a full array."""
        if self.backend.kind != MATRIX:
            raise BackendMismatch("not a matrix-backend element")
        return self._mat if self._mat.ndim == 1 else None

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
        return combine(self.backend, [[(1.0, self), (1.0, other)]])[0]

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return combine(self.backend, [[(1.0, self), (-1.0, other)]])[0]

    def __neg__(self) -> "AlgebraElement":
        return self * (-1.0)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return wide_mul(self, other)
        z = complex(other)
        if self.backend.kind == MATRIX:
            return AlgebraElement._matrix(self.backend, self._mat * z)
        c = self._c * z
        nz = c != 0.0
        if nz.all():
            return AlgebraElement._graded(self.backend, self._k, _frozen(c), self._rad)
        return AlgebraElement._graded(self.backend, _frozen(self._k[nz]), _frozen(c[nz]))

    def __rmul__(self, other) -> "AlgebraElement":
        return self.__mul__(other)

    def norm(self) -> float:
        """Entrywise / coefficientwise max modulus; the residual norm used everywhere."""
        return float(np.abs(self._mat if self.backend.kind == MATRIX else self._c).max(initial=0.0))

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

    Every operand and every result is on `backend`.  A graded slot keeps every
    mode of its products, whatever their support: nothing is truncated here;
    it is `_graded_kernel` at two operands a term.
    An empty slot is zero.  Matrix slots are summed term by term in the given
    order: the first live term is added to +0 into a fresh array, the rest in
    place, and a slot with no live term is a shared read-only zero.  A term
    with an operand that is exactly zero is skipped, and an operand that is
    exactly the identity passes the other operand through, in its own form;
    every other product is BLAS's, with a central form built out in full
    first.  Both shortcuts give the bits BLAS would for finite operands: a sum
    starts from +0, so no signed zero of a skipped or passed-through product
    survives.  A slot whose live terms all give central forms is summed as
    central forms, through the same ufunc calls as full arrays, so each entry
    has the bits it would have in full.  A slot whose live terms are x and
    -x, with x one finite array (the commutator [x, a] of an identity a,
    whose two products both pass x through), is the shared zero without a
    sum; see `_matrix_sums`.  Each distinct operand is classified once per
    call, by its [0, 0] entry first: one that is neither 0 nor 1 is neither
    zero nor the identity without a look at the rest.
    """
    if backend.kind == MATRIX:
        size = backend.size
        kinds = _matrix_kinds(backend, (x for terms in slots for _, a, b in terms for x in (a, b)),
                              _identity(size))
        return _matrix_sums(backend, (
            [(c, b._mat if kinds[id(a)] == _IDENTITY else
              a._mat if kinds[id(b)] == _IDENTITY else
              _product(a._mat, b._mat, size))
             for c, a, b in terms if kinds[id(a)] != _ZERO and kinds[id(b)] != _ZERO]
            for terms in slots))
    return _graded_kernel(backend, slots, 2)


# an operand's kind: exactly zero, exactly the identity, or any other (multiplied by BLAS)
_ZERO, _IDENTITY, _DENSE = range(3)

@lru_cache(maxsize=8)
def _identity(size: int) -> np.ndarray:
    """The N x N identity viewed as (re, im) float pairs: comparing float views
    gives what comparing the complex arrays gives, about three times faster."""
    return _frozen(np.eye(size, dtype=complex).view(float))


@lru_cache(maxsize=8)
def _zero_matrix(size: int) -> np.ndarray:
    """The read-only zero that every matrix zero element shares: the central form
    (0, 0), or the 1 x 1 zero array of M_1(C)."""
    return _frozen(np.zeros((1, 1) if size == 1 else 2, dtype=complex))


def _full(m: np.ndarray, size: int) -> np.ndarray:
    """m itself if it is an N x N array; for a central form, a fresh N x N array
    with its diagonal entry on the diagonal and its off-diagonal entry elsewhere."""
    if m.ndim == 2:
        return m
    out = np.full((size, size), m[1])
    np.fill_diagonal(out, m[0])
    return out


def _product(x: np.ndarray, y: np.ndarray, size: int) -> np.ndarray:
    """BLAS's product of two matrix operands' arrays, a central form built out in
    full first: x @ (c I) need not have the bits of x * c."""
    return _full(x, size) @ _full(y, size)


def _matrix_kinds(backend: BackendDescriptor, operands: Iterable[AlgebraElement],
                  identity: Optional[np.ndarray] = None) -> dict:
    """id(x) -> _ZERO, _IDENTITY (equal to the float view `identity`) or _DENSE for
    each distinct matrix operand, each checked once against `backend`.

    An operand whose [0, 0] entry (a central form's diagonal entry) is neither
    0 nor 1 can be neither the zero matrix nor the identity; of the others, a
    central form is settled by its off-diagonal entry and a full array is
    scanned in full.
    """
    kinds: dict = {}
    for x in operands:
        if id(x) not in kinds:
            if x.backend is not backend:
                _check_algebra(backend, x)
            m = x._mat
            corner = m.item(0)
            if corner != 0 and corner != 1:
                kinds[id(x)] = _DENSE
            elif m.ndim == 1:
                kinds[id(x)] = (_DENSE if m.item(1) != 0 else _ZERO if corner == 0 else
                                _IDENTITY if identity is not None else _DENSE)
            else:
                kinds[id(x)] = (_ZERO if not m.any() else
                                _IDENTITY if identity is not None and np.array_equal(
                                    m.view(float), identity) else _DENSE)
    return kinds


def _matrix_sums(backend: BackendDescriptor,
                 slots: Iterable[Sequence[Tuple[complex, np.ndarray]]]) -> List[AlgebraElement]:
    """One element per slot: the sum of c m over its live terms (c, m), in order.

    The first term is added to +0, as a sum that starts from a zero matrix
    would, into a fresh array; the rest are added in place.  A slot with no
    term is the shared read-only zero.  Central forms add as central forms
    until a full array meets them; the sum is then built out in full.

    A slot of exactly the terms (c, m) and (-c, m), with c = 1 or -1 and m one
    array with finite entries, is the shared zero too: m + 0.0 and then += -m
    gives +0 in every entry, the zero's own bits.  A NaN or infinite entry
    keeps the full sum, which is NaN there; each such array is scanned for
    them once per call.  Other c are summed, since c m may overflow.
    """
    size = backend.size
    zero = _zero_matrix(size)
    # the arrays scanned are operands' own (no product is one array twice), so
    # they outlive the call and their ids stay theirs
    finite: dict = {}
    out = []
    for terms in slots:
        if len(terms) == 2:
            (c, m), (c2, m2) = terms
            if m is m2 and c == -c2 and (c == 1.0 or c == -1.0):
                ok = finite.get(id(m))
                if ok is None:
                    ok = finite[id(m)] = bool(np.isfinite(m).all())
                if ok:
                    out.append(AlgebraElement._matrix(backend, zero))
                    continue
        acc = None
        for c, m in terms:
            term = m if c == 1.0 else m * c
            if acc is None:
                acc = term + 0.0
            elif acc.ndim == term.ndim:
                acc += term
            else:
                acc = _full(acc, size)
                acc += _full(term, size)
        out.append(AlgebraElement._matrix(backend, zero if acc is None else acc))
    return out


def _check_algebra(backend: BackendDescriptor, *elements: AlgebraElement) -> None:
    for x in elements:
        if x.backend is not backend and x.backend != backend:
            raise BackendMismatch(f"operands live on different backends: {x.backend} vs {backend}")


class _TermTable(NamedTuple):
    """The terms of a graded kernel call as arrays.

    ops holds one row per operand position of a term: indices into the
    distinct operands, whose modes and coefficients are concatenated in kk
    and cc, operand i's rows starting at offset[i] and numbering size[i].
    """

    kk: np.ndarray
    cc: np.ndarray
    size: np.ndarray
    offset: np.ndarray
    rad: np.ndarray
    ops: np.ndarray
    coef: np.ndarray
    slot: np.ndarray


def _term_table(backend: BackendDescriptor, slots: Sequence[Sequence[tuple]],
                width: int) -> Optional[_TermTable]:
    """The table of terms (c, x_1, ..., x_width) over `slots`, each distinct operand
    checked once against `backend`; None when there is no term."""
    operands: list = []
    where: dict = {}
    t_ops, t_coef, t_slot = [], [], []
    for s, terms in enumerate(slots):
        for term in terms:
            for x in term[1:]:
                i = where.get(id(x))
                if i is None:
                    i = where[id(x)] = len(operands)
                    operands.append(x)
                t_ops.append(i)
            t_coef.append(term[0])
            t_slot.append(s)
    if not operands:
        return None
    _check_algebra(backend, *operands)
    size, rad = np.array([(len(x._c), x.support_radius()) for x in operands],
                         dtype=np.int64).T
    return _TermTable(kk=np.concatenate([x._k for x in operands]),
                      cc=np.concatenate([x._c for x in operands]),
                      size=size, offset=np.cumsum(size) - size, rad=rad,
                      ops=np.array(t_ops).reshape(-1, width).T,
                      coef=np.array(t_coef, dtype=complex), slot=np.array(t_slot))


def _mode_code(backend: BackendDescriptor, reach: int, nslots: int) -> Tuple[int, np.ndarray]:
    """(box, stride) coding (slot, mode) as slot * box + mode @ stride, for modes in
    the box |k_i| <= reach: balanced base 2 reach + 1 digits, one per coordinate,
    so one slot's codes are box consecutive integers and the code of a sum of
    modes is the sum of their codes."""
    base = 2 * reach + 1
    box = base ** backend.dim
    if box * nslots >= 2 ** 62:
        raise OverflowError("mode box too large for the int64 mode code")
    return box, base ** np.arange(backend.dim - 1, -1, -1, dtype=np.int64)


def _graded_kernel(backend: BackendDescriptor, slots: Sequence[Sequence[tuple]],
                   width: int) -> List[AlgebraElement]:
    """The graded kernel, for the terms (c, x_1, ..., x_width) of products
    (width 2) and sums (width 1): the one place that forms Weyl phases.

    A term's row tuples run row-major over its operands.  Every row of the
    distinct operands' concatenated modes kk is coded once, kk @ stride; a row
    tuple's (slot, mode) code is its row codes summed plus the slot's offset,
    and the leading operands' row codes break ties, so one lexsort puts every
    pass in (slot, output mode, x_1 mode, ..., term) order without a per-tuple
    mode array.  A tuple's value is c, then one phase exp(i pi <k_i, theta k_j>)
    per operand pair i < j, then each row's coefficient, multiplied in that
    order.  `_coalesce` adds the modes up at the group leads.
    """
    nslots = len(slots)
    table = _term_table(backend, slots, width)
    if table is None:
        return [AlgebraElement.zero(backend) for _ in range(nslots)]
    kk, cc, size, offset, ops = table.kk, table.cc, table.size, table.offset, table.ops
    rows = kk @ backend.theta if width > 1 and backend.theta.any() else None
    t_tuples = reduce(np.multiply, size[ops])
    reach = int(reduce(np.add, table.rad[ops]).max())
    box, stride = _mode_code(backend, reach, nslots)
    row_code = kk @ stride

    out: List[AlgebraElement] = []
    for s0, s1, lo_t, hi_t in _passes(table.slot, t_tuples, nslots):
        ntuples = t_tuples[lo_t:hi_t]
        term = np.repeat(np.arange(lo_t, hi_t), ntuples)
        within = np.arange(len(term)) - np.repeat(np.cumsum(ntuples) - ntuples, ntuples)
        # the last operand's row runs fastest
        idx = []
        for t_x in ops[:0:-1]:
            within, r = np.divmod(within, size[t_x[term]])
            idx.append(offset[t_x[term]] + r)
        idx.append(offset[ops[0][term]] + within)
        idx.reverse()
        slot, value = table.slot[term], table.coef[term]
        # each per-tuple array is dropped once used, so that few are alive at a time
        del term, within
        if rows is not None:
            for i, j in itertools.combinations(range(width), 2):
                value = value * np.exp(1j * np.pi * (rows[idx[i]] * kk[idx[j]]).sum(axis=1))
        for r in idx:
            value = value * cc[r]
        codes = [row_code[r] for r in idx]
        code = sum(codes, (slot - s0) * box)
        # canonical order: slot, output mode, then the leading operands' modes,
        # which fix the last one's; tuples still tied are of different terms,
        # which the stable sort keeps in term order
        order = np.lexsort(codes[-2::-1] + [code])
        del codes
        out += _coalesce(backend, s0, s1, slot, value, code[order], order, kk, *idx)
    return out


def _coalesce(backend: BackendDescriptor, s0: int, s1: int, slot: np.ndarray,
              value: np.ndarray, code: np.ndarray, order: np.ndarray,
              kk: np.ndarray, *operand_rows: np.ndarray) -> List[AlgebraElement]:
    """The elements of slots s0 .. s1 - 1: the rows' values summed over equal
    (slot, mode) codes, in `order`, exact zeros dropped.  `code` is sorted by
    `order`; slot and value are not.  A row's mode is the sum of kk over its
    operand rows, one index array per operand in `operand_rows`; it is formed
    only at the first row of each kept group, since the code already tells
    the modes apart."""
    first = np.empty(len(code), dtype=bool)
    first[:1] = True
    np.not_equal(code[1:], code[:-1], out=first[1:])
    group = np.cumsum(first) - 1
    value = value[order]
    coef = (np.bincount(group, weights=value.real)
            + 1j * np.bincount(group, weights=value.imag))
    keep = coef != 0.0
    lead = order[first][keep]
    gmode = kk[operand_rows[0][lead]]
    for r in operand_rows[1:]:
        gmode += kk[r[lead]]
    gmode, gcoef = _frozen(gmode), _frozen(coef[keep])
    bounds = np.searchsorted(slot[lead], np.arange(s0, s1 + 1))
    # support radius per slot: the largest |k_i| over its rows (0 when empty)
    grad = np.abs(gmode).max(axis=1, initial=0)
    filled = bounds[1:] > bounds[:-1]
    srad = np.zeros(s1 - s0, dtype=np.int64)
    srad[filled] = np.maximum.reduceat(grad, bounds[:-1][filled]) if filled.any() else 0
    bounds, srad = bounds.tolist(), srad.tolist()
    return [AlgebraElement._graded(backend, gmode[bounds[i]:bounds[i + 1]],
                                   gcoef[bounds[i]:bounds[i + 1]], srad[i])
            for i in range(s1 - s0)]


def _passes(t_slot: np.ndarray, t_tuples: np.ndarray, nslots: int) -> list:
    """(s0, s1, first term, end term) of consecutive slot ranges, each forming about
    _PAIRS_PER_PASS row tuples at most, a term forming t_tuples of them: the
    product of its operands' mode counts."""
    if int(t_tuples.sum()) <= _PAIRS_PER_PASS:
        return [(0, nslots, 0, len(t_slot))]
    ends = np.cumsum(np.bincount(t_slot, weights=t_tuples, minlength=nslots))
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

    Graded sums keep every mode of their terms: they are `_graded_kernel` at
    one operand a term, which scales each term's modes by c and coalesces
    them by (slot, mode) in term order with no phase, so a sum has the bits
    of `contract` against the unit.  Matrix sums add the scaled matrices in
    the given order, skipping exactly zero terms, as `contract` does: one
    look at an operand's [0, 0] entry settles most of them, and a slot is
    summed in place from +0.  A slot of central forms sums to a central
    form, with the bits of the full sum, and a slot x - x of one finite array
    is the shared zero without a sum, with those bits too (see `_matrix_sums`).
    """
    if backend.kind == MATRIX:
        kinds = _matrix_kinds(backend, (a for terms in slots for _, a in terms))
        return _matrix_sums(backend, ([(c, a._mat) for c, a in terms if kinds[id(a)] != _ZERO]
                                      for terms in slots))
    return _graded_kernel(backend, slots, 1)


# -- module-level operations ------------------------------------------------

def star(a: AlgebraElement) -> AlgebraElement:
    """Adjoint: conjugate transpose / mode reflection with conjugated coefficients."""
    if a.backend.kind == MATRIX:
        if a._mat.ndim == 1:
            return AlgebraElement._matrix(a.backend, a._mat.conj())
        return AlgebraElement.from_matrix(a.backend, a._mat.conj().T)
    # reflection reverses the lexicographic order
    return AlgebraElement._graded(a.backend, _frozen(-a._k[::-1]),
                                  _frozen(np.conj(a._c[::-1])), a._rad)


def trace(a: AlgebraElement) -> complex:
    """Normalized trace (matrix backend) or zero-mode coefficient (graded backend)."""
    if a.backend.kind == MATRIX:
        # a central form sums its diagonal alone: the same pairwise sum of the same N values
        m = a._mat
        total = np.trace(m) if m.ndim == 2 else np.full(a.backend.size, m[0]).sum()
        return complex(total) / a.backend.size
    return a.coefficient((0,) * a.backend.dim)


def worst(values) -> float:
    """The largest of the values, 0.0 if there are none, NaN if any is NaN.

    Python's max keeps a NaN only when it comes first, so a residual reduced
    with it could hide one."""
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values, default=0.0)


def finite(a: AlgebraElement) -> bool:
    """Whether every entry (matrix backend) or coefficient (graded backend) of
    a is finite; a central form holds every distinct entry of its matrix, so
    its two numbers are read, not the full array."""
    return bool(np.isfinite(a._mat if a.backend.kind == MATRIX else a._c).all())


@dataclass(frozen=True)
class DerivationSpec:
    """A derivation of the backend algebra.

    kind "inner":   a -> i [X, a] for a fixed element X; X = 0 gives the
                    zero action, as on the Heisenberg model's scalars.
    kind "grading": U^k -> 2 pi i k_j U^k on the graded backend.
    """

    kind: str
    element: Optional[AlgebraElement] = None
    index: int = -1

    def __post_init__(self):
        if self.kind not in ("inner", "grading"):
            raise ValueError(f"unknown derivation kind {self.kind!r}")
        if self.kind == "inner" and self.element is None:
            raise ValueError("inner derivation needs a fixed element")
        # an integer test first: a NaN index compares false with every bound
        if self.kind == "grading" and not (isinstance(self.index, (int, np.integer))
                                           and self.index >= 0):
            raise ValueError("grading derivation needs a non-negative integer coordinate index")

    @classmethod
    def inner(cls, element: AlgebraElement) -> "DerivationSpec":
        return cls(kind="inner", element=element)

    @classmethod
    def grading(cls, index: int) -> "DerivationSpec":
        return cls(kind="grading", index=index)


def derive(delta: DerivationSpec, a: AlgebraElement) -> AlgebraElement:
    """Apply a derivation; C-linear and Leibniz by construction."""
    return derive_many([(delta, a)])[0]


def derive_many(pairs: Sequence[Tuple[DerivationSpec, AlgebraElement]]) -> List[AlgebraElement]:
    """derive(delta, a) for every pair.

    The inner commutators i [x, a] take one kernel call in all, one slot
    [(1, x, a), (-1, a, x)] each, on either backend: a graded commutator
    keeps every mode of its products, as `contract` does, and on the matrix
    backend the commutator with an identity a is the shared zero (see
    `contract`), with the bits of the two products summed by `combine`.
    The grading derivatives take one array pass over the concatenated modes
    of all their pairs, whose algebras have one dimension.
    """
    inner = []
    for delta, a in pairs:
        if delta.kind == "inner":
            if delta.element.backend != a.backend:
                raise BackendMismatch("inner derivation element lives on another backend")
            inner.append((delta.element, a))
        elif delta.kind == "grading":
            if a.backend.kind != GRADED:
                raise BackendMismatch("grading derivation requires the graded backend")
            if delta.index >= a.backend.dim:
                raise BackendMismatch("grading index exceeds backend dimension")
    if inner:
        # i [x, a] = i (x a - a x)
        comms = iter(contract(inner[0][0].backend,
                              [[(1.0, x, a), (-1.0, a, x)] for x, a in inner]))
    grading = [(delta.index, a) for delta, a in pairs if delta.kind == "grading"]
    if grading:
        # U^k -> 2 pi i k_j U^k for every grading pair in one pass over their
        # concatenated modes; the modes with k_j = 0 drop out
        kk = np.concatenate([a._k for _, a in grading])
        sizes = [len(a._c) for _, a in grading]
        kj = kk[np.arange(len(kk)), np.repeat([j for j, _ in grading], sizes)]
        moving = kj != 0
        k = kk[moving]
        c = 2j * np.pi * kj[moving] * np.concatenate([a._c for _, a in grading])[moving]
        ends = np.concatenate(([0], np.cumsum(moving)))[np.cumsum(sizes)].tolist()
        derived = iter(AlgebraElement._graded(a.backend, _frozen(k[lo:hi]), _frozen(c[lo:hi]))
                       for (_, a), lo, hi in zip(grading, [0] + ends, ends))
    out = []
    for delta, a in pairs:
        if delta.kind == "inner":
            out.append(1j * next(comms))
        else:
            out.append(next(derived))
    return out


def wide_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The product a b, which `a * b` gives: every mode, whatever its support."""
    return wide_products([(a, b)])[0]


def wide_products(pairs: Sequence[Tuple[AlgebraElement, AlgebraElement]]) -> List[AlgebraElement]:
    """wide_mul(a, b) for every pair, in one kernel call."""
    if not pairs:
        return []
    return contract(pairs[0][0].backend, [[(1.0, a, b)] for a, b in pairs])


def wide_sum(elements: Sequence[AlgebraElement]) -> AlgebraElement:
    """The sum of elements of one algebra, keeping every mode whatever its support."""
    elements = list(elements)
    if not elements:
        raise ValueError("empty sum")
    return combine(elements[0].backend, [[(1.0, e) for e in elements]])[0]


def first_noncentral(elements: Sequence[AlgebraElement],
                     generators: Iterable[AlgebraElement]) -> Optional[int]:
    """Index of the first element with max |[a, g]| > DEFAULT_TOL (or NaN) over
    the generators, or None if every element is central.

    The commutators of every element with every generator come from one kernel call.
    """
    generators = list(generators)
    if not elements or not generators:
        return None
    backend = generators[0].backend
    comms = contract(backend, [[(1.0, a, g), (-1.0, g, a)]
                               for a in elements for g in generators])
    # slots run element by element, so the first failing slot names the element
    return next((s // len(generators) for s, c in enumerate(comms)
                 if not c.norm() <= DEFAULT_TOL), None)


def random_elements(backend: BackendDescriptor, rng: np.random.Generator, count: int,
                    radius: int = 1) -> List[AlgebraElement]:
    """`count` generic elements for property tests.

    Matrix backend: element s is (X_s + i Y_s) / max(1, sqrt N), for X_s and
    Y_s the two halves of one standard normal (2, N, N) draw per element, so
    the elements of one call are those of count calls of one element.  Graded
    backend: each element sums four modes drawn within `radius` (capped at the
    backend's) with standard complex normal coefficients; a repeated mode's
    coefficients add in draw order and an exact-zero sum is dropped.  All
    `count` elements come from two generator calls, the modes (count, 4, t)
    and then the coefficients' real and imaginary parts (count, 4, 2).
    """
    if backend.kind == MATRIX:
        n = backend.size
        # numpy divides X + i Y by s + 0i as (X (1/s), Y (1/s)), so scaling by
        # 1/s in place gives its bits without the complex temporaries
        scale = 1.0 / max(1.0, np.sqrt(n))
        out = []
        for _ in range(count):
            xy = rng.standard_normal((2, n, n))
            xy *= scale
            m = np.empty((n, n), dtype=complex)
            m.real, m.imag = xy
            out.append(AlgebraElement._matrix(backend, m))
        return out
    r = min(radius, backend.radius)
    k = rng.integers(-r, r + 1, size=(count, 4, backend.dim))
    c = rng.standard_normal((count, 4, 2)).view(complex)[..., 0]
    # first[s, j]: the first draw of element s with draw j's mode, into whose
    # sum draw j goes, added in draw order from 0.0 as a dict would add them;
    # a later draw of a repeated mode keeps a zero sum, which drops out
    first = (k[:, :, None, :] == k[:, None, :, :]).all(axis=3).argmax(axis=1)
    sums = np.zeros((count, 4), dtype=complex)
    every = np.arange(count)
    for j in range(4):
        sums[every, first[:, j]] += c[:, j]
    keep = sums != 0.0
    owner = np.nonzero(keep)[0]
    k, sums = k[keep], sums[keep]
    # by element, then mode: lexsort's last key sorts first
    order = np.lexsort([*k.T[::-1], owner])
    k, sums = _frozen(k[order]), _frozen(sums[order])
    ends = np.cumsum(np.bincount(owner, minlength=count)).tolist()
    return [AlgebraElement._graded(backend, k[lo:hi], sums[lo:hi])
            for lo, hi in zip([0] + ends, ends)]
