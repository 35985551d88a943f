"""Non-commutative operator arithmetic and SU(N)-style generator sets.

All wave amplitudes in this package are dense complex square matrices
(operators on the generator representation space) or 3-vectors whose
components are such matrices, held as plain complex arrays of shape
(..., d, d) and (..., 3, d, d); the operators the API keeps and hands
out (generators, family amplitudes, field values) are read-only.  The
kernels below also take the amplitudes of a stack of T trials as
``fields`` holds them, with the trial axis last, (..., [3,] d, d, T), so
that each contraction's inner loop runs over the trials.
Products never commute, so every binary operation preserves the written
order of its factors; commutator-type expressions are composed by the
caller, e.g. ``dot(u, v) - dot(v, u)``.

Conventions:

* spin generator sets satisfy ``S x S = i*hbar*S``, i.e.
  ``[S_i, S_j] = i*hbar*eps_ijk*S_k``;
* the Gell-Mann set satisfies ``[G_a, G_b] = 2i*f_abc*G_c`` with
  ``tr(G_a G_b) = 2*delta_ab``;
* structure constants are always computed from the trace formulas
  ``f_abc = -(i/4) tr(G_a [G_b, G_c])`` and
  ``d_abc = (1/4) tr(G_a {G_b, G_c})``, so they are consistent with
  whichever normalization the basis carries.

This module is also the one home of the plain-array rules that more than
one module needs: norms (``frobenius_norms``, ``sup_norms``), per-vector
dot products (``dots``), the float-power square (``square``) and the
named refusal of one that overflows (``squarable``), diagonal
matrices (``diag``) and the block length of a time series
(``SERIES_BLOCK``).  Each gives every trial of a stack the bits that one
trial gets alone.  ``su3_columns`` holds the Gell-Mann set's structure
constants to their printed values, the checks that open the su3 suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12

# Rows of a time series evaluated per stacked contraction: a few KB of
# temporaries per row, so a block needs well under 1 MB whatever the series
# length.  A 2000-step zitter export ran no faster at 256 or 512 rows, and
# its peak RSS was 0.5 MB higher than at 128.
SERIES_BLOCK = 128

# the largest float whose square is finite, by Python's float power and by
# numpy's product alike
SQRT_MAX = np.sqrt(np.finfo(float).max)

# [n, z]: the n-th nonzero term eps_zjk of cross product component z, by (j, k).
_J = np.array([[1, 0, 0], [2, 2, 1]])
_K = np.array([[2, 2, 1], [1, 0, 0]])
_E = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])[..., None, None]


class InputError(ValueError):
    """A value from outside the program that it refuses, raised where the
    value is read: the base of every such refusal, which the command line
    reports as one ``config error:`` line and exit code 2.  A plain
    ValueError is left for internal invariants and API misuse."""


class NonFiniteValue(InputError):
    """A value that must be finite is NaN or infinite: a non-finite input,
    or an amplitude that overflowed."""


class DimMismatch(InputError):
    """Operands live in representation spaces of different dimension."""


class UnsupportedGenerator(InputError):
    """Requested generator-set kind is not implemented."""


class NonTracelessBasis(ValueError):
    """Structure constants requested for a basis with non-traceless members."""


def readonly(arr: np.ndarray) -> np.ndarray:
    """arr, marked read-only in place."""
    arr.flags.writeable = False
    return arr


def frobenius_norms(arr: np.ndarray) -> np.ndarray:
    """Frobenius norm of every (d, d) matrix in a stack (..., d, d).

    Each norm has the bits of ``np.linalg.norm`` on that matrix in any
    layout: like it, each matrix is copied out in memory order and its
    squares summed by a BLAS dot, here through a stacked (1, n) @ (n, 1)
    ``matmul``.  A batched ``einsum`` or ``sum`` orders the sum differently
    and misses the last bit on a few percent of inputs.
    """
    if abs(arr.strides[-2]) < abs(arr.strides[-1]):
        arr = arr.swapaxes(-2, -1)
    x = np.ascontiguousarray(arr)
    x = x.reshape(x.shape[:-2] + (1, x.shape[-2] * x.shape[-1]))
    re, im = x.real, x.imag
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def operator_norm(arr: np.ndarray) -> float:
    """Frobenius norm of a (d, d) matrix; largest component norm of (3, d, d)."""
    return float(frobenius_norms(arr).max())


def sup_norms(arr: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """The largest Frobenius norm of the (d, d) blocks of each trial of
    ``arr`` (batch + (..., d, d)), 0 if it has none: shape batch."""
    blocks = math.prod(arr.shape[len(batch):-2])
    return frobenius_norms(arr).reshape(batch + (blocks,)).max(axis=-1, initial=0.0)


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis as one (1, n) @ (n, 1) product per vector,
    which gives each vector of a stack the bits that ``@`` and
    ``np.linalg.norm`` give it alone; einsum and (T, n) @ (n,) need not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def square(x):
    """x ** 2 by Python's float power, for a float or each value of an
    array.  A stack must square its per-trial values exactly as one wave
    squares its float, and numpy's square of an array (0-d too) rounds
    differently from pow() on about one value in a thousand."""
    if np.ndim(x) == 0:
        return float(x) ** 2
    return np.array([v ** 2 for v in np.asarray(x).tolist()])


def squarable(name: str, x):
    """x, if its square (each value's, for an array) is finite; else
    NonFiniteValue naming ``name``, raised before any power is taken, where
    Python's float power would raise an OverflowError that names nothing.
    A NaN passes, as it squares to NaN."""
    if np.any(np.abs(x) > SQRT_MAX):
        raise NonFiniteValue(f"the square of {name} overflows")
    return x


def diag(x: np.ndarray) -> np.ndarray:
    """The diagonal matrices of the vectors on the last axis of x."""
    n = x.shape[-1]
    out = np.zeros(x.shape[:-1] + (n * n,), dtype=x.dtype)
    out[..., ::n + 1] = x  # the diagonal of a flattened n x n matrix
    return out.reshape(x.shape + (n,))


# The kernels take stacks (..., [3,] d, d) + batch: leading axes (a grid
# of harmonic orders, or a trial axis) broadcast, and ``batch``, () by
# default, is (T,) for the trial axis of a stacked field, which trails:
# an einsum names it after the matrix axes, and one wave simply has none.
# A real vector or a unitary that is one per trial comes as batch + (3,)
# or batch + (d, d), as ``fields.WaveContext`` holds it.  Operands of
# different dimension raise numpy's ValueError.

def move_axes(x: np.ndarray, src: int, dst: int, k: int) -> np.ndarray:
    """x with its k axes from ``src`` on moved to ``dst`` on, indices from
    the end when negative: np.moveaxis's view by one transpose, which costs
    a tenth as much as np.moveaxis, about as much as a kernel here."""
    n = x.ndim
    order = [i for i in range(n) if not 0 <= i - src % n < k]
    order[dst % n:dst % n] = range(src % n, src % n + k)
    return x.transpose(order)


def by_matmul(op, batch: tuple[int, ...], *xs: np.ndarray) -> np.ndarray:
    """op(*xs) for a product ``op`` of (..., d, d) + batch arrays by matmul,
    whose bits need each matrix contiguous: on a stack the trial axis is
    moved in front of the matrix axes for it, as a contiguous copy, and the
    result's back after."""
    k = len(batch)
    out = op(*(np.ascontiguousarray(move_axes(x, -k, -2 - k, k)) for x in xs))
    return move_axes(out, -2 - k, -k, k)


def commutator(x: np.ndarray, y: np.ndarray, batch: tuple[int, ...] = ()) -> np.ndarray:
    """[x, y] = xy - yx on (..., d, d) + batch arrays (``by_matmul``)."""
    return by_matmul(lambda a, b: a @ b - b @ a, batch, x, y)


def cross(u: np.ndarray, v: np.ndarray, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Operator cross product (u x v)_i = eps_ijk u_j v_k on (..., 3, d, d)
    + batch component arrays, order preserved.  Note u x u is generally
    nonzero; a real 3-vector times an operator vector is ``real_cross``.
    Finite operands get the dense eps contraction's bits: its two nonzero
    terms per component are summed in its order and operand layout, into a
    C-ordered result."""
    t, rest = "t"[:len(batch)], (slice(None),) * (2 + len(batch))
    return np.ascontiguousarray(np.einsum(f"...nzab{t},...nzbc{t}->...zac{t}", u[(..., _J) + rest]
                                          * _E[(...,) + (None,) * len(batch)], v[(..., _K) + rest]))


def dot(u: np.ndarray, v: np.ndarray, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Ordered dot product sum_i u_i v_i on (..., 3, d, d) + batch component
    arrays (matrix products, not symmetrized)."""
    t = "t"[:len(batch)]
    return np.einsum(f"...iab{t},...ibc{t}->...ac{t}", u, v)


def commutator_sv(a: np.ndarray, v: np.ndarray, batch: tuple[int, ...] = ()) -> np.ndarray:
    """[a, v_i] = a v_i - v_i a for each component of v, (..., 3, d, d) +
    batch, with a (..., d, d) + batch; each product is one einsum."""
    t = "t"[:len(batch)]
    return (np.einsum(f"...ab{t},...ibc{t}->...iac{t}", a, v)
            - np.einsum(f"...iab{t},...bc{t}->...iac{t}", v, a))


def conjugate(u: np.ndarray, v: np.ndarray, batch: tuple[int, ...] = ()) -> np.ndarray:
    """u v_i u+ for each component of v, (..., 3, d, d) + batch, by one
    three-operand einsum; u is (d, d), or one per trial, batch + (d, d)."""
    t, k = "t"[:len(batch)], len(batch)
    u = move_axes(u.reshape((1,) * (k + 2 - u.ndim) + u.shape), 0, -k, k)
    return np.einsum(f"ab{t},...ibc{t},cd{t}->...iad{t}", u, v, np.conj(u.swapaxes(0, 1)))


def _lift(x: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """x, (3,) or lead + batch + (3,), as lead + (3, 1, 1) + batch: x (x) 1
    on operator vectors, its one trial axis and component axis swapped."""
    x = x.reshape((1,) * (len(batch) + 1 - x.ndim) + x.shape).swapaxes(-1, -1 - len(batch))
    return x[(..., slice(None), None, None) + (slice(None),) * len(batch)]


def outer(x, s: np.ndarray, batch: tuple[int, ...] = ()) -> np.ndarray:
    """x_i s for each component of x, (3,) or lead + batch + (3,), with s
    (..., d, d) + batch: the operator vector (..., 3, d, d) + batch, as an
    elementwise product (an einsum's bits, but for the sign of a zero)."""
    return _lift(np.asarray(x), batch) * s[(..., None) + (slice(None),) * (2 + len(batch))]


# A real 3-vector n acts on operator vectors (..., 3, d, d) + batch as
# n (x) identity, whose zeros add only +-0: so these elementwise products
# give finite operands the bits of ``cross`` and ``dot`` on n so lifted
# (up to the sign of a zero), without the d x d matrix products.  n is
# (3,) or lead + batch + (3,); its leading axes broadcast against v's.

def real_cross(n, v: np.ndarray, batch: tuple[int, ...] = ()) -> np.ndarray:
    """n x v."""
    n, rest = _lift(np.asarray(n, dtype=float), batch), (slice(None),) * (2 + len(batch))
    i, j = (..., [1, 2, 0]) + rest, (..., [2, 0, 1]) + rest
    return n[i] * v[j] - n[j] * v[i]


def real_dot(n, v: np.ndarray, batch: tuple[int, ...] = ()) -> np.ndarray:
    """n . v, summed in index order."""
    n, rest = _lift(np.asarray(n, dtype=float), batch), (slice(None),) * (2 + len(batch))
    c = [(..., i) + rest for i in range(3)]
    return n[c[0]] * v[c[0]] + n[c[1]] * v[c[1]] + n[c[2]] * v[c[2]]


# --- generator sets ---------------------------------------------------------

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_GELLMANN = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / np.sqrt(3.0),
)

KINDS = ("identity", "su2_spin_half", "su2_spin_one", "su3_gellmann", "custom")


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """An expansion basis {identity} + {G_1 ... G_n} for wave amplitudes.

    ``generators`` is one read-only complex array of shape (n, d, d).
    ``eta_scale`` is the scale s in ``tau x tau = i*s*eta``: hbar for the spin
    sets (where eta carries the Levi-Civita structure of S x S = i*hbar*S)
    and 1 for the Gell-Mann set (whose commutator convention 2i*f absorbs
    the factor into eta's structure-constant definition).  Sets compare
    and hash by identity.
    """

    kind: str
    dim: int
    generators: np.ndarray
    hbar: float = 1.0
    eta_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedGenerator(f"unknown generator kind {self.kind!r}")
        if self.hbar <= 0:
            raise InputError("hbar must be positive")
        gens = np.array(self.generators, dtype=complex)
        if gens.ndim != 3 or gens.shape[1:] != (self.dim, self.dim):
            raise DimMismatch("generator dimension mismatch")
        if not np.all(np.isfinite(gens)):
            raise NonFiniteValue("matrix entries must be finite")
        for g in gens:
            if operator_norm(g - g.conj().T) > HERMITICITY_TOL:
                raise ValueError("generators must be Hermitian")
        object.__setattr__(self, "generators", readonly(gens))

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """Identity followed by the generators, shape (n + 1, d, d), read-only;
        matches the R_0..R_n layout."""
        return readonly(np.concatenate([self.identity[None], self.generators]))

    @property
    def n_coeffs(self) -> int:
        return 1 + len(self.generators)

    @functools.cached_property
    def noncommuting_pairs(self) -> tuple[tuple[int, int], ...]:
        """Index pairs (l, m), 1-based as in R_l, of generators that fail to
        commute: the coefficient vectors that must be coplanar with k.  The
        test runs on the generators divided by their largest |entry|, so it
        holds at any hbar."""
        gs = self.generators / (np.abs(self.generators).max(initial=0.0) or 1.0)
        return tuple((a + 1, b + 1) for a in range(len(gs)) for b in range(a + 1, len(gs))
                     if operator_norm(commutator(gs[a], gs[b])) > 1e-12)


@functools.lru_cache(maxsize=64)
def make_generators(kind: str, hbar: float = 1.0) -> GeneratorSet:
    """Build one of the supported generator sets.

    Spin generators are scaled by hbar, which their set refuses unless it
    is positive; Gell-Mann matrices are returned exactly as printed and
    read no hbar (their set's is 1), so no hbar refuses them.  Memoized
    per (kind, hbar): a set is immutable (frozen, read-only matrices), so
    callers share one.
    """
    if kind == "su2_spin_half":
        gs = GeneratorSet(kind, 2, [0.5 * hbar * s for s in PAULI], hbar=hbar, eta_scale=hbar)
    elif kind == "su2_spin_one":
        sx = hbar / np.sqrt(2.0) * np.array(
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        sy = 1j * hbar / np.sqrt(2.0) * np.array(
            [[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex)
        sz = hbar * np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
        gs = GeneratorSet(kind, 3, [sx, sy, sz], hbar=hbar, eta_scale=hbar)
    elif kind == "su3_gellmann":
        gs = GeneratorSet(kind, 3, _GELLMANN, eta_scale=1.0)
        _validate_gellmann(gs)
        return gs
    else:
        raise UnsupportedGenerator(f"unsupported generator kind {kind!r}")
    _validate_su2(gs)
    return gs


def _validate_su2(gs: GeneratorSet):
    # [S_i, S_j] = i hbar S_k checked on S / hbar, so the bound holds at any
    # normal hbar; a NaN defect fails, as at a subnormal hbar, whose scaled
    # generators have lost their digits
    sx, sy, sz = gs.generators / gs.hbar
    for (a, b, c) in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
        defect = operator_norm(commutator(a, b) - 1j * c)
        if not defect <= HERMITICITY_TOL:
            raise InputError(f"SU(2) algebra violated at hbar = {gs.hbar!r}, defect {defect}")


def _validate_gellmann(gs: GeneratorSet):
    for a, ga in enumerate(gs.generators):
        if abs(np.trace(ga)) > HERMITICITY_TOL:
            raise ValueError("Gell-Mann matrices must be traceless")
        for b, gb in enumerate(gs.generators):
            want = 2.0 if a == b else 0.0
            if abs(np.trace(ga @ gb) - want) > HERMITICITY_TOL:
                raise ValueError("tr(G_a G_b) = 2 delta_ab violated")


def structure_constants(basis: GeneratorSet) -> tuple[np.ndarray, np.ndarray]:
    """Antisymmetric f and symmetric d constants from the trace formulas.

    Returns real rank-3 arrays of shape (n, n, n).  Raises
    NonTracelessBasis if any generator has |trace| > 1e-12; the identity
    kind has no structure constants at all.
    """
    if basis.kind == "identity" or not len(basis.generators):
        raise NonTracelessBasis("generator set has no non-identity members")
    mats = basis.generators
    if np.abs(np.trace(mats, axis1=1, axis2=2)).max() > 1e-12:
        raise NonTracelessBasis("structure constants need traceless generators")
    prod = np.einsum("bij,cjk->bcik", mats, mats)
    comm = prod - np.transpose(prod, (1, 0, 2, 3))
    acomm = prod + np.transpose(prod, (1, 0, 2, 3))
    f = -0.25j * np.einsum("aij,bcji->abc", mats, comm)
    d = 0.25 * np.einsum("aij,bcji->abc", mats, acomm)
    for name, arr in (("f", f), ("d", d)):
        if np.abs(arr.imag).max() > 1e-12:
            raise ValueError(f"{name} constants acquired imaginary part")
    return f.real.copy(), d.real.copy()


# The nonzero f_abc of the Gell-Mann set, up to the order of (a, b, c)
SU3_F_VALUES = {
    (1, 2, 3): 1.0,
    (1, 4, 7): 0.5, (2, 4, 6): 0.5, (2, 5, 7): 0.5, (3, 4, 5): 0.5,
    (1, 5, 6): -0.5, (3, 6, 7): -0.5,
    (4, 5, 8): np.sqrt(3.0) / 2.0, (6, 7, 8): np.sqrt(3.0) / 2.0,
}


def su3_columns() -> list[tuple]:
    """The structure-constant table checks that open the su3 report, as
    absolute (name, norm, 1.0) columns: each listed f_abc of the Gell-Mann
    set against its value, f's antisymmetry, and every unlisted f_abc zero."""
    f, _ = structure_constants(make_generators("su3_gellmann"))
    cols = [(f"f{a}{b}{c}", abs(f[a - 1, b - 1, c - 1] - want), 1.0)
            for (a, b, c), want in SU3_F_VALUES.items()]
    cols.append(("f_antisymmetry", np.abs(f + np.transpose(f, (0, 2, 1))).max(), 1.0))
    listed = np.zeros_like(f, dtype=bool)
    for (a, b, c) in SU3_F_VALUES:
        for perm in ((a, b, c), (b, c, a), (c, a, b), (a, c, b), (c, b, a), (b, a, c)):
            listed[perm[0] - 1, perm[1] - 1, perm[2] - 1] = True
    return cols + [("f_unlisted_vanish", np.abs(f[~listed]).max(), 1.0)]
