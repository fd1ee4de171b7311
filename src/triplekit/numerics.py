"""Dual-mode linear algebra substrate.

Every array in this package is either *rational* (numpy object arrays holding
``fractions.Fraction`` entries, decisions made with no tolerance) or *float*
(float64, decisions made against a ``TolerancePolicy``).  The mode of an array
is carried by its dtype; mixing modes inside one array is not supported.

Exact arrays stay ``Fraction`` at the API, but no exact kernel computes on
``Fraction`` objects.  ``numerators`` clears an exact array to integer
numerators over one common denominator, and every kernel works on those:

- ``contract_numerators`` runs ``tensordot`` in int64 when an a-priori bound
  rules out overflow and on Python ints (which grow instead of wrapping, and
  need no gcd) otherwise; ``contract`` chains the two and rescales the result
  to ``Fraction`` once.  Decision kernels test defects for zero on the
  numerators directly, and ``defect_size`` turns the largest one into an
  exact ``Fraction``.
- ``rref`` is fraction-free Gauss-Jordan elimination (Bareiss) on Python-int
  rows: every step divides exactly by the previous pivot, so the entries stay
  integer minors of the input.  ``span_basis``, ``nullspace``, ``inverse`` and
  the exact span kernel read its integers and build a ``Fraction`` only for
  the entries they return.

Float arrays pass through all of these with denominator 1.

Span membership and coordinates have one kernel, ``coordinates_in_span_many``.
It answers T targets against k basis rows in one row reduction (exact) or
one least-squares call (float) and returns arrays, not per-target results:
``coords`` of shape (T, k) in the basis' mode and a bool ``inside`` of shape
(T,); a row of ``coords`` means something only where ``inside`` is True.
Exact targets may come as ``(numerators, scale)``, as a contraction of
numerators leaves them, so no ``Fraction`` copy is built in between.
Structure checks build all their targets with one contraction and make one
call; ``coordinates_in_span`` is the one-target case.  Independence is the
same rule: ``span_basis`` returns the indices of the rows that kernel puts
outside the span of the rows kept before them, and an empty basis is no
exception (a float target is inside it when its norm is negligible).  A
basis is one (k, n) array, rows as vectors; ``nullspace`` gives one whose
rows are independent by construction, so it takes no ``span_basis`` pass.

Every zero decision on a defect goes through ``negligible``: an exact
defect must be 0, a float one at most eq_tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

RATIONAL = "rational"
FLOAT = "float"


@dataclass(frozen=True)
class TolerancePolicy:
    """Numeric thresholds used by float-mode decisions.

    eq_tol: entrywise equality and axiom-violation threshold.
    rank_tol: singular values below rank_tol * sigma_max count as zero.
    membership_tol: relative residual bound for span / subgroup membership.
    """

    eq_tol: float = 1e-9
    rank_tol: float = 1e-9
    membership_tol: float = 1e-8


DEFAULT_TOLERANCE = TolerancePolicy()


class ModeError(ValueError):
    """Raised when an operation receives an array in an unsupported mode."""


def mode_of(a: np.ndarray) -> str:
    return RATIONAL if a.dtype == object else FLOAT


def rational_array(data) -> np.ndarray:
    """Build an object-dtype array whose entries are Fractions."""
    arr = np.array(data, dtype=object)
    flat = arr.reshape(-1)
    for idx in range(flat.shape[0]):
        v = flat[idx]
        if isinstance(v, Fraction):
            continue
        if isinstance(v, str):
            flat[idx] = Fraction(v)
        elif isinstance(v, (int, np.integer)):
            flat[idx] = Fraction(int(v))
        else:
            raise ModeError(f"entry {v!r} is not exactly representable as a rational")
    return flat.reshape(arr.shape)


def float_array(data) -> np.ndarray:
    return np.array(data, dtype=float)


def zeros(shape, mode: str) -> np.ndarray:
    if mode == RATIONAL:
        arr = np.empty(shape, dtype=object)
        arr.reshape(-1)[:] = [Fraction(0)] * int(np.prod(shape, dtype=int))
        return arr
    return np.zeros(shape, dtype=float)


def identity(n: int, mode: str) -> np.ndarray:
    out = zeros((n, n), mode)
    np.fill_diagonal(out, Fraction(1) if mode == RATIONAL else 1.0)
    return out


def to_float(a: np.ndarray) -> np.ndarray:
    if mode_of(a) == FLOAT:
        return a
    return np.array([float(x) for x in a.reshape(-1)], dtype=float).reshape(a.shape)


def frobenius(a: np.ndarray) -> float:
    """Frobenius / Euclidean norm, returned as a float in either mode."""
    if mode_of(a) == RATIONAL:
        s = sum(float(x) ** 2 for x in a.reshape(-1))
        return math.sqrt(s)
    return float(np.linalg.norm(a.reshape(-1)))


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a float (T, n) array, as np.linalg.norm
    computes it.

    np.linalg.norm takes sqrt(v.dot(v)) of a row; a (1, n) @ (n, 1) product
    on a contiguous row is the same BLAS dot, so the bits agree.  A sum over
    axis=1 adds in another order and would not.
    """
    rows = np.ascontiguousarray(a)[:, np.newaxis, :]
    return np.sqrt((rows @ rows.transpose(0, 2, 1))[:, 0, 0])


def max_abs(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    if mode_of(a) == RATIONAL:
        return max(abs(float(x)) for x in a.reshape(-1))
    return float(np.max(np.abs(a)))


# An integer contraction runs in int64 only while its a-priori bound stays
# below this; numpy's int64 products wrap silently past 2**63.
INT64_BOUND = 2 ** 62


def numerators(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer numerators over one common denominator.

    Returns (n, s) with a == n / s entrywise, where s >= 1 is the lcm of the
    entry denominators and n is an object array of Python ints.  Float arrays
    pass through as (a, 1).
    """
    if mode_of(a) == FLOAT:
        return a, 1
    flat = a.reshape(-1)
    s = math.lcm(*[x.denominator for x in flat])
    n = np.array([x.numerator * (s // x.denominator) for x in flat], dtype=object)
    return n.reshape(a.shape), s


def rescale(n: np.ndarray, s: int) -> np.ndarray:
    """Inverse of numerators: the Fraction array n / s; float arrays pass through."""
    if n.dtype.kind == "f":
        return n
    if s == 1:
        out = [Fraction(int(v)) for v in n.reshape(-1)]
    else:
        out = [Fraction(int(v), s) for v in n.reshape(-1)]
    return np.array(out, dtype=object).reshape(n.shape)


def _max_abs_int(n: np.ndarray) -> int:
    """Largest absolute entry of an integer array (int64 or Python ints)."""
    return int(np.max(np.abs(n))) if n.size else 0


def _contracted_size(a: np.ndarray, axes) -> int:
    if isinstance(axes, int):
        return math.prod(a.shape[a.ndim - axes:])
    ax = axes[0]
    return math.prod(a.shape[i] for i in ([ax] if isinstance(ax, int) else ax))


def int64_numerators(n: np.ndarray, terms: int, k: int) -> np.ndarray:
    """Integer numerators in int64 when contract_numerators would run every
    contraction of n with a part of itself in int64 anyway: sums of terms
    contractions over k indices stay below 2**62.  Otherwise, and for float
    arrays, n is returned unchanged.  An operand contracted many times is
    cleared once, not in every call.
    """
    if n.dtype != object:
        return n
    top = _max_abs_int(n)
    return n.astype(np.int64) if terms * k * top * top < INT64_BOUND else n


def contract_numerators(na: np.ndarray, nb: np.ndarray, axes=2, terms: int = 1) -> np.ndarray:
    """np.tensordot of two numerator arrays from numerators, not rescaled.

    Float arrays go straight to np.tensordot.  Integer arrays run in int64
    when terms * k * max|a| * max|b| < 2**62 and each operand fits, with k
    the product of the contracted sizes and terms the number of such
    contractions the caller adds together; otherwise they run on Python
    ints, which grow instead of wrapping.  The result is exact either way.
    """
    if na.dtype.kind == "f" or nb.dtype.kind == "f":
        return np.tensordot(na, nb, axes)
    ma, mb = _max_abs_int(na), _max_abs_int(nb)
    # the operands must fit on their own too: an empty one makes the product 0
    bound = max(terms * _contracted_size(na, axes) * ma * mb, ma, mb)
    dtype = np.int64 if bound < INT64_BOUND else object
    return np.tensordot(na.astype(dtype), nb.astype(dtype), axes)


def contract(a: np.ndarray, b: np.ndarray, axes=2) -> np.ndarray:
    """np.tensordot in either mode; exact operands give the exact result.

    Exact operands are cleared to integer numerators, contracted by
    contract_numerators and rescaled once.  Mixed modes raise ModeError.
    """
    if mode_of(a) != mode_of(b):
        raise ModeError("contract needs both operands in one mode")
    na, sa = numerators(a)
    nb, sb = numerators(b)
    return rescale(contract_numerators(na, nb, axes), sa * sb)


def commutators(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """[L_i, R_j] = L_i R_j - R_j L_i for stacks of square matrices.

    left has shape (p, n, n) and right (q, n, n); the result has shape
    (p, q, n, n) and comes from two batched contractions.
    """
    if mode_of(left) != mode_of(right):
        raise ModeError("commutators need both stacks in one mode")
    nl, sl = numerators(left)
    nr, sr = numerators(right)
    lr = contract_numerators(nl, nr, ([2], [1]), terms=2).transpose(0, 2, 1, 3)
    rl = contract_numerators(nr, nl, ([2], [1]), terms=2).transpose(2, 0, 1, 3)
    lr -= rl  # in place: a third array of the result's size would raise peak memory
    return rescale(lr, sl * sr)


def difference(a: np.ndarray, sa: int, b: np.ndarray, sb: int) -> tuple[np.ndarray, int]:
    """Numerators and denominator of a / sa - b / sb, over lcm(sa, sb).

    Integer arrays move to Python ints when a rescaled term could reach
    2**62; float arrays (denominator 1) subtract directly.
    """
    s = math.lcm(sa, sb)
    fa, fb = s // sa, s // sb
    if (fa != 1 or fb != 1) and fa * _max_abs_int(a) + fb * _max_abs_int(b) >= INT64_BOUND:
        a, b = a.astype(object), b.astype(object)
    return a * fa - b * fb, s


def defect_size(n: np.ndarray, s: int = 1):
    """Largest absolute entry of a defect n / s.

    Integer numerators give the exact Fraction max|n| / s, so a zero test
    on it is exact and float() of it is correctly rounded; float arrays give
    a float.
    """
    if n.dtype.kind == "f":
        return max_abs(n)
    return Fraction(_max_abs_int(n), s)


def negligible(defect, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    """Whether a defect size decides "zero".

    An exact defect (a Fraction, as defect_size gives it for integer
    numerators) must be 0; a float one may be at most eq_tol.
    """
    if isinstance(defect, float):
        return defect <= tol.eq_tol
    return defect == 0


def rref(n: np.ndarray, pivot_limit: int | None = None) -> tuple[np.ndarray, int, list[int]]:
    """Fraction-free reduced row echelon form of an integer matrix.

    n holds integers (Python ints or int64), such as the numerators of an
    exact matrix a = n / s.  Returns (m, top, pivots): m is an object array
    of Python ints, top the last pivot (1 when there is none) and pivots the
    pivot column indices.  Pivot rows of m are top times the reduced rows of
    a; the rows below them are top * s times the residual rows that Gauss-
    Jordan elimination over the rationals leaves.  When pivot_limit is given,
    pivots are only chosen in the first pivot_limit columns; elimination
    still clears full rows, which is what augmented multi-column solves need.

    Each step takes the first nonzero entry p at or below the pivot row and
    sets row_i = (p * row_i - f * row_r) // prev for every other row i, with
    f its entry in the pivot column and prev the previous pivot; the
    division is exact (Bareiss 1968).  A row whose f is zero only gains the
    factor p / prev, so it is scaled once, when it is next needed: each row
    keeps the pivot it was last brought up to.
    """
    if n.dtype.kind == "f":
        raise ModeError("rref takes integer numerators")
    rows, cols = n.shape
    m = n.tolist()
    base = [1] * rows          # row i holds its value times base[i] / prev
    pivots: list[int] = []
    prev, r = 1, 0
    span = cols if pivot_limit is None else min(pivot_limit, cols)
    for c in range(span):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        base[r], base[pivot_row] = base[pivot_row], base[r]
        top = m[r] if base[r] == prev else [x * prev // base[r] for x in m[r]]
        p = top[c]
        for i, row in enumerate(m):
            if i == r or not row[c]:
                continue
            if base[i] != prev:
                row = [x * prev // base[i] for x in row]
            f = row[c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            base[i] = p
        m[r], base[r] = top, p
        pivots.append(c)
        prev = p
        r += 1
    for i, row in enumerate(m):
        if base[i] != prev and any(row):
            m[i] = [x * prev // base[i] for x in row]
    return np.array(m, dtype=object).reshape(rows, cols), prev, pivots


def nullspace(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> np.ndarray:
    """Basis of the right nullspace: independent rows of one (k, cols) array
    in the mode of a.

    Rational mode parameterizes the free columns of the RREF, a canonical
    basis with unit entries in the free positions, built in one piece from
    the integer reduction: top on the free columns and the negated pivot
    rows on the pivots, divided by top once.  Float mode takes the right
    singular vectors whose singular values fall below rank_tol * sigma_max.
    Only a wide matrix needs the full V (its nullspace lies past the last
    singular value); a tall one takes the reduced SVD, whose V equals the
    full one, and never builds the rows x rows U.
    """
    rows, cols = a.shape
    if mode_of(a) == RATIONAL:
        red, top, pivots = rref(numerators(a)[0])
        free = [c for c in range(cols) if c not in pivots]
        n = np.zeros((len(free), cols), dtype=object)
        n[:, free] = np.eye(len(free), dtype=object) * top
        n[:, pivots] = -red[:len(pivots), free].T
        return rescale(n, top)
    if rows == 0:
        return np.eye(cols)
    _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
    smax = s[0] if s.size else 0.0
    return vh[[i for i in range(cols) if i >= s.size or s[i] <= tol.rank_tol * smax]]


def span_basis(vectors, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> list[int]:
    """Indices of a greedy maximal independent subset of the rows, in order.

    A row is kept when coordinates_in_span puts it outside the span of the
    rows kept before it.  Exact rows take one reduction of their stack as
    columns instead: a column is a pivot exactly when its row is outside the
    span of the ones before it, which is the same greedy choice.
    """
    stack = np.asarray(vectors)
    if mode_of(stack) == RATIONAL:
        return rref(numerators(stack)[0].T)[2]
    kept: list[int] = []
    for i, v in enumerate(stack):
        if coordinates_in_span(stack[kept], v, tol) is None:
            kept.append(i)
    return kept


def _times(n: np.ndarray, factor: int) -> np.ndarray:
    """Integer array n times factor; a product is taken on Python ints, which
    cannot wrap."""
    return n if factor == 1 else n.astype(object) * factor


def inverse(a: np.ndarray) -> np.ndarray:
    """Matrix inverse in either mode; exact mode uses one augmented row
    reduction of the numerators and divides its right block by the last
    pivot."""
    if mode_of(a) == FLOAT:
        return np.linalg.inv(a)
    n = a.shape[0]
    num, s = numerators(a)
    eye = _times(np.eye(n, dtype=np.int64), s)
    red, top, pivots = rref(np.concatenate([num, eye], axis=1), pivot_limit=n)
    if len(pivots) < n:
        raise np.linalg.LinAlgError("Singular matrix")
    return rescale(red[:, n:], top)


def coordinates_in_span(basis, v: np.ndarray,
                        tol: TolerancePolicy = DEFAULT_TOLERANCE) -> np.ndarray | None:
    """Coordinates of v in the row span of basis, or None if v is outside.

    One target of coordinates_in_span_many, with the same rule.
    """
    coords, inside = coordinates_in_span_many(basis, [v], tol)
    return coords[0] if inside[0] else None


def coordinates_in_span_many(basis, targets, tol: TolerancePolicy = DEFAULT_TOLERANCE
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Span coordinates and membership of many targets in one solve.

    basis holds k vectors of length n as rows (a (k, n) array or a list of
    vectors), targets holds T of them, or is a pair (numerators, scale) of a
    (T, n) array and its denominator, as numerators and contract_numerators
    give it (float targets take scale 1).  Returns (coords, inside): coords
    has shape (T, k), in the basis' mode, and coords[t] @ basis ==
    targets[t] wherever the bool array inside, shape (T,), is True.  Rows
    where inside is False mean nothing.

    Exact mode brings basis and target numerators to one denominator and
    reads both from one row reduction of [basis^T | targets^T] with pivots
    limited to the basis columns: a target is inside when its column
    vanishes below the pivot rows, and its pivot entries over the last pivot
    are its coordinates (zero on dependent basis vectors).  Float mode makes
    one stacked least-squares call and accepts a target when its residual is
    at most membership_tol * max(1, |target|).  An empty basis takes the
    same path: exact targets are inside only when zero, float ones when
    |target| itself is within that bound.
    """
    bmat = np.asarray(basis)
    scaled = isinstance(targets, tuple) and len(targets) == 2 and np.ndim(targets[1]) == 0
    tmat = np.asarray(targets[0] if scaled else targets)
    tmode = RATIONAL if scaled and tmat.dtype.kind != "f" else mode_of(tmat)
    k, count = len(bmat), len(tmat)
    mode = mode_of(bmat) if k else tmode
    if not count:
        return zeros((0, k), mode), np.zeros(0, dtype=bool)
    if not k:
        bmat = zeros((0, tmat.shape[1]), mode)
    if mode == RATIONAL:
        if tmode != RATIONAL:
            raise ModeError("exact basis with float targets")
        nb, sb = numerators(bmat)
        nt, st = (tmat, targets[1]) if scaled else numerators(tmat)
        s = math.lcm(sb, st)
        aug = np.concatenate([_times(nb, s // sb).T, _times(nt, s // st).T], axis=1)
        red, top, pivots = rref(aug, pivot_limit=k)
        coords = zeros((count, k), RATIONAL)
        coords[:, pivots] = rescale(red[:len(pivots), k:].T, top)
        return coords, (red[len(pivots):, k:] == 0).all(axis=0)
    coords, _, _, _ = np.linalg.lstsq(bmat.T, tmat.T, rcond=None)
    resid = row_norms(np.subtract((bmat.T @ coords).T, tmat, order="C"))
    inside = resid <= tol.membership_tol * np.maximum(1.0, row_norms(tmat))
    return coords.T, inside


# Coefficients of the degree-13 Pade approximant to exp, fixed so that the
# exponential is bit-for-bit reproducible across runs and platforms.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)


def matrix_exp(x: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Pade form.

    x is one matrix, shape (n, n), or a stack of them, shape (k, n, n); the
    result has the shape of x.  A single matrix is a stack of one, and each
    slice gets its own 1-norm and squaring count, so slice i of a stacked
    call equals matrix_exp(x[i]) bit for bit: the products are stacked @,
    the solve is one LAPACK gesv per slice, and a slice is squared only
    while its own count lasts.

    Rejects rational mode: the exponential is transcendental, so there is no
    exact-mode variant.  Accurate to eq_tol for inputs with norm up to ~50.
    """
    if mode_of(x) == RATIONAL:
        raise ModeError("matrix_exp requires float mode; the result is transcendental")
    stack = x if x.ndim == 3 else x[np.newaxis]
    theta13 = 5.371920351148152
    squarings = np.array([int(math.ceil(math.log2(norm / theta13))) if norm > theta13 else 0
                          for norm in np.linalg.norm(stack, 1, axis=(1, 2))], dtype=int)
    a = stack / (2.0 ** squarings)[:, np.newaxis, np.newaxis]
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    ident = np.eye(stack.shape[-1])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for step in range(int(squarings.max(initial=0))):
        live = np.flatnonzero(squarings > step)
        r[live] = r[live] @ r[live]
    return r if x.ndim == 3 else r[0]


def realify(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Real 2n x 2n image [[Re, -Im], [Im, Re]] of a complex n x n matrix.

    Works in both modes; re and im must share one mode.
    """
    n = re.shape[0]
    mode = mode_of(re)
    out = zeros((2 * n, 2 * n), mode)
    out[:n, :n] = re
    out[:n, n:] = -im
    out[n:, :n] = im
    out[n:, n:] = re
    return out


def realify_complex(z: np.ndarray) -> np.ndarray:
    return realify(np.real(z).astype(float), np.imag(z).astype(float))
