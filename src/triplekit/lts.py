"""Lie triple systems stored as dense rank-4 coefficient tensors.

tensor[i, j, k, l] is the l-th coordinate of the bracket of the i-th, j-th and
k-th basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from triplekit import numerics as nx
from triplekit.numerics import DEFAULT_TOLERANCE, FLOAT, RATIONAL, TolerancePolicy

# verify_axioms takes O(dim^7) time and O(dim^5) memory.  On a 2-CPU Xeon
# with one BLAS thread a float check of a random tensor took 0.6 s with a
# 58.5 MiB tracemalloc peak at dim 18 and 6.2 s with 245 MiB at dim 24,
# which extrapolates to about 46 s and 1.0 GiB at the cap.
MAX_DIM = 32

# entries of the derivation defect that verify_axioms holds at once, unless
# one output slab (dim^5 entries) is larger
SLAB_ENTRIES = 1 << 16

PATH_ZERO_AT_START = "path_zero_at_start"
LOOP_ZERO_AT_BOTH_ENDS = "loop_zero_at_both_ends"


class LtsStructureError(ValueError):
    pass


class NotAnIdealError(LtsStructureError):
    pass


class ModeMismatchError(LtsStructureError):
    pass


@dataclass(frozen=True)
class LieTripleSystem:
    dim: int
    tensor: np.ndarray
    mode: str
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.dim > MAX_DIM:
            raise LtsStructureError(f"dimension {self.dim} exceeds the cap {MAX_DIM}")
        if self.tensor.shape != (self.dim,) * 4:
            raise LtsStructureError("tensor shape does not match dim")
        if nx.mode_of(self.tensor) != self.mode:
            raise ModeMismatchError("tensor dtype does not match declared mode")
        if self.mode == FLOAT and not np.isfinite(self.tensor).all():
            raise LtsStructureError("tensor has a non-finite entry")
        if self.labels is not None and len(self.labels) != self.dim:
            raise LtsStructureError("label count does not match dim")

    def to_float(self) -> "LieTripleSystem":
        if self.mode == FLOAT:
            return self
        return LieTripleSystem(self.dim, nx.to_float(self.tensor), FLOAT, self.labels)


@dataclass(frozen=True)
class Subspace:
    """Span of the independent rows of a (k, n) array; dimension, ambient
    dimension and mode are read off it.  Rows that may be dependent go
    through subspace_from_vectors."""
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def parent_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def mode(self) -> str:
        return nx.mode_of(self.basis)

    def contains(self, v: np.ndarray, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
        return self.contains_all([v], tol)

    def contains_all(self, vectors, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
        """Whether every vector lies in the span: rows of an array, a list, or
        a pair (numerators, scale) as nx.coordinates_in_span_many takes it."""
        return bool(nx.coordinates_in_span_many(self.basis, vectors, tol)[1].all())

    def equals(self, other: "Subspace", tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
        return self.contains_all(other.basis, tol) and other.contains_all(self.basis, tol)


def subspace_from_vectors(vectors: np.ndarray,
                          tol: TolerancePolicy = DEFAULT_TOLERANCE) -> Subspace:
    """Span of the rows of a (T, n) array that may be dependent: the rows
    nx.span_basis keeps, in order."""
    return Subspace(vectors[nx.span_basis(vectors, tol)])


@dataclass(frozen=True)
class LtsMorphism:
    source: LieTripleSystem
    target: LieTripleSystem
    matrix: np.ndarray  # shape (target.dim, source.dim), acts on coordinate columns
    certified: bool = False


@dataclass(frozen=True)
class GridPathSystem:
    """Finite grid surrogate for a path or loop space over a base system.

    Nodes carry one copy of the base; the bracket acts node by node.  Fixed
    endpoint values are pinned to zero and do not appear as coordinates.
    """
    base: LieTripleSystem
    grid_size: int
    constraint: str
    system: LieTripleSystem = field(compare=False)


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    worst_violation: float
    identity: str | None = None
    witness: tuple | None = None


def verify_axioms(m: LieTripleSystem, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> AxiomReport:
    """Check the three defining identities on all basis tuples.

    Multilinearity makes basis tuples sufficient.  Exact mode runs the
    identities on the integer numerators of the tensor and demands zero
    defect; float mode compares against eq_tol.  The witness is the first
    basis tuple attaining the worst defect.

    The derivation identity D[i, j, u, v, w, l] is taken a block of output
    slabs D[..., l0:l1] at a time, at most SLAB_ENTRIES entries or one
    slab, so memory stays O(d^5).  A block contracts the whole tensor with
    c[..., l0:l1]: each product keeps the full left operand of the d^6
    contraction and only loses columns.  The witness is the first argmax
    over all of D, as if D were one array.
    """
    d = m.dim
    c, s = nx.numerators(m.tensor)
    worst = 0.0
    worst_name = None
    worst_witness = None
    for name, defect in (
            ("left_antisymmetry", c + c.transpose(1, 0, 2, 3)),
            ("cyclic_sum", c + c.transpose(2, 0, 1, 3) + c.transpose(1, 2, 0, 3))):
        v = nx.defect_size(defect, s)
        if v > worst:
            worst, worst_name = v, name
            worst_witness = np.unravel_index(int(np.argmax(np.abs(defect))), defect.shape)

    # derivation identity, four terms in index order (i, j, u, v, w, l):
    # c[u,v,w,m] c[i,j,m,l] - c[i,j,u,m] c[m,v,w,l] - c[i,j,v,m] c[u,m,w,l]
    # - c[i,j,w,m] c[u,v,m,l].  One contraction p[x,y,z,a,b,l] =
    # c[x,y,z,m] c[a,b,m,l] gives the first term and the last.
    c = nx.int64_numerators(c, terms=4, k=d)
    step = max(1, SLAB_ENTRIES // max(1, d ** 5))
    size, first = 0, None     # largest |D| and its first flat index in D
    for l0 in range(0, d, step):
        cl = c[..., l0:l0 + step]
        p = nx.contract_numerators(c, cl, axes=([3], [2]), terms=4)
        block = p.transpose(3, 4, 0, 1, 2, 5) \
            - nx.contract_numerators(c, cl, axes=([3], [0]), terms=4)
        block -= nx.contract_numerators(c, cl, axes=([3], [1]), terms=4).transpose(0, 1, 3, 2, 4, 5)
        block -= p.transpose(0, 1, 3, 4, 2, 5)
        top = nx.defect_size(block, s * s)
        # the flat index of (i, j, u, v, w, l) in D is pos * d + l, so ties
        # go to the first tuple, as one argmax over all of D would choose
        if top > 0 and top >= size:
            pos, lc = divmod(int(np.argmax(np.abs(block))), block.shape[-1])
            flat = pos * d + l0 + lc
            if top > size or flat < first:
                size, first = top, flat
    if size > worst:
        worst, worst_name = size, "derivation"
        worst_witness = np.unravel_index(first, (d,) * 6)

    ok = nx.negligible(worst, tol)
    return AxiomReport(ok, float(worst), None if ok else worst_name,
                       None if ok else worst_witness)


def center(m: LieTripleSystem, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> Subspace:
    """Joint kernel of x -> bracket(x, e_j, e_k) over all j, k.

    Also verifies the two lateral vanishing properties and the ideal property
    of the result; failure of either means the tensor is not a Lie triple
    system and raises LtsStructureError.
    """
    d = m.dim
    stacked = m.tensor.transpose(1, 2, 3, 0).reshape(d * d * d, d)
    z = Subspace(nx.nullspace(stacked, tol))
    b, sb = nx.numerators(z.basis)
    c, sc = nx.numerators(m.tensor)
    mid = nx.contract_numerators(b, c, axes=(1, 1))    # bracket(., v, .) per basis v
    last = nx.contract_numerators(b, c, axes=(1, 2))   # bracket(., ., v) per basis v
    if not (nx.negligible(nx.defect_size(mid, sb * sc), tol)
            and nx.negligible(nx.defect_size(last, sb * sc), tol)):
        raise LtsStructureError("central vector fails a lateral identity; tensor is not an LTS")
    if z.dim and not is_ideal(m, z, tol):
        raise LtsStructureError("center is not an ideal; tensor is not an LTS")
    return z


def is_subsystem(m: LieTripleSystem, sub: Subspace, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    b, sb = nx.numerators(sub.basis)
    c, sc = nx.numerators(m.tensor)
    t = nx.contract_numerators(b, c, axes=([1], [0]))          # [a,j,k,l]
    t = nx.contract_numerators(b, t, axes=([1], [1]))          # [b,a,k,l]
    t = nx.contract_numerators(b, t, axes=([1], [2]))          # [c,b,a,l]
    return sub.contains_all((t.reshape(sub.dim ** 3, m.dim), sb ** 3 * sc), tol)


def is_ideal(m: LieTripleSystem, sub: Subspace, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    """Test bracket(n, m, m) inside n; on success assert the two companion
    containments, which are automatic for a genuine LTS.  The brackets go to
    the span test as numerators over one scale."""
    rows = (sub.dim * m.dim * m.dim, m.dim)
    b, sb = nx.numerators(sub.basis)
    c, sc = nx.numerators(m.tensor)
    first = nx.contract_numerators(b, c, axes=([1], [0]))      # bracket(x, ., .)
    if not sub.contains_all((first.reshape(rows), sb * sc), tol):
        return False
    mid = nx.contract_numerators(b, c, axes=([1], [1]))        # bracket(., x, .)
    last = nx.contract_numerators(b, c, axes=([1], [2]))       # bracket(., ., x)
    if not sub.contains_all((np.concatenate([mid.reshape(rows), last.reshape(rows)]), sb * sc),
                            tol):
        raise LtsStructureError("ideal closure is one-sided; tensor is not a Lie triple system")
    return True


def quotient(m: LieTripleSystem, ideal: Subspace,
             tol: TolerancePolicy = DEFAULT_TOLERANCE) -> tuple[LieTripleSystem, LtsMorphism]:
    """Quotient system and the certified projection onto it.

    One greedy nx.span_basis pass over the ideal's rows, then the standard
    basis, keeps a basis of the ideal and, after it, the unit vectors of the
    complement, so quotient coordinates are reproducible.
    """
    if not is_ideal(m, ideal, tol):
        raise NotAnIdealError("subspace is not an ideal")
    rows = np.concatenate([ideal.basis, nx.identity(m.dim, m.mode)])
    kept = nx.span_basis(rows, tol)
    split = sum(i < ideal.dim for i in kept)
    q = len(kept) - split
    # rows: complement then ideal; coordinates of x are solve(B^T a = x), so
    # the projection is the first q rows of the inverse of B^T, shape (q, d)
    b = rows[kept[split:] + kept[:split]]
    proj = nx.inverse(b.T)[:q]
    comp = b[:q]
    # tensor[a, b, c, :] = proj applied to bracket(comp_a, comp_b, comp_c)
    t = nx.contract(comp, m.tensor, axes=([1], [0]))                        # [a,j,k,l]
    t = nx.contract(t, comp, axes=([1], [1])).transpose(0, 3, 1, 2)         # [a,b,k,l]
    t = nx.contract(t, comp, axes=([2], [1])).transpose(0, 1, 3, 2)         # [a,b,c,l]
    tensor = nx.contract(t, proj, axes=([3], [1]))
    labels = None
    if m.labels:
        labels = tuple(f"q{idx}" for idx in range(q))
    qsys = LieTripleSystem(q, tensor, m.mode, labels)
    morphism = certify_morphism(LtsMorphism(m, qsys, proj), tol)
    return qsys, morphism


def direct_product(m1: LieTripleSystem, m2: LieTripleSystem) -> LieTripleSystem:
    if m1.mode != m2.mode:
        raise ModeMismatchError("direct product requires matching scalar modes")
    d1, d2 = m1.dim, m2.dim
    d = d1 + d2
    tensor = nx.zeros((d, d, d, d), m1.mode)
    tensor[:d1, :d1, :d1, :d1] = m1.tensor
    tensor[d1:, d1:, d1:, d1:] = m2.tensor
    labels = None
    if m1.labels and m2.labels:
        labels = tuple(f"L.{s}" for s in m1.labels) + tuple(f"R.{s}" for s in m2.labels)
    return LieTripleSystem(d, tensor, m1.mode, labels)


def grid_path_system(base: LieTripleSystem, grid_size: int, constraint: str) -> GridPathSystem:
    if constraint not in (PATH_ZERO_AT_START, LOOP_ZERO_AT_BOTH_ENDS):
        raise LtsStructureError(f"unknown grid constraint {constraint!r}")
    if constraint == PATH_ZERO_AT_START and grid_size < 2:
        raise LtsStructureError("path grids need at least 2 nodes")
    if constraint == LOOP_ZERO_AT_BOTH_ENDS and grid_size < 3:
        raise LtsStructureError("loop grids need at least 3 nodes")
    free = grid_size - 1 if constraint == PATH_ZERO_AT_START else grid_size - 2
    d = base.dim
    total = free * d
    tensor = nx.zeros((total, total, total, total), base.mode)
    for node in range(free):
        s = slice(node * d, (node + 1) * d)
        tensor[s, s, s, s] = base.tensor
    base_labels = base.labels or tuple(f"e{i}" for i in range(d))
    labels = tuple(f"{lab}@t{node + 1}" for node in range(free) for lab in base_labels)
    system = LieTripleSystem(total, tensor, base.mode, labels)
    return GridPathSystem(base, grid_size, constraint, system)


def grid_node_embedding(grid: GridPathSystem, sub: Subspace) -> Subspace:
    """Block embedding of a base subspace into every free node of a grid."""
    d, k = grid.base.dim, sub.dim
    free = grid.system.dim // d
    basis = nx.zeros((free * k, free * d), grid.base.mode)
    for node in range(free):
        basis[node * k:(node + 1) * k, node * d:(node + 1) * d] = sub.basis
    return Subspace(basis)


def certify_morphism(f: LtsMorphism, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> LtsMorphism:
    """Return a copy with certified set iff f respects brackets on all basis triples.

    Compares F.C_src with C_tgt o (F, F, F) over every basis triple at once,
    in four contractions on numerators.  The threshold is zero when source
    and target are exact and eq_tol otherwise.  When the matrix is exact too
    the difference of the sides is tested for zero on its numerators;
    otherwise all three are taken to float.
    """
    thr = 0.0 if f.source.mode == RATIONAL and f.target.mode == RATIONAL else tol.eq_tol
    fm, src, tgt = f.matrix, f.source.tensor, f.target.tensor
    if not all(nx.mode_of(a) == RATIONAL for a in (fm, src, tgt)):
        fm, src, tgt = nx.to_float(fm), nx.to_float(src), nx.to_float(tgt)
    fm, sf = nx.numerators(fm)
    src, ss = nx.numerators(src)
    tgt, st = nx.numerators(tgt)
    lhs = nx.contract_numerators(src, fm, axes=([3], [1]))         # [i,j,k,p]
    rhs = nx.contract_numerators(fm, tgt, axes=([0], [0]))         # [i,b,c,p]
    rhs = nx.contract_numerators(rhs, fm, axes=([1], [0]))         # [i,c,p,j]
    rhs = nx.contract_numerators(rhs, fm, axes=([1], [0])).transpose(0, 2, 3, 1)
    ok = nx.defect_size(*nx.difference(lhs, ss * sf, rhs, st * sf ** 3)) <= thr
    return replace(f, certified=bool(ok))
