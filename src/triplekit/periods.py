"""Kernel lattices of the exponential along central directions, and
discreteness decisions for finitely generated subgroups of R^d.

A reminder that reports repeat: in finite dimension, the kernel of the space
exponential over a simply connected total space is trivial.  The nonzero
lattices computed here (pi for the unitary-over-orthogonal family, 2 pi for
the group case) are kernels over the compact, non-simply-connected total
spaces themselves, which is exactly what makes them useful as finite
surrogates for the infinite-dimensional statements.

The kernel along a central direction z is read off the spectrum of z.
Every pair's K is its full sigma-fixed group and z is odd, so Exp(t z) is
the base point exactly when exp(2 t z) = I: the lattice (pi / mu) Z for one
frequency mu, checked by one matrix exponential, and never sampled.

Discreteness of a finitely generated subgroup is decided on two routes.
Exact rational generators always span a lattice, and integer row reduction
certifies it.  Float generators go through an integer-relation search on a
scaled lattice (reduction plus bounded enumeration); that route can return an
explicit short-combination witness, a certified Discrete verdict, or an
honest Inconclusive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from triplekit import numerics as nx
from triplekit import lts as lt
from triplekit import sympair as sp
from triplekit.numerics import DEFAULT_TOLERANCE, FLOAT, RATIONAL, TolerancePolicy

DISCRETE = "Discrete"
NON_DISCRETE_WITNESS = "NonDiscreteWitness"
INCONCLUSIVE = "Inconclusive"

FINITE_DIMENSION_CAVEAT = (
    "Over a simply connected total space a finite-dimensional exponential "
    "kernel is trivial; the nonzero lattices reported here are kernels over "
    "compact non-simply-connected total spaces, used as finite surrogates."
)


class CenterMismatchError(ValueError):
    """The requested direction is not central in the derived triple system."""


@dataclass(frozen=True)
class SubgroupSearchConfig:
    epsilon: float = 1e-6
    coefficient_bound: int = 10 ** 6


@dataclass(frozen=True)
class Witness:
    coefficients: tuple[int, ...]
    vector: np.ndarray
    norm: float


@dataclass(frozen=True)
class KernelLattice:
    ambient_dim: int
    generators: tuple
    verdict: str
    witness: Witness | None = None
    meta: dict = field(default_factory=dict, compare=False)


# ------------------------------------------------------------- exact lattices

def integer_row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Hermite-style row reduction by unimodular operations.

    The integer row span is preserved exactly, so the output rows are a
    canonical basis of the generated subgroup.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    row = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(row, len(work)) if work[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(work[i][col]))
            work[row], work[piv] = work[piv], work[row]
            finished = True
            for i in range(row + 1, len(work)):
                if work[i][col] != 0:
                    q = work[i][col] // work[row][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[row])]
                    if work[i][col] != 0:
                        finished = False
            if finished:
                break
        if any(work[i][col] != 0 for i in range(row, len(work))):
            if work[row][col] < 0:
                work[row] = [-a for a in work[row]]
            for i in range(row):  # canonical: entries above pivots reduced
                q = work[i][col] // work[row][col]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[row])]
            row += 1
            if row == len(work):
                break
    return [r for r in work[:row]]


def _exact_subgroup(generators) -> KernelLattice:
    num, denom = nx.numerators(np.array(generators, dtype=object))
    basis = nx.rescale(np.array(integer_row_hnf(num.tolist()), dtype=object), denom)
    # rational generators always span a lattice: rank <= d, zero isolated
    return KernelLattice(num.shape[1], tuple(basis), DISCRETE,
                         meta={"route": "integer_row_reduction",
                               "caveat": FINITE_DIMENSION_CAVEAT})


# -------------------------------------------------------------- float lattices

class _GramSchmidt:
    """Float Gram-Schmidt data of integer rows, kept across reduction steps.

    Row i of ortho, mu and norms depends only on rows 0..i, so changing row i
    invalidates rows i onward and nothing before.  ensure(i) recomputes the
    invalid rows up to i, each with the operations and in the order of a pass
    from scratch, so every value equals, bit for bit, the one a full
    recomputation would give.
    """

    def __init__(self, rows: list[list[int]]):
        self.rows = rows  # shared with the caller, who edits it in place
        n, m = len(rows), len(rows[0]) if rows else 0
        self.floats = np.zeros((n, m))
        self.ortho = np.zeros((n, m))
        self.mu = np.zeros((n, n))
        self.norms = np.zeros(n)  # squared lengths of the ortho rows
        self.valid = 0

    def invalidate(self, i: int) -> None:
        self.valid = min(self.valid, i)

    def ensure(self, i: int) -> None:
        floats, ortho, mu, norms = self.floats, self.ortho, self.mu, self.norms
        for r in range(self.valid, i + 1):
            floats[r] = np.array(self.rows[r], dtype=float)
            ortho[r] = floats[r]
            for j in range(r):
                denom = norms[j]
                mu[r, j] = float(floats[r] @ ortho[j]) / denom if denom > 0 else 0.0
                ortho[r] = ortho[r] - mu[r, j] * ortho[j]
            norms[r] = float(ortho[r] @ ortho[r])
        self.valid = max(self.valid, i + 1)


@dataclass(frozen=True)
class _Reduction:
    basis: list[list[int]]
    iterations: int
    capped: bool          # max_iters stopped the reduction early
    norms: np.ndarray     # squared Gram-Schmidt lengths of basis


def _lll_reduce_int(rows: list[list[int]], max_iters: int = 20000) -> _Reduction:
    """LLL reduction (delta = 0.99) of integer rows, Gram-Schmidt in float.

    The rows stay exact integers and every step is unimodular, so the basis
    always spans the input lattice; float round-off can only leave it less
    reduced.  Nothing is re-verified exactly afterwards: the caller recomputes
    each enumerated combination in float from its integer coefficients, and
    the Discrete certificate reads the float Gram-Schmidt norms returned here.
    The Gram-Schmidt data persists between steps: a size reduction of row k
    recomputes row k, a swap of rows k-1 and k recomputes from row k-1 on.
    """
    b = [list(r) for r in rows]
    n = len(b)
    gs = _GramSchmidt(b)
    mu, norms = gs.mu, gs.norms
    delta = 0.99
    iters = 0
    k = 1
    while k < n and iters < max_iters:
        iters += 1
        gs.ensure(k)
        for j in range(k - 1, -1, -1):
            q = int(round(mu[k][j]))
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                gs.invalidate(k)
                gs.ensure(k)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            gs.invalidate(k - 1)
            k = max(k - 1, 1)
    gs.ensure(n - 1)
    return _Reduction(b, iters, k < n, norms)


def _enumeration_window(k: int) -> int:
    if k <= 3:
        return 6
    if k <= 5:
        return 2
    return 1


def _float_subgroup(generators, config: SubgroupSearchConfig) -> KernelLattice:
    gens = [np.asarray(g, dtype=float) for g in generators]
    k = len(gens)
    d = gens[0].shape[0]
    if k > 8:
        raise ValueError("float subgroup search supports at most 8 generators")
    eps = config.epsilon
    bound = config.coefficient_bound
    gmat = np.array(gens)
    gmax = max(1.0, float(np.max(np.abs(gmat))))

    # integer relation lattice: rows (e_i | N * g_i), N large enough that a
    # combination below epsilon shows up as a short vector
    scale = int(math.ceil(8.0 * bound / eps))
    rows = []
    for i, g in enumerate(gens):
        tail = [int(Fraction(float(x)) * scale) for x in g]
        rows.append([1 if j == i else 0 for j in range(k)] + tail)
    reduction = _lll_reduce_int(rows)

    # candidates: small combinations of the reduced rows, then the raw
    # generators, as integer coefficient vectors over the generators; the
    # offset vectors in [-w, w]^k come one per row in itertools.product order
    w = _enumeration_window(k)
    # int8 holds every offset (w <= 6) at an eighth of the memory at k = 8
    combos = np.indices((2 * w + 1,) * k, dtype=np.int8).reshape(k, -1).T - np.int8(w)
    block = np.array([row[:k] for row in reduction.basis], dtype=object)
    coeffs = nx.contract_numerators(combos, block, 1)
    # block is unimodular, so distinct offsets give distinct coefficients and
    # only opposite offsets give opposite ones: keep the first of each +-
    # pair in product order, the one whose first nonzero offset is negative
    lead = combos[np.arange(len(combos)), np.argmax(combos != 0, axis=1)]
    unit = np.eye(k, dtype=np.int64)
    fresh = [i for i in range(k) if not (coeffs == unit[i]).all(axis=1).any()]
    coeffs = np.concatenate([coeffs[lead < 0], unit[fresh].astype(coeffs.dtype)])
    coeffs = coeffs[np.abs(coeffs).max(axis=1) <= bound]

    max_coeff = int(np.abs(coeffs).max()) if len(coeffs) else 1
    relation_floor = 64 * np.finfo(float).eps * max_coeff * gmax * math.sqrt(k)

    # v = v + c_i * g_i over all candidates at once, in the per-vector order
    vectors = np.zeros((len(coeffs), d))
    as_float = coeffs.astype(float)
    for i in range(k):
        vectors = vectors + as_float[:, i:i + 1] * gmat[i]
    # the einsum norms may differ from np.linalg.norm in the last bits, so
    # they only preselect; the decision reads row_norms, which agrees with it
    rough = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
    near = np.flatnonzero(rough < 2.0 * eps)
    witnesses = [(tuple(coeffs[r].tolist()), r, float(nrm))
                 for r, nrm in zip(near, nx.row_norms(vectors[near]))
                 if relation_floor < nrm < eps]

    meta = {"route": "integer_relation_search",
            "lll_iterations": reduction.iterations,
            "lll_capped": reduction.capped,
            "candidates": len(coeffs),
            "caveat": FINITE_DIMENSION_CAVEAT}
    if witnesses:
        cs, r, nrm = min(witnesses, key=lambda t: (sum(c * c for c in t[0]), t[0]))
        v = vectors[r].copy()
        if cs[next(i for i, c in enumerate(cs) if c != 0)] < 0:
            cs = tuple(-c for c in cs)
            v = -v
        return KernelLattice(d, tuple(gens), NON_DISCRETE_WITNESS, Witness(cs, v, nrm),
                             meta={**meta, "relation_floor": relation_floor})

    # Discrete certificate: lambda_1 of the scaled lattice bounds every
    # bounded-coefficient combination from below
    norms = reduction.norms
    lambda1_lb = math.sqrt(float(np.min(norms))) if norms.size else 0.0
    reachable = math.sqrt(k * bound * bound
                          + (scale * 1e3 * eps + 0.5 * k * bound) ** 2)
    verdict = DISCRETE if lambda1_lb > reachable else INCONCLUSIVE
    return KernelLattice(d, tuple(gens), verdict,
                         meta={**meta, "lambda1_lower_bound": lambda1_lb,
                               "reachable": reachable})


def subgroup_discreteness(generators, config: SubgroupSearchConfig = SubgroupSearchConfig()
                          ) -> KernelLattice:
    """Decide discreteness of the subgroup generated by the given vectors.

    Exact (Fraction) generators always decide: the answer is a lattice
    basis.  Any other dtype goes to the float search of integer combinations
    up to the configured bound; see the module docstring for the verdicts.
    """
    gens = list(generators)
    if not gens:
        return KernelLattice(0, (), DISCRETE, meta={"caveat": FINITE_DIMENSION_CAVEAT})
    arrs = [np.asarray(g) for g in gens]
    exact = all(nx.mode_of(g) == RATIONAL for g in arrs)
    nonzero = [g for g in arrs if (g != 0).any()]
    if not nonzero:
        return KernelLattice(arrs[0].shape[0], (), DISCRETE,
                             meta={"route": "integer_row_reduction" if exact
                                   else "integer_relation_search",
                                   "caveat": FINITE_DIMENSION_CAVEAT})
    return _exact_subgroup(nonzero) if exact else _float_subgroup(nonzero, config)


# --------------------------------------------------------- quotient criterion

def quotient_projection_discreteness(generators, ideal_basis,
                                     config: SubgroupSearchConfig = SubgroupSearchConfig()
                                     ) -> KernelLattice:
    """Project kernel generators to a complement of an ideal and decide there.

    Non-discreteness of the projected subgroup is the obstruction for the
    quotient: a witness yields lattice elements x_n outside the ideal and
    ideal elements y_n with 2 x_n - y_n arbitrarily small.  The returned
    meta carries one such pair for the found witness.
    """
    gens = [np.asarray(g) for g in generators]
    d = gens[0].shape[0]
    ideal = [np.asarray(v) for v in ideal_basis]
    if all(nx.mode_of(g) == RATIONAL for g in gens):
        imat = np.array(ideal, dtype=object)
        comp = nx.nullspace(imat)  # orthogonal complement, rational
        basis = np.concatenate([comp, imat])
        # comp and ideal together span the whole space: every generator is inside
        coords, _ = nx.coordinates_in_span_many(basis, gens)
        proj = list(coords[:, :len(comp)])
    else:
        imat = np.array([nx.to_float(np.asarray(v)) for v in ideal], dtype=float)
        comp_rows = nx.nullspace(imat)  # orthonormal
        proj = [comp_rows @ nx.to_float(g) for g in gens]
    result = subgroup_discreteness(proj, config)
    meta = dict(result.meta)
    meta["projected_dim"] = len(proj[0]) if proj else 0
    # only the float search finds witnesses
    if result.witness is not None:
        x = np.zeros(d)
        for c, g in zip(result.witness.coefficients, gens):
            x = x + c * nx.to_float(g)
        inside = imat.T @ np.linalg.lstsq(imat.T, x, rcond=None)[0]
        y = 2.0 * inside
        meta["defect_pair"] = {"x": x, "y": y,
                              "defect": float(np.linalg.norm(2.0 * x - y))}
    return KernelLattice(result.ambient_dim, result.generators, result.verdict,
                         result.witness, meta)


# ------------------------------------------------------------------ pairs, 1d

# At most this many kernel points are listed, however large t_max is.
ZEROS_LISTED = 1024


def kernel_lattice_1d(pair, direction=None, t_max: float = 8.0,
                      tol: TolerancePolicy = DEFAULT_TOLERANCE) -> KernelLattice:
    """Kernel of t -> Exp(t z) against the base point, z central, read off
    the spectrum of z.

    z is odd, so sigma(exp tz) = exp(-tz): exp(tz) lies in the full fixed
    group exactly when exp(2tz) = I.  For a semisimple z with eigenvalues
    +-i mu_k that is the set of t in (pi / mu_k) Z for every k.  One
    distinct frequency mu gives the generator pi / mu.  Several go to
    subgroup_discreteness, and a group h Z of frequencies gives pi / h.
    One matrix_exp checks each candidate generator against the fixed group,
    which refuses a z that is not semisimple.

    A negligible z has the whole ray in its kernel: NonDiscreteWitness.  A
    real spectral part, a zero spectrum, frequencies without one generator
    or a generator off the fixed group give Inconclusive, with meta["reason"].
    The one threshold is membership_tol * max(1, |z|), on the spectrum, on
    the spread within a frequency and on |z| itself.  meta reports the
    frequencies, generator_residual, exp_evaluations (at most 2) and
    zeros_in_range, the kernel points g, 2g, ... up to t_max (at most
    ZEROS_LISTED of them); t_max bounds nothing else.
    """
    if direction is None:
        direction = default_central_direction(pair)
    try:
        sp.central_odd_check(pair, direction, tol)
    except sp.PairInputError as e:
        raise CenterMismatchError(str(e)) from e
    z = np.asarray(direction, dtype=float)
    size = nx.frobenius(z)
    thr = tol.membership_tol * max(1.0, size)
    meta = {"t_max": t_max, "exp_evaluations": 0, "caveat": FINITE_DIMENSION_CAVEAT}

    def exp_at(t: float) -> np.ndarray:
        meta["exp_evaluations"] += 1
        return nx.matrix_exp(t * z)

    def inconclusive(reason: str, **numbers) -> KernelLattice:
        return KernelLattice(1, (), INCONCLUSIVE, meta={**meta, "reason": reason, **numbers})

    # every t > 0 is a kernel point of a negligible ray; t = 1 stands for them
    if size <= thr and sp.in_fixed_group(pair, exp_at(1.0), tol):
        return KernelLattice(1, (np.array([1.0]),), NON_DISCRETE_WITNESS,
                             Witness((1,), np.array([1.0]), 1.0), meta)
    spectrum = np.linalg.eigvals(z)
    real = float(np.max(np.abs(spectrum.real)))
    if real > thr:
        return inconclusive("real spectral part", real_part=real)
    mus = np.sort(np.abs(spectrum.imag))
    mus = mus[mus > thr]
    if not mus.size:
        return inconclusive("nilpotent")
    # a new frequency starts where consecutive |mu| part by more than thr
    splits = np.flatnonzero(np.diff(mus) > thr) + 1
    meta["frequencies"] = [float(np.mean(c)) for c in np.split(mus, splits)]
    if len(meta["frequencies"]) == 1:
        h = meta["frequencies"][0]
    else:
        sub = subgroup_discreteness([np.array([m]) for m in meta["frequencies"]])
        if sub.verdict != DISCRETE or len(sub.generators) != 1:
            return inconclusive(f"frequency subgroup is {sub.verdict}",
                                subgroup_verdict=sub.verdict, subgroup=sub.meta)
        h = float(sub.generators[0][0])
    g = math.pi / h
    image = exp_at(g)
    meta["generator_residual"] = sp.fixed_group_residual(pair, image)
    if not sp.in_fixed_group(pair, image, tol):
        return inconclusive("generator off the fixed group")
    listed = int(min(t_max / g, ZEROS_LISTED))
    meta["zeros_in_range"] = [k * g for k in range(1, listed + 1)]
    return KernelLattice(1, (np.array([g]),), DISCRETE, meta=meta)


def default_central_direction(pair) -> np.ndarray:
    """The canonical central direction of a pair, when the center is a line.

    The center only fixes a line, so the returned matrix is normalized to
    unit Frobenius norm with a deterministic sign; periods along the default
    direction are reported in that unit.
    """
    system, minus = sp.minus_triple(pair, FLOAT)
    z = lt.center(system)
    if z.dim != 1:
        raise CenterMismatchError(
            f"center has dimension {z.dim}; pass an explicit direction")
    full = minus.basis.T @ z.basis[0]  # center coords live in the minus basis
    mat = sp.tangent_from_coords(pair, full)
    mat = mat / nx.frobenius(mat)
    lead = next(x for x in mat.reshape(-1) if abs(x) > 1e-12)
    return -mat if lead < 0 else mat


def product_lattice(k1: KernelLattice, k2: KernelLattice) -> KernelLattice:
    """Block embedding of two kernel lattices; verdicts combine by AND."""
    d1, d2 = k1.ambient_dim, k2.ambient_dim
    gens = []
    for g in k1.generators:
        v = np.zeros(d1 + d2)
        v[:d1] = nx.to_float(np.asarray(g))
        gens.append(v)
    for g in k2.generators:
        v = np.zeros(d1 + d2)
        v[d1:] = nx.to_float(np.asarray(g))
        gens.append(v)
    witness = None
    if k1.verdict == NON_DISCRETE_WITNESS or k2.verdict == NON_DISCRETE_WITNESS:
        verdict = NON_DISCRETE_WITNESS
        src, off = (k1, 0) if k1.verdict == NON_DISCRETE_WITNESS else (k2, d1)
        if src.witness is not None:
            v = np.zeros(d1 + d2)
            vec = nx.to_float(np.asarray(src.witness.vector))
            v[off:off + vec.shape[0]] = vec
            witness = Witness(src.witness.coefficients, v, src.witness.norm)
    elif INCONCLUSIVE in (k1.verdict, k2.verdict):
        verdict = INCONCLUSIVE
    else:
        verdict = DISCRETE
    return KernelLattice(d1 + d2, tuple(gens), verdict, witness,
                         meta={"caveat": FINITE_DIMENSION_CAVEAT})


# ------------------------------------------------------------------ grid loops

def grid_loop_period_check(pair, grid_size: int, direction=None,
                           tol: TolerancePolicy = DEFAULT_TOLERANCE) -> dict:
    """Loops on a time grid with pointwise kernel values and bounded steps.

    Node values run over multiples of a quarter generator.  A loop passes the
    pointwise test when every node exponentiates to the base point; it is
    admissible when consecutive increments stay below half the generator.
    With both constraints only the zero loop survives, the finite shadow of
    loop spaces having trivial kernel lattice.
    """
    lat = kernel_lattice_1d(pair, direction)
    if lat.verdict != DISCRETE:
        raise CenterMismatchError("1-d kernel lattice is required first")
    p = float(lat.generators[0][0])
    if direction is None:
        direction = default_central_direction(pair)
    dirf = np.asarray(direction, dtype=float)
    quarter = p / 4.0
    values = [k * quarter for k in range(-4, 5)]
    in_kernel = {}
    for v in values:
        g = nx.matrix_exp(v * dirf)
        in_kernel[v] = sp.in_fixed_group(pair, g, tol)
    interior = grid_size - 2
    scanned = 0
    pointwise = []
    admissible = []
    for combo in itertools.product(values, repeat=interior):
        scanned += 1
        nodes = (0.0,) + combo + (0.0,)
        if not all(in_kernel[c] for c in combo):
            continue
        pointwise.append(nodes)
        steps_ok = all(abs(nodes[i + 1] - nodes[i]) < p / 2.0 - 1e-12
                       for i in range(len(nodes) - 1))
        if steps_ok:
            admissible.append(nodes)
    only_zero = admissible == [tuple(0.0 for _ in range(grid_size))]
    excluded = next((n for n in pointwise if n not in admissible), None)
    return {
        "generator": p,
        "grid_size": grid_size,
        "scanned": scanned,
        "pointwise_kernel_loops": len(pointwise),
        "admissible_kernel_loops": len(admissible),
        "only_zero_admissible": only_zero,
        "excluded_example": excluded,
        "caveat": FINITE_DIMENSION_CAVEAT,
    }
