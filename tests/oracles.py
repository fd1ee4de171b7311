"""Independent reference computations used to freeze expected test values.

Everything here is deliberately written on a different route from the package
implementation: plain Python loops, closed-form trigonometry, continued
fractions.  Tests compare package output against these.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def rotation_matrix(t):
    """Closed-form exp of t * [[0,-1],[1,0]]."""
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def triple_bracket_loops(tensor, x, y, z):
    """Triple bracket by naked loops, no tensor contractions."""
    d = tensor.shape[0]
    zero = x[0] * 0
    out = [zero for _ in range(d)]
    for i in range(d):
        if not x[i]:
            continue
        for j in range(d):
            if not y[j]:
                continue
            for k in range(d):
                if not z[k]:
                    continue
                for l in range(d):
                    out[l] = out[l] + x[i] * y[j] * z[k] * tensor[i, j, k, l]
    return np.array(out, dtype=tensor.dtype)


def antisymmetry_defect_loops(tensor):
    d = tensor.shape[0]
    worst = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    v = abs(float(tensor[i, j, k, l] + tensor[j, i, k, l]))
                    worst = max(worst, v)
    return worst


def cyclic_defect_loops(tensor):
    d = tensor.shape[0]
    worst = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    v = tensor[i, j, k, l] + tensor[j, k, i, l] + tensor[k, i, j, l]
                    worst = max(worst, abs(float(v)))
    return worst


def derivation_defect_loops(tensor):
    """Worst violation of the derivation identity, by quintuple loops."""
    d = tensor.shape[0]
    worst = 0.0
    rng = range(d)
    for i in rng:
        for j in rng:
            for u in rng:
                for v in rng:
                    for w in rng:
                        for l in rng:
                            lhs = sum(tensor[u, v, w, m] * tensor[i, j, m, l] for m in rng)
                            rhs = sum(tensor[i, j, u, m] * tensor[m, v, w, l] for m in rng) \
                                + sum(tensor[i, j, v, m] * tensor[u, m, w, l] for m in rng) \
                                + sum(tensor[i, j, w, m] * tensor[u, v, m, l] for m in rng)
                            worst = max(worst, abs(float(lhs - rhs)))
    return worst


def linear_defect_witness_loops(tensor, identity):
    """Worst left-antisymmetry or cyclic-sum defect and the first (i, j, k, l),
    in lexicographic order, attaining it; by naked loops over Fraction sums."""
    d = tensor.shape[0]
    worst, witness = 0.0, None
    for i, j, k, l in itertools.product(range(d), repeat=4):
        if identity == "left_antisymmetry":
            v = tensor[i, j, k, l] + tensor[j, i, k, l]
        else:
            v = tensor[i, j, k, l] + tensor[j, k, i, l] + tensor[k, i, j, l]
        if abs(float(v)) > worst:
            worst, witness = abs(float(v)), (i, j, k, l)
    return worst, witness


def tensordot_loops(a, b, axes):
    """np.tensordot by naked loops over every index, with Python arithmetic.

    axes is a pair of index lists, contracted pairwise: a's axes[0][n] with
    b's axes[1][n].  Fraction entries give the exact result.
    """
    ax_a, ax_b = axes
    free_a = [i for i in range(a.ndim) if i not in ax_a]
    free_b = [i for i in range(b.ndim) if i not in ax_b]
    shape = [a.shape[i] for i in free_a] + [b.shape[i] for i in free_b]
    out = np.empty(shape, dtype=object)
    summed = [range(a.shape[i]) for i in ax_a]
    for fa in itertools.product(*(range(a.shape[i]) for i in free_a)):
        for fb in itertools.product(*(range(b.shape[i]) for i in free_b)):
            total = 0
            for c in itertools.product(*summed):
                ia, ib = [0] * a.ndim, [0] * b.ndim
                for pos, v in zip(free_a, fa):
                    ia[pos] = v
                for pos, v in zip(ax_a, c):
                    ia[pos] = v
                for pos, v in zip(free_b, fb):
                    ib[pos] = v
                for pos, v in zip(ax_b, c):
                    ib[pos] = v
                total = total + a[tuple(ia)] * b[tuple(ib)]
            out[fa + fb] = total
    return out


def certify_morphism_loops(f, eq_tol=1e-9):
    """Morphism test by a loop over every basis triple.

    This is the d^3 loop certify_morphism ran before it became one comparison
    of contractions, with brackets taken by triple_bracket_loops.  The
    threshold is zero when source and target are both exact, eq_tol
    otherwise.
    """
    src, tgt, matrix = f.source.tensor, f.target.tensor, f.matrix
    ds, dt = src.shape[0], tgt.shape[0]
    if dt == 0:
        return True     # every bracket maps into the zero space
    thr = 0.0 if src.dtype == object and tgt.dtype == object else eq_tol
    eye = np.eye(ds, dtype=object) if src.dtype == object else np.eye(ds)
    for i in range(ds):
        for j in range(ds):
            for k in range(ds):
                lhs = matrix @ triple_bracket_loops(src, eye[i], eye[j], eye[k])
                rhs = triple_bracket_loops(tgt, matrix @ eye[i], matrix @ eye[j],
                                           matrix @ eye[k])
                if max(abs(float(x)) for x in lhs - rhs) > thr:
                    return False
    return True


def sphere_bracket_direct(x, y, z):
    """[x,y,z] = <y,z> x - <x,z> y with Fraction dot products."""
    yz = sum(a * b for a, b in zip(y, z))
    xz = sum(a * b for a, b in zip(x, z))
    return np.array([yz * a - xz * b for a, b in zip(x, y)], dtype=object)


def double_bracket_matrix(a, b, c):
    """[[a,b],c] for explicit matrices."""
    ab = a @ b - b @ a
    return ab @ c - c @ ab


def sqrt2_convergents(count):
    """Continued-fraction convergents p/q of sqrt(2), exact integers.

    sqrt(2) = [1; 2, 2, 2, ...]; p, q follow the standard recurrence.
    """
    out = []
    p_prev, q_prev = 1, 0
    p, q = 1, 1
    out.append((p, q))
    for _ in range(count - 1):
        p, p_prev = 2 * p + p_prev, p
        q, q_prev = 2 * q + q_prev, q
        out.append((p, q))
    return out


def best_sqrt2_relation(q_bound):
    """Smallest |p - q*sqrt(2)| over convergents with q <= q_bound.

    Returns (p, q, value_as_float).  Convergents are optimal approximations,
    so this is the true minimum over all 0 < q <= q_bound.
    """
    best = None
    for p, q in sqrt2_convergents(60):
        if q > q_bound:
            break
        err = abs(p - q * math.sqrt(2))
        if best is None or err < best[2]:
            best = (p, q, err)
    return best


def hand_rref_fractions(rows):
    """Row reduction with Fraction lists, no numpy."""
    m = [[Fraction(v) for v in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    pivots = []
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


# The float subgroup search as it ran before the incremental Gram-Schmidt
# and the batched enumeration: full Gram-Schmidt after every reduction step,
# one Python call per enumerated combination.  Kept verbatim (names aside) so
# that the package's rewrite can be held to the same floats.

def gram_schmidt_norms_loops(rows_float):
    n = rows_float.shape[0]
    ortho = rows_float.astype(float).copy()
    mu = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            denom = float(ortho[j] @ ortho[j])
            mu[i, j] = float(rows_float[i] @ ortho[j]) / denom if denom > 0 else 0.0
            ortho[i] = ortho[i] - mu[i, j] * ortho[j]
    norms = np.array([float(o @ o) for o in ortho])
    return mu, norms


def lll_reduce_loops(rows, max_iters=20000):
    b = [list(r) for r in rows]
    n = len(b)
    if n <= 1:
        return b
    delta = 0.99
    iters = 0
    k = 1
    while k < n and iters < max_iters:
        iters += 1
        bf = np.array(b, dtype=float)
        mu, norms = gram_schmidt_norms_loops(bf)
        for j in range(k - 1, -1, -1):
            q = int(round(mu[k][j]))
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                bf = np.array(b, dtype=float)
                mu, norms = gram_schmidt_norms_loops(bf)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k = max(k - 1, 1)
    return b


def _enumeration_window(k):
    if k <= 3:
        return 6
    if k <= 5:
        return 2
    return 1


def float_subgroup_loops(generators, config):
    """Float subgroup discreteness: LLL on the scaled relation lattice, then
    one norm per enumerated combination of the reduced rows."""
    from triplekit.periods import (DISCRETE, FINITE_DIMENSION_CAVEAT, INCONCLUSIVE,
                                   NON_DISCRETE_WITNESS, KernelLattice, Witness)
    gens = [np.asarray(g, dtype=float) for g in generators]
    k = len(gens)
    d = gens[0].shape[0]
    if k > 8:
        raise ValueError("float subgroup search supports at most 8 generators")
    eps = config.epsilon
    bound = config.coefficient_bound
    gmat = np.array(gens)
    gmax = max(1.0, float(np.max(np.abs(gmat))))

    scale = int(math.ceil(8.0 * bound / eps))
    rows = []
    for i, g in enumerate(gens):
        tail = [int(Fraction(float(x)) * scale) for x in g]
        rows.append([1 if j == i else 0 for j in range(k)] + tail)
    reduced = lll_reduce_loops(rows)

    window = _enumeration_window(k)
    offsets = range(-window, window + 1)
    seen = set()
    candidates = []

    def consider(coeffs):
        if not any(coeffs) or coeffs in seen:
            return
        seen.add(coeffs)
        seen.add(tuple(-c for c in coeffs))
        if max(abs(c) for c in coeffs) > bound:
            return
        v = np.zeros(d)
        for c, g in zip(coeffs, gens):
            v = v + c * g
        candidates.append((coeffs, v, float(np.linalg.norm(v))))

    for combo in itertools.product(offsets, repeat=k):
        acc = [0] * k
        for c, row in zip(combo, reduced):
            if c:
                for idx in range(k):
                    acc[idx] += c * row[idx]
        consider(tuple(acc))
    for i in range(k):
        consider(tuple(1 if j == i else 0 for j in range(k)))

    max_coeff = max((max(abs(c) for c in cs) for cs, _, _ in candidates), default=1)
    relation_floor = 64 * np.finfo(float).eps * max_coeff * gmax * math.sqrt(k)

    witnesses = [(cs, v, nrm) for cs, v, nrm in candidates
                 if relation_floor < nrm < eps]
    if witnesses:
        witnesses.sort(key=lambda t: (sum(c * c for c in t[0]), t[0]))
        cs, v, nrm = witnesses[0]
        if cs[next(i for i, c in enumerate(cs) if c != 0)] < 0:
            cs = tuple(-c for c in cs)
            v = -v
        w = Witness(cs, v, nrm)
        return KernelLattice(d, tuple(gens), NON_DISCRETE_WITNESS, w,
                             meta={"route": "integer_relation_search",
                                   "relation_floor": relation_floor,
                                   "caveat": FINITE_DIMENSION_CAVEAT})

    mu, norms = gram_schmidt_norms_loops(np.array(reduced, dtype=float))
    lambda1_lb = math.sqrt(float(np.min(norms))) if norms.size else 0.0
    reachable = math.sqrt(k * bound * bound
                          + (scale * 1e3 * eps + 0.5 * k * bound) ** 2)
    if lambda1_lb > reachable:
        return KernelLattice(d, tuple(gens), DISCRETE,
                             meta={"route": "integer_relation_search",
                                   "lambda1_lower_bound": lambda1_lb,
                                   "caveat": FINITE_DIMENSION_CAVEAT})
    return KernelLattice(d, tuple(gens), INCONCLUSIVE,
                         meta={"route": "integer_relation_search",
                               "lambda1_lower_bound": lambda1_lb,
                               "caveat": FINITE_DIMENSION_CAVEAT})


def search_outcome(lat, meta_keys):
    """Verdict, witness and the named meta entries, in a form == compares exactly."""
    w = lat.witness
    witness = None if w is None else (w.coefficients, w.vector.tobytes(), w.norm)
    return lat.verdict, witness, {key: lat.meta[key] for key in meta_keys}



def nullspace_full_svd(a, rank_tol=1e-9):
    """Float right nullspace from the full SVD, as numerics.nullspace took it
    before tall matrices moved to the reduced SVD."""
    rows, cols = a.shape
    if rows == 0:
        return [np.eye(cols)[i] for i in range(cols)]
    _, s, vh = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    keep = [i for i in range(cols) if i >= s.size or s[i] <= rank_tol * smax]
    return [vh[i].copy() for i in keep]

# The matrix exponential and the kernel scan as they ran before the stacked
# evaluation: one Pade pass, one residual and one np.linalg.norm per matrix,
# 200 ternary steps per dip.  Kept verbatim (names aside) so that the
# stacked rewrite can be held to the same floats.

_PADE13_LOOPS = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)


def matrix_exp_loops(x):
    """Scaling and squaring with the [13/13] Pade form, one matrix."""
    n = x.shape[0]
    norm = float(np.linalg.norm(x, 1))
    theta13 = 5.371920351148152
    squarings = max(0, int(math.ceil(math.log2(norm / theta13))) if norm > theta13 else 0)
    a = x / (2.0 ** squarings)
    b = _PADE13_LOOPS
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    ident = np.eye(n)
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def fixed_group_residual_loops(pair, g):
    """Scale-free distance of one group element from the sigma-fixed subgroup."""
    if hasattr(pair.sigma, "inverse"):
        image = pair.sigma.float_matrix @ g @ pair.sigma.inverse
    else:
        image = np.linalg.inv(g).T
    num = float(np.linalg.norm(image - g))
    den = max(float(np.linalg.norm(g)), 1e-300)
    return num / den


def kernel_lattice_1d_loops(pair, direction=None, t_max=8.0, tol=None, grid=2048):
    """Kernel of t -> Exp(t z) against the base point, one matrix at a time."""
    from triplekit import sympair as sp
    from triplekit.numerics import DEFAULT_TOLERANCE
    from triplekit.periods import (DISCRETE, FINITE_DIMENSION_CAVEAT, INCONCLUSIVE,
                                   NON_DISCRETE_WITNESS, CenterMismatchError,
                                   KernelLattice, Witness, default_central_direction)
    tol = DEFAULT_TOLERANCE if tol is None else tol
    if direction is None:
        direction = default_central_direction(pair)
    try:
        sp.central_odd_check(pair, direction, tol)
    except sp.PairInputError as e:
        raise CenterMismatchError(str(e)) from e
    dirf = np.asarray(direction, dtype=float)

    def residual(t):
        g = matrix_exp_loops(t * dirf)
        return fixed_group_residual_loops(pair, g)

    def accepted(t):
        g = matrix_exp_loops(t * dirf)
        return sp.in_fixed_group(pair, g, tol)

    ts = np.linspace(0.0, t_max, grid + 1)
    vals = np.array([residual(t) for t in ts])
    if float(np.max(vals[1:])) <= tol.membership_tol:
        witness_t = ts[1]
        if accepted(float(witness_t)):
            w = Witness((1,), np.array([witness_t]), float(witness_t))
            return KernelLattice(1, (np.array([witness_t]),), NON_DISCRETE_WITNESS, w,
                                 meta={"caveat": FINITE_DIMENSION_CAVEAT})

    zeros = []
    for i in range(1, grid):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1] and vals[i] < 0.5:
            lo, hi = ts[i - 1], ts[i + 1]
            for _ in range(200):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if residual(m1) <= residual(m2):
                    hi = m2
                else:
                    lo = m1
            t_star = 0.5 * (lo + hi)
            if residual(t_star) <= tol.membership_tol and t_star > 1e-9 and accepted(t_star):
                if not zeros or abs(t_star - zeros[-1]) > 1e-6:
                    zeros.append(t_star)
    if not zeros:
        return KernelLattice(1, (), INCONCLUSIVE,
                             meta={"reason": "no kernel point in range",
                                   "t_max": t_max,
                                   "caveat": FINITE_DIMENSION_CAVEAT})
    t0 = zeros[0]
    mid = np.linspace(0.25 * t0, 0.75 * t0, 64)
    isolation = float(np.min([residual(t) for t in mid]))
    meta = {
        "refined_residual": residual(t0),
        "isolation_floor": isolation,
        "zeros_in_range": zeros,
        "t_max": t_max,
        "caveat": FINITE_DIMENSION_CAVEAT,
    }
    if isolation > 10.0 * tol.membership_tol:
        return KernelLattice(1, (np.array([t0]),), DISCRETE, meta=meta)
    return KernelLattice(1, (np.array([t0]),), INCONCLUSIVE, meta=meta)


# ------------------------------------------- span membership, one target at a time
# The per-target solves that the batched span kernel replaced, as they ran
# before it: one row reduction (exact) or one least-squares call (float) per
# vector.  The structure checks below call them in their original loops.

def solve_exact_loops(a, b):
    """Solve a @ x = b over the rationals; None if inconsistent."""
    from triplekit.numerics import RATIONAL, zeros
    rows, cols = a.shape
    aug = zeros((rows, cols + 1), RATIONAL)
    aug[:, :cols] = a
    aug[:, cols] = b
    red, pivots = rref_old(aug)
    if cols in pivots:
        return None
    x = zeros((cols,), RATIONAL)
    for r_idx, p in enumerate(pivots):
        x[p] = red[r_idx, cols]
    return x


def coordinates_in_span_loops(basis, v, tol=None):
    """Coordinates of v in the row span of basis, or None if v is outside.

    Float mode accepts v when the least-squares residual is at most
    membership_tol * max(1, |v|).
    """
    from triplekit.numerics import DEFAULT_TOLERANCE, RATIONAL, max_abs, mode_of, zeros
    tol = tol or DEFAULT_TOLERANCE
    if not basis:
        if max_abs(v) == 0.0:
            return zeros((0,), mode_of(v))
        return None
    mode = mode_of(basis[0])
    bmat = np.array(basis, dtype=basis[0].dtype)
    if mode == RATIONAL:
        return solve_exact_loops(bmat.T, v)
    coords, _, _, _ = np.linalg.lstsq(bmat.T, v, rcond=None)
    residual = float(np.linalg.norm(bmat.T @ coords - v))
    if residual <= tol.membership_tol * max(1.0, float(np.linalg.norm(v))):
        return coords
    return None


def contains_loops(sub, v, tol=None):
    return coordinates_in_span_loops(list(sub.basis), v, tol) is not None


def is_subsystem_loops(m, sub, tol=None):
    for x in sub.basis:
        for y in sub.basis:
            for z in sub.basis:
                if not contains_loops(sub, bracket_eval(m, x, y, z), tol):
                    return False
    return True


def is_ideal_loops(m, sub, tol=None):
    """bracket(n, m, m) inside n, then the two companion containments."""
    from triplekit import numerics as nx
    from triplekit.lts import LtsStructureError
    d = m.dim
    for x in sub.basis:
        first = nx.contract(x, m.tensor, axes=(0, 0))  # [j, k, l]
        for j in range(d):
            for k in range(d):
                if not contains_loops(sub, first[j, k], tol):
                    return False
    for x in sub.basis:
        mid = nx.contract(x, m.tensor, axes=(0, 1))
        last = nx.contract(x, m.tensor, axes=(0, 2))
        for j in range(d):
            for k in range(d):
                if not contains_loops(sub, mid[j, k], tol) or not contains_loops(sub, last[j, k], tol):
                    raise LtsStructureError(
                        "ideal closure is one-sided; tensor is not a Lie triple system")
    return True


def plus_closure_loops(g, plus, tol=None):
    """Raise unless the bracket of every pair of plus basis vectors stays in plus."""
    from triplekit.symlie import InvolutionDefectError
    for u in plus.basis:
        for v in plus.basis:
            if not contains_loops(plus, lie_bracket_eval(g, u, v), tol):
                raise InvolutionDefectError("+1 eigenspace is not a subalgebra")


def embedding_tensor_loops(m, tol=None):
    """Operators and ambient structure tensor of the standard embedding.

    The greedy operator selection and the three coordinate loops, each
    operator solved on its own; raises AxiomDefectError where the embedding
    does.
    """
    from triplekit import numerics as nx
    from triplekit.symlie import AxiomDefectError
    d = m.dim
    ops = []
    for i in range(d):
        for j in range(d):
            cand = m.tensor[i, j].T  # maps e_k to the bracket of (e_i, e_j, e_k)
            if nx.max_abs(cand) == 0.0:
                continue
            if coordinates_in_span_loops([o.reshape(-1) for o in ops], cand.reshape(-1), tol) is None:
                ops.append(cand)
    h = len(ops)
    n = h + d
    flat_ops = [o.reshape(-1) for o in ops]
    tensor = nx.zeros((n, n, n), m.mode)
    stack = np.array(ops, dtype=m.tensor.dtype).reshape(h, d, d)
    comms = nx.commutators(stack, stack)
    for a in range(h):
        for b in range(h):
            coords = coordinates_in_span_loops(flat_ops, comms[a, b].reshape(-1), tol)
            if coords is None:
                raise AxiomDefectError("operator span is not closed under commutators")
            tensor[a, b, :h] = coords
    for a in range(h):
        for k in range(d):
            col = ops[a][:, k]
            tensor[a, h + k, h:] = col
            tensor[h + k, a, h:] = -col
    for i in range(d):
        for j in range(d):
            cand = m.tensor[i, j].T
            coords = coordinates_in_span_loops(flat_ops, cand.reshape(-1), tol)
            if coords is None:
                raise AxiomDefectError("bracket operator escaped the operator span")
            tensor[h + i, h + j, :h] = coords
    return ops, tensor


# ------------------------------------------- axiom check on the whole d^6 array
# lts.verify_axioms as it ran before the output-slab loop: the derivation
# identity from four contractions of the full tensor with itself, each a d^6
# array.  Kept verbatim (names aside) so that the slab loop can be held to
# the same worst value and witness, ties included.

def verify_axioms_d6(m, tol=None):
    from triplekit import numerics as nx
    from triplekit.lts import AxiomReport
    from triplekit.numerics import DEFAULT_TOLERANCE, RATIONAL
    tol = tol or DEFAULT_TOLERANCE
    c, s = nx.numerators(m.tensor)
    defects = []

    anti = c + c.transpose(1, 0, 2, 3)
    defects.append(("left_antisymmetry", anti, s))

    cyc = c + c.transpose(2, 0, 1, 3) + c.transpose(1, 2, 0, 3)
    defects.append(("cyclic_sum", cyc, s))

    # derivation identity: four contractions summed, index order fixed to
    # (i, j, u, v, w, l) in every term
    inner = nx.contract_numerators(c, c, axes=([3], [2]), terms=4)   # [u,v,w,i,j,l]
    lhs = inner.transpose(3, 4, 0, 1, 2, 5)
    t1 = nx.contract_numerators(c, c, axes=([3], [0]), terms=4)      # [i,j,u,v,w,l]
    t2 = nx.contract_numerators(c, c, axes=([3], [1]), terms=4)      # [i,j,v,u,w,l]
    t2 = t2.transpose(0, 1, 3, 2, 4, 5)
    t3 = nx.contract_numerators(c, c, axes=([3], [2]), terms=4)      # [i,j,w,u,v,l]
    t3 = t3.transpose(0, 1, 3, 4, 2, 5)
    defects.append(("derivation", lhs - t1 - t2 - t3, s * s))

    worst = 0.0
    worst_name = None
    worst_witness = None
    for name, d, scale in defects:
        v = nx.defect_size(d, scale)
        if v > worst:
            worst = v
            worst_name = name
            worst_witness = np.unravel_index(int(np.argmax(np.abs(d))), d.shape)
    threshold = 0.0 if m.mode == RATIONAL else tol.eq_tol
    ok = worst <= threshold
    return AxiomReport(ok, float(worst), None if ok else worst_name,
                       None if ok else worst_witness)


# ------------------------------------------- bracket evaluation on coordinates
# One bracket of coordinate vectors at a time; the package never needs one.

def bracket_eval(m, x, y, z):
    from triplekit import numerics as nx
    t = nx.contract(x, m.tensor, axes=(0, 0))
    t = nx.contract(y, t, axes=(0, 0))
    return nx.contract(z, t, axes=(0, 0))


def lie_bracket_eval(g, x, y):
    from triplekit import numerics as nx
    t = nx.contract(x, g.tensor, axes=(0, 0))
    return nx.contract(y, t, axes=(0, 0))


# ------------------------------------------- structure constants from matrices
# The four derivations that sympair.derived_symmetric_algebra replaced, as
# they ran before it: fixtures.lie_from_matrices, fixtures.lts_from_matrices,
# fixtures._conjugation_theta (for an involutive j) and the float route of
# sympair._derive_sla.  Kept verbatim (names aside) so that the one
# derivation can be held to the same Fractions and floats.  The float route
# takes its matrices as an argument, as it did, and forms each sigma image
# the way the sigma classes then did: j @ m @ j^(-1) with the float j and its
# float inverse, or -m.T.

def lie_from_matrices_old(mats, labels=None):
    """Structure constants of a matrix Lie algebra given by a closed basis."""
    from triplekit import lts as lt
    from triplekit import numerics as nx
    from triplekit import symlie as sl
    mode = nx.mode_of(mats[0])
    d = len(mats)
    stack = np.array(mats, dtype=mats[0].dtype)
    comms = nx.commutators(stack, stack).reshape(d * d, -1)
    coords, inside = nx.coordinates_in_span_many(stack.reshape(d, -1), comms)
    if not inside.all():
        raise lt.LtsStructureError("matrix basis is not closed under commutators")
    return sl.LieAlgebra(d, coords.reshape(d, d, d), mode, tuple(labels) if labels else None)


def lts_from_matrices_old(mats, labels=None):
    """Structure tensor of the double commutator bracket on a closed span."""
    from triplekit import lts as lt
    from triplekit import numerics as nx
    mode = nx.mode_of(mats[0])
    d = len(mats)
    n = mats[0].shape[0]
    stack = np.array(mats, dtype=mats[0].dtype)
    comms = nx.commutators(stack, stack).reshape(d * d, n, n)
    doubles = nx.commutators(comms, stack).reshape(d * d * d, -1)
    coords, inside = nx.coordinates_in_span_many(stack.reshape(d, -1), doubles)
    if not inside.all():
        raise lt.LtsStructureError("span is not closed under double commutators")
    return lt.LieTripleSystem(d, coords.reshape(d, d, d, d), mode,
                              tuple(labels) if labels else None)


def conjugation_theta_old(mats, j):
    """theta in basis coordinates for conjugation by an involutive j (j = j^-1).

    Column i holds the coordinates of j A_i j.
    """
    from triplekit import lts as lt
    from triplekit import numerics as nx
    d = len(mats)
    stack = np.array(mats, dtype=object)
    images = nx.contract(nx.contract(stack, j, axes=([2], [0])), j, axes=([1], [1]))
    images = images.transpose(0, 2, 1).reshape(d, -1)
    coords, inside = nx.coordinates_in_span_many(stack.reshape(d, -1), images)
    if not inside.all():
        raise lt.LtsStructureError("conjugation does not preserve the matrix span")
    return coords.T


def _theta_tangent_old(pair, m):
    sigma = pair.sigma
    if hasattr(sigma, "inverse"):
        return sigma.float_matrix @ m @ sigma.inverse
    return -m.T


def derive_sla_float_old(pair, mats):
    """sympair._derive_sla(pair, mats, FLOAT)."""
    from triplekit import numerics as nx
    from triplekit import symlie as sl
    from triplekit.numerics import FLOAT
    from triplekit.sympair import PairInputError
    mode = FLOAT
    d = len(mats)
    n = pair.ambient_n
    stack = np.array(mats, dtype=mats[0].dtype)
    comms = nx.commutators(stack, stack).reshape(d * d, n * n)
    images = np.array([_theta_tangent_old(pair, m) for m in mats])
    coords, inside = nx.coordinates_in_span_many(
        stack.reshape(d, n * n), np.concatenate([comms, images.reshape(d, n * n)]))
    if not inside[:d * d].all():
        raise PairInputError("lie_basis is not closed under commutators")
    if not inside[d * d:].all():
        raise PairInputError("theta does not preserve the Lie algebra span")
    # column i of theta holds the coordinates of the image of basis vector i
    return sl.SymmetricLieAlgebra(sl.LieAlgebra(d, coords[:d * d].reshape(d, d, d), mode),
                                  coords[d * d:].T)


# ------------------------------------------- exact row reduction on Fractions
# The exact linear algebra that the fraction-free reduction replaced, as it
# ran before it: Gauss-Jordan elimination dividing Fraction object rows, the
# greedy span basis by one rank per candidate, the exact branch of the span
# kernel, and the morphism check comparing Fraction arrays.  Kept verbatim
# (names aside; nullspace and the span kernel keep only their exact branch)
# so that the integer kernel can be held to the same Fractions.

def rref_old(a, pivot_limit=None):
    """Reduced row echelon form over the rationals.

    Returns the reduced matrix and the list of pivot column indices.
    Exact mode only.  When pivot_limit is given, pivots are only chosen in
    the first pivot_limit columns; elimination still clears full rows, which
    is what augmented multi-column solves need.
    """
    from triplekit.numerics import RATIONAL, ModeError, mode_of
    if mode_of(a) != RATIONAL:
        raise ModeError("rref is an exact-mode operation")
    m = a.copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    span = cols if pivot_limit is None else min(pivot_limit, cols)
    for c in range(span):
        pivot_row = None
        for i in range(r, rows):
            if m[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        m[r] = m[r] / m[r, c]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank_old(a, tol=None):
    from triplekit.numerics import DEFAULT_TOLERANCE, RATIONAL, mode_of
    tol = tol or DEFAULT_TOLERANCE
    if a.size == 0:
        return 0
    if mode_of(a) == RATIONAL:
        return len(rref_old(a)[1])
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_tol * s[0]))


def nullspace_old(a):
    """Exact right nullspace from the free columns of the Fraction RREF."""
    from triplekit.numerics import RATIONAL, zeros
    rows, cols = a.shape
    red, pivots = rref_old(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = zeros((cols,), RATIONAL)
        v[f] = Fraction(1)
        for r_idx, p in enumerate(pivots):
            v[p] = -red[r_idx, f]
        basis.append(v)
    return basis


def span_basis_old(vectors, tol=None):
    """Greedy maximal independent subset, keeping input order."""
    kept = []
    current_rank = 0
    for v in vectors:
        candidate = kept + [v]
        r = rank_old(np.array(candidate, dtype=candidate[0].dtype), tol)
        if r > current_rank:
            kept.append(v)
            current_rank = r
    return kept


def inverse_old(a):
    """Exact inverse by one augmented Fraction row reduction."""
    from triplekit.numerics import RATIONAL, identity
    n = a.shape[0]
    red, pivots = rref_old(np.concatenate([a, identity(n, RATIONAL)], axis=1), pivot_limit=n)
    if len(pivots) < n:
        raise np.linalg.LinAlgError("Singular matrix")
    return red[:, n:]


def coordinates_in_span_many_old(basis, targets):
    """The exact branch of the batched span kernel."""
    from triplekit.numerics import RATIONAL, mode_of, zeros
    bmat, tmat = np.asarray(basis), np.asarray(targets)
    k, count = len(bmat), len(tmat)
    mode = mode_of(bmat if k else tmat)
    if not k or not count:
        return zeros((count, k), mode), np.array([not (t != 0).any() for t in tmat], dtype=bool)
    red, pivots = rref_old(np.concatenate([bmat.T, tmat.T], axis=1), pivot_limit=k)
    coords = zeros((count, k), RATIONAL)
    coords[:, pivots] = red[:len(pivots), k:].T
    return coords, (red[len(pivots):, k:] == 0).all(axis=0)


def certify_morphism_old(f, tol=None):
    """Return a copy with certified set iff f respects brackets on all basis triples."""
    from dataclasses import replace
    from triplekit import numerics as nx
    from triplekit.numerics import DEFAULT_TOLERANCE, RATIONAL
    tol = tol or DEFAULT_TOLERANCE
    thr = 0.0 if f.source.mode == RATIONAL and f.target.mode == RATIONAL else tol.eq_tol
    fm, src, tgt = f.matrix, f.source.tensor, f.target.tensor
    exact = all(nx.mode_of(a) == RATIONAL for a in (fm, src, tgt))
    if not exact:
        fm, src, tgt = nx.to_float(fm), nx.to_float(src), nx.to_float(tgt)
    lhs = nx.contract(src, fm, axes=([3], [1]))                    # [i,j,k,p]
    rhs = nx.contract(fm, tgt, axes=([0], [0]))                    # [i,b,c,p]
    rhs = nx.contract(rhs, fm, axes=([1], [0]))                    # [i,c,p,j]
    rhs = nx.contract(rhs, fm, axes=([1], [0])).transpose(0, 2, 3, 1)
    ok = not (lhs != rhs).any() if exact else nx.max_abs(lhs - rhs) <= thr
    return replace(f, certified=bool(ok))


# ------------------------------------------- standard embedding, per operator
# symlie.standard_embedding as it ran before it chose its operators with
# nx.span_basis and read the odd block straight from theta: a greedy loop
# over the bracket operators, two span solves, theta built entry by entry,
# and the round trip through minus_triple's nullspace of theta + 1.  Kept
# verbatim (names aside) so that the rewrite can be held to the same
# operators, structure constants and theta.  Its float operator choice
# skips exactly zero operators only, and its float odd basis is rotated, so
# it is the reference on exact systems.  (The float span_basis it replaced,
# an SVD rank per candidate, is span_basis_old above with float vectors.)

def standard_embedding_old(m, tol=None):
    from fractions import Fraction
    from triplekit import lts as lt
    from triplekit import numerics as nx
    from triplekit.lts import LtsMorphism
    from triplekit.numerics import DEFAULT_TOLERANCE, RATIONAL
    from triplekit.symlie import (AxiomDefectError, LieAlgebra, StandardEmbedding,
                                  SymmetricLieAlgebra, lie_center, minus_triple,
                                  verify_lie_axioms)
    tol = tol or DEFAULT_TOLERANCE
    d = m.dim
    ops = []
    for i in range(d):
        for j in range(d):
            cand = m.tensor[i, j].T  # maps e_k to the bracket of (e_i, e_j, e_k)
            if nx.max_abs(cand) == 0.0:
                continue
            if nx.coordinates_in_span([o.reshape(-1) for o in ops], cand.reshape(-1), tol) is None:
                ops.append(cand)
    h = len(ops)
    n = h + d
    tensor = nx.zeros((n, n, n), m.mode)
    stack = np.array(ops, dtype=m.tensor.dtype).reshape(h, d, d)
    flat_ops = stack.reshape(h, d * d)
    comms = nx.commutators(stack, stack).reshape(h * h, d * d)
    coords, inside = nx.coordinates_in_span_many(flat_ops, comms, tol)
    if not inside.all():
        raise AxiomDefectError("operator span is not closed under commutators")
    tensor[:h, :h, :h] = coords.reshape(h, h, h)
    # an operator acting on an odd basis vector: column k of the operator
    tensor[:h, h:, h:] = stack.transpose(0, 2, 1)
    tensor[h:, :h, h:] = -stack.transpose(2, 0, 1)
    brackets = m.tensor.transpose(0, 1, 3, 2).reshape(d * d, d * d)  # operator of (e_i, e_j)
    coords, inside = nx.coordinates_in_span_many(flat_ops, brackets, tol)
    if not inside.all():
        raise AxiomDefectError("bracket operator escaped the operator span")
    tensor[h:, h:, :h] = coords.reshape(d, d, h)
    ambient = LieAlgebra(n, tensor, m.mode)
    report = verify_lie_axioms(ambient, tol)
    if not report.ok:
        raise AxiomDefectError(f"embedding violates {report.identity} by {report.worst_violation}")
    theta = nx.identity(n, m.mode)
    minus_one = Fraction(-1) if m.mode == RATIONAL else -1.0
    for k in range(d):
        theta[h + k, h + k] = minus_one
    symmetric = SymmetricLieAlgebra(ambient, theta, tol)  # checks the automorphism

    back, minus = minus_triple(symmetric, tol)
    thr = 0.0 if m.mode == RATIONAL else tol.eq_tol
    expected = nx.identity(n, m.mode)[h:, :]
    if minus.basis.shape != expected.shape or nx.max_abs(minus.basis - expected) > thr:
        raise AxiomDefectError("odd eigenspace basis is not the canonical block")
    if nx.max_abs(back.tensor - m.tensor) > thr:
        raise AxiomDefectError("round trip through the embedding deformed the bracket")

    z_ambient = lie_center(ambient, tol)
    z_m = lt.center(m, tol)
    embedded = nx.zeros((z_m.dim, n), m.mode)
    embedded[:, h:] = z_m.basis
    z_embedded = lt.subspace_from_vectors(embedded, tol)
    if not z_ambient.equals(z_embedded, tol):
        raise AxiomDefectError("ambient center differs from the embedded center")

    emb_matrix = nx.identity(d, m.mode)
    embedding = lt.certify_morphism(LtsMorphism(m, back, emb_matrix), tol)
    if not embedding.certified:
        raise AxiomDefectError("embedding morphism failed certification")
    return StandardEmbedding(m, symmetric, h, tuple(ops), embedding)


# ------------------------------------------- quotient complement in two passes
# lts.quotient as it ran before one greedy pass over [ideal rows; I] chose
# both parts: one pass reduced the ideal's rows, a second extended them by
# the standard basis and kept the unit vectors it took as the complement.
# Kept verbatim (names aside; span_basis then returned the vectors it kept)
# so that the one pass can be held to the same tensor and projection.

def quotient_old(m, ideal, tol=None):
    from triplekit import lts as lt
    from triplekit import numerics as nx
    tol = tol or nx.DEFAULT_TOLERANCE

    def greedy(vectors):
        return [vectors[i] for i in nx.span_basis(vectors, tol)]

    if not lt.is_ideal(m, ideal, tol):
        raise lt.NotAnIdealError("subspace is not an ideal")
    d = m.dim
    ideal_rows = greedy(list(ideal.basis))
    eye = nx.identity(d, m.mode)
    extended = greedy(ideal_rows + [eye[i] for i in range(d)])
    complement = extended[len(ideal_rows):]
    q = len(complement)
    b = np.array(list(complement) + ideal_rows, dtype=m.tensor.dtype)
    proj = nx.inverse(b.T)[:q]
    comp = b[:q]
    t = nx.contract(comp, m.tensor, axes=([1], [0]))
    t = nx.contract(t, comp, axes=([1], [1])).transpose(0, 3, 1, 2)
    t = nx.contract(t, comp, axes=([2], [1])).transpose(0, 1, 3, 2)
    tensor = nx.contract(t, proj, axes=([3], [1]))
    labels = tuple(f"q{idx}" for idx in range(q)) if m.labels else None
    qsys = lt.LieTripleSystem(q, tensor, m.mode, labels)
    return qsys, lt.certify_morphism(lt.LtsMorphism(m, qsys, proj), tol)
