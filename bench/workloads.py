"""Seeded request decks for the three benchmark workloads.

Every request is a `triplekit` command line plus its known answer.  The
answers come from closed forms (dimensions of centers, operator parts and
eigenspaces of the classical families) or from the construction of the input
itself (the period pi/s of a direction scaled by s), never from the function
under test.  Documents are written as JSON files in the canonical
`triplekit.jsonio` layout; the program only ever sees those files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle

# Closed-form invariants of the shipped fixtures.
# triple systems: dim, center dim, operator-part dim of the standard embedding
# (the operator part of the odd part of g is [p, p]: so(n) for U(n)/O(n) and
# for the n-sphere, zero for abelian and quarter-Heisenberg systems).
LTS_KNOWN = {
    "abelian2": (2, 2, 0),
    "abelian3": (3, 3, 0),
    "heisenberg_plus_quarter": (3, 3, 0),
    "so3_plus_quarter": (3, 0, 3),
    "sphere2": (2, 0, 1),
    "sphere3": (3, 0, 3),
    "sphere4": (4, 0, 6),
    "u2_minus": (3, 1, 1),
    "u3_minus": (6, 1, 3),
}
# symmetric Lie algebras: dim, even dim, odd dim, center dim
SYM_KNOWN = {
    "heisenberg_flip": (6, 3, 3, 2),
    "so3_flip": (6, 3, 3, 0),
    "so3_reflection": (3, 1, 2, 0),
    "so4_reflection": (6, 3, 3, 0),
    "su2_diag": (3, 1, 2, 0),
    "u2_conjugation": (4, 1, 3, 1),
    "u3_conjugation": (9, 3, 6, 1),
}
# pairs: ambient n, dim, odd dim, center dim of the odd triple system
PAIR_KNOWN = {
    "so3_mod_so2": (3, 3, 2, 0),
    "so4_mod_so3": (4, 6, 3, 0),
    "u2_group_double": (8, 8, 4, 1),
    "u2_mod_o2": (4, 4, 3, 1),
    "u3_group_double": (12, 18, 9, 1),
    "u3_mod_o3": (6, 9, 6, 1),
    "u4_mod_o4": (8, 16, 10, 1),
}


@dataclass
class Request:
    name: str                    # "<subcommand> <document kind> <details>"
    argv: list[str]
    fields: dict = field(default_factory=dict)   # report entries that must match exactly
    checks: list = field(default_factory=list)   # callables report -> error text or None
    defects: tuple = ()          # known-defect classes this request can fall into


# ------------------------------------------------------------ exact helpers

def _frac_array(rows) -> np.ndarray:
    arr = np.array(rows, dtype=object)
    flat = arr.reshape(-1)
    for i in range(flat.shape[0]):
        flat[i] = Fraction(flat[i])
    return arr


def _exact_inverse(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    m = np.concatenate([a, _frac_array(np.eye(n, dtype=int).tolist())], axis=1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r, c] != 0)
        m[[c, p]] = m[[p, c]]
        m[c] = m[c] / m[c, c]
        for r in range(n):
            if r != c and m[r, c] != 0:
                m[r] = m[r] - m[r, c] * m[c]
    return m[:, n:]


# Diagonal scalings, cycled and shuffled per seed: every seed gets the same
# mix of entry sizes and denominators, so exact work per request stays steady.
SCALES = (Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-1, 3), Fraction(2, 3))


def _unimodular(rng: np.random.Generator, d: int) -> np.ndarray:
    """Permuted product of d - 1 elementary row additions with multiplier +-1."""
    m = np.eye(d, dtype=np.int64)
    for i in range(1, d):
        j = int(rng.integers(0, i))
        m[i] += int(rng.choice([-1, 1])) * m[j]
    return m[rng.permutation(d)]


def rational_change_of_basis(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """P and P^-1 for P = unimodular times a small-denominator diagonal."""
    scales = [SCALES[i % len(SCALES)] for i in rng.permutation(d)]
    p = _frac_array(_unimodular(rng, d).tolist()) @ np.diag(np.array(scales, dtype=object))
    return p, _exact_inverse(p)


def orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def transform_lts(c: np.ndarray, p: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """Bracket tensor in the basis f_a = sum_i p[i, a] e_i."""
    t = np.tensordot(c, pinv, axes=([3], [1]))
    t = np.tensordot(p, t, axes=([0], [2])).transpose(1, 2, 0, 3)
    t = np.tensordot(p, t, axes=([0], [1])).transpose(1, 0, 2, 3)
    return np.tensordot(p, t, axes=([0], [0]))


def transform_lie(c: np.ndarray, p: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    t = np.tensordot(c, pinv, axes=([2], [1]))
    t = np.tensordot(p, t, axes=([0], [1])).transpose(1, 0, 2)
    return np.tensordot(p, t, axes=([0], [0]))


# ----------------------------------------------------------- document I/O

def _enc(x, exact: bool):
    return str(x) if exact else float(x)


def _matrix(m, exact: bool):
    return [[_enc(x, exact) for x in row] for row in m]


def lts_doc(c: np.ndarray, exact: bool) -> dict:
    idx = np.argwhere(c != 0)
    return {"kind": "lts", "dim": c.shape[0], "mode": "rational" if exact else "float",
            "labels": None,
            "bracket": [[*map(int, ix), _enc(c[tuple(ix)], exact)] for ix in idx]}


def sym_doc(c: np.ndarray, theta: np.ndarray, exact: bool) -> dict:
    idx = np.argwhere(c != 0)
    algebra = {"kind": "lie", "dim": c.shape[0], "mode": "rational" if exact else "float",
               "labels": None,
               "bracket": [[*map(int, ix), _enc(c[tuple(ix)], exact)] for ix in idx]}
    return {"kind": "symmetric_lie", "algebra": algebra, "theta": _matrix(theta, exact)}


def pair_doc(n: int, basis, sigma: np.ndarray, exact: bool, name: str) -> dict:
    return {"kind": "pair", "ambient_n": n, "mode": "rational" if exact else "float",
            "basis": [_matrix(b, exact) for b in basis],
            "sigma": {"conjugation_by": _matrix(sigma, exact)},
            "policy": "full_fixed_group", "name": name}


def read_lts(doc: dict) -> np.ndarray:
    d = doc["dim"]
    c = _frac_array(np.zeros((d,) * 4, dtype=int).tolist())
    for i, j, k, l, v in doc["bracket"]:
        c[i, j, k, l] = Fraction(v)
    return c


def read_sym(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    alg = doc["algebra"]
    d = alg["dim"]
    c = _frac_array(np.zeros((d,) * 3, dtype=int).tolist())
    for i, j, k, v in alg["bracket"]:
        c[i, j, k] = Fraction(v)
    return c, _frac_array(doc["theta"])


class DocWriter:
    """Writes each generated document once, under a short stable file name."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, doc: dict) -> str:
        self.count += 1
        path = self.root / f"d{self.count:04d}.json"
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return str(path)


# ------------------------------------------------------ float constructions

def _realify(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.block([[re, -im], [im, re]])


def _unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def unitary_basis(n: int) -> list[np.ndarray]:
    """Realified u(n) in the fixture order: iE_kk, E_kl - E_lk, i(E_kl + E_lk)."""
    z = np.zeros((n, n))
    out = [_realify(z, _unit(n, k, k)) for k in range(n)]
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    out += [_realify(_unit(n, k, l) - _unit(n, l, k), z) for k, l in pairs]
    out += [_realify(z, _unit(n, k, l) + _unit(n, l, k)) for k, l in pairs]
    return out


def imaginary_symmetric_basis(n: int) -> list[np.ndarray]:
    z = np.zeros((n, n))
    out = [_realify(z, _unit(n, k, k)) for k in range(n)]
    out += [_realify(z, _unit(n, k, l) + _unit(n, l, k))
            for k in range(n) for l in range(k + 1, n)]
    return out


def double_commutator_tensor(mats: list[np.ndarray]) -> np.ndarray:
    """Bracket [[x, y], z] on a closed span, coordinates by least squares."""
    d = len(mats)
    flat = np.array([m.reshape(-1) for m in mats]).T
    out = np.zeros((d,) * 4)
    for i in range(d):
        for j in range(d):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            for k in range(d):
                dbl = comm @ mats[k] - mats[k] @ comm
                out[i, j, k] = np.linalg.lstsq(flat, dbl.reshape(-1), rcond=None)[0]
    return np.round(out, 12)


def sphere_tensor(n: int) -> np.ndarray:
    """<y, z> x - <x, z> y on R^n."""
    eye = np.eye(n)
    return np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)


def grid_tensor(base: np.ndarray, free_nodes: int) -> np.ndarray:
    d = base.shape[0]
    out = np.zeros((d * free_nodes,) * 4)
    for node in range(free_nodes):
        s = slice(node * d, (node + 1) * d)
        out[s, s, s, s] = base
    return out


def conj_float_lts(rng, c: np.ndarray) -> np.ndarray:
    q = orthogonal(rng, c.shape[0])
    return transform_lts(c, q, q.T)


# ------------------------------------------------------------ request makers

def lts_requests(writer: DocWriter, label: str, c: np.ndarray, known: tuple,
                 exact: bool, subcommands=("check", "center", "embed", "quotient")
                 ) -> list[Request]:
    dim, zdim, hdim = known
    path = writer.write(lts_doc(c, exact))
    out = []
    for sub in subcommands:
        name = f"{sub} {label}"
        if sub == "check":
            out.append(Request(name, ["check", path], fields={"ok": True, "dim": dim}))
        elif sub == "center":
            out.append(Request(name, ["center", path], fields={"center_dim": zdim},
                               checks=[oracle.center_basis_check(c, zdim, exact)]))
        elif sub == "embed":
            out.append(Request(name, ["embed", path],
                               fields={"triple_dim": dim, "operator_part_dim": hdim,
                                       "ambient_dim": dim + hdim, "certified": True},
                               defects=() if exact else (oracle.EMBED_FLOAT,)))
        elif sub == "quotient":
            out.append(Request(name, ["quotient", path],
                               fields={"source_dim": dim, "ideal_dim": zdim,
                                       "quotient_dim": dim - zdim, "certified": True},
                               defects=(oracle.QUOTIENT_FULL_CENTER,) if zdim == dim
                               else () if exact else (oracle.FLOAT_TOLERANCE,)))
    return out


def product_request(writer: DocWriter, label: str, a: np.ndarray, b: np.ndarray,
                    exact: bool) -> Request:
    pa = writer.write(lts_doc(a, exact))
    pb = writer.write(lts_doc(b, exact))
    da, db = a.shape[0], b.shape[0]
    return Request(f"product {label}", ["product", pa, pb],
                   fields={"left_dim": da, "right_dim": db, "product_dim": da + db, "ok": True})


def pair_requests(writer: DocWriter, label: str, doc: dict, known: tuple,
                  subcommands=("check", "center")) -> list[Request]:
    n, dim, odd, zdim = known
    path = writer.write(doc)
    out = []
    exact = doc["mode"] == "rational"
    for sub in subcommands:
        if sub == "check":
            out.append(Request(f"check {label}", ["check", path],
                               fields={"ok": True, "ambient_n": n, "dimension": dim,
                                       "odd_dim": odd},
                               defects=(oracle.FLOAT_TOLERANCE,) if exact else ()))
        else:
            out.append(Request(f"center {label}", ["center", path],
                               fields={"center_dim": zdim},
                               checks=[oracle.basis_count_check(zdim)]))
    return out


def load_fixture(root: Path, name: str) -> dict:
    return json.loads((root / "fixtures" / f"{name}.json").read_text())


def _rational_pair(rng, doc: dict) -> dict:
    """Same pair on a seeded rational change of its Lie-algebra basis."""
    mats = [_frac_array(m) for m in doc["basis"]]
    p, _ = rational_change_of_basis(rng, len(mats))
    new = [sum((p[i, a] * mats[i] for i in range(len(mats))),
               start=_frac_array(np.zeros(mats[0].shape, dtype=int).tolist()))
           for a in range(len(mats))]
    sigma = _frac_array(doc["sigma"]["conjugation_by"])
    return pair_doc(doc["ambient_n"], new, sigma, True, doc["name"])


def _float_pair(rng, doc: dict) -> dict:
    """Float copy of a pair on a seeded orthogonal change of basis."""
    mats = np.array([[[float(Fraction(x)) for x in row] for row in m] for m in doc["basis"]])
    q = orthogonal(rng, len(mats))
    new = np.tensordot(q.T, mats, axes=([1], [0]))
    sigma = np.array([[float(Fraction(x)) for x in row]
                      for row in doc["sigma"]["conjugation_by"]])
    return pair_doc(doc["ambient_n"], list(new), sigma, False, doc["name"])


# -------------------------------------------------------------- workloads

def exact_structure(rng, root: Path, writer: DocWriter) -> list[Request]:
    """Rational documents: the shipped fixtures, plus seeded changes of basis.

    Requests that take seconds each at the seed (check, embed and quotient of
    u3_minus at d = 6, and every u4_mod_o4 and u3_group_double request) are
    left out, and the costlier fixtures get a subset of subcommands: several
    passes must fit in one run, see README.md.
    """
    full = ("check", "center", "embed", "quotient")
    # subcommands per fixture, (original, rebased); fixtures not listed get all
    mix = {"sphere4": (("check", "center", "quotient"), ()),
           "u3_minus": (("center",), ("center",)),
           "u3_conjugation": (("check", "center"), ("center",)),
           "u3_mod_o3": ((), ()),
           "u2_group_double": ((), ())}
    deck: list[Request] = []
    for name, known in LTS_KNOWN.items():
        c = read_lts(load_fixture(root, f"lts_{name}"))
        subs, rebased_subs = mix.get(name, (full, full))
        p, pinv = rational_change_of_basis(rng, c.shape[0])
        deck += lts_requests(writer, f"lts {name}", c, known, True, subs)
        deck += lts_requests(writer, f"lts {name} rebased", transform_lts(c, p, pinv),
                             known, True, rebased_subs)
    for name, (dim, even, odd, zdim) in SYM_KNOWN.items():
        c, theta = read_sym(load_fixture(root, f"sym_{name}"))
        p, pinv = rational_change_of_basis(rng, dim)
        both = ("check", "center")
        for label, cc, th, subs in (
                (name, c, theta, mix.get(name, (both, both))[0]),
                (f"{name} rebased", transform_lie(c, p, pinv), pinv @ theta @ p,
                 mix.get(name, (both, both))[1])):
            path = writer.write(sym_doc(cc, th, True))
            if "check" in subs:
                deck.append(Request(f"check sym {label}", ["check", path],
                                    fields={"ok": True, "dim": dim, "even_dim": even,
                                            "odd_dim": odd}))
            if "center" in subs:
                deck.append(Request(f"center sym {label}", ["center", path],
                                    fields={"center_dim": zdim},
                                    checks=[oracle.center_basis_check(cc, zdim, True)]))
    for name, known in PAIR_KNOWN.items():
        if known[1] > 9:
            continue
        doc = load_fixture(root, f"pair_{name}")
        subs, rebased_subs = mix.get(name, (("check", "center"), ("check", "center")))
        deck += pair_requests(writer, f"pair {name}", doc, known, subs)
        deck += pair_requests(writer, f"pair {name} rebased", _rational_pair(rng, doc), known,
                              rebased_subs)
    # basis matrices times integers in [300, 3000): structure constants large
    # enough that the float check of an exact pair trips its absolute tolerance
    doc = load_fixture(root, "pair_u3_mod_o3")
    mats = [_frac_array(m) * int(rng.integers(300, 3000)) for m in doc["basis"]]
    deck += pair_requests(writer, "pair u3_mod_o3 rescaled",
                          pair_doc(doc["ambient_n"], mats,
                                   _frac_array(doc["sigma"]["conjugation_by"]), True, doc["name"]),
                          PAIR_KNOWN["u3_mod_o3"], ("check",))
    small = {n: read_lts(load_fixture(root, f"lts_{n}")) for n in ("sphere2", "abelian2")}
    for a, b in (("sphere2", "sphere2"), ("abelian2", "sphere2")):
        p, pinv = rational_change_of_basis(rng, small[a].shape[0])
        deck.append(product_request(writer, f"lts {a} x {b}",
                                    transform_lts(small[a], p, pinv), small[b], True))
    return deck


# The float documents' rotations come from this fixed stream, not from the
# seed, which still shuffles the order of requests.  A float `quotient` fails
# its absolute tolerance on about one rotation in 200, so with seeded
# rotations the share of failing requests depended on the seed.  This stream
# holds one such rotation (a u3_minus copy whose certification residual is
# 1.1e-5 against the tolerance 1e-9), so that defect shows in every run.
FLOAT_STREAM = 18


def float_structure(rng, root: Path, writer: DocWriter) -> list[Request]:
    """Larger float documents, four copies each on its own orthogonal change of basis."""
    rng = np.random.default_rng(FLOAT_STREAM)
    u2 = double_commutator_tensor(imaginary_symmetric_basis(2))
    systems = {
        "u3_minus": (double_commutator_tensor(imaginary_symmetric_basis(3)), (6, 1, 3)),
        "u4_minus": (double_commutator_tensor(imaginary_symmetric_basis(4)), (10, 1, 6)),
        "sphere5": (sphere_tensor(5), (5, 0, 10)),
        "sphere6": (sphere_tensor(6), (6, 0, 15)),
        # path grid over u2_minus, 4 nodes: 3 free nodes of dim 3
        "path_u2_minus_4": (grid_tensor(u2, 3), (9, 3, 3)),
        # loop grid over the 4-sphere, 5 nodes: 3 free nodes of dim 4
        "loop_sphere4_5": (grid_tensor(sphere_tensor(4), 3), (12, 0, 18)),
    }
    pairs = {name: load_fixture(root, f"pair_{name}") for name in ("u3_group_double", "u4_mod_o4")}
    deck: list[Request] = []
    for copy in range(4):
        for name, (c, known) in systems.items():
            if name == "loop_sphere4_5" and copy >= 2:
                continue  # 1 s per copy: two copies keep a pass short
            deck += lts_requests(writer, f"lts-float {name}", conj_float_lts(rng, c), known,
                                 exact=False)
        for a, b in (("u3_minus", "sphere6"), ("sphere5", "u3_minus")):
            deck.append(product_request(writer, f"lts-float {a} x {b}",
                                        conj_float_lts(rng, systems[a][0]),
                                        conj_float_lts(rng, systems[b][0]), False))
        for name, doc in pairs.items():
            deck += pair_requests(writer, f"pair-float {name}", _float_pair(rng, doc),
                                  PAIR_KNOWN[name])
    return deck


def _num(x: float) -> str:
    return repr(float(x))


def _vector_arg(v) -> str:
    # the subgroup is unchanged by g -> -g; a leading '-' would read as an option
    v = [float(x) for x in v]
    lead = next((x for x in v if x != 0.0), 1.0)
    sign = -1.0 if lead < 0 else 1.0
    return ",".join(_num(sign * x + 0.0) for x in v)   # + 0.0 turns -0.0 into 0.0


def _period_pair(rng, n: int, double: bool) -> tuple[dict, list[float], float]:
    """Float pair doc on a seeded ambient rotation, central coords of i*I, period."""
    small = unitary_basis(n)
    if double:
        m = 2 * n
        zero = np.zeros((m, m))
        basis = [np.block([[b, zero], [zero, zero]]) for b in small]
        basis += [np.block([[zero, zero], [zero, b]]) for b in small]
        sigma = np.block([[zero, np.eye(m)], [np.eye(m), zero]])
        # (s/2) i*I on the first factor, -(s/2) i*I on the second: period 2 pi / s
        coords = [0.5] * n + [0.0] * (n * n - n) + [-0.5] * n + [0.0] * (n * n - n)
        period = 2.0 * math.pi
    else:
        basis = small
        sigma = np.diag([1.0] * n + [-1.0] * n)
        coords = [1.0] * n + [0.0] * (n * n - n)   # i*I: period pi / s
        period = math.pi
    r = orthogonal(rng, basis[0].shape[0])
    doc = pair_doc(basis[0].shape[0], [r @ b @ r.T for b in basis], r @ sigma @ r.T,
                   False, f"{'double' if double else 'u_mod_o'}{n}")
    return doc, coords, period


def periods(rng, root: Path, writer: DocWriter) -> list[Request]:
    """Kernel scans on float pairs and discreteness of seeded subgroups."""
    deck: list[Request] = []
    for n, double in ((2, False), (3, False), (4, False), (2, True), (3, True)):
        doc, coords, period = _period_pair(rng, n, double)
        path = writer.write(doc)
        label = doc["name"]
        s = float(rng.uniform(0.9, 1.6))   # loop-demo scans t <= 8: 2 pi / s must fit
        gen = period / s
        arg = _vector_arg([s * c for c in coords])
        t_max = 1.5 * gen   # one kernel point in range, same scan work for every s
        deck.append(Request(f"period pair {label}",
                            ["period", path, "--coords", arg, "--t-max", _num(t_max)],
                            fields={"verdict": "Discrete"},
                            checks=[oracle.close_check("generator", gen)]))
        grid = 3 + n % 2
        deck.append(Request(f"loop-demo pair {label}",
                            ["loop-demo", path, "--coords", arg, "--grid-size", str(grid)],
                            fields={"only_zero_admissible": True, "grid_size": grid,
                                    "scanned": 9 ** (grid - 2),
                                    "pointwise_kernel_loops": 3 ** (grid - 2),
                                    "admissible_kernel_loops": 1},
                            checks=[oracle.close_check("generator", gen)]))
        deck.append(Request(f"geodesic pair {label}", ["geodesic", path, "--samples", "10",
                                                  "--seed", str(int(rng.integers(1000)))],
                            fields={"ok": True}))
        half = int(rng.integers(1, 5))   # t = half * gen / 2: in the fixed group iff half is even
        deck.append(Request(f"pair-exp pair {label}",
                            ["pair-exp", path, "--coords", arg, "--t", _num(half * gen / 2)],
                            fields={"in_fixed_group": half % 2 == 0}))
    deck.append(Request("quotient-demo", ["quotient-demo"],
                        fields={"irrational_pair_verdict": "NonDiscreteWitness",
                                "projected_verdict": "NonDiscreteWitness",
                                "rational_slope_control": "Discrete",
                                "control_generator": ["1/5"]},
                        checks=[oracle.witness_check([[1.0], [math.sqrt(2.0)]], 1e-6, 10 ** 6)]))
    # six subgroups of each size, so that subgroup searches take about as
    # long as the kernel scans above
    for k in [k for k in range(1, 9) for _ in range(6)]:
        # full-rank rational lattice in R^k: rows of an integer matrix over a denominator
        while True:
            mat = rng.integers(-4, 5, size=(k, k))
            if abs(np.linalg.det(mat)) > 0.5:
                break
        den = int(rng.integers(1, 7))
        gens = [[float(Fraction(int(x), den)) for x in row] for row in mat]
        deck.append(Request(f"period subgroup-lattice k={k}",
                            ["period", "--subgroup", *map(_vector_arg, gens)],
                            fields={"verdict": "Discrete"}))
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for k in [k for k in range(2, 9) for _ in range(6)]:
        scale = float(rng.uniform(0.5, 2.0))
        roots = sorted(rng.choice(primes, size=k - 1, replace=False).tolist())
        gens = [[scale]] + [[scale * math.sqrt(p)] for p in roots]
        args = [_vector_arg(g) for g in gens]
        deck.append(Request(f"period subgroup-dense k={k}", ["period", "--subgroup", *args],
                            checks=[oracle.verdict_check(("NonDiscreteWitness", "Inconclusive")),
                                    oracle.witness_check([[float(a)] for a in args],
                                                         1e-6, 10 ** 6)]))
    return deck


WORKLOADS = {
    "exact-structure": exact_structure,
    "float-structure": float_structure,
    "periods": periods,
}
