"""Command-line front end.

Every command prints a human-readable report by default and a canonical JSON
report with --json.  Exit codes follow one contract everywhere: 0 means the
requested computation succeeded (and any verification passed), 1 means a
verification ran and found a genuine violation, 2 means the input could not
be used (missing file, malformed document, incompatible arguments).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from triplekit import fixtures as fx
from triplekit import jsonio
from triplekit import lts as lt
from triplekit import numerics as nx
from triplekit import periods as pd
from triplekit import symlie as sl
from triplekit import sympair as sp
from triplekit.numerics import FLOAT, TolerancePolicy

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

_INPUT_ERRORS = (
    OSError, jsonio.FormatError, lt.LtsStructureError, lt.NotAnIdealError,
    lt.ModeMismatchError, sl.InvolutionDefectError, sl.ClosureDefectError,
    sl.AxiomDefectError, sp.PairInputError, pd.CenterMismatchError,
    nx.ModeError, ValueError,
)


def _policy(args) -> TolerancePolicy:
    t = args.tol
    return TolerancePolicy(eq_tol=t, rank_tol=t, membership_tol=10.0 * t)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):  # before int: bool subclasses int
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if x is None or isinstance(x, str):
        return x
    return str(x)


def _emit(report: dict, args) -> None:
    if args.json:
        print(json.dumps(_jsonable(report), sort_keys=True, separators=(",", ":")))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k2, v2 in value.items():
                print(f"  {k2}: {_fmt(v2)}")
        else:
            print(f"{key}: {_fmt(value)}")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, np.ndarray):
        return np.array2string(np.asarray(v), precision=9, suppress_small=True)
    if isinstance(v, (list, tuple)) and v and isinstance(v[0], (float, np.floating)):
        return "[" + ", ".join(f"{float(x):.9g}" for x in v) + "]"
    return str(v)


def _parse_coords(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",") if p.strip() != ""])
    except ValueError as e:
        raise jsonio.FormatError(f"bad coordinate list {text!r}") from e


def _direction(pair, args, fallback: str = "center"):
    if getattr(args, "coords", None):
        coords = _parse_coords(args.coords)
        if coords.shape[0] != pair.dim:
            raise jsonio.FormatError(
                f"expected {pair.dim} coordinates, got {coords.shape[0]}")
        return sp.tangent_from_coords(pair, coords)
    if fallback == "center":
        return pd.default_central_direction(pair)
    # geodesics and exponentials take any odd direction; use the first
    # odd basis vector, unit Frobenius norm
    _, minus = sp.minus_triple(pair, FLOAT)
    mat = sp.tangent_from_coords(pair, minus.basis[0])
    return mat / nx.frobenius(mat)


# ------------------------------------------------------------------ commands

def cmd_check(args) -> int:
    tol = _policy(args)
    try:
        obj = jsonio.load(args.file, tol)
    except sl.InvolutionDefectError as e:
        _emit({"ok": False, "reason": str(e)}, args)
        return EXIT_VIOLATION
    if isinstance(obj, lt.LieTripleSystem):
        rep = lt.verify_axioms(obj, tol)
        report = {"kind": "lts", "dim": obj.dim, "mode": obj.mode, "ok": rep.ok,
                  "worst_violation": rep.worst_violation, "identity": rep.identity}
        _emit(report, args)
        return EXIT_OK if rep.ok else EXIT_VIOLATION
    if isinstance(obj, sl.LieAlgebra):
        rep = sl.verify_lie_axioms(obj, tol)
        report = {"kind": "lie", "dim": obj.dim, "mode": obj.mode, "ok": rep.ok,
                  "worst_violation": rep.worst_violation, "identity": rep.identity}
        _emit(report, args)
        return EXIT_OK if rep.ok else EXIT_VIOLATION
    if isinstance(obj, sl.SymmetricLieAlgebra):
        # construction already verified theta; verify the algebra itself too
        rep = sl.verify_lie_axioms(obj.algebra, tol)
        split = sl.eigensplit(obj, tol)
        report = {"kind": "symmetric_lie", "dim": obj.algebra.dim, "ok": rep.ok,
                  "even_dim": split.plus.dim, "odd_dim": split.minus.dim}
        _emit(report, args)
        return EXIT_OK if rep.ok else EXIT_VIOLATION
    system, _ = sp.minus_triple(obj)
    rep = lt.verify_axioms(system, tol)
    report = {"kind": "pair", "ambient_n": obj.ambient_n,
              "dimension": obj.dim, "odd_dim": system.dim,
              "derived_mode": system.mode, "ok": rep.ok}
    _emit(report, args)
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def cmd_center(args) -> int:
    tol = _policy(args)
    obj = jsonio.load(args.file, tol)
    if isinstance(obj, lt.LieTripleSystem):
        z = lt.center(obj, tol)
        report = {"kind": "lts", "center_dim": z.dim,
                  "basis": [list(v) for v in z.basis]}
    elif isinstance(obj, sl.SymmetricLieAlgebra):
        z = sl.symmetric_center(obj, tol)
        report = {"kind": "symmetric_lie", "center_dim": z.dim,
                  "basis": [list(v) for v in z.basis]}
    elif isinstance(obj, sl.LieAlgebra):
        z = sl.lie_center(obj, tol)
        report = {"kind": "lie", "center_dim": z.dim,
                  "basis": [list(v) for v in z.basis]}
    else:
        system, _ = sp.minus_triple(obj)
        z = lt.center(system, tol)
        report = {"kind": "pair", "center_dim": z.dim,
                  "basis": [list(v) for v in z.basis]}
    _emit(report, args)
    return EXIT_OK


def cmd_embed(args) -> int:
    tol = _policy(args)
    obj = jsonio.load(args.file, tol)
    if not isinstance(obj, lt.LieTripleSystem):
        raise jsonio.FormatError("embed expects a triple-system document")
    emb = sl.standard_embedding(obj, tol)
    report = {
        "triple_dim": obj.dim,
        "operator_part_dim": emb.h_dim,
        "ambient_dim": emb.symmetric.algebra.dim,
        "certified": emb.embedding.certified,
    }
    _emit(report, args)
    return EXIT_OK if emb.embedding.certified else EXIT_VIOLATION


def cmd_quotient(args) -> int:
    tol = _policy(args)
    obj = jsonio.load(args.file, tol)
    if not isinstance(obj, lt.LieTripleSystem):
        raise jsonio.FormatError("quotient expects a triple-system document")
    if args.ideal:
        with open(args.ideal) as f:
            doc = json.load(f)
        vecs = jsonio._dec_matrix(jsonio._field(doc, "vectors"), obj.mode)
        if len(vecs) and vecs.shape[1] != obj.dim:
            raise jsonio.FormatError(f"ideal vectors need {obj.dim} entries each")
        ideal = lt.subspace_from_vectors(vecs.reshape(-1, obj.dim), tol)
    else:
        ideal = lt.center(obj, tol)
    qsys, proj = lt.quotient(obj, ideal, tol)
    report = {"source_dim": obj.dim, "ideal_dim": ideal.dim,
              "quotient_dim": qsys.dim, "certified": proj.certified}
    if args.out:
        jsonio.save(args.out, qsys)
        report["written"] = args.out
    _emit(report, args)
    return EXIT_OK if proj.certified else EXIT_VIOLATION


def cmd_product(args) -> int:
    tol = _policy(args)
    a = jsonio.load(args.file, tol)
    b = jsonio.load(args.file2, tol)
    if not (isinstance(a, lt.LieTripleSystem) and isinstance(b, lt.LieTripleSystem)):
        raise jsonio.FormatError("product expects two triple-system documents")
    prod = lt.direct_product(a, b)
    rep = lt.verify_axioms(prod, tol)
    report = {"left_dim": a.dim, "right_dim": b.dim,
              "product_dim": prod.dim, "ok": rep.ok}
    if args.out:
        jsonio.save(args.out, prod)
        report["written"] = args.out
    _emit(report, args)
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def cmd_pair_exp(args) -> int:
    tol = _policy(args)
    pair = jsonio.load(args.file, tol)
    if not isinstance(pair, sp.MatrixSymmetricPair):
        raise jsonio.FormatError("pair-exp expects a pair document")
    x = _direction(pair, args, fallback="odd")
    point = sp.exp_pair(pair, x, args.t, tol)
    base = sp.base_point(pair)
    report = {
        "t": args.t,
        "residual_to_base": sp.coset_residual(point, base),
        "in_fixed_group": bool(sp.in_fixed_group(pair, point.rep, tol)),
        "representative": point.rep,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_geodesic(args) -> int:
    tol = _policy(args)
    pair = jsonio.load(args.file, tol)
    if not isinstance(pair, sp.MatrixSymmetricPair):
        raise jsonio.FormatError("geodesic expects a pair document")
    x = _direction(pair, args, fallback="odd")
    geo = sp.geodesic(pair, x)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        s = float(rng.uniform(-1.5, 1.5))
        t = float(rng.uniform(-1.5, 1.5))
        moved = sp.translate(geo, s, geo.point(t))
        expected = geo.point(s + t)
        worst = max(worst, sp.coset_residual(moved, expected))
    report = {"samples": args.samples, "worst_translation_residual": worst,
              "ok": worst < 100.0 * tol.eq_tol}
    _emit(report, args)
    return EXIT_OK if report["ok"] else EXIT_VIOLATION


def cmd_period(args) -> int:
    tol = _policy(args)
    if args.subgroup:
        gens = [_parse_coords(v) for v in args.subgroup]
        cfg = pd.SubgroupSearchConfig(epsilon=args.epsilon,
                                      coefficient_bound=args.bound)
        lat = pd.subgroup_discreteness(gens, cfg)
        report = {
            "route": "subgroup",
            "verdict": lat.verdict,
            "generators": [list(map(float, g)) for g in lat.generators],
            "caveat": lat.meta.get("caveat", ""),
        }
        if lat.witness is not None:
            report["witness_coefficients"] = list(lat.witness.coefficients)
            report["witness_norm"] = lat.witness.norm
        _emit(report, args)
        return EXIT_OK
    if not args.file:
        raise jsonio.FormatError("period needs a pair file or --subgroup vectors")
    pair = jsonio.load(args.file, tol)
    if not isinstance(pair, sp.MatrixSymmetricPair):
        raise jsonio.FormatError("period expects a pair document")
    x = _direction(pair, args)
    lat = pd.kernel_lattice_1d(pair, x, t_max=args.t_max, tol=tol)
    report = {"route": "pair", "verdict": lat.verdict,
              "generators": [float(g[0]) for g in lat.generators],
              "caveat": lat.meta.get("caveat", "")}
    if lat.verdict == pd.DISCRETE:
        report["generator"] = float(lat.generators[0][0])
        report["frequencies"] = lat.meta["frequencies"]
        report["generator_residual"] = lat.meta["generator_residual"]
    elif lat.verdict == pd.INCONCLUSIVE:
        report["reason"] = lat.meta["reason"]
    _emit(report, args)
    return EXIT_OK


def cmd_quotient_demo(args) -> int:
    cfg = pd.SubgroupSearchConfig(epsilon=args.epsilon, coefficient_bound=args.bound)
    r2 = math.sqrt(2.0)
    irr = pd.subgroup_discreteness([np.array([1.0]), np.array([r2])], cfg)
    proj = pd.quotient_projection_discreteness(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        [np.array([1.0, r2])], cfg)
    from fractions import Fraction
    control = pd.quotient_projection_discreteness(
        [np.array([Fraction(1), Fraction(0)], dtype=object),
         np.array([Fraction(0), Fraction(1)], dtype=object)],
        [np.array([Fraction(1), Fraction(2)], dtype=object)])
    report = {
        "units": "generator-normalized: the lattice is d*(Z + sqrt(2) Z); "
                 "values are reported with d = 1",
        "irrational_pair_verdict": irr.verdict,
        "witness_coefficients": list(irr.witness.coefficients) if irr.witness else None,
        "witness_norm": irr.witness.norm if irr.witness else None,
        "pi_scale_value": irr.witness.norm * math.pi if irr.witness else None,
        "projected_verdict": proj.verdict,
        "projection_defect": proj.meta.get("defect_pair", {}).get("defect"),
        "rational_slope_control": control.verdict,
        "control_generator": [str(x) for x in control.generators[0]] if control.generators else [],
        "caveat": pd.FINITE_DIMENSION_CAVEAT,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_loop_demo(args) -> int:
    tol = _policy(args)
    pair = jsonio.load(args.file, tol)
    if not isinstance(pair, sp.MatrixSymmetricPair):
        raise jsonio.FormatError("loop-demo expects a pair document")
    x = _direction(pair, args)
    rep = pd.grid_loop_period_check(pair, args.grid_size, x, tol)
    _emit(rep, args)
    return EXIT_OK if rep["only_zero_admissible"] else EXIT_VIOLATION


def cmd_gallery(args) -> int:
    systems = fx.lts_gallery()
    symmetric = fx.symmetric_algebra_gallery()
    pairs = fx.pair_gallery()
    report = {
        "triple_systems": sorted(systems),
        "symmetric_algebras": sorted(symmetric),
        "pairs": sorted(pairs),
    }
    if args.write:
        out = Path(args.write)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for name, system in sorted(systems.items()):
            p = out / f"lts_{name}.json"
            jsonio.save(p, system)
            written.append(str(p))
        for name, sla in sorted(symmetric.items()):
            p = out / f"sym_{name}.json"
            jsonio.save(p, sla)
            written.append(str(p))
        for name, pair in sorted(pairs.items()):
            p = out / f"pair_{name}.json"
            jsonio.save(p, pair)
            written.append(str(p))
        report["written"] = written
    _emit(report, args)
    return EXIT_OK


# -------------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-9,
                   help="base tolerance for float comparisons")
    p.add_argument("--seed", type=int, default=42, help="seed for sampled checks")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="triplekit",
        description="Lie triple systems, symmetric pairs, and kernel lattices")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the axioms of a stored object")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("center", help="center of a stored object")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_center)

    p = sub.add_parser("embed", help="standard embedding of a triple system")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("quotient", help="quotient a triple system by an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", help="JSON file with {\"vectors\": [[...], ...]}")
    p.add_argument("--out", help="write the quotient system here")
    _add_common(p)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("product", help="direct product of two triple systems")
    p.add_argument("file")
    p.add_argument("file2")
    p.add_argument("--out", help="write the product system here")
    _add_common(p)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("pair-exp", help="exponential point on a symmetric pair")
    p.add_argument("file")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--coords", help="tangent coordinates, comma separated")
    _add_common(p)
    p.set_defaults(fn=cmd_pair_exp)

    p = sub.add_parser("geodesic", help="translation law along a geodesic")
    p.add_argument("file")
    p.add_argument("--coords", help="tangent coordinates, comma separated")
    p.add_argument("--samples", type=int, default=25)
    _add_common(p)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("period", help="kernel lattice of a central direction")
    p.add_argument("file", nargs="?")
    p.add_argument("--coords", help="tangent coordinates, comma separated")
    p.add_argument("--t-max", type=float, default=8.0, dest="t_max",
                   help="list the kernel points up to this t (the verdict "
                        "does not depend on it)")
    p.add_argument("--subgroup", nargs="+",
                   help="decide discreteness of these vectors instead")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--bound", type=int, default=10 ** 6)
    _add_common(p)
    p.set_defaults(fn=cmd_period)

    p = sub.add_parser("quotient-demo",
                       help="discrete and non-discrete projected kernels")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--bound", type=int, default=10 ** 6)
    _add_common(p)
    p.set_defaults(fn=cmd_quotient_demo)

    p = sub.add_parser("loop-demo", help="grid loops with pointwise kernel values")
    p.add_argument("file")
    p.add_argument("--grid-size", type=int, default=4, dest="grid_size")
    p.add_argument("--coords", help="tangent coordinates, comma separated")
    _add_common(p)
    p.set_defaults(fn=cmd_loop_demo)

    p = sub.add_parser("gallery", help="list built-in fixtures, optionally write them")
    p.add_argument("--write", help="directory to write fixture JSON files into")
    _add_common(p)
    p.set_defaults(fn=cmd_gallery)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls: every call returns a fresh
    # namespace filled from the defaults, so one parser serves every request
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
