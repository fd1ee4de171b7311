"""Known-answer checks for benchmark requests.

A request passes when it exits 0, every pinned report entry matches, and
every extra check accepts the report.  Extra checks recompute what they need
from the generated input (a center vector must annihilate the bracket, a
subgroup witness must be short in exact rationals); none calls triplekit.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

# Known defects at the time the benchmark was written: (exit code, stream,
# text).  A request whose answer is wrong in exactly one of these ways is
# still counted as failed, but does not make the run incorrect.
EMBED_FLOAT = "embed-float-self-check"
QUOTIENT_FULL_CENTER = "quotient-full-center"
FLOAT_TOLERANCE = "float-absolute-tolerance"
DEFECT_SIGNS = {
    # standard_embedding's own round-trip checks reject a valid float system
    EMBED_FLOAT: ((2, "err", "odd eigenspace basis is not the canonical block"),
                  (2, "err", "ambient center differs from the embedded center"),
                  (2, "err", "embedding violates")),
    # quotient by an ideal that is the whole space: numpy matmul shape error
    QUOTIENT_FULL_CENTER: ((2, "err", "matmul"),),
    # a float verdict compared against the absolute tolerance 1e-9 reads a
    # valid object as a violation: the float check of a rational pair with
    # large structure constants, or the certification of a float quotient
    FLOAT_TOLERANCE: ((1, "out", '"ok":false'), (1, "out", '"certified":false')),
}
UNEXPECTED = "unexpected"
INCONCLUSIVE = "Inconclusive"


def judge(req, code: int, out: str, err: str) -> tuple[str | None, str | None]:
    """Return (mismatch description, failure class); (None, None) on success."""
    problem = _mismatch(req, code, out)
    if problem is None:
        return None, None
    streams = {"out": out, "err": err}
    for defect in req.defects:
        for want, stream, text in DEFECT_SIGNS[defect]:
            if code == want and text in streams[stream]:
                return problem, defect
    return problem, UNEXPECTED


def is_inconclusive(out: str) -> bool:
    try:
        return json.loads(out).get("verdict") == INCONCLUSIVE
    except (ValueError, AttributeError):
        return False


def _mismatch(req, code: int, out: str) -> str | None:
    if code != 0:   # every request in the decks is valid input with a true verdict
        return f"exit {code}, expected 0"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not one JSON report"
    for key, want in req.fields.items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    for check in req.checks:
        problem = check(report)
        if problem:
            return problem
    return None


# ------------------------------------------------------------------ checks

def _vectors(rows, exact: bool) -> np.ndarray:
    if exact:
        return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)
    return np.array(rows, dtype=float)


def center_basis_check(c: np.ndarray, dim: int, exact: bool):
    """Reported basis: `dim` independent vectors, each annihilating the bracket."""
    scale = max(1.0, float(np.max(np.abs(c.astype(float)))))

    def check(report):
        rows = report.get("basis", [])
        if len(rows) != dim:
            return f"center basis has {len(rows)} vectors, expected {dim}"
        if not rows:
            return None
        vecs = _vectors(rows, exact)
        if np.linalg.matrix_rank(vecs.astype(float)) != dim:
            return "center basis vectors are dependent"
        for v in vecs:
            image = np.tensordot(v, c, axes=(0, 0))
            if exact and any(x != 0 for x in image.reshape(-1)):
                return "center vector does not annihilate the bracket"
            if not exact and float(np.max(np.abs(image))) > 1e-7 * scale:
                return "center vector does not annihilate the bracket"
        return None
    return check


def basis_count_check(dim: int):
    def check(report):
        n = len(report.get("basis", []))
        return None if n == dim else f"center basis has {n} vectors, expected {dim}"
    return check


def close_check(key: str, want: float, tol: float = 1e-8):
    def check(report):
        got = report.get(key)
        if not isinstance(got, (int, float)) or abs(got - want) > tol:
            return f"{key} = {got!r}, expected {want!r} within {tol}"
        return None
    return check


def verdict_check(allowed: tuple[str, ...]):
    def check(report):
        v = report.get("verdict")
        return None if v in allowed else f"verdict {v!r}, expected one of {allowed}"
    return check


def witness_check(generators: list[list[float]], epsilon: float, bound: int,
                  coeff_key: str = "witness_coefficients"):
    """A NonDiscreteWitness must be short in exact arithmetic.

    The combination is recomputed from Fraction(float(g)) of the generators
    the program received, so float round-off in the search cannot pass a
    wrong witness.
    """
    gens = [[Fraction(x) for x in g] for g in generators]

    def check(report):
        if report.get("verdict", report.get("irrational_pair_verdict")) != "NonDiscreteWitness":
            return None
        cs = report.get(coeff_key)
        if not cs or not any(cs) or max(abs(c) for c in cs) > bound:
            return f"witness coefficients {cs!r} are zero or beyond the bound"
        if len(cs) != len(gens):
            return "witness has the wrong number of coefficients"
        comb = [sum((c * g[j] for c, g in zip(cs, gens)), Fraction(0))
                for j in range(len(gens[0]))]
        norm2 = sum(x * x for x in comb)
        if not 0 < norm2 < Fraction(epsilon) ** 2:
            return "witness combination is not short and nonzero in exact arithmetic"
        return None
    return check
