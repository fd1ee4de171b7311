"""JSON serialization for triple systems, symmetric algebras, and pairs.

The format is canonical: keys are sorted, separators are fixed, bracket
entries are listed in lexicographic index order, and exact values are
rendered as fraction strings.  Saving what was just loaded reproduces the
file byte for byte, which makes fixtures diffable and cache-friendly.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from triplekit import lts as lt
from triplekit import numerics as nx
from triplekit import symlie as sl
from triplekit import sympair as sp
from triplekit.numerics import DEFAULT_TOLERANCE, FLOAT, RATIONAL, TolerancePolicy


class FormatError(ValueError):
    """The document does not describe a known object."""


# A pair document names the subgroup K of its cosets; the full sigma-fixed
# group is the one sympair computes with.
FULL_FIXED_GROUP = "full_fixed_group"


def _enc(x, mode):
    return str(x) if mode == RATIONAL else float(x)


def _decoder(mode):
    """The one parser of a JSON value, for every field: an exact value is a
    fraction string or a JSON integer, a float value a JSON number (NaN too,
    for the non-finite checks to reject).  Anything else, bools included, is
    a FormatError."""
    make, kinds = (Fraction, (str, int)) if mode == RATIONAL else (float, (float, int))

    def dec(x):
        try:
            if type(x) in kinds:
                return make(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        raise FormatError(f"{x!r} is not a {mode} value")
    return dec


def _enc_matrix(m, mode):
    return [[_enc(x, mode) for x in row] for row in m]


def _dec_matrix(rows, mode):
    """A list of equal-length lists of values, as a 2-D array in mode."""
    if not isinstance(rows, list) or any(
            not isinstance(r, list) or len(r) != len(rows[0]) for r in rows):
        raise FormatError("a matrix must be a list of rows of one length")
    dec = _decoder(mode)
    return np.array([[dec(x) for x in row] for row in rows],
                    dtype=object if mode == RATIONAL else float)


def _field(doc, key: str):
    """doc[key]; a missing key, or a document that is no object, is a FormatError."""
    if not isinstance(doc, dict):
        raise FormatError(f"expected an object holding {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise FormatError(f"document has no {key!r} key")
    return doc[key]


def _int(doc, key: str) -> int:
    """doc[key], which must be a JSON integer (a bool is not one)."""
    value = _field(doc, key)
    if type(value) is not int:
        raise FormatError(f"{key!r} must be an integer, got {value!r}")
    return value


def _mode(value) -> str:
    if value not in (RATIONAL, FLOAT):
        raise FormatError(f"unknown mode {value!r}; expected {RATIONAL!r} or {FLOAT!r}")
    return value


def _labels_out(labels):
    return list(labels) if labels is not None else None


def _labels_in(v):
    return tuple(v) if v is not None else None


# ----------------------------------------------------------------- to dicts

def lts_to_dict(system: lt.LieTripleSystem) -> dict:
    entries = []
    d = system.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    x = system.tensor[i, j, k, l]
                    if x != 0:
                        entries.append([i, j, k, l, _enc(x, system.mode)])
    return {"kind": "lts", "dim": d, "mode": system.mode,
            "labels": _labels_out(system.labels), "bracket": entries}


def lie_to_dict(algebra: sl.LieAlgebra) -> dict:
    entries = []
    d = algebra.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                x = algebra.tensor[i, j, k]
                if x != 0:
                    entries.append([i, j, k, _enc(x, algebra.mode)])
    return {"kind": "lie", "dim": d, "mode": algebra.mode,
            "labels": _labels_out(algebra.labels), "bracket": entries}


def symmetric_to_dict(sla: sl.SymmetricLieAlgebra) -> dict:
    return {"kind": "symmetric_lie",
            "algebra": lie_to_dict(sla.algebra),
            "theta": _enc_matrix(sla.theta, sla.algebra.mode)}


def pair_to_dict(pair: sp.MatrixSymmetricPair) -> dict:
    if isinstance(pair.sigma, sp.SigmaTransposeInverse):
        sigma = "transpose_inverse"
    else:
        sigma = {"conjugation_by": _enc_matrix(pair.sigma.matrix, pair.mode)}
    return {"kind": "pair", "ambient_n": pair.ambient_n, "mode": pair.mode,
            "basis": [_enc_matrix(m, pair.mode) for m in pair.basis], "sigma": sigma,
            "policy": FULL_FIXED_GROUP, "name": pair.name}


# --------------------------------------------------------------- from dicts

def lts_from_dict(doc: dict) -> lt.LieTripleSystem:
    d = _int(doc, "dim")
    mode = _mode(_field(doc, "mode"))
    entries = _field(doc, "bracket")
    dec = _decoder(mode)
    tensor = nx.zeros((d, d, d, d), mode)
    # one entry at a time: building index arrays first measured slower
    try:
        for i, j, k, l, v in entries:
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d and 0 <= l < d):
                raise IndexError(f"index {[i, j, k, l]} is outside [0, {d})")
            # a bool passes the range check, but numpy would read it as a mask
            if type(i) is bool or type(j) is bool or type(k) is bool or type(l) is bool:
                raise TypeError(f"index {[i, j, k, l]} is not an integer")
            tensor[i, j, k, l] = dec(v)
    except (IndexError, TypeError, ValueError) as e:
        raise FormatError(f"bad lts bracket entry: {e}") from e
    return lt.LieTripleSystem(d, tensor, mode, _labels_in(doc.get("labels")))


def lie_from_dict(doc: dict) -> sl.LieAlgebra:
    d = _int(doc, "dim")
    mode = _mode(_field(doc, "mode"))
    entries = _field(doc, "bracket")
    dec = _decoder(mode)
    tensor = nx.zeros((d, d, d), mode)
    try:
        for i, j, k, v in entries:
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                raise IndexError(f"index {[i, j, k]} is outside [0, {d})")
            if type(i) is bool or type(j) is bool or type(k) is bool:
                raise TypeError(f"index {[i, j, k]} is not an integer")
            tensor[i, j, k] = dec(v)
    except (IndexError, TypeError, ValueError) as e:
        raise FormatError(f"bad lie bracket entry: {e}") from e
    return sl.LieAlgebra(d, tensor, mode, _labels_in(doc.get("labels")))


def symmetric_from_dict(doc: dict, tol: TolerancePolicy = DEFAULT_TOLERANCE
                        ) -> sl.SymmetricLieAlgebra:
    algebra = lie_from_dict(_field(doc, "algebra"))
    theta = _dec_matrix(_field(doc, "theta"), algebra.mode)
    return sl.SymmetricLieAlgebra(algebra, theta, tol)


def pair_from_dict(doc: dict) -> sp.MatrixSymmetricPair:
    mode = _mode(doc.get("mode", FLOAT))
    sigma_doc = _field(doc, "sigma")
    if sigma_doc == "transpose_inverse":
        sigma = sp.SigmaTransposeInverse()
    elif isinstance(sigma_doc, dict) and "conjugation_by" in sigma_doc:
        sigma = sp.SigmaConjugation(_dec_matrix(sigma_doc["conjugation_by"], mode))
    else:
        raise FormatError("unknown sigma description")
    n = _int(doc, "ambient_n")
    basis = [_dec_matrix(m, mode) for m in _field(doc, "basis")]
    policy = doc.get("policy", FULL_FIXED_GROUP)
    if policy != FULL_FIXED_GROUP:
        raise FormatError(f"unknown policy {policy!r}; expected {FULL_FIXED_GROUP!r}")
    return sp.MatrixSymmetricPair(n, basis, sigma, name=doc.get("name", ""))


# ------------------------------------------------------------------ file API

_TO = {
    lt.LieTripleSystem: lts_to_dict,
    sl.LieAlgebra: lie_to_dict,
    sl.SymmetricLieAlgebra: symmetric_to_dict,
    sp.MatrixSymmetricPair: pair_to_dict,
}

_FROM = {
    "lts": lts_from_dict,
    "lie": lie_from_dict,
    "symmetric_lie": symmetric_from_dict,
    "pair": pair_from_dict,
}


def to_dict(obj) -> dict:
    fn = _TO.get(type(obj))
    if fn is None:
        raise FormatError(f"cannot serialize {type(obj).__name__}")
    return fn(obj)


def sniff_kind(doc: dict) -> str:
    """Recover the document kind, trusting the tag but surviving without it."""
    kind = doc.get("kind")
    if kind in _FROM:
        return kind
    if "sigma" in doc and "basis" in doc:
        return "pair"
    if "theta" in doc and "algebra" in doc:
        return "symmetric_lie"
    if "bracket" in doc and doc.get("bracket") is not None:
        if not isinstance(doc["bracket"], list):
            raise FormatError("bracket must be a list of entries")
        first = doc["bracket"][0] if doc["bracket"] else None
        arity = len(first) if isinstance(first, list) else None
        if arity == 5 or (arity is None and "dim" in doc):
            return "lts"
        if arity == 4:
            return "lie"
        return "lts"
    raise FormatError("document matches no known object layout")


def from_dict(doc: dict, tol: TolerancePolicy = DEFAULT_TOLERANCE):
    """The object a document describes; tol is the policy a float symmetric
    algebra checks its involution against."""
    kind = sniff_kind(doc)
    if kind == "symmetric_lie":
        return symmetric_from_dict(doc, tol)
    return _FROM[kind](doc)


def dumps(obj) -> str:
    doc = to_dict(obj) if not isinstance(obj, dict) else obj
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def save(path, obj) -> None:
    with open(path, "w") as f:
        f.write(dumps(obj))


def load(path, tol: TolerancePolicy = DEFAULT_TOLERANCE):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise FormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError("top-level JSON value must be an object")
    return from_dict(doc, tol)
