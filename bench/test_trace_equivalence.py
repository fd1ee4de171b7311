"""The traced run must behave exactly like the untraced one.

Every request of each workload (on exact-structure, those whose documents
total at most 1000 bytes, to keep the test to seconds) is sent once untraced
and once with the tracer installed; stdout must match byte for byte and the
exit codes must agree.

    python3 -m pytest bench -q
"""

import shutil
import sys
from pathlib import Path

import run  # first: pins the BLAS thread count before numpy loads

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
import triplekit  # noqa: E402

SEED = 7


def _doc_bytes(req) -> int:
    return sum(Path(a).stat().st_size for a in req.argv if a.endswith(".json"))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_requests_match_untraced(workload):
    docs = run.OUT / f"selftest-{workload}"
    shutil.rmtree(docs, ignore_errors=True)
    docs.mkdir(parents=True)
    try:
        deck = workloads.WORKLOADS[workload](np.random.default_rng(SEED), run.ROOT,
                                             workloads.DocWriter(docs))
        if workload == "exact-structure":
            deck = [r for r in deck if _doc_bytes(r) <= 1000]
        plain = [run.call(r.argv)[:2] for r in deck]
        tracer = spans.Tracer()
        tracer.install(triplekit)
        try:
            traced = [run.call(r.argv)[:2] for r in deck]
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(docs, ignore_errors=True)
    assert len(deck) >= 10
    for req, a, b in zip(deck, plain, traced):
        assert a == b, f"{req.name}: traced output differs"
    assert any(s[0] == "cli.main" for s in tracer.spans)
