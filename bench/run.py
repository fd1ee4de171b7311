#!/usr/bin/env python3
"""triplekit benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload exact-structure --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  One client in this process sends requests
to `triplekit.cli.main(argv + ["--json"])` one after another (a closed loop)
in a seeded shuffled order, over documents generated before timing.  Every
answer is checked against a known answer.  Timings are scaled to the shared
host's full speed by a reference kernel run between requests (hostspeed.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the lines before
it print every metric with its unit and the run's facts.  `--trace 1` times
an untraced half and a traced half and reports the per-layer metrics plus
the tracing overhead.  Results and spans are written under .bench_out/.
See bench/README.md.
"""

import os

# One BLAS thread, set before numpy loads: with two OpenBLAS threads, 2 of 5
# fresh processes ran float `center` at d = 10 ten times slower.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PROBE_EVERY = 2    # requests between runs of the host speed kernel

# Galleries each workload draws on, built by the cold-start probe.
GALLERIES = {
    "exact-structure": ("lts_gallery", "symmetric_algebra_gallery", "pair_gallery"),
    "float-structure": ("lts_gallery", "pair_gallery"),
    "periods": ("pair_gallery",),
}

END_TO_END = {
    "requests_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB", "setup_s": "s",
}

# per-layer metric -> (function, statistic); calls and self_s are per pass
LAYER_METRICS = [
    ("numerics.rref.calls", "calls"), ("numerics.rref.self_s", "self_s"),
    ("numerics.solve_exact.calls", "calls"), ("numerics.span_basis.self_s", "self_s"),
    ("numerics.coordinates_in_span.calls", "calls"),
    ("numerics.coordinates_in_span.self_s", "self_s"),
    ("numerics.coordinates_in_span_many.self_s", "self_s"),
    ("numerics.nullspace.self_s", "self_s"),
    ("lts.Subspace.contains.calls", "calls"), ("lts.is_ideal.self_s", "self_s"),
    ("lts.center.self_s", "self_s"), ("lts.verify_axioms.self_s", "self_s"),
    ("lts.bracket_eval.calls", "calls"), ("lts.bracket_eval.self_s", "self_s"),
    ("lts.bracket_eval.per_certify", "per:lts.certify_morphism"),
    ("lts.certify_morphism.self_s", "self_s"), ("lts.quotient.self_s", "self_s"),
    ("symlie.standard_embedding.self_s", "self_s"),
    ("symlie.verify_lie_axioms.self_s", "self_s"),
    ("symlie.triple_from_involution.self_s", "self_s"),
    ("sympair.derived_symmetric_algebra.self_s", "self_s"),
    ("sympair.derived_symmetric_algebra_float.self_s", "self_s"),
    ("numerics.matrix_exp.calls", "calls"), ("numerics.matrix_exp.self_s", "self_s"),
    ("numerics.matrix_exp.per_scan", "per:periods.kernel_lattice_1d"),
    ("sympair.fixed_group_residual.calls", "calls"),
    ("sympair.fixed_group_residual.self_s", "self_s"),
    ("sympair.coset_mul.self_s", "self_s"),
    ("periods.kernel_lattice_1d.self_s", "self_s"),
    ("periods.grid_loop_period_check.self_s", "self_s"),
    ("periods.subgroup_discreteness.self_s", "self_s"),
    ("periods.subgroup_discreteness.decided_ratio", "decided_ratio"),
    ("jsonio.load.calls", "calls"), ("jsonio.load.self_s", "self_s"),
    ("cli.main.self_s", "self_s"),
    ("symlie.standard_embedding.errors", "errors"),
]
UNITS = {"calls": "count", "self_s": "s", "errors": "count", "decided_ratio": "ratio"}


def call(argv: list[str]) -> tuple[int | None, str, str, float]:
    """One request through the real entry point; returns code, stdout, stderr, seconds."""
    from triplekit import cli
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--json"])
        except SystemExit as e:          # argparse rejects the command line
            code = e.code if isinstance(e.code, int) else 2
        except Exception:                # a raise is a failed request, not a crash
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def _malloc_trim():
    """glibc's malloc_trim, after fixing the mmap threshold at its 32 MiB ceiling.

    By default glibc raises the threshold each time it frees a large mapped
    block, so where a 24 MB d = 12 tensor lives depends on the order of
    requests, and peak RSS varied 183-198 MiB between runs.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        return libc.malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


def run_passes(deck, budget: float, rng, tracer=None, first_id: int = 0, after_pass=None):
    """Whole shuffled passes over the deck until another pass would overrun the budget.

    Returns records (deck index, exit code, stdout, stderr, seconds), the
    wall time of each pass and its reference kernel times (see hostspeed.py).
    The reference kernel runs after every PROBE_EVERY requests, outside the
    timed wall.  Freed heap goes back to the system after every request, as
    it would when each request is its own process, so that peak memory does
    not depend on the order of requests.  `after_pass` runs between passes,
    outside the budget.
    """
    trim = _malloc_trim()
    records = []
    walls = []
    kernels = []
    while True:
        paused = 0.0
        kernel = []
        start = perf_counter()
        for n, idx in enumerate(rng.permutation(len(deck))):
            if tracer is not None:
                tracer.request = first_id + len(records)
            records.append((int(idx), *call(deck[idx].argv)))
            pause = perf_counter()
            trim(0)
            if n % PROBE_EVERY == 0:
                kernel.append(hostspeed.kernel_seconds())
            paused += perf_counter() - pause
        walls.append(perf_counter() - start - paused)
        kernels.append(kernel)
        if after_pass is not None:
            after_pass()
        if sum(walls) + statistics.mean(walls) > budget:
            return records, walls, kernels


def warmup_requests(deck) -> list:
    """Per subcommand and document kind, the request on the smallest documents."""
    best = {}
    for req in deck:
        key = tuple(req.name.split()[:2])
        size = sum(Path(a).stat().st_size for a in req.argv if a.endswith(".json"))
        if key not in best or size < best[key][0]:
            best[key] = (size, req)
    return [req for _, req in best.values()]


def setup_probe(workload: str) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import triplekit and build the workload's galleries.

    Returns the raw seconds and the host speed factor from reference kernels
    run just before and just after.
    """
    code = "import triplekit.fixtures as fx\n" + "".join(
        f"fx.{g}()\n" for g in GALLERIES[workload])
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    kernel = [hostspeed.kernel_seconds() for _ in range(10)]
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
    secs = perf_counter() - start
    kernel += [hostspeed.kernel_seconds() for _ in range(10)]
    return secs, hostspeed.speed_factor(kernel)


def timings(records, deck, walls: list[float], kernels: list[list[float]]) -> dict:
    """End-to-end timings over every send of the timed phase, at full host speed.

    Each request's time is scaled by the speed factor of the kernel runs
    around it, and each pass's wall by that of the pass (see hostspeed.py).
    Every request is sent once per pass, so the sends of a run sample the
    whole run.  The raw figures are kept.
    """
    n = len(deck)
    scale = [f for k in kernels for f in hostspeed.request_factors(k, n, PROBE_EVERY)]
    raw = [r[-1] for r in records]
    lat = [secs * f for secs, f in zip(raw, scale)]
    per_request = [[] for _ in deck]
    for (idx, *_), secs in zip(records, lat):
        per_request[idx].append(secs)
    factors = [hostspeed.speed_factor(k) for k in kernels]
    return {
        "requests_per_s": len(records) / sum(w * f for w, f in zip(walls, factors)),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "latency_samples": len(lat),
        "raw": {"requests_per_s": len(records) / sum(walls),
                "latency_p50_ms": 1e3 * statistics.median(raw),
                "latency_p90_ms": 1e3 * statistics.quantiles(raw, n=10, method="inclusive")[8]},
        "pass_walls_s": walls,
        "pass_speed_factors": factors,
        "request_median_ms": [[req.name, 1e3 * statistics.median(t)]
                              for req, t in zip(deck, per_request)],
    }


def check_answers(records, deck) -> dict:
    failures = []
    inconclusive = 0
    for idx, code, out, err, _ in records:
        problem, cls = oracle.judge(deck[idx], code, out, err)
        if problem:
            failures.append({"request": deck[idx].name, "class": cls, "problem": problem,
                             "stderr": err.strip()[-300:]})
        inconclusive += oracle.is_inconclusive(out)
    return {"failures": failures,
            "error_rate": len(failures) / len(records),
            "inconclusive_rate": inconclusive / len(records)}


def layer_metrics(totals: dict, passes: int) -> dict:
    out = {}
    for metric, stat in LAYER_METRICS:
        fn = metric.rsplit(".", 1)[0]
        rec = totals.get(fn, {"calls": 0, "self_s": 0.0, "errors": 0, "decided": 0,
                              "under": {}})
        if stat.startswith("per:"):
            outer = totals.get(stat[4:], {"calls": 0})["calls"]
            value = rec["under"].get(stat[4:], 0) / outer if outer else 0.0
            unit = "count"
        elif stat == "decided_ratio":
            value = rec["decided"] / rec["calls"] if rec["calls"] else 0.0
            unit = "ratio"
        elif stat == "errors":
            value, unit = rec["errors"] / passes, "count"
        else:
            value, unit = rec[stat] / passes, UNITS[stat]
        out[metric] = {"value": value, "unit": unit}
    return out


def blas_facts() -> dict:
    facts = {"env": {k: os.environ.get(k) for k in BLAS_ENV}}
    try:
        facts["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        facts["name"] = "unknown"
    facts["threads"] = None
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                break
    return facts


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=dict(os.environ,
                                                 GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except OSError:
        commit = "unavailable"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_facts(), "git_commit": commit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GALLERIES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "triplekit" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no triplekit sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import triplekit

    # cold starts: one now, the rest between passes, so that they sample the
    # host's speed across the run the way the request timings do
    setup_times = []

    def probe_setup():
        if not args.trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_probe(args.workload))
    probe_setup()

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "docs").mkdir(parents=True)
    rng = np.random.default_rng(args.seed)
    deck = workloads.WORKLOADS[args.workload](rng, ROOT, workloads.DocWriter(work / "docs"))

    warm = warmup_requests(deck)
    for req in warm:
        call(req.argv)

    order_rng = np.random.default_rng([args.seed, 1])
    tracer = None
    if args.trace:
        plain, plain_walls, plain_kernels = run_passes(deck, args.seconds / 2, order_rng)
        tracer = Tracer()
        tracer.install(triplekit)
        try:
            records, walls, kernels = run_passes(deck, args.seconds / 2, order_rng, tracer,
                                                 first_id=len(plain))
        finally:
            tracer.uninstall()
        every = plain + records
    else:
        records, walls, kernels = run_passes(deck, args.seconds, order_rng,
                                             after_pass=probe_setup)
        every = records
        while len(setup_times) < SETUP_REPEATS:
            probe_setup()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = len(walls)
    times = timings(records, deck, walls, kernels)
    per_request = times.pop("request_median_ms")
    answers = check_answers(every, deck)
    unexpected = [f for f in answers["failures"] if f["class"] == "unexpected"]
    rates = {"error_rate": answers["error_rate"],
             "inconclusive_rate": answers["inconclusive_rate"]}
    if args.trace:
        plain_rps = timings(plain, deck, plain_walls, plain_kernels)["requests_per_s"]
        metrics = layer_metrics(tracer.totals(), passes)
        metrics.update({k: {"value": v, "unit": "ratio"} for k, v in rates.items()})
        metrics["tracing_overhead_pct"] = {
            "value": 100.0 * (plain_rps - times["requests_per_s"]) / plain_rps, "unit": "%"}
        tracer.write(work / "spans.jsonl")
    else:
        values = dict(times, peak_rss_mib=peak_rss_mib,
                      setup_s=statistics.median(secs * f for secs, f in setup_times))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    facts = dict(machine_facts(), workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, deck_size=len(deck), passes=passes,
                 warmup_requests=len(warm), attempted=len(every), timings=times,
                 setup_runs_s_and_speed_factor=setup_times,
                 client="closed loop, 1 client, in-process")
    result = {"correct": not unexpected, "attempted": len(every),
              "failed": len(answers["failures"]), "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        dict(result, facts=facts, rates=rates, failures=answers["failures"],
             request_median_ms=per_request), indent=1))
    shutil.rmtree(work / "docs")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in rates.items():
            print(f"{name:48s} {value:.6g} ratio")
    classes = sorted({f["class"] for f in answers["failures"]})
    print(f"failures: {result['failed']} of {result['attempted']}"
          f" (classes: {', '.join(classes) or 'none'})")
    for f in unexpected[:5]:
        print(f"UNEXPECTED {f['request']}: {f['problem']} {f['stderr'][-120:]}")
    print("facts: " + json.dumps(facts, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
