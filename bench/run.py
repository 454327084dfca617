#!/usr/bin/env python3
"""Benchmark of the ncslemma library and its command line.

Run from the repository root:

    python3 bench/run.py --workload dominated --seed 1 --seconds 25 --trace 0

One client in one process asks for one decision at a time and sends the
next when the previous returns (a closed loop).  The workload's instances
are generated from ``--seed`` at set-up, each with its planted answer; the
loop runs over them in a fixed order, pass after pass, until ``--seconds``
have gone by and at least one full pass is done.  Every answer goes through
the checker in ``check.py``.  Workloads, and why each was chosen, are in
``bench/workloads.json``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
splits the time into an untraced and a traced half, and reports the
per-layer metrics of the traced half and the tracing overhead.  Counts
(oracle evaluations, calls, eigensolves) and shares are taken over the
first pass, so the same seed reproduces them exactly.  Times are scaled to
a reference host speed (see "host speed" below); the raw wall times are
printed as well.  ``decided_share`` is one minus the share of inconclusive
decisions; wrong answers are the ``failed`` count of the result.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit.  A full record goes to ``.bench_work/``.
"""

import os

# One BLAS thread: the decisions are small dense eigenproblems, and a second
# thread only adds scheduling noise on a shared two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MODULES = ("linalg", "poly", "cpmaps", "slemma", "positivity", "serialize", "cli")
SETUP_REPS = 11

# Budget of the dominated workload.  At the default (5000) an inconclusive
# decision re-runs both searches in slices up to ~55k evaluations, 5-10 s
# each; 500 keeps one slice, so a run holds enough decisions for a p90.
DOMINATED_BUDGET = 500

# Budget of scalar_slemma and homogenize.  A search whose target cannot be
# reached (a refutable scalar pair, an infeasible homogenization) runs for
# 1.3k-3k evaluations at the default budget, depending on the draw; at 300
# the scalar separator search always stops at the budget (and still finds
# its counterexample), so the draw moves the cost of a pass less.
SCALAR_BUDGET = 300

END_TO_END = {
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "decisions_per_s": "1/s",
    "verify_ms_p50": "ms",
    "evals_per_decision": "count",
    "decided_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Record:
    index: int
    pass_no: int
    solve_s: float
    verify_s: float = None
    inconclusive: bool = False
    failures: list = field(default_factory=list)
    evals: int = 0
    outcome: str = ""
    ref_s: float = 0.0
    at: float = 0.0


# --- workloads -------------------------------------------------------------
# Cases of different cost are interleaved, so that a partial last pass has
# about the mix of a whole one and the percentiles do not depend on where
# the time ran out.

def _interleave(*groups):
    out = []
    for k in range(max(len(g) for g in groups)):
        out += [g[k] for g in groups if k < len(g)]
    return out


def dominated(gen, rng):
    specs = _interleave(
        [(gen.loose, mq) for mq in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (4, 4)]],
        # tight and scale-gap sizes whose outcome does not flip with the seed
        [(gen.tight, mq) for mq in [(1, 2), (4, 2), (4, 3), (4, 4), (6, 8)]],
        [(gen.scale_gap, mq) for mq in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4)]],
    )
    ops = ("decide", "decide_hereditary")
    cases = [make(rng, m, q, ops[k % 2], DOMINATED_BUDGET) for k, (make, (m, q)) in enumerate(specs)]
    cases.append(gen.fixture(ROOT, "example62", "decide", gen.DOMINATED, DOMINATED_BUDGET))
    return cases


def refutable(gen, rng):
    # two (6,8) cases of 15 put p90 inside their cluster, not at its edge
    sizes = [(1, 1), (6, 8), (1, 2), (2, 1), (4, 4), (2, 2), (1, 3), (3, 2), (6, 8), (3, 3),
             (2, 3), (2, 4), (3, 1)]
    ops = ("decide", "decide_hereditary")
    cases = [gen.refutable(rng, m, q, ops[k % 2], None) for k, (m, q) in enumerate(sizes)]
    cases.insert(3, gen.fixture(ROOT, "slemma_counterexample", "decide", gen.REFUTABLE, None))
    cases.insert(10, gen.fixture(ROOT, "hereditary_counterexample", "decide_hereditary",
                                 gen.REFUTABLE, None))
    return cases


def scalar_homogenize(gen, rng):
    # Refutable scalar searches always stop at the budget; infeasible
    # homogenizations stop when their supergradient vanishes, after a number
    # of steps that depends on the draw, so they are kept to three.
    return _interleave(
        [gen.scalar_pair(rng, m, truth, SCALAR_BUDGET)
         for m in (2, 3, 4, 5, 2, 3, 4, 5) for truth in (gen.DOMINATED, gen.REFUTABLE)],
        [gen.homogenization(rng, m, q, feasible, SCALAR_BUDGET)
         for m, q in [(1, 2), (2, 2), (2, 3)] for feasible in (True, False)],
        [gen.positivity(rng, m, q, psd) for m, q in [(2, 2), (3, 3)] for psd in (True, False)],
    )


def cli_roundtrip(gen, rng):
    cases = []
    for m, q in [(1, 1), (6, 8), (2, 2), (4, 4), (3, 3)]:
        data = gen.cli_case(rng, m, q).data
        for op, truth in (("cli-slemma", gen.DOMINATED), ("cli-slemma-hereditary", gen.DOMINATED),
                          ("cli-check-positivity", "psd")):
            cases.append(gen.Case(op, f"{op}-{m}x{q}", truth, data))
    return cases


WORKLOADS = {
    "dominated": dominated,
    "refutable": refutable,
    "scalar-homogenize": scalar_homogenize,
    "cli-roundtrip": cli_roundtrip,
}


# --- set-up ----------------------------------------------------------------

def load_library():
    """Import ncslemma afresh (numpy stays loaded) and return its modules."""
    for name in [n for n in sys.modules if n == "ncslemma" or n.startswith("ncslemma.")]:
        del sys.modules[name]
    importlib.import_module("ncslemma")
    return SimpleNamespace(**{m: importlib.import_module(f"ncslemma.{m}") for m in MODULES})


def _instance_file(path, kind, data, f=None):
    f = data["f"] if f is None else f
    m, q = f.shape[0], f.shape[2]
    doc = {"format": "ncslemma/1", "kind": kind, "f": {"m": m, "q": q, "blocks": f.tolist()}}
    if kind != "positivity":
        doc["g"] = {"m": m, "q": q, "blocks": data["g"].tolist()}
        doc["slater"] = {"n": 1, "kind": "symmetric", "mats": data["slater"].tolist()}
    path.write_text(json.dumps(doc))
    return str(path)


def materialize(case, lib, workdir):
    """Build the library objects (or CLI files and argv) a case is run with."""
    d, op = case.data, case.op
    if op in ("decide", "decide_hereditary"):
        case.args = (lib.poly.new_quad_poly(d["f"]), lib.poly.new_quad_poly(d["g"]),
                     lib.poly.new_tuple(d["slater"], kind=d["slater_kind"]))
    elif op == "scalar_slemma":
        case.args = (lib.poly.new_scalar_quad(d["A"]), lib.poly.new_scalar_quad(d["B"]), d["slater"])
    elif op == "homogenize":
        case.args = (lib.poly.new_quad_poly(d["quad"]), d["linear"], d["constant"])
    elif op == "positivity":
        case.args = (lib.poly.new_quad_poly(d["f"]),)
    else:
        if "paths" not in d:
            stem = workdir / f"{case.label.rsplit('-', 1)[-1]}"
            d["paths"] = {
                "slemma": _instance_file(stem.with_suffix(".slemma.json"), "slemma", d),
                "hereditary": _instance_file(stem.with_suffix(".hereditary.json"),
                                             "slemma-hereditary", d),
                "positivity": _instance_file(stem.with_suffix(".positivity.json"),
                                             "positivity", d, f=d["psd"]),
                "out": str(stem.with_suffix(".cert.json")),
                "out_h": str(stem.with_suffix(".cert-h.json")),
            }
        p = d["paths"]
        case.args = {
            "cli-slemma": ["slemma", "-o", p["out"], p["slemma"]],
            "cli-slemma-hereditary": ["slemma-hereditary", "-o", p["out_h"], p["hereditary"]],
            "cli-check-positivity": ["check-positivity", "--sos", p["positivity"]],
        }[op]


# --- host speed --------------------------------------------------------------
# The host is shared: the same work runs up to ~1.5x slower from one second
# to the next, eigensolves and interpreted code alike.  A reference kernel,
# timed before every decision, tracks that speed, and every time reported
# is scaled to the speed at which the kernel takes REF_MS.  The raw wall
# times are printed too.

# Times are reported as at the speed where the kernel takes REF_MS; on the
# 2-vCPU Xeon VM (numpy 2.4, OpenBLAS 0.3.31, one thread) that set the
# baseline, the kernel took 0.9-1.5 ms in this loop.
REF_MS = 1.0
WINDOW_S = 1.0  # a decision is scaled by the kernel times within this many seconds
_EIGH = np.linalg.eigh  # bound before tracing wraps numpy's eigensolvers
_REF_MATRIX = np.random.default_rng(0).standard_normal((16, 16))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T
_REF_BLOCKS = _REF_MATRIX.reshape(4, 4, 4, 4)


def reference_kernel():
    """Time a fixed piece of work shaped like the library's.

    Small eigensolves, einsums and vector operations driven from Python, as
    in a search step, then 17-digit rendering and JSON parsing, as in the
    CLI; it uses none of the library's code.
    """
    t0 = perf_counter()
    for _ in range(8):
        w, V = _EIGH(_REF_MATRIX)
        v = V[:, 0]
        W = np.outer(v, v).reshape(4, 4, 4, 4)
        G = np.einsum("ijab,ijcd->acbd", W, _REF_BLOCKS).reshape(16, 16)
        np.maximum(np.cumsum(np.sort(w)[::-1]) - 1.0, 0.0) + np.linalg.norm(G + G.T)
    text = "[" + ", ".join(format(x, ".17g") for x in _REF_MATRIX.ravel()) + "]"
    json.loads(text)
    return perf_counter() - t0


def speed_scale(records):
    """Per decision: REF_MS over the median kernel time within WINDOW_S of it."""
    at = np.array([r.at for r in records])
    ref = np.array([r.ref_s for r in records])
    lo = np.searchsorted(at, at - WINDOW_S)
    hi = np.searchsorted(at, at + WINDOW_S, side="right")
    return np.array([REF_MS * 1e-3 / np.median(ref[a:b]) for a, b in zip(lo, hi)])


def setup(workload, seed, workdir):
    """Import, generate and write the instances SETUP_REPS times; keep the last.

    Returns the library, the cases and the median set-up time, scaled to
    the reference speed by the kernel timed before each repetition.
    """
    import gen

    times, refs = [], []
    for _ in range(SETUP_REPS):
        refs.append(reference_kernel())
        t0 = perf_counter()
        lib = load_library()
        cases = WORKLOADS[workload](gen, np.random.default_rng(seed))
        rep_dir = Path(tempfile.mkdtemp(dir=workdir))
        for case in cases:
            materialize(case, lib, rep_dir)
        times.append(perf_counter() - t0)
    return lib, cases, statistics.median(times) * REF_MS * 1e-3 / statistics.median(refs)


# --- the closed loop -------------------------------------------------------

def solve(case, lib):
    op, args = case.op, case.args
    budget = {} if case.data.get("budget") is None else {"budget": case.data["budget"]}
    if op == "decide":
        return lib.slemma.decide(*args, **budget)
    if op == "decide_hereditary":
        return lib.slemma.decide_hereditary(*args, **budget)
    if op == "scalar_slemma":
        return lib.positivity.scalar_slemma(*args, **budget)
    if op == "homogenize":
        return lib.slemma.homogenize(*args, **budget)
    if op == "positivity":
        report = lib.positivity.is_globally_psd(*args)
        sf = lib.positivity.sos_factor(*args) if report.verdict == "psd" else None
        return report, sf
    from check import run_cli
    return run_cli(lib, args)


def outcome(result):
    for attr in ("kind", "outcome", "feasible", "verdict"):
        if hasattr(result, attr):
            return str(getattr(result, attr))
    if isinstance(result, tuple) and hasattr(result[0], "verdict"):
        return result[0].verdict
    return f"exit {result[0]}"


def measure(cases, lib, seconds, evals, tracer=None):
    """Closed loop over the cases until ``seconds`` are up and one pass is done."""
    from check import CHECKERS, Verdict

    n, records = len(cases), []
    t_end = perf_counter() + seconds
    i = 0
    while i < n or perf_counter() < t_end:
        case = cases[i % n]
        ref_s = reference_kernel()
        if tracer is not None:
            tracer.decision, tracer.counting = i, True
        e0, result, failures = evals[0], None, []
        t0 = perf_counter()
        try:
            result = solve(case, lib)
        except Exception as exc:  # an exception is a wrong answer, never an abort
            failures.append(f"{type(exc).__name__}: {exc}")
        solve_s = perf_counter() - t0
        used = evals[0] - e0
        if tracer is not None:
            tracer.counting = False
        verdict = Verdict()
        if result is not None:
            try:
                verdict = CHECKERS[case.op](case, result, lib)
            except Exception as exc:
                verdict.failures.append(f"checker: {type(exc).__name__}: {exc}")
        records.append(Record(
            index=i % n, pass_no=i // n, solve_s=solve_s, verify_s=verdict.verify_s,
            inconclusive=verdict.inconclusive, failures=failures + verdict.failures,
            evals=used, outcome="error" if result is None else outcome(result), ref_s=ref_s,
            at=t0,
        ))
        i += 1
    if tracer is not None:
        tracer.decision = -1
    first = records[:n]
    for r in records[n:]:
        ref = first[r.index]
        if (r.evals, r.outcome) != (ref.evals, ref.outcome):
            r.failures.append(f"not reproducible: {r.evals} evals / {r.outcome} after "
                              f"{ref.evals} evals / {ref.outcome}")
    return records


# --- metrics ---------------------------------------------------------------

def _percentile(values, p):
    return float(np.percentile(values, p)) if len(values) else float("nan")


def scaled_ms(records, attr):
    """The records' ``attr`` times in ms at the reference speed (decisions without one skipped)."""
    scale = speed_scale(records)
    return np.array([getattr(r, attr) * 1e3 * k for r, k in zip(records, scale)
                     if getattr(r, attr) is not None])


def end_to_end(records, n, setup_s):
    solve_ms = scaled_ms(records, "solve_s")
    verify_ms = scaled_ms(records, "verify_s")
    raw_ms = [r.solve_s * 1e3 for r in records]
    first = records[:n]
    return {
        "solve_ms_p50": _percentile(solve_ms, 50),
        "solve_ms_p90": _percentile(solve_ms, 90),
        "decisions_per_s": 1e3 * len(solve_ms) / solve_ms.sum(),
        "verify_ms_p50": _percentile(verify_ms, 50),
        "evals_per_decision": sum(r.evals for r in first) / n,
        "decided_share": 1.0 - sum(r.inconclusive for r in first) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }, {"solve_samples": len(solve_ms),
        "samples_beyond_p90": int(np.sum(solve_ms > _percentile(solve_ms, 90))),
        "verify_samples": len(verify_ms),
        "inconclusive_share": sum(r.inconclusive for r in records) / len(records),
        "fail_share": sum(bool(r.failures) for r in records) / len(records),
        "raw_solve_ms_p50": _percentile(raw_ms, 50), "raw_solve_ms_p90": _percentile(raw_ms, 90),
        "reference_kernel_ms_p50": 1e3 * statistics.median(r.ref_s for r in records)}


def layer_names():
    from spans import ASCENT_SPANS, FAILURES, SPANS
    spans = list(dict.fromkeys([s[2] for s in SPANS] + ASCENT_SPANS))
    units = {}
    for name in spans:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_us"] = "us"
    for name in FAILURES:
        units[f"{name}.failed_share"] = "share"
    units.update({
        "linalg.eig_calls": "count",
        "linalg.eig_flops_computed": "flop",
        "slemma.certify.calls_per_decision": "count",
        "slemma.evals_per_budget": "share",
        "serialize.dumps.bytes": "B",
        "trace.overhead_ms": "ms",
    })
    return spans, units


SLEMMA_OPS = ("decide", "decide_hereditary", "cli-slemma", "cli-slemma-hereditary")


def per_layer(tracer, arrays, records, cases, lib, overhead_ms):
    from spans import FAILURES

    n = len(cases)
    spans, _ = layer_names()
    first = (arrays["decision"] >= 0) & (arrays["decision"] < n)  # traced decisions count from 0
    out = {}
    for name in spans:
        mask = arrays["name"] == tracer.names.index(name)
        calls = int(np.sum(mask & first))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_us"] = float(arrays["self"][mask].mean() * 1e6) if mask.any() else 0.0
        if name in FAILURES:
            failed = int(np.sum(arrays["failed"][mask & first]))
            out[f"{name}.failed_share"] = failed / calls if calls else 0.0
    eig = [tracer.eig.get(d, [0, 0.0]) for d in range(n)]
    out["linalg.eig_calls"] = sum(e[0] for e in eig)
    out["linalg.eig_flops_computed"] = sum(e[1] for e in eig)
    slemma = [r for r in records[:n] if cases[r.index].op in SLEMMA_OPS]
    budget = lambda r: cases[r.index].data.get("budget") or lib.linalg.DEFAULT_BUDGET
    out["slemma.certify.calls_per_decision"] = (
        out["slemma.certify.calls"] / len(slemma) if slemma else 0.0)
    out["slemma.evals_per_budget"] = (
        sum(r.evals / budget(r) for r in slemma) / len(slemma) if slemma else 0.0)
    out["serialize.dumps.bytes"] = sum(tracer.dumped.get(d, 0) for d in range(n))
    out["trace.overhead_ms"] = overhead_ms
    return out


def check_declared(metrics, declared):
    """The metrics emitted must be exactly those BENCHMARK.json declares, with its units."""
    want = {m["name"]: m["unit"] for m in declared}
    have = {k: v["unit"] for k, v in metrics.items()}
    if want != have:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        units = sorted(k for k in set(want) & set(have) if want[k] != have[k])
        sys.exit(f"metrics disagree with BENCHMARK.json: missing {missing}, "
                 f"undeclared {extra}, unit mismatch {units}")


# --- main ------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ncslemma" / "__init__.py").is_file():
        sys.exit(f"ncslemma sources not found under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"{ROOT / 'BENCHMARK.json'} not found")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        lib, cases, setup_s = setup(args.workload, args.seed, workdir)
        from spans import Tracer, count_evals

        evals = [0]
        count_evals(lib, evals)
        n = len(cases)
        if args.trace == 0:
            records = measure(cases, lib, args.seconds, evals)
            values, info = end_to_end(records, n, setup_s)
            units = END_TO_END
            section = declared["end_to_end"]
        else:
            plain = measure(cases, lib, args.seconds / 2, evals)
            tracer = Tracer()
            tracer.install(lib)
            records = measure(cases, lib, args.seconds / 2, evals, tracer)
            arrays = tracer.arrays()
            p50 = lambda rs: _percentile(scaled_ms(rs, "solve_s"), 50)
            overhead = p50(records) - p50(plain)
            values = per_layer(tracer, arrays, records, cases, lib, overhead)
            _, units = layer_names()
            section = declared["per_layer"]
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.save(spans_path, arrays)
            info = {"spans": len(arrays["name"]), "spans_file": str(spans_path),
                    "untraced_solve_ms_p50": p50(plain), "traced_solve_ms_p50": p50(records),
                    "missing_wrapped_names": tracer.missing}
            if tracer.missing:
                print(f"wrapped names missing from their modules: {tracer.missing}",
                      file=sys.stderr)
            records = plain + records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    check_declared(metrics, section)
    failed = [r for r in records if r.failures]
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  BLAS threads {BLAS_THREADS}  decisions per pass {n}")
    for key, val in info.items():
        print(f"{key} {val}")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    for r in failed[:20]:
        print(f"FAILED {cases[r.index].label} ({cases[r.index].op}): {'; '.join(r.failures)}")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, blas_threads=int(BLAS_THREADS), info=info,
                  failures=[{"case": cases[r.index].label, "pass": r.pass_no,
                             "failures": r.failures} for r in failed],
                  records=[[r.index, r.at, r.solve_s, r.verify_s, r.ref_s] for r in records])
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
