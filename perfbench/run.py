"""Layered benchmark for circleinterp.

    python3 perfbench/run.py --workload para-nodes --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src.  With
``--trace 0`` it times passes over the workload's op list for about
``--seconds`` seconds (always at least one pass) and prints the end-to-end
metrics.  With ``--trace 1`` it times one untraced pass and then one pass
with every layer function wrapped in spans, and prints the per-layer metrics
and the tracing overhead.  Every op's output is checked against an oracle
outside the timed region.  ``--smoke`` runs the same code at tiny n.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  ``failed`` counts ops that broke the library's contract: a wrong
answer, or an exception that is not one of circleinterp's error classes.
Ops the library declined with its own error class are not in ``failed``;
they lower ``ok_frac`` (the share of ops that returned an oracle-checked
answer).  Per-op records, the environment and the spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SETUP_REPEATS = 5  # this process plus four fresh interpreters


def setup(workload: str, seed: int, smoke: bool, workdir: str):
    """Import the library from ./src, generate the seeded inputs and run one
    warm-up op.  Returns (seconds, workload)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import circleinterp

    if Path(circleinterp.__file__).resolve().parent != SRC / "circleinterp":
        raise ImportError(f"circleinterp imported from {circleinterp.__file__}, not ./src")
    import workloads

    wl = workloads.build(workload, seed, smoke, workdir)
    wl.warmup()
    return time.perf_counter() - t0, wl


def probe_setup(args) -> float:
    """Time the set-up again in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "CIRCLE_INTERP_THREADS": os.environ.get("CIRCLE_INTERP_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "seed": seed,
    }


def run_pass(wl, index: int, tracer=None) -> list:
    """Run every op once; time each call and check its output afterwards."""
    import circleinterp as ci
    import oracles
    from workloads import Declined

    records = []
    for op in wl.ops:
        if tracer is not None:
            tracer.op = op.name
        t = time.perf_counter()
        try:
            out, exc = op.run(), None
        except Exception as e:  # every failure is recorded with its class
            out, exc = None, e
        dt = time.perf_counter() - t
        rec = {"op": op.name, "n": op.n, "pass": index, "seconds": dt}
        if exc is not None:
            library = isinstance(exc, (ci.CircleInterpError, Declined))
            cls = exc.error_class if isinstance(exc, Declined) else type(exc).__name__
            rec.update(status="declined" if library else "crashed",
                       error_class=cls, message=str(exc)[:300])
        else:
            try:
                chk = op.check(out)
            except Exception as e:  # malformed output counts as a wrong answer
                rec.update(status="wrong", error_class=type(e).__name__,
                           message=str(e)[:300], err=1.0, digits=0.0)
            else:
                rec.update(status="ok" if chk.ok else "wrong", err=chk.err,
                           digits=oracles.digits(chk.err), message=chk.message)
                if chk.node_err is not None:
                    rec["node_err"] = chk.node_err
        records.append(rec)
    return records


def end_to_end(passes: list, setups: list) -> dict:
    records = [r for p in passes for r in p]
    checked = [r["digits"] for r in records if "digits" in r]
    # each op's median over the passes, so that a burst of load from other
    # processes during one op of one pass does not move the figures
    op_s = [statistics.median(p[i]["seconds"] for p in passes) for i in range(len(passes[0]))]
    top_n = max(r["n"] for r in passes[0])
    return {
        "setup_s": statistics.median(setups),
        "run_s": sum(op_s),
        "top_n_s": statistics.mean(t for t, r in zip(op_s, passes[0]) if r["n"] == top_n),
        "ok_frac": sum(r["status"] == "ok" for r in records) / len(records),
        "min_digits": min(checked) if checked else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: list, untraced_s: float, workers: int) -> dict:
    spans = tracer.spans
    self_s = tracer.self_times()
    by_id = {s.id: s for s in spans}
    kids = tracer.children()

    def named(name):
        return [s for s in spans if s.name == name]

    def self_time(name):
        return sum(self_s[s.id] for s in named(name))

    def peak_mb(name):
        return max((s.peak_bytes for s in named(name)), default=0) / 2**20

    def ns_per_pair(name):
        pairs = sum(s.pairs for s in named(name))
        return self_time(name) / pairs * 1e9 if pairs else 0.0

    m = {}
    for name in ("opuc.paraorthogonal_nodes", "opuc.szego_recurrence",
                 "opuc.verblunsky_coefficients", "nodal.make_nodal_system",
                 "nodal.estimate_conditions", "interp.eval_interpolant",
                 "interp.interpolant_coefficients", "laurent.coefficients_from_samples",
                 "transforms.interval_nodes_from_measure", "transforms.interval_interpolate",
                 "experiments.convergence_sweep"):
        m[f"{name}.s"] = self_time(name)
    fails = [s.error for s in named("opuc.paraorthogonal_nodes") if s.error]
    m["opuc.paraorthogonal_nodes.failed"] = len(fails)
    for cls in ("RootFindingError", "DegeneracyError"):
        m[f"opuc.paraorthogonal_nodes.failed.{cls}"] = fails.count(cls)
    m["opuc.paraorthogonal_nodes.failed.other"] = sum(
        e not in ("RootFindingError", "DegeneracyError") for e in fails)
    m["opuc.node_err"] = max((r.get("node_err", 0.0) for r in traced), default=0.0)
    for name in ("nodal.make_nodal_system", "nodal.estimate_conditions", "interp.eval_interpolant"):
        m[f"{name}.peak_mb"] = peak_mb(name)
    for name in ("nodal.estimate_conditions", "interp.eval_interpolant"):
        m[f"{name}.ns_per_pair"] = ns_per_pair(name)
    m["transforms.trig.s"] = (self_time("transforms.trig_interpolate_symmetric")
                              + self_time("transforms.trig_interpolate_paraorthogonal"))
    # outermost transforms calls that raised (a nested call re-raises the same error)
    m["transforms.failed"] = sum(
        1 for s in spans if s.name.startswith("transforms.") and s.error
        and not (s.parent is not None and by_id[s.parent].name.startswith("transforms.")))
    sweeps = named("experiments.convergence_sweep")
    serial = sum(c.end - c.start for s in sweeps for c in kids.get(s.id, []))
    capacity = sum(min(workers, int(s.detail)) * (s.end - s.start) for s in sweeps)
    m["experiments.convergence_sweep.parallel_eff"] = serial / capacity if capacity else 0.0
    for sub in ("interval", "trig"):
        m[f"cli.main.{sub}.s"] = sum(s.end - s.start for s in named("cli.main") if s.detail == sub)
    m["cli.overhead_s"] = self_time("cli.main")
    traced_s = sum(r["seconds"] for r in traced)
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m


def summary_lines(wl, records: list, metrics: dict, units: dict) -> list:
    lines = []
    for r in records:
        extra = f" err={r['err']:.2e}" if "err" in r else ""
        why = f" {r.get('error_class', '')}: {r.get('message', '')}" if r["status"] != "ok" else ""
        lines.append(f"  pass {r['pass']} {r['op']:<34} n={r['n']:<5} "
                     f"{r['seconds']:8.3f} s {r['status']:<8}{extra}{why}")
    attempted = len(records)
    ok = sum(r["status"] == "ok" for r in records)
    lines.append(f"{wl.name}: attempted={attempted} ok={ok} fail_frac={(attempted - ok) / attempted:.4f}"
                 f" (declined={sum(r['status'] == 'declined' for r in records)}"
                 f" wrong={sum(r['status'] == 'wrong' for r in records)}"
                 f" crashed={sum(r['status'] == 'crashed' for r in records)})")
    for k, v in metrics.items():
        lines.append(f"  {k} = {v:.6g} {units[k]}")
    return lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny n, for the tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _main(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, workdir: str) -> int:
    try:
        setup_s, wl = setup(args.workload, args.seed, args.smoke, workdir)
    except ImportError as exc:
        print(f"cannot import circleinterp from {SRC}: {exc}", file=sys.stderr)
        return 1
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import circleinterp as ci

    env = environment(args.seed)
    print("env " + json.dumps(env))
    result = {"workload": wl.name, "env": env}

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, len(passes)))
        if args.trace or time.perf_counter() - start >= args.seconds:
            break
    records = [r for p in passes for r in p]

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(wl, len(passes), tracer)
        finally:
            tracer.remove()
        metrics = per_layer(tracer, traced, sum(r["seconds"] for r in passes[0]),
                            ci.max_workers())
        units = PER_LAYER
        records = records + traced
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        result["setups_s"] = setups
        metrics, units = end_to_end(passes, setups), END_TO_END
    metrics = {k: metrics[k] for k in units}

    for line in summary_lines(wl, records, metrics, units):
        print(line)
    failed = sum(r["status"] in ("wrong", "crashed") for r in records)
    result.update(records=records, metrics=metrics)
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, allow_nan=False)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
