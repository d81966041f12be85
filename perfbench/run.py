"""Benchmark for tritorus: four workloads, end-to-end and per-layer metrics.

Run one workload for a number of seconds and print its metrics, the last
line being one JSON object:

    python3 perfbench/run.py --workload exact-census --seed 1 --seconds 20 --trace 0

``--trace 1`` makes a traced run instead, which reports the per-layer
metrics.  ``--record FILE`` appends the result to a JSON-lines file, and

    python3 perfbench/run.py --compare A.jsonl B.jsonl

compares two such files metric by metric against the bounds in
BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 5
IMPORT_PROBES = 5
PROBE_TIMEOUT = 60
# op_tail_ms: the highest percentile with at least ten ops beyond it in every
# run of every workload; every run does at least MIN_OPS ops.
TAIL_PCT = 90
MIN_OPS = 100

BENCHMARK = ROOT / "BENCHMARK.json"

# Each layer's metrics are read on the workload that exercises it.
LAYER_HOME = {
    "angles": "exact-census",
    "torus": "exact-census",
    "symmetry": "exact-census",
    "pathtrace": "path-sweep",
    "measure": "sample-measure",
    "svgplot": "sample-measure",
    "cli": "cli-session",
}
SCALE = {"us": 1e6, "ms": 1e3}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def probe(args: list[str]) -> float:
    """Run perfbench/probe.py in a fresh interpreter; return the seconds it reports."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
    if proc.returncode != 0:
        fail(f"probe {args[0]} failed:\n{proc.stderr}")
    end, elapsed = map(float, proc.stdout.split())
    return end - start if args[0] != "import" else elapsed


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def run_round(fn, ops, latencies=None):
    outs = []
    clock = time.perf_counter
    for args, _, _ in ops:
        start = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # an op that raises is a failed op
            out = exc
        if latencies is not None:
            latencies.append(clock() - start)
        outs.append(out)
    return outs


def check_round(wl, ops, outs) -> tuple[int, bool]:
    """(failed ops, whether every op outside the known faults and the round passed)."""
    failed, correct = 0, True
    for (args, known_fault, ref), out in zip(ops, outs):
        try:
            ok = not isinstance(out, Exception) and wl.check(args, ref, out)
        except Exception:  # output the oracle cannot read is wrong output
            ok = False
        if not ok:
            failed += 1
            correct &= known_fault
    ok_round = all(not isinstance(o, Exception) for o in outs) and wl.check_round(ops, outs)
    return failed, correct and ok_round


def run_workload(wl, fn, seconds: float) -> dict:
    """Set-up probes, warm-up, then whole timed rounds until `seconds` have passed."""
    first = wl.round(0)
    probe([wl.name, json.dumps(first[0][0])])  # fills caches such as __pycache__
    setup = statistics.median(probe([wl.name, json.dumps(first[0][0])])
                              for _ in range(SETUP_PROBES))
    run_round(fn, first[: wl.warmup_ops])

    latencies: list[float] = []
    attempted = failed = 0
    correct = True
    busy = 0.0
    began = time.perf_counter()
    r = 1
    while attempted < MIN_OPS or time.perf_counter() - began < seconds:
        ops = wl.round(r)
        start = time.perf_counter()
        outs = run_round(fn, ops, latencies)
        busy += time.perf_counter() - start
        bad, ok = check_round(wl, ops, outs)
        attempted += len(ops)
        failed += bad
        correct &= ok
        r += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (attempted / busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * percentile(latencies, TAIL_PCT), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    print(f"workload {wl.name}: {r - 1} rounds, {attempted} ops, {failed} failed")
    return result(correct, attempted, failed, metrics)


def trace_run(workloads, seed: int) -> dict:
    """Traced run: the traced rounds of every workload, each layer read on its home."""
    import ops as ops_mod
    import tracer

    per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
    imports = statistics.median(probe(["import"]) for _ in range(IMPORT_PROBES))
    metrics = {"import.s": (imports, "s")}
    attempted = failed = 0
    correct = True
    plain = traced = 0.0
    dump = {}
    for name, cls in workloads.items():
        wl = cls(seed, OUT)
        fn = ops_mod.OPS[name]
        run_round(fn, wl.round(0)[: wl.warmup_ops])
        rounds = [wl.round(r) for r in range(1, 1 + wl.trace_rounds)]
        start = time.perf_counter()
        for ops in rounds:
            run_round(fn, ops)
        plain += time.perf_counter() - start

        tr = tracer.Tracer()
        tr.install()
        root = tr.wrap(f"op.{name}", fn)
        try:
            start = time.perf_counter()
            outs = [run_round(root, ops) for ops in rounds]
            traced += time.perf_counter() - start
        finally:
            tr.uninstall()
        for ops, out in zip(rounds, outs):
            bad, ok = check_round(wl, ops, out)
            attempted += len(ops)
            failed += bad
            correct &= ok
        if hasattr(wl, "expected_crossings"):
            tr.counts["pathtrace.crossings_expected"] += sum(
                wl.expected_crossings(ops) for ops in rounds)
        summary = tr.summary()
        for m in per_layer:
            if LAYER_HOME.get(m["name"].split(".")[0]) == name:
                metrics[m["name"]] = (layer_metric(m["name"], m["unit"], summary, tr.counts),
                                      m["unit"])
        dump[name] = {"spans": tr.spans, "counts": dict(tr.counts)}
    metrics["trace.overhead_s"] = (traced - plain, "s")
    missing = [m["name"] for m in per_layer if m["name"] not in metrics]
    if missing:
        fail(f"no rule for per-layer metrics {missing}")
    path = OUT / f"trace-{seed}.json"
    path.write_text(json.dumps(dump))
    print(f"spans written to {path.relative_to(ROOT)}")
    return result(correct, attempted, failed, {m["name"]: metrics[m["name"]] for m in per_layer})


def layer_metric(name: str, unit: str, summary: dict, counts) -> float:
    """'<span>.calls' counts calls; a time unit is the mean inclusive time per
    call of '<span>'; anything else is a counter kept by the tracer."""
    span, _, kind = name.rpartition(".")
    calls, total = summary.get(span, (0, 0.0))
    if kind == "calls":
        return calls
    if unit in SCALE:
        return SCALE[unit] * total / calls if calls else 0.0
    return counts[name]


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(f"attempted: {attempted}  failed: {failed}  correct: {correct}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# compare


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    """Medians and quartiles of two result files; 1 if B is worse beyond a bound."""
    bench = json.loads(BENCHMARK.read_text())
    a, b = load_runs(path_a), load_runs(path_b)
    worse = False
    for w in [w["name"] for w in bench["workloads"]]:
        if w not in a or w not in b:
            print(f"{w}: missing from {'A' if w not in a else 'B'}")
            continue
        shares = [{r["failed"] / r["attempted"] for r in side[w]} for side in (a, b)]
        same = len(shares[0] | shares[1]) == 1
        worse |= not same
        print(f"{w}: A {len(a[w])} runs, B {len(b[w])} runs, failed share "
              f"{'same' if same else 'DIFFERS'} ({sorted(shares[0])} vs {sorted(shares[1])})")
        for m in bench["end_to_end"]:
            qa = quartiles([r["metrics"][m["name"]]["value"] for r in a[w]])
            qb = quartiles([r["metrics"][m["name"]]["value"] for r in b[w]])
            change = (qb[1] - qa[1]) / qa[1]
            loss = change if m["better"] == "lower" else -change
            spread = (qa[2] - qa[0]) / qa[1]
            verdict = "ok" if loss <= m["bound"] else "WORSE"
            if verdict == "ok" and spread > m["bound"] and loss > 0:
                verdict = "unresolved"
            worse |= verdict == "WORSE"
            print(f"  {m['name']:>12} [{m['unit']}]  A {qa[1]:.6g} ({qa[0]:.6g}..{qa[2]:.6g})"
                  f"  B {qb[1]:.6g} ({qb[0]:.6g}..{qb[2]:.6g})  change {change:+.2%}"
                  f"  bound {m['bound']:.0%}  {verdict}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    if not (ROOT / "src" / "tritorus" / "__init__.py").is_file():
        fail(f"no tritorus sources under {ROOT / 'src'}")
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(ROOT / "src"))
    import ops as ops_mod
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    if args.trace:
        res = trace_run(WORKLOADS, args.seed)
    else:
        wl = WORKLOADS[args.workload](args.seed, OUT)
        res = run_workload(wl, ops_mod.OPS[args.workload], args.seconds)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "result": res}) + "\n")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
