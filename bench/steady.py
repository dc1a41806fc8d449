"""Steadiness check: repeat every workload over several seeds.

    python3 bench/steady.py --seeds 1-10 [--trace]

Runs bench/run.py once per seed and workload of BENCHMARK.json, for its
`run_seconds`, reversing the order of the workloads on every other seed,
so that a slow stretch of the host does not always fall on the same
workload. Before each round it times a
pure-Python reference loop: the host's own noise floor over the same
period. Prints, per workload and metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
against the bound in BENCHMARK.json. With `--trace` each round also makes
a traced run and the tracing overhead is reported. All results are also
written to bench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_SECONDS = 4.0


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def reference_loop(seconds: float) -> float:
    """Iterations per second of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < seconds:
        s = 0
        for i in range(10_000):
            s += i * i
        n += 1
    return n / (time.perf_counter() - t0)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["raw"] = json.loads(lines[-2].removeprefix("raw: "))
    result["wall"] = wall
    return result


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", action="store_true",
                    help="also make a traced run per seed and workload")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    results = {w: [] for w in names}
    traced = {w: [] for w in names}
    reference = []
    for i, seed in enumerate(seeds):
        reference.append(reference_loop(REFERENCE_SECONDS))
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            r = run(w, seed, seconds, 0)
            results[w].append(r)
            line = f"seed {seed:3d} {w:12s} {r['wall']:6.1f} s  " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in r["metrics"].items())
            if args.trace:
                t = run(w, seed, seconds, 1)
                traced[w].append(t)
                line += f"  traced {t['wall']:.1f} s"
            print(line, flush=True)

    print()
    med, q1, q3, sp = spread(reference) if len(reference) > 1 else (reference[0], 0, 0, 0)
    print(f"noise floor: pure-Python loop of {REFERENCE_SECONDS:.0f} s x {len(reference)}: "
          f"median {med:.1f}/s, spread {sp:.3f}, max/min {max(reference) / min(reference):.3f}")
    print(f"{'workload':12s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    summary = {}
    for w in names:
        rs = results[w]
        fails = {(r["failed"], r["attempted"]) for r in rs}
        shares = sorted({f / a for f, a in fails})
        print(f"{w}: {len(rs)} runs, correct={all(r['correct'] for r in rs)}, "
              f"failed shares {shares}, attempted {min(a for _, a in fails)}-"
              f"{max(a for _, a in fails)}")
        for metric in rs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in rs]
            if len(values) < 2:
                continue
            m, a, b, s = spread(values)
            bound = bounds.get(metric)
            flag = "" if bound is None else ("ok" if s <= bound / 3 else
                                             "WITHIN" if s <= bound else "OVER")
            raw = spread([r["raw"][metric] for r in rs])[3]
            print(f"{'':12s} {metric:16s} {m:12.6g} {a:12.6g} {b:12.6g} {s:7.3f} "
                  f"{bound if bound is not None else '':>6} {flag:6s} raw {raw:.3f}")
            summary.setdefault(w, {})[metric] = {"median": m, "q1": a, "q3": b,
                                                 "spread": s, "values": values}
        if traced[w]:
            overhead = [t["metrics"]["trace.verdict_s.p50"]["value"]
                        / r["metrics"]["verdict_s.p50"]["value"] - 1.0
                        for t, r in zip(traced[w], rs)]
            print(f"{'':12s} tracing overhead on verdict_s.p50: median "
                  f"{statistics.median(overhead):+.3f}")
            for metric in traced[w][0]["metrics"]:
                values = [t["metrics"][metric]["value"] for t in traced[w]]
                if len(values) >= 2:
                    m, a, b, s = spread(values)
                    print(f"{'':12s} {metric:34s} {m:12.6g} spread {s:7.3f}")
                    summary.setdefault(w + "/trace", {})[metric] = {
                        "median": m, "q1": a, "q3": b, "spread": s, "values": values}
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / time.strftime("steady-%Y%m%d-%H%M%S.json")
    path.write_text(json.dumps({"seeds": seeds, "seconds": seconds,
                                "reference": reference, "summary": summary}, indent=1))
    print(f"written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
