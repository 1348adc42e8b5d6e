"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload ner_en_joint --seeds 1-10 [--trace 0] [--out runs.jsonl]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
range as a share of the median, next to the metric's bound.  Runs of a
repeated seed must agree exactly on their determinism fingerprint.  With
``--out`` every run's record and result are appended as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,3,4")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's record and result to this JSONL file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics_spec}
    fingerprints: dict[int, dict] = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"record": record, "result": result}) + "\n")
        for name in values:
            value = result["metrics"][name]["value"]
            if value is not None:
                values[name].append(value)
        fp = record["fingerprint"]
        if seed in fingerprints and fingerprints[seed] != fp:
            print(f"seed {seed}: fingerprint differs between runs", file=sys.stderr)
            ok = False
        fingerprints.setdefault(seed, fp)
        probe = statistics.median(record["speed_probe_ms"])
        print(f"seed {seed}: {record['iterations']} iterations, probe {probe:.1f} ms, "
              f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              flush=True)

    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for m in metrics_spec:
        vals = values[m["name"]]
        if len(vals) < 2:
            print(f"{m['name']:40} {'(too few values)':>12}")
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound")
        flag = "  > bound/3" if bound is not None and share > bound / 3 else ""
        print(f"{m['name']:40} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.3f} "
              f"{bound if bound is not None else '':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
