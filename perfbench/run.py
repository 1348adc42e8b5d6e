"""Run one benchmark workload of seqlab and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload seg_zh_discrete --seed 1 --seconds 30 --trace 0

The workload's corpora are generated from ``--seed``.  The loop in
``workloads.py`` (write corpora, setup, train, checkpoint round trip,
per-sentence predict, write and score predictions) is repeated while
another iteration still fits in ``--seconds``; each metric is the median
over iterations, and per-sentence latencies are pooled.  Every iteration is
checked (valid labels, predictions read back intact, finite losses, test
metric in [0, 1], and the same fingerprint as the first iteration); the
first one also compares the reloaded model with the in-memory one and
Viterbi with brute-force enumeration.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics from the traced ones, plus ``trace_overhead`` (traced
over untraced ``wall_s``).  Per-layer names read
``<phase>.<layer>.<entry point>_<s|self_s|calls>``: total time, time minus
child spans, or call count, summed over one iteration.

The line before the last is a JSON record of the run: environment,
workload facts, every sample, the machine-speed probe and the determinism
fingerprint.  The last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``attempted`` counts predicted test sentences plus whole-iteration checks;
``failed`` counts those that raised, returned invalid labels or failed a
check.  The exit code is 0 only when everything passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_tmp"
PHASES = ("setup", "train", "predict")


def speed_probe_ms() -> float:
    """Fixed interpreter-bound work; reported next to the metrics, never used to scale them."""
    started = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i % 7
    return (perf_counter() - started) * 1e3


def environment() -> dict:
    import importlib.util
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_vendor = "unknown"
    try:
        from seqlab import _kernels

        backend = _kernels.backend_name()
    except (ImportError, AttributeError):
        backend = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
    }


def median(values, statistic=statistics.median):
    """Median of the values present; None when every value is absent."""
    values = [v for v in values if v is not None]
    return statistic(values) if values else None


def end_to_end(iterations, peak_rss_mb) -> dict:
    import numpy as np

    latencies = [t for it in iterations for t in it.latencies_s]
    return {
        "train_tok_s": sum(it.train_tokens for it in iterations) / sum(it.train_s for it in iterations),
        "predict_tok_s": sum(it.test_tokens for it in iterations) / sum(it.predict_s for it in iterations),
        "predict_sent_ms_p50": float(np.percentile(latencies, 50)) * 1e3,
        "predict_sent_ms_p95": float(np.percentile(latencies, 95)) * 1e3,
        "setup_s": median([it.setup_s for it in iterations]),
        "wall_s": median([it.wall_s for it in iterations]),
        "test_metric": iterations[0].test_metric,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metric(name, summary, tracer, it, epochs):
    """One per-layer value of a traced iteration; None when its entry point is absent."""
    total, self_time, calls = summary
    fp = it.fingerprint
    phase, _, rest = name.partition(".")
    if name == "other_s":
        return sum(self_time.get((p, p), 0.0) for p in PHASES)
    if rest == "other_s":
        return self_time.get((phase, phase), 0.0)
    if rest == "trainer.alphabet_size":
        return fp["trainer.alphabet_size"]
    if rest == "checkpoint.bytes":
        return fp["checkpoint_bytes"]
    if rest in ("crf.violations", "trainer.update_ratio"):
        if tracer.is_absent("crf.loss_gradients"):
            return None
        violations = calls.get((phase, "crf.loss_gradients"), 0)
        if rest == "crf.violations":
            return violations
        return violations / (fp["train_sentences"] * epochs)
    for suffix, table in (("_self_s", self_time), ("_calls", calls), ("_s", total)):
        if rest.endswith(suffix):
            span = rest[: -len(suffix)]
            return None if tracer.is_absent(span) else table.get((phase, span), 0)
    raise ValueError(f"BENCHMARK.json names unknown per-layer metric {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one seqlab benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS thread, pinned before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "seqlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no seqlab sources under src/ or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import resource

    import workloads
    from tracer import Tracer

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    data = wl.make(args.seed)

    tracer = Tracer()
    tracer.install()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT)
    iterations, probes, problems, layer_samples = [], [], [], []
    attempted = failed = 0
    try:
        started = perf_counter()
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 1
            probes.append(speed_probe_ms())
            tracer.enabled = traced
            try:
                t0 = perf_counter()
                it = workloads.run_iteration(wl, data, workdir, tracer)
                longest = max(longest, perf_counter() - t0)
            except Exception:  # the run's boundary: report, count, stop
                traceback.print_exc()
                problems.append("iteration raised; see the traceback on stderr")
                attempted += 1
                failed += 1
                break
            finally:
                tracer.enabled = False
            it.traced = traced
            if traced:
                summary = tracer.summarize()
                layer_samples.append(
                    {m["name"]: layer_metric(m["name"], summary, tracer, it, workloads.EPOCHS)
                     for m in spec["per_layer"] if m["name"] != "trace_overhead"}
                )
            if not iterations:
                problems += workloads.first_iteration_gates(it)
            whole = workloads.iteration_gates(it, iterations[0].fingerprint if iterations else None)
            problems += whole
            attempted += len(it.test) + 1
            failed += len(it.failed_sentences) + bool(whole)
            it.best_model = it.loaded_model = None  # free the models before the next pass
            iterations.append(it)
            elapsed = perf_counter() - started
            enough = len(iterations) >= (2 if args.trace else 1)
            if enough and elapsed + longest > args.seconds:
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    metrics = {}
    untraced = [it for it in iterations if not it.traced]
    if untraced and (layer_samples or not args.trace):
        if args.trace:
            traced_wall = median([it.wall_s for it in iterations if it.traced])
            # median_low keeps counts whole and picks a measured time
            values = {name: median([s[name] for s in layer_samples], statistics.median_low)
                      for name in layer_samples[0]}
            values["trace_overhead"] = traced_wall / median([it.wall_s for it in untraced])
            chosen = spec["per_layer"]
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = end_to_end(untraced, peak_rss_mb)
            chosen = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    first = iterations[0] if iterations else None
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": len(iterations),
        "traced_iterations": len(layer_samples),
        "environment": environment(),
        "speed_probe_ms": probes,
        "problems": problems,
        "absent_entry_points": tracer.absent,
        "error_rate": failed / attempted if attempted else None,
    }
    if first is not None:
        train_vocab = {tok for s in data.train for tok in s.tokens}
        test_tokens = [tok for s in data.test for tok in s.tokens]
        record["workload_facts"] = {
            "labels": len({lab for s in data.train for lab in s.gold_labels}),
            "test_oov_rate": sum(tok not in train_vocab for tok in test_tokens) / len(test_tokens),
            "epochs": workloads.EPOCHS,
            "sentences": {k: len(getattr(data, k)) for k in ("train", "dev", "test")},
            "tokens": {k: sum(map(len, getattr(data, k))) for k in ("train", "dev", "test")},
        }
        record["fingerprint"] = first.fingerprint
        record["samples"] = {
            "train_tok_s": [it.train_tokens / it.train_s for it in untraced],
            "predict_tok_s": [it.test_tokens / it.predict_s for it in untraced],
            "setup_s": [it.setup_s for it in untraced],
            "wall_s": [it.wall_s for it in untraced],
            "traced_wall_s": [it.wall_s for it in iterations if it.traced],
            "latency_samples": sum(len(it.latencies_s) for it in untraced),
        }
    correct = not problems and failed == 0
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
