"""Record a baseline: untraced and traced runs of every workload.

    python3 bench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 --trace-seeds 1,2,3

Runs ``bench/run.py`` once per (workload, seed) untraced and, for a trace
seed, traced right after, with the run length from ``BENCHMARK.json``.  For
each end-to-end metric it reports the median over seeds, the quartiles and
the spread (quartile distance over median); for each per-layer metric, the
median over the traced seeds.  The tracing overhead is the median, over
trace seeds, of the relative drop of ``ops_per_s`` from the untraced run to
the traced run of the same seed; pairing the runs in time keeps the host's
drift in speed out of it.  Writes ``bench/baseline.json`` and the tables in
``bench/baseline.md``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(spec, workload, seed, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    machine, result = json.loads(lines[-2])["machine"], json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    return machine, result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace-seeds", default="1,2,3")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    trace_seeds = [int(s) for s in args.trace_seeds.split(",")]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]

    baseline = {"run_seconds": spec["run_seconds"], "seeds": seeds,
                "trace_seeds": trace_seeds, "workloads": {}}
    for workload in workloads:
        untraced, traced, overheads = [], [], []
        for seed in seeds:
            untraced.append(run(spec, workload, seed, 0))
            if seed in trace_seeds:
                traced.append(run(spec, workload, seed, 1))
                plain = untraced[-1][1]["metrics"]["ops_per_s"]["value"]
                with_spans = traced[-1][1]["metrics"]["bench.traced_ops_per_s"]["value"]
                overheads.append((plain - with_spans) / plain)
        baseline["machine"] = {k: v for k, v in untraced[0][0].items() if k != "seed"}
        results = [r for _, r in untraced + traced]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for _, r in untraced])
                for m in spec["end_to_end"]
            },
            "per_layer": {
                m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for _, r in traced)
                for m in spec["per_layer"]
            },
        }
        entry["tracing_overhead"] = statistics.median(overheads)
        baseline["workloads"][workload] = entry

    with open(BENCH_DIR / "baseline.json", "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    with open(BENCH_DIR / "baseline.md", "w", encoding="utf-8") as handle:
        handle.write(tables(spec, baseline))
    return 0


def tables(spec, baseline):
    names = list(baseline["workloads"])
    machine = baseline["machine"]
    out = [
        "# Baseline",
        "",
        f"Machine: {machine['cpu_model']}, nproc {machine['nproc']}, "
        f"os.cpu_count() {machine['os_cpu_count']}, --threads {machine['threads']}, "
        f"Python {machine['python']}, numpy {machine['numpy']}.",
        f"Runs of {baseline['run_seconds']} s; untraced seeds {baseline['seeds']}, "
        f"traced seeds {baseline['trace_seeds']}.  Generated by `bench/baseline.py`.",
        "",
        "## End to end (median [q1, q3], spread = (q3 - q1) / median)",
        "",
        "| metric | " + " | ".join(names) + " |",
        "|---" * (len(names) + 1) + "|",
    ]
    for m in spec["end_to_end"]:
        cells = []
        for w in names:
            s = baseline["workloads"][w]["end_to_end"][m["name"]]
            cells.append(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] ({s['spread']:.3f})")
        out.append(f"| {m['name']} ({m['unit']}) | " + " | ".join(cells) + " |")
    cells = [f"{baseline['workloads'][w]['failed']}/{baseline['workloads'][w]['attempted']}"
             for w in names]
    out.append("| failed / attempted ops | " + " | ".join(cells) + " |")
    cells = [f"{baseline['workloads'][w]['tracing_overhead']:.1%}" for w in names]
    out.append("| tracing overhead (ops_per_s) | " + " | ".join(cells) + " |")
    out += [
        "",
        "## Per layer (per op, median over traced seeds)",
        "",
        "| metric | " + " | ".join(names) + " |",
        "|---" * (len(names) + 1) + "|",
    ]
    for m in spec["per_layer"]:
        cells = [f"{baseline['workloads'][w]['per_layer'][m['name']]:.4g}" for w in names]
        out.append(f"| {m['name']} ({m['unit']}) | " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    sys.exit(main())
