"""wavecert benchmark runner.

    python3 bench/run.py --workload construct-search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The runner imports ``wavecert`` from the
checkout's ``src`` once, then runs the workload's ops in this one process as
a closed loop with a single client: each op is one ``wavecert.cli.main``
call, from argv to the written ``--json`` report, and the next op starts
when it returns.  Ops run in whole cycles of the workload's families until
``--seconds`` have passed.  Every op passes ``--threads`` equal to the
number of usable cores.

``--trace 0`` measures the end-to-end metrics; their times are scaled to
the reference speed of the host (see ``PROBE_REF_S``).  ``--trace 1`` wraps the
public functions of each module (see ``spans.py``) and reports the per-layer
metrics, then re-runs the first cycle untraced and requires byte-identical
reports apart from ``duration_seconds``.  Every op is checked: exit code and
verdict against its family, seed-0 ops also against ``reference.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine block.  The full record (ops, checks, span table) is written to
``bench/out/``.  ``--write-reference N`` records the first N seed-0 ops of
every workload into ``reference.json`` instead.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_SAMPLES = 7

_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import wavecert.cli
print(time.perf_counter() - start)
"""

# The reference box is a shared 2-core VM.  Each of its CPUs switches, on
# its own and within seconds, between full speed and about 1.7 times slower
# as other tenants load the host, and the share of slow time drifts over
# minutes; no run length averages that out.  So every timed interval is
# bracketed by a probe: a fixed loop of interpreted arithmetic and small
# numpy calls, timed once on each CPU the process may use.  A time T measured
# while the probe took P (the mean of the probes on either side) is reported
# as T * PROBE_REF_S / P, the time at the speed at which the probe takes
# PROBE_REF_S, about its time on a CPU of the reference box at full speed.
# Raw times and probe times are kept in the run record.
PROBE_REF_S = 0.040
PROBE_ITERATIONS = 150_000
_PROBE_MATRIX = [[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]]


def _probe_once(matrix):
    start = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        x = (i % 97) * 0.01 + 1.0
        acc += math.sqrt(x * x + 1.0) / (x + 0.5)
        if i % 64 == 0:
            acc += float(numpy.linalg.det(matrix * x))
    return time.perf_counter() - start


def probe():
    """Mean probe time over the CPUs this process may use."""
    matrix = numpy.array(_PROBE_MATRIX)
    if not hasattr(os, "sched_setaffinity"):
        return _probe_once(matrix)
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})  # this thread only
            times.append(_probe_once(matrix))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def scaled(times, probes):
    """``times[i]`` at the reference speed, bracketed by ``probes[i]`` and
    ``probes[i + 1]``."""
    return [t * 2.0 * PROBE_REF_S / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]


sys.path.insert(0, str(BENCH_DIR))
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, compare, extract, make_op  # noqa: E402


def import_wavecert():
    """Import ``wavecert.cli`` from this checkout's ``src``, nowhere else."""
    if not (SRC / "wavecert" / "cli.py").is_file():
        raise SystemExit(f"bench: no wavecert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import wavecert.cli

    elapsed = time.perf_counter() - start
    if Path(wavecert.__file__).resolve().parent != SRC / "wavecert":
        raise SystemExit(f"bench: imported wavecert from {wavecert.__file__}, not {SRC}")
    return wavecert.cli, elapsed


def setup_seconds():
    """Median import time of ``wavecert.cli`` over fresh interpreters, at the
    reference speed; also returns the raw times and the probes."""
    samples, probes = [], [probe()]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        probes.append(probe())
    return statistics.median(scaled(samples, probes)), samples, probes


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_block(seed, threads):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": usable_cores(),
        "os_cpu_count": os.cpu_count(),
        "threads": threads,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# ops


def run_op(cli, op, workdir, threads, call=None):
    """Run one op; returns (wall seconds, exit code, report text, dump path)."""
    config = workdir / f"op{op.index}.cfg"
    report = workdir / f"op{op.index}.json"
    dump = workdir / f"op{op.index}.csv"
    config.write_text(op.config_text, encoding="utf-8")
    report.unlink(missing_ok=True)  # so a stale file cannot pass as this op's report
    argv = op.argv(config, report, dump, threads)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = call(cli.main, argv) if call else cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # a traceback is a failed op, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    text = report.read_text(encoding="utf-8") if report.exists() else None
    return wall, code, text, dump


def check_op(op, code, text, dump, reference):
    """Problems found in one op's outputs; empty when the op is correct."""
    family = op.family
    if code != family.expect_exit:
        return [f"exit code {code}, expected {family.expect_exit}"]
    if text is None:
        return ["no report written"]
    report = json.loads(text)
    problems = []
    if report.get("verdict") != family.expect_verdict:
        problems.append(f"verdict {report.get('verdict')!r}, expected {family.expect_verdict!r}")
    if family.dump_grid:
        with open(dump, encoding="utf-8") as handle:
            rows = sum(1 for _ in handle)
        if rows != report["result"]["point_count"] + 1:
            problems.append(f"dump has {rows} lines for {report['result']['point_count']} points")
    if reference is not None:  # its exit code equals the family's, checked above
        problems += [
            f"{key} differs from reference"
            for key in compare(reference["extract"], extract(family.command, report))
        ]
    return problems


# ---------------------------------------------------------------------------
# tracing


def _rows(tracer, args, kwargs, result):
    tracer.count("expr.evaluate.rows", getattr(result, "size", 1))


def _sampled(tracer, args, kwargs, result):
    tracer.count("domain.sample.points", len(result))


def _positivity(tracer, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    tracer.distinct("coeff.certify_positivity.pairs", (tracer.op, id(args[0]), grid.resolution))


def _checked(tracer, args, kwargs, result):
    tracer.count("condition.check_condition.points", result.point_count)
    if "weight.find_lambda" in tracer.stack_names():
        tracer.count("weight.find_lambda.attempts")


def _traced_ray(tracer, args, kwargs, result):
    horizon = args[3] if len(args) > 3 else kwargs["horizon"]
    step = args[4] if len(args) > 4 else kwargs["step"]
    tracer.count("rays.trace.passes", 1.0 + math.log2(step / result.step_used))
    tracer.count("rays.trace.trapped", 0.0 if result.escaped else 1.0)
    tracer.count("rays.trace.sim_time", result.escape_time if result.escaped else horizon)


def _dumped(tracer, args, kwargs, result):
    tracer.count("report.dumps_stable.bytes", len(result.encode("utf-8")))


# (module, function or Class.method, counter hook); the span is named
# "<module>.<function>".  A name the program no longer defines is skipped and
# its metrics read 0, so the benchmark keeps running as the program changes.
TRACED = (
    ("expr", "evaluate", _rows),
    ("expr", "differentiate", None),
    ("domain", "sample", _sampled),
    ("coeff", "certify_positivity", _positivity),
    ("coeff", "CoefficientField.values", None),
    ("coeff", "CoefficientField.partial_values", None),
    ("condition", "check_condition", _checked),
    ("condition", "multiplier_matrix", None),
    ("condition", "WeightFunction.grad_values", None),
    ("condition", "WeightFunction.hess_values", None),
    ("linalg", "jacobi_eigenvalues", None),
    ("linalg", "pencil_min_eigenvalue", None),
    ("linalg", "leading_principal_minors", None),
    ("linalg", "min_eigenvalue", None),
    ("weight", "find_lambda", None),
    ("weight", "index_sign_ranges", None),
    ("rays", "fan", None),
    ("rays", "trace", _traced_ray),
    ("report", "dumps_stable", _dumped),
)
SPAN_NAMES = ("cli.main",) + tuple(f"{module}.{name}" for module, name, _ in TRACED)


def trace_targets():
    """The functions and methods of ``TRACED`` that exist, ready to install."""
    import importlib

    functions, methods = [], []
    for module_name, name, hook in TRACED:
        module = importlib.import_module(f"wavecert.{module_name}")
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not callable(getattr(owner, attr, None)):
            continue
        span = f"{module_name}.{name}"
        if owner_name:
            methods.append((span, owner, attr, hook))
        else:
            functions.append((span, getattr(module, attr), hook))
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("wavecert.")]
    return modules, functions, methods


COUNTERS = (
    "expr.evaluate.rows",
    "domain.sample.points",
    "condition.check_condition.points",
    "weight.find_lambda.attempts",
    "rays.trace.passes",
    "rays.trace.trapped",
    "rays.trace.sim_time",
    "report.dumps_stable.bytes",
)


def layer_values(tracer, ops, ops_per_s):
    """Per-op layer metrics from the merged span totals and counters.

    Spans and counters of layers the workload never reached read 0.
    """
    n = len(ops)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    coverage = []
    for (op, parent, name), (count, total, self_s) in tracer.edges().items():
        calls[name] += count
        own[name] += self_s
        if name == "cli.main":
            coverage.append(1.0 - self_s / total)
    values = dict.fromkeys(COUNTERS, 0.0)
    for (op, name), value in tracer.counters().items():
        values[name] += value / n
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = calls[name] / n
        values[f"{name}.self_s"] = own[name] / n
    passes = values["rays.trace.passes"] * n
    pairs = len(tracer.distinct_keys("coeff.certify_positivity.pairs"))
    values["coeff.certify_positivity.repeat_ratio"] = (
        calls["coeff.certify_positivity"] / pairs if pairs else 0.0
    )
    values["rays.trace.accept_ratio"] = calls["rays.trace"] / passes if passes else 0.0
    values["bench.traced_ops_per_s"] = ops_per_s
    values["bench.span_coverage_min"] = min(coverage)
    return values


def span_table(tracer):
    """Span totals over all ops, keyed by parent and name."""
    table = {}
    for (op, parent, name), (calls, total, own) in tracer.edges().items():
        row = table.setdefault(f"{parent} > {name}", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += calls
        row["total_s"] += total
        row["self_s"] += own
    return dict(sorted(table.items(), key=lambda item: -item[1]["self_s"]))


# ---------------------------------------------------------------------------
# runner


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(cli, workload, seed, seconds, traced, threads, workdir):
    """Run whole cycles for ``seconds``; returns the ops, the elapsed time,
    the probe times bracketing the ops and the tracer."""
    reference = load_reference()[workload] if seed == 0 else []
    cycle = len(WORKLOADS[workload])
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(*trace_targets())
    ops, probes = [], [probe()]
    start = time.perf_counter()
    try:
        while not ops or time.perf_counter() - start < seconds:
            for index in range(len(ops), len(ops) + cycle):
                op = make_op(workload, seed, index)
                call = None
                if tracer is not None:
                    tracer.op = index
                    call = lambda main, argv: tracer.call("cli.main", main, (argv,))  # noqa: E731
                wall, code, text, dump = run_op(cli, op, workdir, threads, call)
                probes.append(probe())
                ref = reference[index] if index < len(reference) else None
                try:
                    problems = check_op(op, code, text, dump, ref)
                except (OSError, ValueError, KeyError, TypeError) as exc:  # malformed output
                    problems = [f"{type(exc).__name__}: {exc}"]
                dump.unlink(missing_ok=True)
                ops.append({
                    "index": index,
                    "family": op.family.name,
                    "offsets": list(op.offsets),
                    "wall_s": wall,
                    "exit": code,
                    "problems": problems,
                    "report": text if index < cycle else None,
                })
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops, elapsed, probes, tracer


def _without_duration(text):
    return [line for line in text.splitlines() if '"duration_seconds"' not in line]


def identical_untraced(cli, workload, seed, ops, threads, workdir):
    """Problems found when re-running the first cycle untraced."""
    problems = []
    for entry in ops[: len(WORKLOADS[workload])]:
        op = make_op(workload, seed, entry["index"])
        _, _, text, _ = run_op(cli, op, workdir, threads)
        if entry["report"] is None or text is None:
            problems.append(f"op {op.index}: missing report")
        elif _without_duration(text) != _without_duration(entry["report"]):
            problems.append(f"op {op.index}: traced report differs from untraced")
    return problems


def write_reference(cli, count, threads):
    reference = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for workload in WORKLOADS:
            entries = []
            for index in range(count):
                op = make_op(workload, 0, index)
                _, code, text, dump = run_op(cli, op, Path(tmp), threads)
                problems = check_op(op, code, text, dump, None)
                if problems:
                    raise SystemExit(f"bench: {workload} op {index}: {problems}")
                entries.append({
                    "family": op.family.name,
                    "exit": code,
                    "extract": extract(op.family.command, json.loads(text)),
                })
                print(f"{workload} op {index}: recorded", file=sys.stderr)
            reference[workload] = entries
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", type=int, metavar="N", default=None)
    args = parser.parse_args(argv)

    spec = load_spec()
    cli, import_s = import_wavecert()
    threads = usable_cores()
    OUT_DIR.mkdir(exist_ok=True)
    if args.write_reference is not None:
        write_reference(cli, args.write_reference, threads)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    machine = machine_block(args.seed, threads)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "import_s": import_s}
    if not args.trace:
        setup_s, record["setup_raw_s"], record["setup_probes_s"] = setup_seconds()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        ops, elapsed, probes, tracer = run_workload(
            cli, args.workload, args.seed, args.seconds, bool(args.trace), threads, workdir
        )
        run_problems = (
            identical_untraced(cli, args.workload, args.seed, ops, threads, workdir)
            if args.trace else []
        )

    failed = sum(1 for op in ops if op["problems"])
    walls = scaled([op["wall_s"] for op in ops], probes)
    ops_per_s = len(ops) / sum(walls)  # one client, ops back to back
    record.update(
        raw_verdict_s_p50=statistics.median(op["wall_s"] for op in ops),
        raw_ops_per_s=len(ops) / elapsed,
        probes_s=probes,
    )
    if args.trace:
        values = layer_values(tracer, ops, ops_per_s)
        record["spans"] = span_table(tracer)
        record["hook_errors"] = tracer.hook_errors
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "verdict_s_p50": statistics.median(walls),
            "ops_per_s": ops_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    for op in ops:
        op.pop("report")
    record.update(elapsed_s=elapsed, ops=ops, run_problems=run_problems, result=result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
