"""repkit benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repkit checkout.  The workloads and their ground truth
live in ``workloads.py``.  Every op is checked; a wrong answer, an exception
or (for the CLI) a non-zero exit or a JSON report that is not byte-identical
on repeat counts as a failed op and never stops the run.

``--trace 0`` measures the end-to-end metrics.  Set-up time is the median of
several fresh interpreters that each import repkit and build the workload's
inputs.  Ops then run in whole passes until ``--seconds`` is used up (at
least one pass); each op's time is the median over the passes.

``--trace 1`` runs an untraced pass, a traced pass and another untraced pass.
It prints the per-layer metrics from the spans of the traced pass (set-up
included) and the tracing overhead: traced wall time minus the mean of the
two untraced ones, which bracket it so that drift cancels.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``correct`` is false when any op fails other than
the known defects of ``workloads.KNOWN_DEFECTS``, which are still counted in
``failed``.  Full results (and spans, when traced) are written to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
WORKLOADS = ("su2-highspin", "finite-regular", "cli-oneshot")


@dataclass
class Sample:
    name: str
    label: str
    seconds: float
    error: str | None
    summary: object


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(NPROC) for var in BLAS_VARS})
    return env


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "blas_thread_cap": NPROC, "nproc": os.cpu_count()}


# ------------------------------------------------------------------- running

def run_pass(workload, tracer=None) -> list[Sample]:
    samples = []
    for op in workload.ops:
        if tracer is not None:
            tracer.op = op.label
        error = summary = None
        started = time.perf_counter()
        try:
            answer = op.run()
        except Exception:
            error = "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        seconds = time.perf_counter() - started
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            if error is None:
                try:
                    error = op.check(answer)
                    summary = op.summary(answer)
                except Exception:
                    error = "check raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        samples.append(Sample(op.name, op.label, seconds, error, summary))
    return samples


def run_passes(workload, seconds: float) -> list[Sample]:
    """Whole passes until the next one would overrun ``seconds``; at least one."""
    deadline = time.perf_counter() + seconds
    samples = []
    while True:
        started = time.perf_counter()
        samples += run_pass(workload)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return samples


def setup_probe(args) -> None:
    """Fresh-interpreter set-up: import repkit, then build the workload."""
    started = time.perf_counter()
    import repkit  # noqa: F401
    imported = time.perf_counter()
    import workloads
    workloads.build(args.workload, args.seed, Path(args.setup_probe), ROOT, child_env())
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "setup_s": done - started}))


def run_setup_probes(args, workdir: Path) -> list[dict]:
    out = []
    for i in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                               "--seed", str(args.seed), "--setup-probe", str(workdir / f"probe{i}")],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ------------------------------------------------------------------- metrics

def by_label(samples):
    times = defaultdict(list)
    names = {}
    for s in samples:
        times[s.label].append(s.seconds)
        names[s.label] = s.name
    return times, names


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(samples, passes: int, probes, subprocess_ops: bool) -> tuple[dict, list[str]]:
    """Every end-to-end metric the benchmark reports; the second value lists
    printed notes.  Metrics that do not apply to the workload are None.
    An op's time is its median sample times the number of its calls in one
    pass, so wall_s is the time of one median pass."""
    times, names = by_label(samples)
    medians = {label: statistics.median(ts) * len(ts) / passes for label, ts in times.items()}
    per_op = defaultdict(float)
    for label, m in medians.items():
        per_op[names[label]] += m
    all_times = [s.seconds for s in samples]
    failed = sum(s.error is not None for s in samples)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if subprocess_ops else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": sum(medians.values()),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "fail_rate": failed / len(samples),
    }
    notes = []
    for op in ("commutant", "invariant_form_space", "decompose", "unitarize",
               "orthogonality_audit", "axiom_audit", "homomorphism_audit"):
        metrics[f"{op}_s"] = per_op[op] if op in per_op else None
    if subprocess_ops:
        metrics["cli_p50_s"] = statistics.median(all_times)
        value, pct, n = tail(all_times)
        metrics["cli_tail_s"] = value
        notes.append(f"cli_tail_s is p{pct:.1f} of n={n} CLI processes")
    else:
        metrics["cli_p50_s"] = metrics["cli_tail_s"] = None
    return metrics, notes


# every end-to-end metric, in print order; BENCHMARK.json gates those that
# apply to all workloads
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("commutant_s", "s"), ("invariant_form_space_s", "s"),
    ("decompose_s", "s"), ("unitarize_s", "s"), ("orthogonality_audit_s", "s"),
    ("axiom_audit_s", "s"), ("homomorphism_audit_s", "s"), ("cli_p50_s", "s"), ("cli_tail_s", "s"),
    ("import_s", "s"), ("peak_rss_mb", "MB"), ("fail_rate", "ratio"),
]


def end_to_end_lines(metrics: dict) -> list[str]:
    return [f"{name:24s} {'n/a' if metrics[name] is None else f'{metrics[name]:.6g}'} {unit}"
            for name, unit in END_TO_END]


def layer_metrics(stats, overhead_s: float) -> dict:
    calls, self_s, note = stats.calls.get, stats.self_s.get, stats.note
    return {
        "groups.haar_rule.calls": calls("groups.haar_rule", 0),
        "groups.haar_rule.self_s": self_s("groups.haar_rule", 0.0),
        "groups.haar_rule.nodes": note("groups.haar_rule", "nodes"),
        "groups.integrate_stacked.calls": calls("groups.integrate_stacked", 0),
        "groups.integrate_stacked.self_s": self_s("groups.integrate_stacked", 0.0),
        "groups.integrate_stacked.bytes": note("groups.integrate_stacked", "bytes"),
        "groups.integrate_values.calls": calls("groups.integrate_values", 0),
        "groups.integrate_values.self_s": self_s("groups.integrate_values", 0.0),
        "groups.evaluate_probe.calls": calls("groups.evaluate_probe", 0),
        "representations.evaluate_batch.calls": calls("representations.evaluate_batch", 0),
        "representations.evaluate_batch.self_s": self_s("representations.evaluate_batch", 0.0),
        "representations.evaluate_batch.nodes": note("representations.evaluate_batch", "nodes"),
        "representations.evaluate_batch.bytes": note("representations.evaluate_batch", "bytes"),
        "representations.evaluate_batch.max_depth": stats.max_depth,
        "representations.evaluate.calls": calls("representations.evaluate", 0),
        "unitarization.hermitian_coords.calls": calls("unitarization.hermitian_coords", 0),
        "unitarization.hermitian_coords.self_s": self_s("unitarization.hermitian_coords", 0.0),
        "unitarization.invariant_form_space.self_s": self_s("unitarization.invariant_form_space", 0.0),
        "unitarization.invariant_form_space.useful_ratio": stats.ratio("unitarization.invariant_form_space"),
        "unitarization.averaged_form.self_s": self_s("unitarization.averaged_form", 0.0),
        "unitarization.unitarize.self_s": self_s("unitarization.unitarize", 0.0),
        "schur.commutant.calls": calls("schur.commutant", 0),
        "schur.commutant.self_s": self_s("schur.commutant", 0.0),
        "schur.commutant.useful_ratio": stats.ratio("schur.commutant"),
        "schur.decompose.self_s": self_s("schur.decompose", 0.0) + self_s("schur.split", 0.0),
        "schur.decompose.commutant_calls": stats.decompose_commutants,
        "schur.decompose.split_ratio": (stats.decompose_splits / stats.decompose_commutants
                                        if stats.decompose_commutants else 0.0),
        "linalg.svd.calls": calls("linalg.svd", 0),
        "linalg.svd.self_s": self_s("linalg.svd", 0.0),
        "linalg.svd.max_dim": note("linalg.svd", "max_dim"),
        "linalg.eigh.calls": calls("linalg.eigh", 0) + calls("linalg.eigvalsh", 0),
        "linalg.eigh.self_s": self_s("linalg.eigh", 0.0) + self_s("linalg.eigvalsh", 0.0),
        "linalg.cholesky.self_s": self_s("linalg.cholesky", 0.0),
        "loaders.load.self_s": self_s("loaders.load", 0.0),
        "serialize.to_json.calls": calls("serialize.to_json", 0),
        "serialize.to_json.self_s": self_s("serialize.to_json", 0.0),
        "trace_overhead_s": overhead_s,
    }


def failures(samples) -> list[str]:
    return [f"{s.label}: {s.error}" for s in samples if s.error is not None]


def verdict(samples, extra_failures=()) -> dict:
    import workloads
    failed = [s for s in samples if s.error is not None]
    unexpected = [s for s in failed if s.label not in workloads.KNOWN_DEFECTS]
    return {"correct": not unexpected and not extra_failures, "attempted": len(samples),
            "failed": len(failed) + len(extra_failures)}


def fmt(value, unit):
    return f"{value:.6g} {unit}" if isinstance(value, float) else f"{value} {unit}"


# ---------------------------------------------------------------------- main

def measure(args, spec, workdir: Path) -> tuple[dict, dict]:
    probes = run_setup_probes(args, workdir)
    import workloads
    workload = workloads.build(args.workload, args.seed, workdir / "inputs", ROOT, child_env())
    samples = run_passes(workload, args.seconds)
    passes = len(samples) // len(workload.ops)
    metrics, notes = end_to_end(samples, passes, probes, workload.runner is not None)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("\n".join(end_to_end_lines(metrics) + notes))
    times, _ = by_label(samples)
    for label, ts in times.items():
        print(f"  op {label:40s} median {statistics.median(ts):.4f} s over {len(ts)}")
    for line in failures(samples):
        print(f"FAILED {line}")
    result = verdict(samples)
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return result, {"all_metrics": metrics, "failures": failures(samples),
                    "samples": [[s.label, s.seconds, s.error] for s in samples]}


def measure_traced(args, spec, workdir: Path) -> tuple[dict, dict]:
    import spans
    import workloads
    workload = workloads.build(args.workload, args.seed, workdir / "inputs", ROOT, child_env())
    untraced = run_pass(workload)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # same input paths as the untraced pass, so CLI reports can be compared
        traced_workload = workloads.build(args.workload, args.seed, workdir / "inputs", ROOT, child_env())
        if traced_workload.runner is not None:
            traced_workload.runner.trace_dir = workdir
        traced = run_pass(traced_workload, tracer)
    finally:
        tracer.uninstall()
    stats = spans.LayerStats()
    stats.add(tracer.spans)
    cli_spans = []
    if traced_workload.runner is not None:
        for path in traced_workload.runner.span_files:
            cli_spans.append(json.loads(path.read_text())["spans"])
            stats.add(cli_spans[-1])
    after = run_pass(workload)
    mismatched = [f"{a.label}: traced answer differs from untraced"
                  for a, b in zip(untraced, traced)
                  if (a.error is None, a.summary) != (b.error is None, b.summary)]
    wall = sum(s.seconds for s in untraced + after) / 2
    traced_wall = sum(s.seconds for s in traced)
    metrics = layer_metrics(stats, traced_wall - wall)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"{'layer':40s} {'calls':>8s} {'self_s':>10s} {'total_s':>10s}")
    for name in sorted(stats.calls, key=lambda n: -stats.self_s[n]):
        print(f"{name:40s} {stats.calls[name]:8d} {stats.self_s[name]:10.4f} {stats.total_s[name]:10.4f}")
    for name, value in metrics.items():
        print(f"{name:48s} {fmt(value, units.get(name, ''))}")
    if traced_workload.runner is not None:
        print(f"{'cli.command_s':48s} {fmt(stats.total_s.get('cli.main', 0.0), 's')}")
        print(f"{'cli.process_s':48s} {fmt(sum(s.seconds for s in traced), 's')}")
    print(f"untraced wall_s {wall:.4f} s, traced wall_s {traced_wall:.4f} s, "
          f"tracing overhead {traced_wall - wall:.4f} s")
    for line in failures(untraced + traced + after) + mismatched:
        print(f"FAILED {line}")
    result = verdict(untraced + traced + after, mismatched)
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return result, {"spans": tracer.spans, "cli_spans": cli_spans,
                    "failures": failures(untraced + traced + after) + mismatched}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repkit" / "__init__.py").is_file():
        print(f"error: no repkit sources under {ROOT / 'src'}; run from a repkit checkout",
              file=sys.stderr)
        return 2
    os.environ.update({var: str(NPROC) for var in BLAS_VARS})   # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result, record = (measure_traced if args.trace else measure)(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    print("environment: " + json.dumps(env))
    record.update({"args": vars(args), "environment": env, "result": result})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
