"""opjensen benchmark: campaign throughput, replay latency, set-up time and
memory on seeded workloads, plus a traced run that times each layer.

Run from the repository root:

    python3 perfbench/run.py --workload cfl_sweep --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1` the
per-layer ones. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
give the run record and every metric by name and unit. Every correctness
gate that fails counts in `failed` and makes the exit code 1. Output files
(campaign reports, spans, the full result) go to `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_REPEATS = 7
REFERENCE_INSTANCES = 200
MIN_REPS = 3
MIN_REPLAYS = 100  # p90 needs at least ten samples beyond it
PROBE_DIMS = (4, 9, 16, 36)
PROBE_SECONDS = 0.3


def _fail_usage(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import opjensen from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "opjensen", "__init__.py")):
        _fail_usage(f"no opjensen package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import opjensen

    if not os.path.abspath(opjensen.__file__).startswith(SRC + os.sep):
        _fail_usage(f"imported opjensen from {opjensen.__file__}, not from {SRC}")
    return opjensen


class Tally:
    """Operations attempted, operations failed, and the gate messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)
        print(f"GATE FAILED: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; never report an enclosing repository's sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args, nproc: int, rep_seeds: list[int]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "rep_seeds": rep_seeds,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Measurement:
    def __init__(self) -> None:
        self.serial_rates: list[float] = []
        self.parallel_rates: list[float] = []
        self.replay_ms: list[float] = []
        self.serial_data: dict[int, bytes] = {}
        self.rep_seeds: list[int] = []


def _replay(workload, master_seed, output, rng, tally, sink: list[float]) -> None:
    for ms, ok, message in workload.replays(master_seed, output, rng):
        tally.attempted += 1
        sink.append(ms)
        if not ok:
            tally.fail(message)


def measure(workload, wl_mod, seed: int, seconds: float, nproc: int, min_reps: int,
            tally: Tally) -> Measurement:
    """Closed loop: one repetition at jobs=1 and at jobs=nproc, in alternating
    order, then the replays, until `seconds` have passed (and `min_reps` ran)."""
    m = Measurement()
    rng = np.random.default_rng([seed, 0x5EED])
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < min_reps or time.perf_counter() < deadline:
        master_seed = wl_mod.derive_seed(seed, rep)
        m.rep_seeds.append(master_seed)
        try:
            outputs = {jobs: workload.run(master_seed, jobs, OUT_DIR)
                       for jobs in ((1, nproc) if rep % 2 == 0 else (nproc, 1))}
            serial, parallel = outputs[1], outputs[nproc]
            tally.attempted += serial.trials + parallel.trials
            for count, message in serial.failures + parallel.failures:
                tally.fail(message, count)
            if serial.data != parallel.data:
                tally.fail(f"{workload.name} repetition {rep}: output differs between "
                           f"jobs=1 and jobs={nproc}")
            m.serial_rates.append(serial.trials / serial.elapsed)
            m.parallel_rates.append(parallel.trials / parallel.elapsed)
            m.serial_data[rep] = serial.data
            _replay(workload, master_seed, serial, rng, tally, m.replay_ms)
            if rep + 1 >= min_reps and time.perf_counter() >= deadline:
                # Last repetition: top the replays up to MIN_REPLAYS.
                before = -1
                while before < len(m.replay_ms) < MIN_REPLAYS:
                    before = len(m.replay_ms)
                    _replay(workload, master_seed, serial, rng, tally, m.replay_ms)
        except Exception:  # a trial or replay that raised fails the run
            traceback.print_exc()
            tally.attempted += 1
            tally.fail(f"{workload.name} repetition {rep} raised")
            break
        rep += 1
    return m


def reference_gate(opjensen, seed: int, tally: Tally) -> float:
    import reference

    count, failures, worst = reference.check_against_package(opjensen, seed, REFERENCE_INSTANCES)
    tally.attempted += count
    for message in failures:
        tally.fail(message)
    return worst


def setup_seconds(workload_name: str, seed: int, tally: Tally) -> float:
    """Median wall time of a fresh interpreter importing opjensen and building
    the workload's task list."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload_name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        tally.attempted += 1
        if proc.returncode != 0:
            tally.fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return statistics.median(times)


def peak_rss_mb(nproc: int) -> float:
    """High-water RSS of this process plus nproc pool workers, each counted at
    the high-water mark of the largest child this process waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + nproc * child) / 1024.0


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_untraced(opjensen, wl_mod, workload, args, nproc, tally, info) -> dict:
    info["reference_worst_rel"] = reference_gate(opjensen, args.seed, tally)
    with workload.open(nproc):
        workload.warm(OUT_DIR, nproc)
        m = measure(workload, wl_mod, args.seed, args.seconds, nproc, MIN_REPS, tally)
    rss = peak_rss_mb(nproc)  # before the set-up probes, which are children too
    info.update(reps=len(m.serial_rates), replays=len(m.replay_ms), rep_seeds=m.rep_seeds)
    return {
        "trials_per_s": statistics.median(m.serial_rates),
        "trials_per_s_parallel": statistics.median(m.parallel_rates),
        "replay_ms_p50": float(np.percentile(m.replay_ms, 50)),
        "replay_ms_p90": float(np.percentile(m.replay_ms, 90)),
        "setup_s": setup_seconds(workload.name, args.seed, tally),
        "peak_rss_mb": rss,
    }


def eig_probe(opjensen, seed: int) -> dict[int, float]:
    """Median microseconds per hermitian_eig call on seeded Hermitian matrices."""
    rng = np.random.default_rng([seed, 0xE16])
    out = {}
    for d in PROBE_DIMS:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (g + g.conj().T)
        times = []
        deadline = time.perf_counter() + PROBE_SECONDS
        while len(times) < 5 or time.perf_counter() < deadline:
            start = time.perf_counter()
            opjensen.hermitian_eig(h)
            times.append(time.perf_counter() - start)
        out[d] = statistics.median(times) * 1e6
    return out


def run_traced(opjensen, wl_mod, workload, args, nproc, tally, info) -> dict:
    from tracer import LAYERS, Tracer

    info["reference_worst_rel"] = reference_gate(opjensen, args.seed, tally)
    with workload.open(nproc):
        workload.warm(OUT_DIR, nproc)
        m = measure(workload, wl_mod, args.seed, args.seconds / 2, nproc,
                    max(MIN_REPS, workload.traced_reps), tally)
    tracer = Tracer()
    tracer.install()
    traced_rates, jsonl_bytes, traced_trials = [], 0, 0
    rng = np.random.default_rng([args.seed, 0x7ACE])
    try:
        for rep in range(workload.traced_reps):
            master_seed = m.rep_seeds[rep]
            out = workload.run(master_seed, 1, OUT_DIR)
            tally.attempted += out.trials
            for count, message in out.failures:
                tally.fail(message, count)
            if out.data != m.serial_data.get(rep):
                tally.fail(f"traced repetition {rep}: output differs from the untraced run")
            traced_rates.append(out.trials / out.elapsed)
            jsonl_bytes += out.jsonl_bytes
            replayed: list[float] = []
            _replay(workload, master_seed, out, rng, tally, replayed)
            traced_trials += out.trials + len(replayed)
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload.name}.csv"))
    probe = eig_probe(opjensen, args.seed)
    info.update(reps=len(m.serial_rates), replays=len(m.replay_ms), rep_seeds=m.rep_seeds,
                traced_reps=workload.traced_reps, spans=len(tracer.spans))

    t = tracer
    eig = "linalg_core.hermitian_eig"
    run_trials = t.calls("jensen_checks.run_trial")
    gen = [n for n in t.layer_names("linalg_core")
           if n.split(".", 1)[1] in ("rng_stream", "stream_token", "complex_gaussian")
           or n.split(".", 1)[1].startswith("random_")]
    reports = t.reports
    metrics = {}
    for layer in LAYERS:
        names = t.layer_names(layer)
        metrics[f"{layer}.calls"] = t.calls(*names)
        metrics[f"{layer}.self_s"] = t.self_s(*names)
    metrics.update({
        "trace.trials": traced_trials,
        "trace.overhead_ratio": statistics.median(m.serial_rates) / statistics.median(traced_rates),
        f"{eig}.self_s": t.self_s(eig),
        f"{eig}.calls": t.calls(eig),
        f"{eig}.work_d3": t.eig_work_d3,
        f"{eig}.repeat_ratio": t.eig_repeats / t.eig_calls if t.eig_calls else 0.0,
        **{f"{eig}.us_d{d}": us for d, us in probe.items()},
        "linalg_core.matrix_function.self_s": t.self_s("linalg_core.matrix_function"),
        "convex_catalog.scalar_evals": t.scalar_evals,
        "linalg_core.hermitize.calls": t.calls("linalg_core.hermitize"),
        "linalg_core.hermitize.self_s": t.self_s("linalg_core.hermitize"),
        "linalg_core.generation.self_s": t.self_s(*gen),
        "tensor_ops.partial_trace.self_s": t.self_s("tensor_ops.partial_trace"),
        "tensor_ops.conjugate_compress.self_s": t.self_s("tensor_ops.conjugate_compress"),
        "tensor_ops.slice_map.self_s": t.self_s("tensor_ops.slice_map"),
        "positive_maps.random_positive_map.self_s": t.self_s("positive_maps.random_positive_map"),
        "positive_maps.apply_map.calls": t.calls("positive_maps.apply_map"),
        "positive_maps.apply_map.self_s": t.self_s("positive_maps.apply_map"),
        "spectral_tools.monotone_sign_split.self_s": t.self_s("spectral_tools.monotone_sign_split"),
        "spectral_tools.preorder_violation.self_s": t.self_s("spectral_tools.preorder_violation"),
        "jensen_checks.generate_trial.self_s": t.self_s("jensen_checks.generate_trial"),
        "jensen_checks.ablation_search.self_s": t.self_s("jensen_checks.ablation_search"),
        "jensen_checks.resample_ratio":
            t.calls("jensen_checks.generate_trial") / run_trials - 1.0 if run_trials else 0.0,
        "jensen_checks.replay_report.self_s": t.self_s("jensen_checks.replay_report"),
        "reporting.encode_matrix.self_s": t.self_s("reporting.encode_matrix"),
        "reporting.decode_matrix.self_s": t.self_s("reporting.decode_matrix"),
        "reporting.to_json_line.calls": t.calls("reporting.to_json_line"),
        "reporting.to_json_line.self_s": t.self_s("reporting.to_json_line"),
        "reporting.jsonl_bytes": jsonl_bytes,
        "harness_cli.run_campaign.self_s": t.self_s("harness_cli.run_campaign"),
        "harness_cli.build_tasks.self_s": t.self_s("harness_cli.build_tasks"),
        "harness_cli.pool.efficiency":
            statistics.median(m.parallel_rates) / (nproc * statistics.median(m.serial_rates)),
        "convex_catalog.parse_function_spec.calls": t.calls("convex_catalog.parse_function_spec"),
        "jensen_checks.tolerance_decided": sum(1 for g, tol, _ in reports if abs(g) <= tol),
        "jensen_checks.negative_gap_passes": sum(1 for g, _, ok in reports if ok and g < 0),
        "jensen_checks.min_gap_over_tol": min((g / tol for g, tol, _ in reports), default=0.0),
    })
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail_usage(f"cannot read {spec_path}: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail_usage(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        _fail_usage("--seconds must be positive")

    opjensen = _import_package()
    import workloads as wl_mod

    os.makedirs(OUT_DIR, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    workload = wl_mod.WORKLOADS[args.workload]()
    tally = Tally()
    info: dict = {}
    mode = run_traced if args.trace else run_untraced
    try:
        values = mode(opjensen, wl_mod, workload, args, nproc, tally, info)
    except Exception:  # e.g. a check that raised before any repetition finished
        traceback.print_exc()
        print(f"perfbench: run aborted after {tally.failed} failed operations; no result",
              file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [w["name"] for w in wanted if w["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}

    record = run_record(args, nproc, info.pop("rep_seeds", []))
    record.update(info)
    print("record " + json.dumps(record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    failed = tally.failed
    print(f"op_failure_ratio = {failed}/{tally.attempted}")
    result = {
        "correct": failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    out_name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, out_name), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "failures": tally.failures, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
