"""Run one splitflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload moons-distill --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout: the package is imported from the
checkout's `src/`. Rounds of the workload's fixed work repeat until
`--seconds` are used, with a timed set-up before the first round and after
every round. A fixed numpy calibration job runs next to each set-up, and
`setup_s` and `round_s` are scaled by its reference time over its median
time in the run: they are the times on a host of the reference speed, so a
host that slows down or speeds up for minutes at a time does not move them.
Lines before the last one are a readable report (environment, every end-to-end metric of the
workload with its unit and direction, and the per-layer metrics when
tracing); the last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The exit code is 1 when any correctness check or the
stale-artifact guard failed, and 2 when splitflow cannot be imported.

With `--trace 1`, untraced and traced rounds alternate. Traced rounds wrap
splitflow's public functions (see tracing.py), and the JSON holds the
per-layer metrics, including the tracing overhead.
"""

import os

# Pinned before numpy is imported: one process, no extra threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
TAPED_REPEATS = 30
# The calibration job (see `calibration_job`) and the time it takes on the
# reference host, a 2-vCPU x86-64 VM with 1 BLAS thread in a quiet moment.
CALIBRATION_SMALL = 150
CALIBRATION_WIDE = 20
CALIBRATION_REF_S = 0.1

# The end-to-end metrics of every run's JSON; every workload reports them.
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_growth_mb": "MB"}


def max_rss_mb():
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"blas_threads": BLAS_THREADS, "numpy": np.__version__, "blas": blas,
            "python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed}


def taped_over_raw(net, x):
    """Median taped `Mlp.forward` time over the raw numpy forward's, same batch."""
    import checks
    layers = checks.mlp_layers(net, dtype=x.dtype)
    taped, raw = [], []
    for _ in range(TAPED_REPEATS):
        t0 = time.perf_counter()
        net.forward(x)
        t1 = time.perf_counter()
        checks.raw_mlp(layers, x)
        t2 = time.perf_counter()
        taped.append(t1 - t0)
        raw.append(t2 - t1)
    return statistics.median(taped) / statistics.median(raw)


def calibration_job():
    """A fixed numpy job whose time stands for the host's speed right now.

    It mixes what splitflow's rounds spend their time on: many small array
    operations driven from Python, and 256-wide float32 matmuls. It uses
    only numpy, so no change to splitflow can move it.
    """
    import checks
    import numpy as np
    rng = np.random.default_rng(0)

    def mlp(sizes, batch):
        layers = [(rng.standard_normal((a, b)).astype(np.float32) / np.sqrt(a),
                   np.zeros(b, np.float32)) for a, b in zip(sizes[:-1], sizes[1:])]
        return layers, rng.standard_normal((batch, sizes[0])).astype(np.float32)

    small = mlp([19, 128, 128, 2], 256)
    wide = mlp([384, 256, 256, 256], 128)

    def job():
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_SMALL):
            checks.raw_mlp(*small)
        for _ in range(CALIBRATION_WIDE):
            checks.raw_mlp(*wide)
        return time.perf_counter() - t0
    return job


def timed_setup(workload, directory):
    gc.collect()
    t0 = time.perf_counter()
    workload.setup(directory)
    return time.perf_counter() - t0


def run_rounds(workload, work, seconds, tracer, calibrate):
    """Alternate untraced and (with a tracer) traced rounds until `seconds`
    are used; at least one of each. Set-up runs before the first round and
    again after every round, so its timings sample the whole run, not only
    its first milliseconds. Every round and set-up starts from a collected
    heap, so where the cyclic collector runs inside it does not depend on
    what ran before.

    Returns (untraced rounds, traced rounds, layer metrics per traced round,
    set-up times, peak RSS in MB after the first set-up and round,
    calibration job times, one per set-up). The peak
    is taken there because later set-ups land in a heap the rounds have
    fragmented, and whether that lifts the peak by a few MB or not varies
    from run to run."""
    modes = ("plain", "traced") if tracer is not None else ("plain",)
    rounds = {"plain": [], "traced": []}
    layers = []
    calibrations = [calibrate()]
    setup_times = [timed_setup(workload, work / "setup-0")]
    last = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        mode = modes[i % len(modes)]
        directory = work / f"round-{i}"
        t0 = time.perf_counter()
        gc.collect()
        if mode == "traced":
            tracer.clear()
            tracer.install()
            try:
                result = workload.run_round(directory, tracer)
            finally:
                tracer.restore()
            layers.append(tracing.layer_metrics(tracer))
        else:
            result = workload.run_round(directory)
        shutil.rmtree(directory, ignore_errors=True)
        rounds[mode].append(result)
        if i == 0:
            first_peak_mb = max_rss_mb()
        setup_times.append(timed_setup(workload, work / f"setup-{i + 1}"))
        calibrations.append(calibrate())
        last[mode] = time.perf_counter() - t0
        i += 1
        upcoming = modes[i % len(modes)]
        if i >= len(modes) and time.perf_counter() + last[upcoming] > deadline:
            return (rounds["plain"], rounds["traced"], layers, setup_times, first_peak_mb,
                    calibrations)


def main(argv=None):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import splitflow
    except ImportError as exc:
        print(f"perfbench: cannot import splitflow from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(splitflow.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: splitflow was imported from {splitflow.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    workload = workloads.make(args.workload, args.seed)
    work = OUT_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    calibrate = calibration_job()
    calibrate()
    # Python, numpy and splitflow are loaded and the calibration job has run
    # once; what the peak grows past this is the workload's own memory.
    baseline_rss_mb = max_rss_mb()
    try:
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, layers, setup_times, peak_mb, calibrations = run_rounds(
            workload, work, args.seconds, tracer, calibrate)
        if tracer is not None:
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    workload.verify_rounds(plain + traced)
    ops = [op for r in plain + traced for op in r.ops]
    failed = [op for op in ops if op.problems]
    for op in failed:
        for problem in op.problems:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
    complete = [r for r in plain if r.complete]

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload}: {len(plain)} rounds untraced, {len(traced)} traced, "
          f"{len(ops)} operations, {len(failed)} failed "
          f"(error_rate {len(failed) / max(len(ops), 1):.4g})")
    raw = {"setup_s": statistics.median(setup_times),
           "round_s": statistics.median(r.wall_s for r in complete) if complete else 0.0}
    host = CALIBRATION_REF_S / statistics.median(calibrations)
    e2e = {
        "setup_s": raw["setup_s"] * host,
        "round_s": raw["round_s"] * host,
        "peak_rss_growth_mb": peak_mb - baseline_rss_mb,
    }
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {END_TO_END[name]} (lower is better)")
    print("  round walls (s): " + " ".join(f"{r.wall_s:.4f}" for r in complete))
    print("  set-up times (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    print("  calibration job times (s): " + " ".join(f"{t:.4f}" for t in calibrations))
    for name in ("setup_s", "round_s"):
        print(f"  {name} as measured = {raw[name]:.6g} s")
    if complete:
        for name, (value, unit, better, note) in workload.report(complete).items():
            print(f"  {name} = {value:.6g} {unit} ({better} is better) {note}".rstrip())

    if tracer is None:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in e2e.items()}
    else:
        net, x = workload.taped_forward_inputs(np.random.default_rng(args.seed))
        metrics = {name: {"value": statistics.median(m[name][0] for m in layers),
                          "unit": unit} for name, (_, unit) in layers[0].items()}
        metrics["nn.taped_over_raw"] = {"value": taped_over_raw(net, x), "unit": "ratio"}
        traced_walls = [r.wall_s for r in traced if r.complete]
        overhead = (statistics.median(traced_walls) / e2e["round_s"]
                    if traced_walls and complete else 0.0)
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        print("  per layer (traced rounds, medians):")
        for name, m in metrics.items():
            print(f"    {name} = {m['value']:.6g} {m['unit']}")

    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
