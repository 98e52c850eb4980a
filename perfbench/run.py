"""quadwg benchmark: one workload per process, metrics as a JSON last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {datasets,oracle,sweeps} \
        --seed N --seconds S --trace {0,1}

The workload builds its inputs (set-up), then repeats whole rounds of its
fixed work until ``S`` seconds have passed, checks every output against
independent references, and prints one JSON object as the last line of
standard output.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced rounds and reports
the per-layer metrics of the traced ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 2
MB = 1e6


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process (interpreter start
    included), from the start time in ``/proc/self/stat``."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def data_files(outdir):
    """CSV/JSON data files a round wrote; ``.meta.json`` sidecars excluded."""
    return sorted(name for name in os.listdir(outdir)
                  if name.endswith((".csv", ".json")) and not name.endswith(".meta.json"))


def digest_and_size(outdir):
    sha, size = hashlib.sha256(), 0
    for name in data_files(outdir):
        sha.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            while chunk := fh.read(1 << 20):
                sha.update(chunk)
                size += len(chunk)
    return sha.hexdigest(), size


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def probe_setup(args) -> float:
    """Set-up time of a fresh process doing this workload's set-up alone."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(tracer, rounds, untraced_walls, traced_walls, output_bytes):
    """Per-layer figures per traced round, from the spans of all of them."""
    import tracing

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    per = {layer: 0.0 for layer in tracing.LAYERS}
    for span, own in zip(spans, selfs):
        per[span.name.split(".", 1)[0]] += own

    def busy(*names):
        return tracing.busy_time(spans, names) / rounds

    # (steps, modes) of every integration, kept by the tracer's summary.
    runs = [s.result for s in spans if s.name == "timedomain.integrate" and s.result]
    steps = sum(n for n, _ in runs)
    mode_steps = sum(n * modes for n, modes in runs)
    integrate_s = busy("timedomain.integrate")
    cli_self = per["cli"] / rounds
    metrics = {f"{layer}.self_s": (value / rounds, "s") for layer, value in per.items()}
    metrics.update({
        "cli.write_mb_per_s": (output_bytes / MB / cli_self if cli_self > 0 else 0.0, "MB/s"),
        "emission.joint_spectrum_s": (busy("emission.joint_spectrum"), "s"),
        "emission.summary_s": (busy("emission.EmissionSpectrum.total_probability",
                                    "emission.EmissionSpectrum.spectrum_correlation"), "s"),
        "scattering.output_on_s": (busy("scattering.ScatterOutput.output_on"), "s"),
        "scattering.scatter_s": (busy("scattering.scatter"), "s"),
        "scattering.channel_probabilities_s": (busy("scattering.channel_probabilities"), "s"),
        "spectral.state_s": (busy("spectral.SeparableState.__post_init__"), "s"),
        "spectral.on_grid_s": (busy("spectral.SeparableState.on_grid",
                                    "spectral.GridState.on_grid"), "s"),
        "gate.gate_overlap_s": (busy("gate.gate_overlap"), "s"),
        "entanglement.entropy_sweeps_s": (busy("entanglement.entropy_sweeps"), "s"),
        "timedomain.integrate_s": (integrate_s, "s"),
        "timedomain.rk4_steps": (steps / rounds, "count"),
        "timedomain.mode_steps_per_s": (
            mode_steps / rounds / integrate_s if integrate_s > 0 else 0.0, "1/s"),
        "trace.overhead_s": (statistics.median(traced_walls)
                             - statistics.median(untraced_walls), "s"),
    })
    for module, count in tracer.quad_calls.items():
        metrics[f"{module}.quad_calls"] = (count / rounds, "count")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quadwg", "__init__.py")):
        print(f"error: quadwg sources not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = seconds_since_process_start()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer({"timedomain.integrate": lambda traj: (
            len(traj.times) - 1, traj.final_state.data.size)})
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    walls = {False: [], True: []}
    attempted = failed = 0
    problems = []
    sizes, first_dir, first_digest = [], None, None
    try:
        start = time.perf_counter()
        k = 0
        min_rounds = max(workload.min_rounds, 2 if args.trace else 1)
        while k < min_rounds or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and k % 2 == 1
            outdir = os.path.join(workdir, f"round-{k}")
            os.makedirs(outdir)
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                payload = workload.run_round(outdir)
                walls[traced].append(time.perf_counter() - t0)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += payload["attempted"]
            failed += payload["failed"]
            found, failures = workload.check_round(outdir, payload)
            problems += found
            failed += failures
            digest, size = digest_and_size(outdir)
            sizes.append(size)
            if first_dir is None:
                first_dir, first_digest = outdir, digest
            else:
                if digest != first_digest:
                    problems.append(f"round {k} data files differ from round 0")
                shutil.rmtree(outdir)
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
        problems += workload.check_final(first_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        traced_rounds = len(walls[True])
        metrics = layer_metrics(tracer, traced_rounds, walls[False], walls[True],
                                statistics.median(sizes))
        tracer.dump(stem + "-spans.json")
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "output_mb": (statistics.median(sizes) / MB, "MB"),
        }

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}: seed {args.seed}, {k} rounds "
          f"({len(walls[True])} traced), {attempted} operations, {failed} failed")
    print("  round wall times (s):", " ".join(
        f"{w:.3f}{'*' if traced else ''}" for traced in (False, True) for w in walls[traced]),
        "(* traced)" if tracer is not None else "")
    if tracer is not None:
        print(f"  {len(tracer.spans)} spans in {stem}-spans.json")
    for key, value in workload.sizes().items():
        print(f"  size {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(stem + "-result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
