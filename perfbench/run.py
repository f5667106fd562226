"""synwatch benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a synwatch checkout:

    python3 perfbench/run.py --workload detect-10k --seed 3 --seconds 20 --trace 0

Each measurement happens in a fresh Python process (worker.py) that imports
synwatch from this checkout's `src/` and generates the workload's input from
the seed. Set-up time runs from process start to input ready, in
SETUP_SAMPLES processes. The last of them then measures untraced passes for
--seconds (--trace 0), or alternates untraced and traced passes (--trace 1).
Every op's output is checked against golden.json.

Every worker runs on one CPU, next to the speed sampler (sampler.py), which
times a fixed piece of work ten times a second. Pass and set-up times are
reported as measured (`wall_s`, `setup_wall_s`) and at the sampler's
reference speed (`pass_s`, `setup_s`): measured * SPEED_REF_S / mean sample
over the same interval. That takes out most of a shared host's speed drift;
the reference-speed figures are the ones BENCHMARK.json gates.

Stdout: an environment line, a readable table of every metric, and as the
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the BENCHMARK.json end_to_end metrics, or its per_layer ones
with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
FAMILIES = ("supervised", "semi_supervised", "unsupervised", "forecast", "datapath")
SETUP_SAMPLES = 5  # fresh processes per run whose set-up time is measured; median reported
BLAS_THREADS = 1  # at most nproc on any machine, and no thread-pool jitter
TIME_LIMIT_S = 170  # a run must end within 180 s; workers still running then are killed
SPEED_REF_S = 0.002  # sets the scale only: a round figure near a fast sample's CPU time
SAMPLE_PAD_S = 0.1  # a window also takes the speed samples this close to its ends


class BenchError(Exception):
    pass


def _machine() -> dict:
    """CPU count, L2/L3 cache sizes and load average, read before any work starts."""
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size if kind == "Unified" else f"{size} {kind}"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            **caches, "loadavg_start": list(os.getloadavg())}


def _env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _pin() -> None:
    """Run on one CPU, the same for every worker and the speed sampler."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn(args, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh process and return the JSON object it prints,
    plus `spawned_at`, the time.monotonic() just before it started."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=CHECKOUT, env=_env(), stdout=subprocess.PIPE, text=True,
                            preexec_fn=_pin)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({mode}) did not finish within the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker ({mode}) printed nothing")
    return {**json.loads(lines[-1]), "spawned_at": spawned_at}


def start_sampler() -> subprocess.Popen:
    """Start sampler.py on the workers' CPU and wait until it samples."""
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "sampler.py")], cwd=CHECKOUT,
                            env=_env(), stdout=subprocess.PIPE, text=True, preexec_fn=_pin)
    if proc.stdout.readline().strip() != "ready":
        raise BenchError("the speed sampler did not start")
    return proc


def stop_sampler(proc: subprocess.Popen) -> list:
    """Stop the sampler and return its [time, CPU seconds] samples."""
    proc.terminate()
    try:
        out, _ = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        raise BenchError("the speed sampler did not stop") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"the speed sampler exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def scaled(seconds: float, samples: list, start: float, end: float) -> float:
    """`seconds`, measured between start and end, at the sampler's reference speed."""
    inside = [cpu for t, cpu in samples if start - SAMPLE_PAD_S <= t <= end + SAMPLE_PAD_S]
    if not inside:
        raise BenchError("no speed samples in a measured interval")
    return seconds * SPEED_REF_S / statistics.fmean(inside)


def _table(rows) -> str:
    return "\n".join(f"  {name:<34} {value:>16}  {unit}" for name, value, unit in rows)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "synwatch" / "__init__.py").is_file():
        print(f"no synwatch sources under {CHECKOUT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # A terminated run still stops its worker and sampler: SystemExit unwinds
    # through spawn() and the finally below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    machine = _machine()
    deadline = time.monotonic() + TIME_LIMIT_S
    sampler = None
    try:
        sampler = start_sampler()
        setups = [spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        run = spawn(args, "run", deadline)
        samples = stop_sampler(sampler)
        setups.append(run)
        setup_wall = [s["ready_at"] - s["spawned_at"] for s in setups]
        setup_scaled = [scaled(w, samples, s["spawned_at"], s["ready_at"])
                        for w, s in zip(setup_wall, setups)]
        passes = [dict(p, scaled_s=scaled(p["wall_s"], samples, *p["window"]))
                  for p in run["passes"]]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if sampler is not None and sampler.poll() is None:
            sampler.kill()
            sampler.wait()
    untraced = [p for p in passes if not p["traced"]]
    attempted, failed = run["attempted"], len(run["failures"])
    e2e = {"setup_s": statistics.median(setup_scaled),
           "pass_s": statistics.median(p["scaled_s"] for p in untraced),
           "peak_rss_mb": run["peak_rss_mb"]}
    if args.trace:
        traced_s = statistics.median(p["scaled_s"] for p in passes if p["traced"])
        run["layer"]["trace.overhead_s"] = traced_s - e2e["pass_s"]
        run["layer"]["trace.overhead_frac"] = run["layer"]["trace.overhead_s"] / e2e["pass_s"]
    print("env " + json.dumps({**machine, **run["env"], "samples": len(samples)},
                              sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed} (data seed {run['data_seed']})  "
          f"passes {len(passes)}  trace {'on' if args.trace else 'off'}")
    rows = [("setup_s", _fmt(e2e["setup_s"]),
             f"s  median of {len(setups)} fresh processes, at reference speed"),
            ("setup_wall_s", _fmt(statistics.median(setup_wall)),
             "s  as measured: " + " ".join(f"{w:.3f}" for w in setup_wall)),
            ("pass_s", _fmt(e2e["pass_s"]), "s  median untraced pass, at reference speed"),
            ("wall_s", _fmt(statistics.median(p["wall_s"] for p in untraced)),
             "s  as measured: " + " ".join(f"{p['wall_s']:.3f}" for p in passes))]
    rows += [(f"{fam}_s", _fmt(run["family_s"][fam]) if fam in run["family_s"] else "n/a", "s")
             for fam in FAMILIES]
    rows += [("peak_rss_mb", _fmt(e2e["peak_rss_mb"]), "MB  one pass, fresh process"),
             ("failed_frac", _fmt(failed / attempted), f"of {attempted} ops")]
    rows += [(f"op {name}", _fmt(sec), "s") for name, sec in run["op_s"].items()]
    print(_table(rows))
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print(_table((name, _fmt(value), units.get(name, "")) for name, value
                     in sorted(run["layer"].items())))
    for line in run["failures"]:
        print(f"FAILED {line}")

    if args.trace:
        chosen, values = bench["per_layer"], run["layer"]
    else:
        chosen, values = bench["end_to_end"], e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
