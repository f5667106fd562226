"""One benchmark process: import synwatch from the checkout, generate one
workload's input from its seed, run timed passes and print one JSON line.

run.py starts this in a fresh process for every set-up sample and every
measured run, so set-up time and peak RSS are those of a new process.
Times are time.monotonic() values, which run.py compares with its own and
with the speed sampler's.

    python3 perfbench/worker.py --workload detect-10k --seed 3 --seconds 20 \
        --trace 0 --mode run

Modes: `setup` stops once the input exists; `run` measures passes for
--seconds; `record` runs one untraced pass and prints every op's output,
which record.py collects into golden.json.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_info() -> dict:
    """Name and version of numpy's BLAS, and its thread count where it can be asked."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                threads = int(getattr(dll, symbol)())
                break
        if threads is not None:
            break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def _matches(got, want, tolerance: dict, key: str = "") -> bool:
    """Exact for ints, strings and booleans; floats within tolerance[key] or
    tolerance["default"], each a [rel, abs] pair."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_matches(got[k], want[k], tolerance, k) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_matches(g, w, tolerance, key) for g, w in zip(got, want)))
    if isinstance(want, float):
        rel, abs_ = tolerance.get(key, tolerance["default"])
        return isinstance(got, float) and math.isclose(got, want, rel_tol=rel, abs_tol=abs_)
    return type(got) is type(want) and got == want


def _one_pass(ops, state, tracer, pass_no: int) -> dict:
    """Run every op once; time each call alone, then derive its output for the gate."""
    for op in ops:
        if op.store:
            state.pop(op.store, None)
    if tracer is not None:
        tracer.pass_no = pass_no
        first_span = len(tracer.spans)
        tracer.install()
    op_s, outputs, failures = {}, {}, {}
    start = time.monotonic()
    try:
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            t0 = time.perf_counter()
            try:
                result = op.run(state)
            except Exception as exc:  # a failed op is counted, and the pass goes on
                failures[op.name] = f"{type(exc).__name__}: {exc}"
                continue
            op_s[op.name] = time.perf_counter() - t0
            if op.store:
                state[op.store] = result
            outputs[op.name] = op.output(result, state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"traced": tracer is not None, "wall_s": sum(op_s.values()),
           "window": (start, time.monotonic()), "op_s": op_s,
           "outputs": outputs, "failures": failures}
    if tracer is not None:
        out["spans"] = (first_span, len(tracer.spans))
    return out


def _schedule(trace: bool):
    """Untraced passes only, or untraced/traced/traced repeated when tracing."""
    while True:
        yield False
        if trace:
            yield True
            yield True


def _measure(ops, state, args, config, expected) -> dict:
    import tracing

    remove_guard = tracing.install_smote_guard(config["smote_budget_bytes"])
    tracer = tracing.Tracer() if args.trace else None
    passes, peak_rss_mb = [], None
    start = time.perf_counter()
    try:
        for traced in _schedule(bool(args.trace)):
            passes.append(_one_pass(ops, state, tracer if traced else None, len(passes)))
            if peak_rss_mb is None:
                peak_rss_mb = _peak_rss_mb()  # the high-water mark of one pass in a fresh process
            # Start no pass that would likely end after --seconds, but make at least two
            # passes of the kind this run reports: a median of one pass is too noisy,
            # and counters can only be seen to repeat over two traced passes.
            elapsed = time.perf_counter() - start
            n_reported = sum(p["traced"] == bool(args.trace) for p in passes)
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds and n_reported >= 2:
                break
    finally:
        remove_guard()

    failures = {}  # (pass, op) -> reason; an op fails at most once per pass
    for i, p in enumerate(passes):
        for name, reason in p["failures"].items():
            failures[i, name] = reason
        for name, got in p["outputs"].items():
            if name not in expected:
                failures[i, name] = "no recorded output for this input"
            elif not _matches(got, expected[name], {"default": config["tolerance"]["default"],
                                                     **config["tolerance"].get(name, {})}):
                failures[i, name] = f"output {got} differs from recorded {expected[name]}"

    untraced = [p for p in passes if not p["traced"]]
    families = {}
    for op in ops:
        families.setdefault(op.family, []).append(op.name)
    family_s = {fam: statistics.median(sum(p["op_s"].get(n, 0.0) for n in names)
                                       for p in untraced)
                for fam, names in families.items()}
    op_s = {op.name: statistics.median(p["op_s"].get(op.name, 0.0) for p in untraced)
            for op in ops}
    result = {"peak_rss_mb": peak_rss_mb, "family_s": family_s, "op_s": op_s,
              "passes": [{k: p[k] for k in ("traced", "wall_s", "window")} for p in passes],
              "attempted": len(passes) * len(ops)}
    if tracer is not None:
        result["layer"] = _layer_metrics(tracer, passes, failures)
        _write_spans(tracer, args)
    result["failures"] = [f"pass {i} {name}: {reason}"
                          for (i, name), reason in sorted(failures.items())]
    return result


def _layer_metrics(tracer, passes, failures: dict) -> dict:
    """Median per-layer metrics over the traced passes.

    Counters must repeat exactly from one traced pass to the next; an op
    whose counters differ is recorded as failed.
    """
    import tracing

    traced = [i for i, p in enumerate(passes) if p["traced"]]
    per_pass, counters = [], []
    for i in traced:
        spans = tracer.spans[slice(*passes[i]["spans"])]
        per_pass.append(tracing.pass_metrics(spans, tracer.spans))
        counters.append(tracing.op_counters(spans))
    for i, c in zip(traced[1:], counters[1:]):
        for name in set(c) | set(counters[0]):
            if c.get(name) != counters[0].get(name):
                failures[i, name] = "counters differ from the first traced pass"
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def _write_spans(tracer, args) -> None:
    out_dir = CHECKOUT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    rows = [{"id": s.sid, "parent": s.parent, "pass": s.pass_no, "op": s.op, "name": s.name,
             "start": s.start, "end": s.end, **s.attrs} for s in tracer.spans]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run", "record"), required=True)
    args = parser.parse_args(argv)
    config = json.loads((BENCH_DIR / "config.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    import synwatch
    if Path(synwatch.__file__).resolve().parent != SRC / "synwatch":
        print(f"synwatch imported from {synwatch.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    input_seeds = config["input_seeds"][args.workload]
    data_seed = input_seeds[args.seed % len(input_seeds)]
    tmp_root = CHECKOUT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        state, ops = workloads.build(args.workload, data_seed, workdir)
        result = {"ready_at": time.monotonic(), "data_seed": data_seed}
        if args.mode == "record":
            one = _one_pass(ops, state, None, 0)
            result.update(outputs=one["outputs"], failures=one["failures"])
        elif args.mode == "run":
            golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
            expected = golden.get(args.workload, {}).get(str(data_seed), {})
            result.update(_measure(ops, state, args, config, expected))
            import numpy
            import scipy
            result["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                             "scipy": scipy.__version__, **_blas_info()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
