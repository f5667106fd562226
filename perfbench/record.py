"""Record the gate's expected outputs: one untraced pass per workload and data seed.

    python3 perfbench/record.py            # all workloads, every data seed
    python3 perfbench/record.py --workload forecast-600

Writes perfbench/golden.json. Run it only on a commit whose outputs are the
reference; run.py then fails every op whose output differs from it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import BENCH_DIR, TIME_LIMIT_S, BenchError, spawn


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    config = json.loads((BENCH_DIR / "config.json").read_text(encoding="utf-8"))
    names = args.workload or list(config["input_seeds"])
    path = BENCH_DIR / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in names:
        golden[name] = {}
        for i, data_seed in enumerate(config["input_seeds"][name]):
            spawn_args = argparse.Namespace(workload=name, seed=i, seconds=0, trace=0)
            try:
                out = spawn(spawn_args, "record", time.monotonic() + TIME_LIMIT_S)
            except BenchError as exc:
                print(f"{name} seed {data_seed}: {exc}", file=sys.stderr)
                return 1
            if out["failures"]:
                print(f"{name} seed {data_seed}: {out['failures']}", file=sys.stderr)
                return 1
            golden[name][str(data_seed)] = out["outputs"]
            print(f"{name} seed {data_seed}: {len(out['outputs'])} ops recorded", flush=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
