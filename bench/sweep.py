"""Run the benchmark over several workloads and seeds, one process at a time.

    python3 bench/sweep.py --workloads radii kestimate --seeds 1-10 \
        --trace 0 --out .bench_out/parent.jsonl

Each run appends one JSON line: workload, seed, trace, exit code, wall time,
the run's result object and its ``# env`` record. Feed one such file to
compare.py to see the run-to-run spread, or two to compare commits.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in config["workloads"]])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                   help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=config["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    with open(args.out, "a") as fh:
        for workload in args.workloads:
            for seed in args.seeds:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600, check=False)
                wall = time.perf_counter() - t0
                lines = proc.stdout.strip().splitlines()
                result = None
                if proc.returncode == 0 and lines:
                    result = json.loads(lines[-1])
                env = next((json.loads(line[6:]) for line in lines
                            if line.startswith("# env ")), None)
                rec = {"workload": workload, "seed": seed, "trace": args.trace,
                       "returncode": proc.returncode, "wall_s": wall, "result": result,
                       "env": env}
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                status = "ok" if result and result["correct"] else "FAILED"
                print(f"{workload:14s} seed {seed:3d}  {wall:6.1f} s  {status}", flush=True)
                if result is None:
                    print(proc.stderr[-2000:], file=sys.stderr)


if __name__ == "__main__":
    main()
