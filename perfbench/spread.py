"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \
        --seeds 1-10 --seconds 30

Runs ``run.py`` once per seed (one run at a time) and prints, per metric, the
median of the run values, their quartiles and the interquartile distance as a
share of the median, which is how the benchmark's bounds are checked.  It also
pools the untraced ``wall_s`` samples of all runs and gives the highest
percentile that has at least ten samples above it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, high_percentile  # noqa: E402


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    p.add_argument("--seconds", type=int, default=30)
    args = p.parse_args(argv)

    for workload in args.workload:
        results, walls = [], []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            record = ROOT / ".perfbench-results" / f"{workload}-seed{seed}-trace0.json"
            walls += json.loads(record.read_text())["details"]["wall_s_all"]
        print(f"{workload}: {len(results)} runs, correct {sum(r['correct'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"iqr/median {(q3 - q1) / med:.4f}  runs {[round(v, 4) for v in vals]}")
        high = high_percentile(walls)
        print(f"  wall_s over {len(walls)} pooled samples: median {statistics.median(walls):.4f}"
              + (f", {high[0]} {high[1]:.4f}" if high else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
