"""Compare traced runs with the baseline table of ROADMAP.md.

    python3 perfbench/baseline.py --seed 7

Reads ``.perfbench-results/<workload>-seed<n>-trace1.json`` (written by
``run.py --trace 1``) for every workload that has one and prints the
roadmap's baseline rows it reproduces.  Machine speed drifts, so a row is
compared as a share of the whole it belongs to, with the roadmap's own 10%
repeat noise.  The roadmap figures below are those of the roadmap this
benchmark was introduced with; update them when the roadmap is re-anchored.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROADMAP_NOISE = 0.10  # repeat-to-repeat noise the roadmap states for its baseline


def _span(key: str):
    return lambda t: t.get(key, 0.0)


_WALL = _span("wall_s")
_G20_BUILD = _span("pressure.partition_sum[build]@rauzy-gamma-20.s")
_DELTA = _span("ergodic.empirical_delta.s")
_DIO = _span("semigroup.diophantine_check.s")

# (workload, row, seconds from a traced sample, roadmap seconds (low, high),
# the seconds it is a share of, their roadmap value).  A total is a share of
# itself and is shown for reference.  Rows without a roadmap value report a
# split the roadmap asks for but does not quantify.
BASELINE_ROWS = (
    ("rauzy-n20", "rauzy --N 20 --depth 3 (ladder 5, 10, 20)", _WALL, (7.9, 7.9), _WALL, 7.9),
    ("rauzy-n20", "Gamma_20 depth-3 level build", _G20_BUILD, (4.0, 4.3), _WALL, 7.9),
    ("rauzy-n20", "exact positivity gate, Gamma_20",
     _span("semigroup.require_positive_like@rauzy-gamma-20.s"), (2.4, 2.4), _WALL, 7.9),
    ("rauzy-n20", "exact positivity gate, Gamma_10",
     _span("semigroup.require_positive_like@rauzy-gamma-10.s"), (0.6, 0.6), _WALL, 7.9),
    ("rauzy-n20", "one partition_sum on cached Gamma_20 levels",
     lambda t: t.get("pressure.partition_sum[warm]@rauzy-gamma-20.s", 0.0)
     / max(t.get("pressure.partition_sum[warm]@rauzy-gamma-20.calls", 0), 1),
     (0.021, 0.021), _G20_BUILD, 4.15),
    ("delta-gamma10", "empirical_delta Gamma_10, 32 planes x 10^6 samples", _DELTA,
     (10.7, 10.7), _DELTA, 10.7),
    ("delta-gamma10", "chaos sampler, 32 runs",
     _span("projective.project_measure_samples.s"), (6.7, 6.7), _DELTA, 10.7),
    ("check-rauzy-d8", "diophantine_check rauzy depth 8 (criterion 8)", _DIO, (7.1, 7.1),
     _DIO, 7.1),
    ("check-rauzy-d8", "  of which exact level products (mat_mul spans)",
     lambda t: _DIO(t) - t.get("semigroup.diophantine_check.self_s", 0.0), None, _DIO, None),
    ("check-rauzy-d8", "  of which pairwise gap and distinctness (self time)",
     _span("semigroup.diophantine_check.self_s"), None, _DIO, None),
)


def baseline_rows(workload: str, records: list[dict]) -> list[dict]:
    """The roadmap baseline rows this workload's traced samples reproduce."""
    traced = [{**r["layers"], "wall_s": r["wall_s"]} for r in records
              if r["mode"] == "trace" and r["ok"]]
    rows = []
    for wl, label, value_of, roadmap, base_of, roadmap_base in BASELINE_ROWS:
        if wl != workload or not traced:
            continue
        share = statistics.median(value_of(t) / base_of(t) for t in traced)
        row = {"row": label, "measured_s": statistics.median(map(value_of, traced)),
               "share": share, "roadmap_s": roadmap}
        if roadmap and value_of is not base_of:
            lo, hi = roadmap[0] / roadmap_base, roadmap[1] / roadmap_base
            row["roadmap_share"] = [lo, hi]
            agrees = lo * (1 - ROADMAP_NOISE) <= share <= hi * (1 + ROADMAP_NOISE)
            row["verdict"] = "agrees" if agrees else "differs"
        rows.append(row)
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)

    found = 0
    for workload in dict.fromkeys(wl for wl, *_ in BASELINE_ROWS):
        path = ROOT / ".perfbench-results" / f"{workload}-seed{args.seed}-trace1.json"
        if not path.is_file():
            print(f"{workload}: no traced record {path.name}")
            continue
        found += 1
        for row in baseline_rows(workload, json.loads(path.read_text())["records"]):
            ref = "-" if row["roadmap_s"] is None else "{}-{} s".format(*row["roadmap_s"])
            ref_share = ("" if "roadmap_share" not in row
                         else " ({:.3f}-{:.3f})".format(*row["roadmap_share"]))
            verdict = row.get("verdict", "total" if row["roadmap_s"] else "")
            print(f"{workload:15s} {row['row']:54s} {row['measured_s']:8.4f} s "
                  f"share {row['share']:.3f}  roadmap {ref}{ref_share}  {verdict}")
    return 0 if found else 1


if __name__ == "__main__":
    raise SystemExit(main())
