"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed and workload, one run at a time, and prints
for every metric the median, the quartiles and the spread (distance
between the quartiles over the median), plus the share of failed
operations. The runs and the summary are kept in
``perfbench/out/spread-<label>.json``.

    python3 perfbench/spread.py --label set1 --seeds 1-10
    python3 perfbench/spread.py --label try --seeds 1-5 --workloads exact_corpus
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("grid_coordination", "exact_corpus", "certify_deep")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(runs: list[dict]) -> dict:
    out = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[key] = {"unit": runs[0]["metrics"][key]["unit"], "median": median,
                    "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / median if median else float("nan"),
                    "values": values}
    out["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs})
    out["all_correct"] = all(r["correct"] for r in runs)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(proc.stderr, file=sys.stderr)
                return 2
            runs.append(json.loads(lines[-1]))
            kept = json.loads((BENCH / "out" / f"result-{workload}-seed{seed}-trace0.json")
                              .read_text())
            runs[-1]["metrics"].update(
                (f"wall.{k}", {"value": v, "unit": "s"}) for k, v in kept["wall_s"].items())
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in runs[-1]["metrics"].items()),
                flush=True)
        report[workload] = {"seeds": args.seeds, "runs": runs,
                            "summary": summarize(runs)}
        summary = report[workload]["summary"]
        print(f"== {workload}: correct={summary['all_correct']} "
              f"failed share={summary['failed_share']}")
        for key, s in summary.items():
            if isinstance(s, dict):
                print(f"   {key:<16} median {s['median']:.4g} {s['unit']:<5} "
                      f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.2%}")
    out = BENCH / "out" / f"spread-{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
