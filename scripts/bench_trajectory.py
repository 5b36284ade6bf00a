"""Compare two checkouts on the benchmark and write a BENCH_<n>.json summary.

    python3 scripts/bench_trajectory.py --parent ../parent --workload grid-large \
        --seeds 1-10 --traced-seeds 1-2 --out BENCH_6.json

Runs perfbench/run.py of the --parent checkout and of the checkout holding
this script as BENCHMARK.json says (its command and run_seconds), one
process at a time: an untraced run per seed and side, then a traced run per
traced seed and side, which side goes first alternating from pair to pair.
Each result is read from the last line run.py prints. The workload's entry
in --out (other workloads' entries are kept) holds, per side, the median
and quartiles of each end-to-end metric, the number of pairs the change
won, the share of failed operations, and every traced layer metric per
seed. A --seeds range of fewer than two seeds, or an empty --traced-seeds
range, is refused before any run. Progress lines print the layer metrics
in TRACED, and each untraced pair's setup_s on both sides.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from repeat import seeds  # noqa: E402

TRACED = ("pca.fit.s", "pca.project.s", "saliency.compute_failures.s", "dataset.matrix.calls")


def run(side: str, checkout: Path, spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{side} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n in (TRACED if trace else result["metrics"])),
          flush=True)
    return result


def seed_list(least: int):
    """An argparse type: a seeds range ("1-10", "3") of at least `least` seeds."""
    def seed_range(text: str) -> list[int]:
        values = seeds(text)
        if len(values) < least:
            raise argparse.ArgumentTypeError(f"{text!r} names {len(values)} seeds, fewer than {least}")
        return values
    return seed_range


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    # quartiles need two values a side, and the entry reads the first traced pair
    parser.add_argument("--seeds", type=seed_list(2), default=seeds("1-10"))
    parser.add_argument("--traced-seeds", type=seed_list(1), default=seeds("1-2"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    def alternating(seed_list: list[int], trace: int) -> list[dict]:
        orders = (("parent", "change"), ("change", "parent"))
        pairs = []
        for i, seed in enumerate(seed_list):
            pairs.append({side: run(side, sides[side], spec, args.workload, seed, trace) for side in orders[i % 2]})
            if not trace:
                print(f"seed {seed} setup_s: " + " ".join(
                    f"{side}={pairs[-1][side]['metrics']['setup_s']['value']:.3f}" for side in sides), flush=True)
        return pairs

    pairs = alternating(args.seeds, 0)
    traced = alternating(args.traced_seeds, 1)

    entry = {"seeds": args.seeds, "traced_seeds": args.traced_seeds, "run_seconds": spec["run_seconds"], "end_to_end": {}}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in sides}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        entry["end_to_end"][name] = {**{side: summary(v) for side, v in vals.items()},
                                     "unit": m["unit"], "bound": m["bound"], "change_wins": wins,
                                     "pairs": len(pairs), "values": vals}
    entry["correct"] = all(p[side]["correct"] for p in pairs + traced for side in sides)
    entry["failed_share"] = {side: sum(p[side]["failed"] for p in pairs) / sum(p[side]["attempted"] for p in pairs)
                             for side in sides}
    entry["traced"] = {side: {name: {str(seed): p[side]["metrics"][name]["value"]
                                     for seed, p in zip(args.traced_seeds, traced)}
                              for name in traced[0][side]["metrics"]}
                       for side in sides}

    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    out[args.workload] = entry
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
