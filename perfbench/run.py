"""biasgrid benchmark: one workload, timed end to end, or traced per module.

    python3 perfbench/run.py --workload remediate --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src. The
run repeats whole rounds of the workload's operations until --seconds
have passed, checks the outputs, and prints a run record line and then
one JSON result line: {"correct", "attempted", "failed", "metrics"}.
After every operation it runs a fixed reference computation
(reference.py), and it reports a round's time in units of it.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
rounds alternate untraced and traced, and the metrics are the per-module
ones plus the tracing overhead. See perfbench/README.md.
"""

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started, from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


T0 = time.perf_counter() - _process_age()

# One BLAS thread, fixed before numpy loads: on the 2-core measuring
# machine, two threads doubled the run-to-run spread of the large-grid
# workload (see README).
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OP_METRICS = ("targeted", "random", "fit_pca", "visualize")


def _metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _blas() -> dict:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        info = {}
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": BLAS_THREADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "biasgrid" / "__init__.py").is_file():
        print(f"perfbench: no biasgrid package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import reference
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = _metric_units("per_layer" if args.trace else "end_to_end")

    # Rounds write into new directories; nothing is deleted until the
    # measurement is over, because deleting files slowed later file
    # creation for tens of seconds on the measuring machine (see README).
    scratch = ROOT / ".bench_scratch" / f"{args.workload}-{time.time_ns()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        wl = workloads.WORKLOADS[args.workload](scratch, args.seed)
        wl.setup()
        setup_s = time.perf_counter() - T0
        setup_spans = len(tracer.spans) if tracer else 0

        rounds, errors, span_ranges, mismatched = [], [], [], []
        measure_start = time.perf_counter()
        # A traced run alternates untraced and traced rounds in the order
        # U T T U, so that neither kind always comes first (the first round
        # of a process runs on cold caches), and stops after whole blocks.
        block = 4 if tracer else 1
        while not rounds or time.perf_counter() - measure_start < args.seconds or len(rounds) % block:
            traced = bool(tracer) and len(rounds) % 4 in (1, 2)
            if tracer:
                (tracer.install if traced else tracer.uninstall)()
            span0 = len(tracer.spans) if tracer else 0
            out = scratch / f"round-{len(rounds)}"
            refs = []
            ops = workloads.run_round(wl.operations(out), between=lambda: refs.append(reference.unit()))
            if traced:
                span_ranges.append((span0, len(tracer.spans)))
            wall = sum(s or 0.0 for _, s, _, _ in ops)
            rounds.append({"traced": traced, "wall_s": wall, "wall_ref": wall / statistics.fmean(refs),
                           "ref_s": refs, "ops": [[op, s] for op, s, _, _ in ops],
                           "cpu": [c for _, _, c, _ in ops]})
            errors += [f"round {len(rounds) - 1} {op}: {err}" for op, _, _, err in ops if err]
            digest = _tree_digest(out)
            if len(rounds) == 1:
                first_digest = digest
            elif digest != first_digest:
                mismatched.append(len(rounds) - 1)
        if tracer:
            tracer.uninstall()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            check_results = wl.check(scratch / "round-0")
        except Exception as exc:  # unreadable outputs fail the run's checks
            check_results = {"outputs_readable": [f"{type(exc).__name__}: {exc}"]}
        attempted = sum(len(r["ops"]) for r in rounds)
        failed = sum(1 for r in rounds for _, s in r["ops"] if s is None)
        correct = all(not p for p in check_results.values()) and not mismatched

        plain = [r for r in rounds if not r["traced"]]
        op_s = {f"{name}_s": statistics.median(sum(s or 0.0 for op, s in r["ops"] if op == name) for r in plain)
                for name in OP_METRICS}
        if tracer:
            totals = tracing.layer_metrics(tracer.totals(0, setup_spans),
                                           [tracer.totals(a, b) for a, b in span_ranges])
            totals.update(op_s)
            totals.update(wl.figures)
            totals["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in rounds if r["traced"])
                                          - statistics.median(r["wall_s"] for r in plain))
            totals["trace.spans"] = statistics.median(b - a for a, b in span_ranges)
            totals["ref_unit_s"] = statistics.median(u for r in plain for u in r["ref_s"])
            metrics = {name: {"value": totals.get(name, 0), "unit": unit} for name, unit in units.items()}
        else:
            values = {"setup_s": setup_s, "peak_rss_mib": peak_rss_mib,
                      "wall_ref": statistics.median(r["wall_ref"] for r in rounds)}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": NPROC, "blas": _blas(), "numpy": np.__version__, "python": platform.python_version(),
            "attempted": attempted, "failed": failed, "correct": correct,
            "setup_s": setup_s, "peak_rss_mib": peak_rss_mib, "ops": op_s, **wl.figures,
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "checks": check_results, "errors": errors, "rounds_differing_from_round_0": mismatched,
            "rounds": rounds, "metrics": metrics,
        }
        results = ROOT / ".bench_results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        if tracer:
            phases = [("setup", 0, setup_spans)] + [(f"round-{i}", a, b) for i, (a, b) in enumerate(span_ranges)]
            tracer.write(results / f"{stem}.spans.jsonl", phases)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    print("record " + json.dumps({k: v for k, v in record.items() if k not in ("rounds", "metrics")}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
