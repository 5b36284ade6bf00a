"""Self-test of the output checks: each passes on real outputs and fails on a corrupted one.

    python3 perfbench/selftest.py

Makes one large-grid output set (seed 0) and one remediation run pair
(master seed 0, package defaults) under
.bench_scratch/, runs every check on them, then corrupts one output per
check and confirms that the check reports a problem. Prints one line per
case and exits 1 if a clean output fails or a corruption goes unseen.
Run it apart from timing runs: it writes and deletes thousands of files.
"""

import contextlib
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


@contextlib.contextmanager
def corrupted(path: Path, change):
    """Replace a file's bytes with change(bytes) for the duration of the block."""
    original = path.read_bytes()
    path.write_bytes(change(original))
    try:
        yield
    finally:
        path.write_bytes(original)


def json_edit(edit):
    def change(data: bytes) -> bytes:
        obj = json.loads(data)
        edit(obj)
        return json.dumps(obj).encode()
    return change


def jsonl_edit(edit):
    def change(data: bytes) -> bytes:
        lines = [json.loads(line) for line in data.decode().splitlines()]
        edit(lines)
        return ("\n".join(json.dumps(line) for line in lines) + "\n").encode()
    return change


def flip_ppm_byte(data: bytes) -> bytes:
    pos = len(data) // 2
    return data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:]


def scale_column(obj):
    obj["components"] = [[a * 1.01, b] for a, b in obj["components"]]


def bump_failure(obj):
    obj["cells"]["0,0"]["failure"] += 1e-3


def duplicate_cell(obj):
    obj["cells"]["0,1"] = dict(obj["cells"]["0,0"])


def swap_cells(obj):
    last = max(obj["cells"], key=lambda k: tuple(map(int, k.split(","))))
    obj["cells"]["0,0"], obj["cells"][last] = obj["cells"][last], obj["cells"]["0,0"]


def zero_model(obj):
    obj["weights"] = [0.0] * len(obj["weights"])
    obj["bias"] = 0.0


def saturate_model(obj):
    obj["weights"] = [w * 1e6 for w in obj["weights"]]


def wrong_pool_id(obj):
    taken = {p for _, p, _ in obj["matches"][:5]}
    other = next(p for p in obj["matched_pool_ids"] if p not in taken)
    obj["matches"][0][1] = other


def main() -> int:
    scratch = ROOT / ".bench_scratch" / f"selftest-{time.time_ns()}"
    grid = workloads.GridLarge(scratch, 0)
    remed = workloads.Remediate(scratch, 0, panel=(0,))
    g_out, r_out = scratch / "grid-large", scratch / "remediate"
    try:
        grid.setup()
        workloads.run_round(grid.operations(g_out))
        first_pgm = grid.data / json.loads((grid.data / "val.jsonl").read_text().splitlines()[0])["path"]
        remed.setup()
        workloads.run_round(remed.operations(r_out))
        run = r_out / "seed-0"
        n_iter = len((run / "targeted" / "summary.jsonl").read_text().splitlines()) - 1
        leak_id = remed.corpora[0][1].records[0].id
        cases = [
            (grid, g_out, "manifests", "val.jsonl loses its last line",
             grid.data / "val.jsonl", lambda d: d.rsplit(b"\n", 2)[0] + b"\n"),
            (grid, g_out, "manifests", "a PGM payload is one byte short",
             first_pgm, lambda d: d[:-1]),
            (grid, g_out, "training_loss", "model weights and bias set to 0",
             grid.data / "model.json", json_edit(zero_model)),
            (grid, g_out, "basis", "basis column 0 scaled by 1.01",
             g_out / "basis.json", json_edit(scale_column)),
            (grid, g_out, "sidecar_ids", "cell 0,1 repeats cell 0,0's id",
             g_out / "grid.json", json_edit(duplicate_cell)),
            (grid, g_out, "sidecar_failures", "cell 0,0 failure + 1e-3",
             g_out / "grid.json", json_edit(bump_failure)),
            (grid, g_out, "grid_greedy", "first and last cells swapped",
             g_out / "grid.json", json_edit(swap_cells)),
            (grid, g_out, "ppm", "one PPM byte flipped",
             g_out / "grid.ppm", flip_ppm_byte),
            (remed, r_out, "accuracies", "iter-1 metrics.json accuracy + 0.01",
             run / "targeted" / "iter-1" / "metrics.json",
             json_edit(lambda o: o.update(val_accuracy=o["val_accuracy"] + 0.01))),
            (remed, r_out, "growth", "a validation id among matched pool ids",
             run / "targeted" / "iter-1" / "matchset.json",
             json_edit(lambda o: o["matched_pool_ids"].append(leak_id))),
            (remed, r_out, "growth", "last train_size in summary.jsonl + 1",
             run / "random" / "summary.jsonl",
             jsonl_edit(lambda ls: ls[-1].update(train_size=ls[-1]["train_size"] + 1))),
            (remed, r_out, "matches", "a match triple names another pool id",
             run / "targeted" / "iter-1" / "matchset.json", json_edit(wrong_pool_id)),
            (remed, r_out, "failure_sampling", "iter-0 model saturated (failures of 0)",
             run / "targeted" / "iter-0" / "model.json", json_edit(saturate_model)),
            (remed, r_out, "plateau", "summary.jsonl repeats its last line",
             run / "targeted" / "summary.jsonl", jsonl_edit(lambda ls: ls.append(ls[-1]))),
            (remed, r_out, "random_draws", "a random-arm id drawn twice",
             run / "random" / f"iter-{n_iter}" / "matchset.json",
             json_edit(lambda o: o["matched_pool_ids"].append(o["matched_pool_ids"][0]))),
        ]
        ok = True
        for wl, out in ((grid, g_out), (remed, r_out)):
            for name, problems in wl.check(out).items():
                ok &= not problems
                print(f"{'pass' if not problems else 'FAIL'}  {wl.name:10s} {name:17s} clean outputs {problems[:1]}")
        for wl, out, name, what, path, change in cases:
            with corrupted(path, change):
                problems = wl.check(out)[name]
            ok &= bool(problems)
            print(f"{'pass' if problems else 'MISS'}  {wl.name:10s} {name:17s} {what}: {problems[:1]}")
        return 0 if ok else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
