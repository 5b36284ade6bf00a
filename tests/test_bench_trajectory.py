"""scripts/bench_trajectory.py refuses seed ranges it cannot summarise,
reports a benchmark run that fails, and prints only declared layer metrics."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seeds", "1"], "argument --seeds: '1' names 1 seeds, fewer than 2"),
        (["--seeds", "3-1"], "argument --seeds: '3-1' names 0 seeds, fewer than 2"),
        (["--traced-seeds", "2-1"], "argument --traced-seeds: '2-1' names 0 seeds, fewer than 1"),
    ],
    ids=["one-seed", "empty-seeds", "empty-traced-seeds"],
)
def test_a_seed_range_too_short_to_summarise_is_refused_before_any_run(tmp_path, flags, message):
    # the parent checkout does not exist, so any benchmark run would fail
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--parent", str(tmp_path / "missing"),
                           "--workload", "grid-large", "--out", str(out), *flags],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == "" and not out.exists()


def test_a_failed_run_names_its_side_and_shows_its_stderr(tmp_path):
    # a parent checkout whose run.py fails: the first run of the first pair
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text(
        "import sys\nprint('early line', file=sys.stderr)\n"
        "print('run.py: no such workload', file=sys.stderr)\nsys.exit(3)\n")
    out = tmp_path / "bench.json"
    out.write_text("{}\n")
    proc = subprocess.run([sys.executable, str(SCRIPT), "--parent", str(parent), "--workload", "grid-large",
                           "--seeds", "1-2", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "parent seed 1 trace 0: run.py exited 3" in proc.stderr
    assert "early line\nrun.py: no such workload" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert out.read_text() == "{}\n"


def test_every_traced_name_is_a_per_layer_metric():
    # TRACED read from the script's source, so no benchmark module is imported
    tree = ast.parse(SCRIPT.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(target, "id", None) for target in node.targets] == ["TRACED"])
    spec = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    assert traced and [name for name in traced if name not in per_layer] == []
