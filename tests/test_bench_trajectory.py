"""scripts/bench_trajectory.py refuses seed ranges it cannot summarise."""

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
