"""tools/same_bytes.py: one tree against itself writes the same bytes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_tree_twice_has_no_difference():
    res = subprocess.run([sys.executable, str(ROOT / "tools" / "same_bytes.py"), str(ROOT),
                          str(ROOT)], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    *lines, summary = res.stdout.splitlines()
    assert summary == f"{len(lines)} outputs, 0 differ"
    assert any(line.endswith("acf-per-center-gappy-step3-threads2 out.csv") for line in lines)
