import os
import subprocess
import sys
from pathlib import Path

import domiperf

REPO = Path(__file__).resolve().parents[1]


def test_forbidden_table_lists_ten_minimal_graphs():
    src = str(Path(domiperf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "forbidden_table.py")],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows] == [f"H{k}" for k in range(1, 11)]
    assert all(row.endswith("  yes") for row in rows)
