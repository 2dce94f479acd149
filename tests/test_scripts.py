import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fourier_decay_script(tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fourier_decay.py"),
         "--delta-exp", "4", "--R", "4,8,16"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == ["fourier_decay_exp.csv", "fourier_decay_parabola.csv",
                     "fourier_decay_point.csv"]
    for name in names:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "R,p,integral,slope_cum"
        assert len(lines) == 5
        assert lines[-1].startswith("# furst-lab ") and lines[-1].endswith(" rows=3")
