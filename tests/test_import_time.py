import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_import_time_prints_every_module_and_writes_nothing_under_src():
    before = sorted(p for p in SRC.rglob("*") if p.is_file())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "import_time.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[2:]}
    modules = {"weyltype"} | {f"weyltype.{p.stem}" for p in (SRC / "weyltype").glob("*.py")
                              if p.stem not in ("__init__", "__main__")}
    assert modules <= rows.keys()
    for name in modules:
        assert len(rows[name]) == 4 and all(float(x) >= 0 for x in rows[name])
    # The parser rows: the full parser, then one per command.
    parsers = [f"parser:{name}" for name in ("all", "normalize", "act", "bracket", "probe", "verify")]
    assert [key for key in rows if key.startswith("parser:")] == parsers
    for name in parsers:
        assert len(rows[name]) == 1 and float(rows[name][0]) > 0
    assert sorted(p for p in SRC.rglob("*") if p.is_file()) == before
