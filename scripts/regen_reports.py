"""Regenerate the bundled expected probe reports from the probes themselves.

The generated files are the byte-exact regression baseline that the test
suite compares CLI output against.  Rerun after any change that legitimately
alters probe output, then review the diff.

    python3 scripts/regen_reports.py

The imports come from this checkout's `src/`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weyltype.reports import build_report, report_bytes  # noqa: E402
from weyltype.scenario import bundled_scenario_names, load_bundled  # noqa: E402


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "src" / "weyltype" / "scenarios" / "expected"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in bundled_scenario_names():
        scenario = load_bundled(name)
        data = report_bytes(build_report(scenario))
        target = out_dir / f"{name}.report.json"
        target.write_bytes(data)
        print(f"wrote {target} ({len(data)} bytes)")


if __name__ == "__main__":
    main()
