"""Run every bundled scenario's probes and print a one-line summary per probe.

Usage: python scripts/run_probes.py [scenario-name ...]
"""

import sys
import time

from weyltype.reports import build_report
from weyltype.scenario import bundled_scenario_names, load_bundled


def main(argv: list[str]) -> int:
    names = argv or bundled_scenario_names()
    any_mismatch = False
    for name in names:
        started = time.perf_counter()
        report = build_report(load_bundled(name))
        elapsed = time.perf_counter() - started
        print(f"{name} ({report['field']}, {elapsed:.2f}s)")
        print(f"  derivation kernel: {', '.join(report['f1']['basis'])}")
        for entry in report["probes"]:
            seed = f" seed={entry['seed']}" if "seed" in entry else ""
            match = ""
            if "matches_expected" in entry and not entry["matches_expected"]:
                match = f"  MISMATCH (expected {entry['expected']})"
                any_mismatch = True
            print(f"  {entry['kind']}{seed}: {entry['verdict']} coverage={entry['coverage']}{match}")
    return 1 if any_mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
