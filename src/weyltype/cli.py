"""Command-line front end.

Commands (all take --scenario PATH):

    normalize EXPR [--json]      print the canonical normal form of an expression
    act OP ELEM [--json]         apply an operator expression to a coefficient element
    bracket X Y [--json]         commutator of two expressions, normal form
    probe [--text] [--margin F] [--stats]
                                 run the scenario's probes, emit a JSON report
                                 (--text: one summary line per probe instead;
                                 --stats: one JSON line of closure step
                                 counts per probe on stderr)
    verify [--trials N] [--seed S]
                                 run the randomized identity suites; N is at
                                 most checks.max_trials of the sample bounds
                                 (10,000 at the default bounds)

--json prints the result as a one-key JSON object.  --json and --text exist
only on the commands shown with them; anywhere else they are a usage error.

Exit codes: 0 success; 1 a probe verdict differs from the scenario's declared
expectation (or a verify suite found a violation); 2 usage or validation
error; 3 internal error (any exception that is not a usage or validation
error, so a bug), reported as one `internal error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .checks import run_all_checks
from .coefficients import format_a_element
from .errors import WeylTypeError
from .operators import act, format_weyl, lie_bracket
from .parser import evaluate_text
from .reports import build_report, report_bytes
from .scenario import Scenario, load_scenario, parse_margin

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _ArgumentParser(argparse.ArgumentParser):
    """Prints a usage error as one `error: <message>` line and exits 2, like
    every other usage error; subparsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {' '.join(message.split())}\n")


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call; parse_args
    returns a fresh namespace each time, so calls share no state."""
    ap = _ArgumentParser(
        prog="weyltype",
        description="Exact computer algebra for operator algebras built from "
        "commuting derivations, with truncated-window structure probes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, about, *positionals):
        p = sub.add_parser(name, help=about)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        return p

    for name, about, *positionals in (
        ("normalize", "normal form of an expression", "expression"),
        ("act", "apply an operator to a coefficient element", "operator", "element"),
        ("bracket", "commutator of two expressions", "x", "y"),
    ):
        command(name, about, *positionals).add_argument(
            "--json", action="store_true", help="JSON output")

    p_probe = command("probe", "run the scenario's probes")
    p_probe.add_argument("--text", action="store_true", help="plain text summary")
    p_probe.add_argument("--margin", help="override the interior margin fraction")
    p_probe.add_argument("--stats", action="store_true",
                         help="print each probe's closure step counts to stderr")

    p_verify = command("verify", "run the randomized identity suites")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    return ap


def _emit_value(args, key: str, value: str) -> None:
    if args.json:
        print(json.dumps({key: value}))
    else:
        print(value)


def _cmd_normalize(args, scenario: Scenario) -> int:
    result = evaluate_text(args.expression, scenario.ctx)
    _emit_value(args, "normal_form", format_weyl(result))
    return EXIT_OK


def _cmd_act(args, scenario: Scenario) -> int:
    op = evaluate_text(args.operator, scenario.ctx)
    elem = evaluate_text(args.element, scenario.ctx)
    if not elem.is_a_only():
        raise WeylTypeError("the element argument must not contain derivations")
    result = act(op, elem.a_part())
    _emit_value(args, "result", format_a_element(result))
    return EXIT_OK


def _cmd_bracket(args, scenario: Scenario) -> int:
    x = evaluate_text(args.x, scenario.ctx)
    y = evaluate_text(args.y, scenario.ctx)
    _emit_value(args, "bracket", format_weyl(lie_bracket(x, y)))
    return EXIT_OK


def _cmd_probe(args, scenario: Scenario) -> int:
    if args.margin is not None:
        scenario.margin = parse_margin(args.margin)
    verdicts: list = []
    report = build_report(scenario, verdicts)
    if args.text:
        print(f"scenario {report['scenario']} over {report['field']}")
        print(f"derivation kernel dimension {report['f1']['dimension']}: "
              + ", ".join(report["f1"]["basis"]))
        for entry in report["probes"]:
            line = f"{entry['kind']}"
            if "seed" in entry:
                line += f" seed={entry['seed']}"
            line += f": {entry['verdict']} (coverage {entry['coverage']})"
            if "matches_expected" in entry:
                line += " [expected]" if entry["matches_expected"] else \
                    f" [EXPECTED {entry['expected']}]"
            print(line)
    else:
        data = report_bytes(report)
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text stream, such as a redirected StringIO
            sys.stdout.write(data.decode("ascii"))
        else:
            out.write(data)
        sys.stdout.flush()
    if args.stats:
        for k, (request, verdict) in enumerate(zip(scenario.probes, verdicts)):
            print(json.dumps(_stats_entry(report["scenario"], k, request, verdict)), file=sys.stderr)
    return EXIT_OK if report["all_expected"] else EXIT_NEGATIVE


def _stats_entry(scenario_name: str, k: int, request, verdict) -> dict:
    """One --stats line: the probe, and the step counts of a closure walk."""
    entry = {"scenario": scenario_name, "probe": k, "kind": request.kind}
    if request.seed_text is not None:
        entry["seed"] = request.seed_text
    if verdict.stats is not None:
        for key in ("tried", "zero", "discarded", "in_span", "accepted", "ranks", "stop"):
            entry[key] = getattr(verdict.stats, key)
    return entry


def _cmd_verify(args, scenario: Scenario) -> int:
    results = run_all_checks(scenario.ctx, args.trials, args.seed, scenario.sample)
    failed = False
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name}: {status} ({r.trials} trials)")
        for msg in r.failures:
            failed = True
            print(f"  {msg}")
    return EXIT_NEGATIVE if failed else EXIT_OK


_COMMANDS = {
    "normalize": _cmd_normalize,
    "act": _cmd_act,
    "bracket": _cmd_bracket,
    "probe": _cmd_probe,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    ap = _build_argparser()
    args = ap.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        return _COMMANDS[args.command](args, scenario)
    except (WeylTypeError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not bad input: keep exit 1 for verdicts
        return _internal_error(exc)


def _internal_error(exc: Exception) -> int:
    message = " ".join(f"{type(exc).__name__}: {exc}".split())
    print(f"internal error: {message}", file=sys.stderr)
    return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
