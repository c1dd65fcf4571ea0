"""Command-line front end.

Commands (all take --scenario PATH):

    normalize EXPR       print the canonical normal form of an expression
    act OP ELEM          apply an operator expression to a coefficient element
    bracket X Y          commutator of two expressions, normal form
    probe                run the scenario's probes, emit a JSON report
    verify               run the randomized identity suites

Exit codes: 0 success; 1 a probe verdict differs from the scenario's declared
expectation (or a verify suite found a violation); 2 usage or validation
error; 3 internal error (a failed self-check or any unexpected exception),
reported as one `internal error: ...` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .checks import SampleBounds, run_all_checks
from .errors import InternalError, WeylTypeError
from .operators import format_weyl, lie_bracket
from .parser import evaluate_text
from .reports import build_report, report_bytes
from .scenario import Scenario, load_scenario

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weyltype",
        description="Exact computer algebra for operator algebras built from "
        "commuting derivations, with truncated-window structure probes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--text", action="store_true", help="plain text output")

    p_norm = sub.add_parser("normalize", help="normal form of an expression")
    p_norm.add_argument("expression")
    add_common(p_norm)

    p_act = sub.add_parser("act", help="apply an operator to a coefficient element")
    p_act.add_argument("operator")
    p_act.add_argument("element")
    add_common(p_act)

    p_br = sub.add_parser("bracket", help="commutator of two expressions")
    p_br.add_argument("x")
    p_br.add_argument("y")
    add_common(p_br)

    p_probe = sub.add_parser("probe", help="run the scenario's probes")
    add_common(p_probe)
    p_probe.add_argument("--margin", help="override the interior margin fraction")

    p_verify = sub.add_parser("verify", help="run the randomized identity suites")
    add_common(p_verify)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    return ap


def _emit_value(args, key: str, value: str) -> None:
    if args.json:
        import json

        print(json.dumps({key: value}))
    else:
        print(value)


def _cmd_normalize(args, scenario: Scenario) -> int:
    result = evaluate_text(args.expression, scenario.ctx)
    _emit_value(args, "normal_form", format_weyl(result))
    return EXIT_OK


def _cmd_act(args, scenario: Scenario) -> int:
    from .operators import act

    op = evaluate_text(args.operator, scenario.ctx)
    elem = evaluate_text(args.element, scenario.ctx)
    if not elem.is_a_only():
        raise WeylTypeError("the element argument must not contain derivations")
    result = act(op, elem.a_part())
    from .coefficients import format_a_element

    _emit_value(args, "result", format_a_element(result))
    return EXIT_OK


def _cmd_bracket(args, scenario: Scenario) -> int:
    x = evaluate_text(args.x, scenario.ctx)
    y = evaluate_text(args.y, scenario.ctx)
    _emit_value(args, "bracket", format_weyl(lie_bracket(x, y)))
    return EXIT_OK


def _cmd_probe(args, scenario: Scenario) -> int:
    if args.margin is not None:
        margin = Fraction(args.margin)
        if not (0 <= margin < 1):
            raise WeylTypeError("margin must satisfy 0 <= margin < 1")
        scenario.margin = margin
    report = build_report(scenario)
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
        sys.stdout.buffer.write(report_bytes(report))
        sys.stdout.buffer.flush()
    return EXIT_OK if report["all_expected"] else EXIT_NEGATIVE


def _cmd_verify(args, scenario: Scenario) -> int:
    bounds = SampleBounds(
        max_degree=scenario.sample.max_degree,
        max_level=scenario.sample.max_level,
        max_terms=scenario.sample.max_terms,
        n_variables=scenario.initial_variable_count,
    )
    results = run_all_checks(scenario.ctx, args.trials, args.seed, bounds)
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
    except InternalError as exc:
        return _internal_error(exc)
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
