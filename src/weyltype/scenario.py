"""Scenario files: JSON descriptions of a field, a coefficient algebra, a
derivation family, a truncation window, and a list of probe requests.

Schema (all keys lowercase):

    name            string
    description     string, optional
    field           {"kind": "rational"} or {"kind": "prime", "p": <prime>}
    variables       [{"name": str, "kind": "polynomial"|"laurent"}, ...]
    derivations     [{"name": str, "images": {var: expr, ...}}              |
                     {"name": str, "shift_prefix": str}                     |
                     {"name": str, "euler_weights": {var: int, ...}}, ...]
    variable_cap    int, optional (lazy shift-variable hard cap, default 64)
    window          {"max_level": int, "bounds": {var: [lo, hi], ...}}
    basis_cap       int in [1, 20000], optional (default 5000)
    margin          exact fraction string in [0, 1), optional (default
                    probes.DEFAULT_MARGIN, 1/2)
    group_algebra   bool, optional; when true the scenario models a group
                    algebra on Laurent variables and every derivation must be
                    an euler_weights derivation whose integer weight matrix
                    has trivial kernel
    sample          {"max_degree": int, "max_level": int, "max_terms": int},
                    optional bounds for the randomized verification suites,
                    each at most 6; max_terms at least 1, the others 0
    probes          [{"kind": "theta_kernel", "restrict_to_f1": bool?,
                      "expect": verdict?}                                   |
                     {"kind": "d_simplicity"|"assoc_closure"|"lie_closure",
                      "seed": expr, "expect": verdict?}, ...]

An expected verdict must be one that its probe kind can return (VERDICTS):

    theta_kernel                    kernel_zero | kernel_nonzero
    d_simplicity, assoc_closure     reaches_identity | proper_invariant_subspace
    lie_closure                     full_span_mod_f1 | proper_invariant_subspace

Only theta_kernel takes restrict_to_f1, and only the closure probes take a
seed.

Derivation images and probe seeds are expression strings evaluated by the
package's own parser, so one grammar serves both the CLI and configuration.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .checks import MAX_SAMPLE_BOUND, SampleBounds
from .coefficients import Context, LAURENT, POLYNOMIAL, DEFAULT_VARIABLE_CAP
from .errors import UsageError, ValidationError, WeylTypeError
from .fields import RATIONAL, FieldSpec, RATIONAL_KIND
from .linalg import RowReducer
from .operators import WeylElement
from .parser import evaluate_text
from .probes import (
    DEFAULT_BASIS_CAP,
    DEFAULT_MARGIN,
    FULL_SPAN_MOD_F1,
    KERNEL_NONZERO,
    KERNEL_ZERO,
    PROPER_INVARIANT_SUBSPACE,
    REACHES_IDENTITY,
    Window,
    _check_margin,
)

# Probe kind -> the verdicts it can return, so the expectations it may declare.
VERDICTS = {
    "theta_kernel": (KERNEL_ZERO, KERNEL_NONZERO),
    "d_simplicity": (REACHES_IDENTITY, PROPER_INVARIANT_SUBSPACE),
    "assoc_closure": (REACHES_IDENTITY, PROPER_INVARIANT_SUBSPACE),
    "lie_closure": (FULL_SPAN_MOD_F1, PROPER_INVARIANT_SUBSPACE),
}


class ProbeRequest(NamedTuple):
    kind: str
    seed_text: str | None = None
    expect: str | None = None
    restrict_to_f1: bool = False
    seed: WeylElement | None = None  # seed_text evaluated; None for theta_kernel


class Scenario:
    def __init__(self, name: str, description: str, ctx: Context, window: Window, margin: Fraction,
                 probes: list[ProbeRequest], sample: SampleBounds, group_algebra: bool = False):
        self.name = name
        self.description = description
        self.ctx = ctx
        self.window = window
        self.margin = margin
        self.probes = probes
        self.sample = sample
        self.group_algebra = group_algebra

    @property
    def initial_variable_count(self) -> int:
        """Variables declared by the scenario or created while loading it;
        the randomized suites sample only these."""
        return self.sample.n_variables


def _require(cond: bool, violations: list[str], message: str):
    if not cond:
        violations.append(message)


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _typed(value, kind: type, what: str, violations: list[str]) -> bool:
    """Whether value has the JSON type `kind`; records a violation if not."""
    if isinstance(value, kind):
        return True
    violations.append(f"{what} must be {_JSON_KINDS[kind]}")
    return False


def _get(data: dict, key: str, kind: type, default, violations: list[str]):
    """data[key] when present and of the JSON type `kind`, else the default."""
    value = data.get(key, default)
    return value if _typed(value, kind, repr(key), violations) else default


def _int(value, what: str, violations: list[str], default: int | None = 0) -> int | None:
    """value when it is a JSON integer (not a float, string or boolean), else
    the default, recording a violation."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    violations.append(f"{what} must be an integer, not {value!r}")
    return default


def _bool(value, what: str, violations: list[str]) -> bool:
    """value when it is a JSON boolean, else False, recording a violation."""
    if isinstance(value, bool):
        return value
    violations.append(f"{what} must be true or false, not {value!r}")
    return False


def parse_margin(text) -> Fraction:
    """The interior margin written as an exact fraction string such as "1/2"
    or "0.25"; UsageError unless it is one and 0 <= margin < 1.

    Numbers are refused: a JSON 0.1 is a binary float, not 1/10.  Exponent
    notation is refused too, since "1e-999999999" would build a huge integer.
    """
    if not isinstance(text, str):
        raise UsageError(f"margin must be a fraction string such as \"1/2\", not {text!r}")
    try:
        if "e" in text.lower():
            raise ValueError(text)
        margin = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed margin {text!r}") from None
    return _check_margin(margin)


def load_scenario_mapping(data: dict, name_hint: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError([f"a scenario must be a JSON object, not {type(data).__name__}"])
    violations: list[str] = []
    name = _get(data, "name", str, name_hint, violations)
    description = _get(data, "description", str, "", violations)

    field_data = data.get("field")
    spec = None
    if not isinstance(field_data, dict):
        violations.append("missing or malformed 'field'")
    else:
        kind, p = field_data.get("kind"), field_data.get("p")
        if p is None or _int(p, "field p", violations, None) is not None:
            try:  # FieldSpec's own checks are the only ones
                spec = RATIONAL if (kind, p) == (RATIONAL_KIND, None) else FieldSpec(kind, p)
            except WeylTypeError as exc:
                violations.append(f"field: {exc}")
    if spec is None:
        raise ValidationError(violations)

    cap = _int(data.get("variable_cap", DEFAULT_VARIABLE_CAP), "variable_cap", violations,
               DEFAULT_VARIABLE_CAP)
    ctx = Context(spec, variable_cap=cap)
    for k, vdata in enumerate(_get(data, "variables", list, [], violations)):
        if not (_typed(vdata, dict, f"variable {k}", violations)
                and _typed(vdata.get("name"), str, f"variable {k} name", violations)):
            continue
        try:
            ctx.add_variable(vdata["name"], vdata.get("kind", POLYNOMIAL))
        except WeylTypeError as exc:
            violations.append(f"variable {vdata!r}: {exc}")

    euler_rows: list[list[int]] = []
    all_euler = True
    for k, ddata in enumerate(_get(data, "derivations", list, [], violations)):
        if not (_typed(ddata, dict, f"derivation {k}", violations)
                and _typed(ddata.get("name"), str, f"derivation {k} name", violations)):
            continue
        dname = ddata["name"]
        try:
            if "shift_prefix" in ddata:
                all_euler = False
                if _typed(ddata["shift_prefix"], str, f"derivation {dname!r} shift_prefix",
                          violations):
                    ctx.add_derivation(dname, shift_prefix=ddata["shift_prefix"])
            elif "euler_weights" in ddata:
                weights = ddata["euler_weights"]
                if not _typed(weights, dict, f"derivation {dname!r} euler_weights", violations):
                    continue
                row = []
                images = {}
                for var in ctx.variables:
                    w = _int(weights.get(var.name, 0), f"euler weight of {var.name} in {dname!r}",
                             violations)
                    row.append(w)
                    images[var.name] = ctx.var(var.name) * w
                euler_rows.append(row)
                ctx.add_derivation(dname, images=images)
            elif "images" in ddata:
                all_euler = False
                given = ddata["images"]
                if not (_typed(given, dict, f"derivation {dname!r} images", violations)
                        and all(_typed(expr, str, f"image of {var_name} in {dname!r}", violations)
                                for var_name, expr in given.items())):
                    continue
                images = {}
                for var_name, expr in given.items():
                    elem = evaluate_text(expr, ctx)
                    if not elem.is_a_only():
                        raise ValidationError(
                            [f"image of {var_name} in {dname} contains derivations"]
                        )
                    images[var_name] = elem.a_part()
                ctx.add_derivation(dname, images=images)
            else:
                violations.append(f"derivation {dname!r}: no images, shift_prefix, or euler_weights")
        except WeylTypeError as exc:
            violations.append(f"derivation {dname!r}: {exc}")

    if not ctx.derivations:
        violations.append("at least one derivation is required")

    group_algebra = _bool(data.get("group_algebra", False), "group_algebra", violations)
    if group_algebra:
        _require(
            all(v.kind == LAURENT for v in ctx.variables),
            violations,
            "group_algebra scenarios require all variables to be laurent",
        )
        _require(
            all_euler and len(euler_rows) == len(ctx.derivations),
            violations,
            "group_algebra scenarios require euler_weights derivations only",
        )
        if euler_rows and not violations:
            # Trivial integer kernel of the weight matrix <=> full column rank
            # over the rationals.
            red = RowReducer(RATIONAL)
            for row in euler_rows:
                red.add({j: w for j, w in enumerate(row) if w})
            _require(
                red.rank == len(ctx.variables),
                violations,
                "the euler weight matrix has a nontrivial integer kernel",
            )

    try:
        ctx.freeze()
    except ValidationError as exc:
        violations.extend(exc.violations)

    window = None
    wdata = data.get("window")
    if not isinstance(wdata, dict) or "max_level" not in wdata:
        violations.append("missing or malformed 'window'")
    else:
        bounds = {}
        for vname, pair in _get(wdata, "bounds", dict, {}, violations).items():
            if isinstance(pair, list) and len(pair) == 2:
                bounds[vname] = (
                    _int(pair[0], f"lower bound for {vname}", violations),
                    _int(pair[1], f"upper bound for {vname}", violations),
                )
            else:
                violations.append(f"window bounds for {vname} must be a [lo, hi] pair")
        try:
            window = Window.for_context(
                ctx,
                bounds,
                _int(wdata["max_level"], "window max_level", violations),
                basis_cap=_int(data.get("basis_cap", DEFAULT_BASIS_CAP), "basis_cap", violations,
                               DEFAULT_BASIS_CAP),
            )
        except ValidationError as exc:
            violations.extend(exc.violations)
        except WeylTypeError as exc:
            violations.append(f"window: {exc}")

    margin = DEFAULT_MARGIN
    if "margin" in data:
        try:
            margin = parse_margin(data["margin"])
        except UsageError as exc:
            violations.append(str(exc))

    sdata = _get(data, "sample", dict, {}, violations)
    sample = {}
    for key, low in (("max_degree", 0), ("max_level", 0), ("max_terms", 1)):
        value = SampleBounds._field_defaults[key]
        value = _int(sdata.get(key, value), f"sample {key}", violations, value)
        if not low <= value <= MAX_SAMPLE_BOUND:
            violations.append(f"sample {key} must be in [{low}, {MAX_SAMPLE_BOUND}], got {value}")
        sample[key] = value

    probes: list[ProbeRequest] = []
    for k, pdata in enumerate(_get(data, "probes", list, [], violations)):
        if not _typed(pdata, dict, f"probe {k}", violations):
            continue
        kind = pdata.get("kind")
        if not isinstance(kind, str) or kind not in VERDICTS:
            violations.append(f"probe {k}: unknown kind {kind!r}")
            continue
        expect = pdata.get("expect")
        if expect is not None and expect not in VERDICTS[kind]:
            violations.append(f"probe {k}: {kind} never returns the expected verdict {expect!r}")
        seed_text = pdata.get("seed")
        seed = None
        if kind == "theta_kernel":
            if seed_text is not None:
                violations.append(f"probe {k}: theta_kernel takes no seed")
        elif seed_text is None:
            violations.append(f"probe {k}: {kind} requires a seed expression")
        elif _typed(seed_text, str, f"probe {k} seed", violations):
            try:
                seed = evaluate_text(seed_text, ctx)
                if kind == "d_simplicity" and not seed.is_a_only():
                    violations.append(f"probe {k}: d_simplicity seed must be coefficient-only")
                elif seed.is_zero():
                    violations.append(f"probe {k}: seed evaluates to zero")
            except WeylTypeError as exc:
                violations.append(f"probe {k}: seed {seed_text!r}: {exc}")
        restrict = False
        if "restrict_to_f1" in pdata:
            if kind != "theta_kernel":
                violations.append(f"probe {k}: {kind} takes no restrict_to_f1")
            else:
                restrict = _bool(pdata["restrict_to_f1"], f"probe {k} restrict_to_f1", violations)
        probes.append(ProbeRequest(kind, seed_text, expect, restrict_to_f1=restrict, seed=seed))

    if violations:
        raise ValidationError(violations)
    assert window is not None
    return Scenario(
        name=name,
        description=description,
        ctx=ctx,
        window=window,
        margin=margin,
        probes=probes,
        sample=SampleBounds(**sample, n_variables=len(ctx.variables)),
        group_algebra=group_algebra,
    )


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise ValidationError([f"scenario file not found: {p}"])
    except OSError as exc:
        raise ValidationError([f"cannot read scenario file {p}: {exc.strerror or exc}"])
    except json.JSONDecodeError as exc:
        raise ValidationError([f"scenario file is not valid JSON: {exc}"])
    except RecursionError:
        raise ValidationError([f"scenario file {p} nests too deeply"])
    return load_scenario_mapping(data, name_hint=p.stem)


def bundled_scenario_names() -> list[str]:
    root = resources.files("weyltype").joinpath("scenarios")
    return sorted(
        p.name[: -len(".json")]
        for p in root.iterdir()
        if p.name.endswith(".json")
    )


def bundled_scenario_path(name: str) -> Path:
    return Path(str(resources.files("weyltype").joinpath("scenarios", f"{name}.json")))


def load_bundled(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))
