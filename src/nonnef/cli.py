"""Batch command-line interface.

Every subcommand maps to exactly one library operation or verification
suite.  Output is deterministic: identical inputs give byte-identical
JSON (`--json`) or text.  Exit codes: 0 success (cap-flagged results are
still successes, with the evidence printed), 1 domain or contract error,
2 resource-cap abort.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields, replace
from fractions import Fraction
from math import inf

from .asymptotic import (CoordinateSubvariety, GradedSequence, asymptotic_ord,
                         asymptotic_test_ideal, ord_along)
from .caps import DEFAULT_CAPS, Caps
from .errors import ContractError, DomainError, ResourceLimitError, require_int
from .frobenius import (f_jumping_numbers, frobenius_root, mixed_test_ideal,
                        test_ideal)
from .ideal import Ideal
from .parsing import format_rational, parse_divisor, parse_ideal, parse_rational
from .toric import (Fan, InvariantSubvariety, ToricDivisor, asymptotic_ord_toric,
                    builtin_fan, classify_divisor, non_nef_locus,
                    sigma, stable_base_locus, tau_plus_toric)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2


# -- payload serialization -----------------------------------------------------

def _enc(value):
    if isinstance(value, Ideal):
        return repr(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if value == inf:
        return "inf"
    if isinstance(value, bool) or isinstance(value, int) or value is None:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, InvariantSubvariety):
        return list(value.rays)
    if isinstance(value, ToricDivisor):
        return [format_rational(c) for c in value.coefficients]
    if isinstance(value, (list, tuple)):
        return [_enc(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _enc(v) for k, v in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        return {f: _enc(getattr(value, f)) for f in value.__dataclass_fields__}
    return str(value)


def _emit(args, verb, payload, exit_code=EXIT_OK):
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("verb", "json") and v is not None}
    report = {"command": verb, "args": _enc(echo), "result": _enc(payload),
              "exit_code": exit_code}
    if args.json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2,
                                    separators=(",", ": ")) + "\n")
    else:
        _emit_text(report["result"])
    return exit_code


def _emit_text(enc, indent=""):
    if isinstance(enc, dict):
        for k in sorted(enc):
            v = enc[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(enc, list):
        for v in enc:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent + "  ")
                print(f"{indent}  --")
            else:
                print(f"{indent}- {v}")
    else:
        print(f"{indent}{enc}")


# -- input helpers ---------------------------------------------------------------

def _read_arg(text: str) -> str:
    return sys.stdin.read() if text == "-" else text


def _load_ideal(text: str) -> Ideal:
    return parse_ideal(_read_arg(text))


def _ints(text: str) -> tuple:
    """A comma-separated list of integers; anything else is a DomainError
    that names the text."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from None


def _load_fan(spec: str) -> Fan:
    spec = spec.strip()
    if spec.startswith("builtin:"):
        return builtin_fan(spec)
    try:
        if spec == "-":
            raw = sys.stdin.read()
        else:
            with open(spec, "r", encoding="utf-8") as fh:
                raw = fh.read()
        data = json.loads(raw)
        rays = [list(v) for v in data["rays"]]
        max_cones = [list(c) for c in data["max_cones"]]
    except OSError as exc:
        raise DomainError(f"cannot read fan file {spec!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise DomainError(f"fan file {spec!r} is not valid JSON: {exc}") from None
    except (KeyError, TypeError):
        raise DomainError(f"fan file {spec!r} needs the keys 'rays' and 'max_cones', "
                          f"each a list of integer lists") from None
    return Fan(rays, max_cones)


def _load_subvariety(text: str) -> InvariantSubvariety:
    return InvariantSubvariety(_ints(text))


def _load_coordinate_subvariety(text: str, amb) -> CoordinateSubvariety:
    names = [t.strip() for t in text.split(",")]
    if all(n in amb.variables for n in names):
        return CoordinateSubvariety(tuple(amb.variables.index(n) for n in names))
    return CoordinateSubvariety(_ints(text))


def _load_sequence(spec: str):
    """`[seq] power <ideal>` | `[seq] table k:{<ideal>} ...` |
    `[seq] toric <fan> <divisor> [chart=i,j] [p=q]`."""
    spec = _read_arg(spec).strip()
    if spec.startswith("seq "):
        spec = spec[4:].strip()
    kind, _, rest = spec.partition(" ")
    rest = rest.strip()
    if kind == "power":
        return GradedSequence.power(parse_ideal(rest))
    if kind == "table":
        entries = re.findall(r"(\d+)\s*:\s*\{([^}]*)\}", rest)
        if not entries:
            raise DomainError("table sequence needs entries like 1:{p=2; vars=x; gens=[x]}")
        table = {int(k): parse_ideal(body) for k, body in entries}
        rings = {a.ring for a in table.values()}
        if len(rings) != 1:
            raise DomainError("table entries must share one ambient ring")
        return GradedSequence.from_table(rings.pop(), table)
    if kind == "toric":
        parts = rest.split()
        if len(parts) < 2:
            raise DomainError("toric sequence needs: toric <fan> <divisor>")
        fan = _load_fan(parts[0])
        div = ToricDivisor(parse_divisor(parts[1]))
        chart = None
        p = 2
        for extra in parts[2:]:
            key, _, val = extra.partition("=")
            if key == "chart":
                chart = _ints(val)
            elif key == "p" and "," not in val:
                (p,) = _ints(val)
            else:
                raise DomainError(f"unknown toric sequence option {extra!r}")
        return fan.sequence(div, fan.max_cones[0] if chart is None else chart, p)
    raise DomainError(f"unknown sequence kind {kind!r}; want power/table/toric")


# -- argument parsing --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nonnef",
        description="Exact test ideals over F_p and toric non-nef loci",
        allow_abbrev=False)
    top.add_argument("--json", action="store_true", help="machine-readable output")
    for f in fields(Caps):
        top.add_argument("--" + f.name.replace("_", "-"), type=int, default=None,
                         dest=f.name, help=f"override cap {f.name}")
    sub = top.add_subparsers(dest="verb", required=True)

    def cmd(name, **kw):
        return sub.add_parser(name, allow_abbrev=False, **kw)

    c = cmd("root", help="Frobenius root of an ideal")
    c.add_argument("--ideal", required=True)
    c.add_argument("--e", type=int, required=True)

    c = cmd("tau", help="test ideal tau(a^lambda)")
    c.add_argument("--ideal", required=True)
    c.add_argument("--lambda", dest="lam", required=True)

    c = cmd("mixed-tau", help="mixed test ideal tau(a^lambda b^mu)")
    c.add_argument("--ideal", required=True)
    c.add_argument("--lambda", dest="lam", required=True)
    c.add_argument("--ideal2", required=True)
    c.add_argument("--mu", required=True)

    c = cmd("jumps", help="F-jumping numbers up to a bound")
    c.add_argument("--ideal", required=True)
    c.add_argument("--max", dest="lam_max", required=True)
    c.add_argument("--denom-bound", type=int, required=True)

    c = cmd("ord", help="order of vanishing along a coordinate subvariety")
    c.add_argument("--ideal", required=True)
    c.add_argument("--vars", required=True,
                   help="comma list of variable names or indices")

    c = cmd("aord", help="asymptotic order of a graded sequence")
    c.add_argument("--seq", required=True)
    c.add_argument("--vars", required=True)
    c.add_argument("--sample-cap", type=int, default=16,
                   help="sample the terms a_m for m up to this bound; "
                        "--m-cap does not apply here")

    c = cmd("atau", help="asymptotic test ideal of a graded sequence")
    c.add_argument("--seq", required=True)
    c.add_argument("--lambda", dest="lam", required=True)

    c = cmd("toric-classify", help="ample/nef/big/pseudo-effective/effective")
    c.add_argument("--fan", required=True)
    c.add_argument("--divisor", required=True)

    c = cmd("toric-ord", help="exact asymptotic order ord_Z(||D||) by LP")
    c.add_argument("--fan", required=True)
    c.add_argument("--divisor", required=True)
    c.add_argument("--cone", required=True, help="ray indices of Z, e.g. 3 or 0,3")

    c = cmd("sigma", help="sigma_Z(D) on the pseudo-effective cone")
    c.add_argument("--fan", required=True)
    c.add_argument("--divisor", required=True)
    c.add_argument("--cone", required=True)
    c.add_argument("--ample", default=None)

    c = cmd("nonnef", help="non-nef locus with three-method cross-check")
    c.add_argument("--fan", required=True)
    c.add_argument("--divisor", required=True)
    c.add_argument("--p", type=int, default=2)
    c.add_argument("--ample", default=None)
    c.add_argument("--tau-level-cap", type=int, default=4)

    c = cmd("tau-plus", help="tau_+ chart test ideal of a pseudo-effective divisor")
    c.add_argument("--fan", required=True)
    c.add_argument("--divisor", required=True)
    c.add_argument("--lambda", dest="lam", required=True)
    c.add_argument("--chart", required=True)
    c.add_argument("--ample", default=None)
    c.add_argument("--p", type=int, default=2)

    c = cmd("sbl", help="stable base locus among invariant subvarieties")
    c.add_argument("--fan", required=True)
    c.add_argument("--divisor", required=True)

    c = cmd("verify", help="run a property suite")
    c.add_argument("suite", choices=SUITES)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--budget", type=int, default=None)
    return top


def _caps(args) -> Caps:
    return replace(DEFAULT_CAPS, **{f.name: getattr(args, f.name) for f in fields(Caps)
                                    if getattr(args, f.name) is not None})


def _dispatch(args) -> int:
    caps = _caps(args)
    verb = args.verb
    if verb == "root":
        return _emit(args, verb, {"ideal": frobenius_root(_load_ideal(args.ideal), args.e)})
    if verb == "tau":
        r = test_ideal(_load_ideal(args.ideal), parse_rational(args.lam), caps)
        return _emit(args, verb, r)
    if verb == "mixed-tau":
        r = mixed_test_ideal(_load_ideal(args.ideal), parse_rational(args.lam),
                             _load_ideal(args.ideal2), parse_rational(args.mu), caps)
        return _emit(args, verb, r)
    if verb == "jumps":
        r = f_jumping_numbers(_load_ideal(args.ideal), parse_rational(args.lam_max),
                              args.denom_bound, caps)
        return _emit(args, verb, r)
    if verb == "ord":
        a = _load_ideal(args.ideal)
        z = _load_coordinate_subvariety(args.vars, a.ring)
        return _emit(args, verb, {"ord": ord_along(a, z)})
    if verb == "aord":
        sample_cap = require_int(args.sample_cap, "sample_cap")
        seq = _load_sequence(args.seq)
        z = _load_coordinate_subvariety(args.vars, seq.ring)
        return _emit(args, verb, asymptotic_ord(seq, z, sample_cap))
    if verb == "atau":
        seq = _load_sequence(args.seq)
        return _emit(args, verb, asymptotic_test_ideal(seq, parse_rational(args.lam), caps))
    if verb == "toric-classify":
        fan = _load_fan(args.fan)
        return _emit(args, verb, classify_divisor(fan, ToricDivisor(parse_divisor(args.divisor))))
    if verb == "toric-ord":
        fan = _load_fan(args.fan)
        val = asymptotic_ord_toric(fan, ToricDivisor(parse_divisor(args.divisor)),
                                   _load_subvariety(args.cone))
        return _emit(args, verb, {"ord": val})
    if verb == "sigma":
        fan = _load_fan(args.fan)
        amp = ToricDivisor(parse_divisor(args.ample)) if args.ample else None
        r = sigma(fan, ToricDivisor(parse_divisor(args.divisor)),
                  _load_subvariety(args.cone), amp, caps)
        return _emit(args, verb, r)
    if verb == "nonnef":
        fan = _load_fan(args.fan)
        amp = ToricDivisor(parse_divisor(args.ample)) if args.ample else None
        r = non_nef_locus(fan, ToricDivisor(parse_divisor(args.divisor)), args.p,
                          caps, amp, tau_level_cap=args.tau_level_cap)
        return _emit(args, verb, r)
    if verb == "tau-plus":
        fan = _load_fan(args.fan)
        amp = ToricDivisor(parse_divisor(args.ample)) if args.ample else None
        chart = _ints(args.chart)
        r = tau_plus_toric(fan, ToricDivisor(parse_divisor(args.divisor)),
                           parse_rational(args.lam), chart, amp, args.p, caps)
        return _emit(args, verb, r)
    if verb == "sbl":
        fan = _load_fan(args.fan)
        r = stable_base_locus(fan, ToricDivisor(parse_divisor(args.divisor)), caps)
        return _emit(args, verb, r)
    if verb == "verify":
        results = run_suite(args.suite, args.seed, args.budget, caps)
        bad = [r for r in results if r.violations]
        code = EXIT_DOMAIN if bad else EXIT_OK
        return _emit(args, verb, {"suites": results,
                                  "violations": sum(r.violations for r in results)},
                     code)
    raise ContractError(f"unmapped verb {verb}")


def main(argv=None) -> int:
    # argparse reads a value such as -1,0,0 or -1/2 as an option: glue it to its flag
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if re.match(r"-\d", argv[i]) and re.match(r"--[^=]+$", argv[i - 1]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (DomainError, ContractError) as exc:
        payload = {"error": str(exc), "kind": type(exc).__name__}
        return _emit(args, args.verb, payload, EXIT_DOMAIN)
    except ResourceLimitError as exc:
        payload = {"error": str(exc), "kind": "ResourceLimitError"}
        return _emit(args, args.verb, payload, EXIT_RESOURCE)


if __name__ == "__main__":
    sys.exit(main())
