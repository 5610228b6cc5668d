"""Command-line interface.

Subcommands: ``split`` (splitting type of the pushforward), ``verify-endo``
(finiteness of an endomorphism), ``pullback`` (cohomology and verdicts for
the inverse image of a model variety), ``adjoint`` (surface adjunction in
P^4).  Each subcommand builds one report, its canonical JSON payload
(sorted keys, integers and strings only, newline-terminated); text and
CSV are renderings of that payload and read nothing else.

Exit codes are disjoint: 0 success, 1 negative mathematical verdict
(not finite, not linearly complete, canonical bundle not very ample),
2 input error, 3 integrity error (two routes that must agree disagreed,
or a rank certificate failed), 4 table range exceeded.

Every long flag of a subcommand but ``--config``, ``--help``, ``--json``
and ``--csv`` can also come from a ``--config`` file of ``key = value``
lines.  The key is the flag's name without the dashes; the value is cast
by that flag's type and checked against its choices, and an on/off flag
(``--exact``, ``--random``) takes ``true`` or ``false``.  Explicit flags
win.  Modular primes (``--primes``) apply only where ranks are computed,
in ``verify-endo`` and ``split --endo``; both run ``validate_finite``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys

from . import adjunction, pullback, splitting, varieties
from .endomorphism import load_endomorphism, random_endomorphism, \
    validate_finite
from .errors import InputError, IntegrityError, PushsplitError, TableRangeError
from .exactla import DEFAULT_PRIMES, PRIME_LIMIT, is_prime

REPORT_VERSION = "1"
FORMATS = ("text", "json", "csv")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTEGRITY = 3
EXIT_RANGE = 4


# ---------------------------------------------------------------------------
# config file and shared option resolution

# flags a config file cannot set
_NOT_CONFIG = ("--config", "--help", "--json", "--csv")


def _load_config(path: str) -> dict:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        # a comment is a whole line; '#' inside a value is part of it
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise InputError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _apply_config(args: argparse.Namespace,
                  sub: argparse.ArgumentParser) -> None:
    """Fill each flag of ``sub`` the command line left unset from the
    ``--config`` file, cast and checked as argparse would have."""
    flags = {option[2:]: action
             for option, action in sub._option_string_actions.items()
             if option.startswith("--") and option not in _NOT_CONFIG}
    for key, raw in _load_config(args.config).items():
        action = flags.get(key)
        if action is None:
            raise InputError(
                f"config key {key!r} not accepted by this subcommand")
        if getattr(args, action.dest) is not None:
            continue
        try:
            # an on/off flag (store_const) consumes no argument
            value = _cast_bool(raw) if action.nargs == 0 \
                else (action.type or str)(raw)
            if action.choices is not None and value not in action.choices:
                raise ValueError(raw)
        except (ValueError, InputError):
            raise InputError(
                f"config value {key}={raw!r} is not valid") from None
        setattr(args, action.dest, value)


def _cast_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered not in ("true", "false"):
        raise ValueError(raw)
    return lowered == "true"


def _cast_range(raw: str) -> tuple[int, int]:
    if ".." not in raw:
        raise ValueError(raw)
    lo_text, hi_text = raw.split("..", 1)
    lo, hi = int(lo_text), int(hi_text)
    if lo > hi:
        raise ValueError(raw)
    return lo, hi


def _resolve_primes(spec: str | None) -> tuple[int, ...]:
    if spec is None:
        return DEFAULT_PRIMES
    try:
        primes = tuple(int(part) for part in spec.split(",") if part.strip())
    except ValueError:
        raise InputError(f"bad prime list {spec!r}") from None
    if not primes:
        raise InputError("empty prime list")
    for p in primes:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        if p >= PRIME_LIMIT:
            raise InputError(
                f"prime {p} is not below the limit 2**26 = {PRIME_LIMIT}")
    return primes


# ---------------------------------------------------------------------------
# rendering: JSON is the report; text and CSV read nothing but the payload


def _text_verdicts(verdicts: dict) -> list:
    lines = []
    for v in verdicts.values():
        lines.append(f"{v['name']}: {v['status']}")
        if v["reason"]:
            lines.append(f"  reason: {v['reason']}")
        lines += [f"  {key} = {value}"
                  for key, value in sorted(v["witness"].items())]
    return lines


def _text_split(p: dict) -> list:
    (lo, hi), check = p["support"], p["hilbert_check"]
    e_lo, e_hi = check["e_range"]
    return [
        f"splitting type of the pushforward of O({p['l']}H')  "
        f"(n={p['n']}, k={p['k']})",
        f"delta = {p['delta']}, support = [{lo}, {hi}], rank = {p['rank']}",
        "  d   multiplicity",
        *(f"{d:>3}   {m}" for d, m in p["multiplicities"]),
        f"hilbert check: {'pass' if check['passed'] else 'FAIL'} "
        f"(e in [{e_lo}, {e_hi}])",
        f"source: {p['source']}"
        + (" (matches closed form)" if p.get("matches_closed_form") else ""),
    ]


def _text_verify_endo(p: dict) -> list:
    lines = [
        f"endomorphism of P^{p['n']} by degree-{p['k']} forms ({p['source']})",
        f"verdict: {p['verdict']}",
        f"socle-degree test: need rank {p['required_rank']} "
        f"in degree {p['test_degree']} ({p['certificate']})",
        *(f"  rank mod {q}: {r}" for q, r in p["modular_ranks"]),
    ]
    if "rational_rank" in p:
        lines.append(f"  rational rank: {p['rational_rank']}")
    return lines + [f"  f{i} = {f}" for i, f in enumerate(p["forms"])]


def _text_pullback(p: dict) -> list:
    lo, hi = p["lrange"]
    columns = range(p["dim"] + 1)
    h = {(i, l): value for i, l, value in p["cohomology"]}
    lines = [
        f"inverse image of {p['model']} under a degree-{p['k']} covering of "
        f"P^{p['n']}",
        f"dim = {p['dim']}, deg X = {p['degree']}, "
        f"deg X' = {p['degree_prime']}",
        f"h^i(O_X'(l)) for l in [{lo}, {hi}]:",
        "    l | " + " ".join(f"h^{i}" for i in columns) + " | chi",
    ]
    for l, chi in p["euler"]:
        values = " ".join(str(h[(i, l)]).rjust(3) for i in columns)
        lines.append(f"{l:>5} | {values} | {chi}")
    if "dualizing" in p:
        lines.append("h^i(omega_X'(-l)) for 0 <= l < k:")
        lines += [f"  i={i} l={l}: {value}" for i, l, value in p["dualizing"]]
    return lines + _text_verdicts(p["verdicts"])


def _text_adjoint(p: dict) -> list:
    return [
        f"adjunction for the inverse image of {p['model']} "
        f"(surface in P^4, k={p['k']})",
        f"omega_S = O_S({p['e_source']})  ->  omega_S' = O_S'({p['e_prime']})",
        f"deg S' = {p['degree_prime']}, K.H' = {p['K_dot_H']}, "
        f"K^2 = {p['K_squared']}, sectional genus = {p['sectional_genus']}",
        f"h^0(omega_S') = {p['h0_omega']}, "
        f"h^0(omega_S'(-H')) = {p['h0_omega_minus_h']}",
        f"general type: {p['general_type']}",
        *_text_verdicts(p["verdicts"]),
    ]


_TEXT = {"split": _text_split, "verify-endo": _text_verify_endo,
         "pullback": _text_pullback, "adjoint": _text_adjoint}


def _csv_rows(p: dict) -> list:
    if p["command"] == "split":
        return [["d", "multiplicity"], *p["multiplicities"]]
    if p["command"] == "pullback":
        rows = [["section", "i", "l", "value"]]
        for tag, key in (("h", "cohomology"), ("hI", "ideal_cohomology"),
                         ("omega", "dualizing")):
            rows += [[tag, *row] for row in p.get(key, ())]
        return rows + [["chi", "", l, chi] for l, chi in p["euler"]]
    return [["key", "value"]] + [
        [key, p[key]] for key in sorted(p)
        if isinstance(p[key], (int, str, bool))]


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(_csv_rows(payload))
        return buffer.getvalue()
    return "\n".join(_TEXT[payload["command"]](payload)) + "\n"


def _emit(rendered: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(rendered)
        return
    # write beside the target and rename, so a failed write never leaves a
    # truncated or half-written --out file
    temp = f"{out}.{os.getpid()}.tmp"
    try:
        # surrogateescape writes the bytes stdout would print, also for
        # text that names a path with non-UTF-8 bytes
        with open(temp, "w", encoding="utf-8",
                  errors="surrogateescape") as handle:
            handle.write(rendered)
        os.replace(temp, out)
    except BaseException as exc:
        try:
            os.unlink(temp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise InputError(f"cannot write output file {out}: {exc}") from None
        raise


def _verdict_payload(v: pullback.Verdict) -> dict:
    payload = {
        "name": v.name,
        "status": v.status,
        "reason": v.reason,
        "witness": dict(v.witness),
        "assumptions": dict(v.assumptions),
    }
    if v.holds is not None:
        payload["holds"] = v.holds
    return payload


# ---------------------------------------------------------------------------
# model specs


def _parse_model(spec: str, general_position: bool | None) -> varieties.ModelVariety:
    if spec.startswith("table:"):
        model = varieties.load_custom_table(spec[len("table:"):])
    elif spec == "plane@4":
        model = varieties.plane_in_p4()
    elif spec.startswith("ci:"):
        body = spec[len("ci:"):]
        if "@" not in body:
            raise InputError(
                f"bad model spec {spec!r}: expected ci:d1,d2,...@n")
        degrees_text, n_text = body.rsplit("@", 1)
        try:
            degrees = tuple(int(part) for part in degrees_text.split(","))
            n = int(n_text)
        except ValueError:
            raise InputError(f"bad model spec {spec!r}") from None
        model = varieties.complete_intersection(n, degrees)
    elif spec.startswith("p") and spec[1:].isdecimal():
        model = varieties.projective_space(int(spec[1:]))
    else:
        raise InputError(
            f"bad model spec {spec!r}: expected ci:d1,...@n, p<n>, "
            "plane@4 or table:<path>")
    if general_position is not None and \
            general_position != model.smooth_general_position:
        from dataclasses import replace
        model = replace(model, smooth_general_position=general_position)
    return model


# ---------------------------------------------------------------------------
# subcommands: each returns its report (the JSON payload) and its exit code


def _cmd_split(args: argparse.Namespace) -> tuple[dict, int]:
    endo_path, l, e_max, n, k = args.endo, args.l, args.emax, args.n, args.k
    if l is None:
        raise InputError("--l is required")
    if endo_path is not None:
        if n is not None or k is not None:
            raise InputError("give either --endo or --n/--k, not both")
        endo = load_endomorphism(endo_path)
        st = splitting.splitting_from_endo(
            endo, l, _resolve_primes(args.primes), bool(args.exact))
        source = f"endomorphism:{endo_path}"
        n, k = endo.n, endo.k
    else:
        if args.primes is not None or args.exact is not None:
            raise InputError("--primes and --exact apply only with --endo; "
                             "the closed form uses no prime")
        if n is None or k is None:
            raise InputError("--n and --k are required without --endo")
        st = splitting.splitting_universal(n, k, l)
        source = "closed-form"
    check = splitting.hilbert_check(
        st, max(10, -(l // k)) if e_max is None else e_max)
    payload = {
        "report_version": REPORT_VERSION,
        "command": "split",
        "n": n, "k": k, "l": l,
        "delta": splitting.delta(n, k, l),
        "support": [st.support_min, st.support_max],
        "rank": st.rank,
        "multiplicities": [[d, m] for d, m in st.multiplicities],
        "hilbert_check": {"passed": check.passed,
                          "e_range": list(check.e_range)},
        "source": source,
    }
    if endo_path is not None:
        # splitting_from_endo raises IntegrityError when the routes disagree
        payload["matches_closed_form"] = True
    return payload, EXIT_OK if check.passed else EXIT_INTEGRITY


def _cmd_verify_endo(args: argparse.Namespace) -> tuple[dict, int]:
    n, k, seed = args.n, args.k, args.seed
    primes, exact = _resolve_primes(args.primes), bool(args.exact)
    if args.random:
        if args.endo is not None:
            raise InputError("give either --endo or --random, not both")
        if n is None or k is None:
            raise InputError("--random needs --n and --k")
        seed = 0 if seed is None else seed
        endo = random_endomorphism(n, k, random.Random(seed),
                                   primes=primes, exact=exact)
        source = f"random(n={n}, k={k}, seed={seed})"
    elif (n, k, seed) != (None, None, None):
        raise InputError("--n, --k and --seed apply only with --random")
    elif args.endo is not None:
        endo = load_endomorphism(args.endo)
        source = args.endo
    else:
        raise InputError("give --endo <path> or --random --n N --k K")
    # a cached report after random_endomorphism
    report = validate_finite(endo, primes=primes, exact=exact)
    payload = {
        "report_version": REPORT_VERSION,
        "command": "verify-endo",
        "n": endo.n, "k": endo.k,
        "verdict": report.verdict,
        "test_degree": report.test_degree,
        "required_rank": report.required_rank,
        "modular_ranks": [[p, r] for p, r in report.rank.modular],
        "certificate": "rank-test",
        "source": source,
        "forms": [f.text() for f in endo.forms],
    }
    if report.rank.rational is not None:
        payload["rational_rank"] = report.rank.rational
    return payload, EXIT_OK if report.is_finite else EXIT_NEGATIVE


def _rows_payload(rows: dict) -> list:
    return [[i, l, value] for (i, l), value in sorted(rows.items())]


def _cmd_pullback(args: argparse.Namespace) -> tuple[dict, int]:
    spec, k = args.model, args.k
    if spec is None or k is None:
        raise InputError("--model and --k are required")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    model = _parse_model(spec, args.general_position)
    report = pullback.build_pullback_report(model, k, args.lrange)
    verdicts = {
        "nondegenerate": report.completeness.nondegenerate,
        "linearly_complete": report.completeness.linearly_complete,
        "h1_vanishing": report.completeness.h1_vanishing,
        "hyperplane_section": report.hyperplane,
    }
    payload = {
        "report_version": REPORT_VERSION,
        "command": "pullback",
        "model": report.model,
        "n": report.n, "k": report.k, "dim": report.dim,
        "degree": report.degree, "degree_prime": report.degree_prime,
        "lrange": list(report.lrange),
        "assumptions": dict(report.assumptions),
        "cohomology": _rows_payload(report.h_rows),
        "euler": [[l, chi] for l, chi in sorted(report.euler.items())],
        "verdicts": {name: _verdict_payload(v) for name, v in verdicts.items()},
    }
    if report.ideal_rows is not None:
        payload["ideal_cohomology"] = _rows_payload(report.ideal_rows)
    if report.dualizing_rows is not None:
        payload["dualizing"] = _rows_payload(report.dualizing_rows)
    negative = (report.completeness.linearly_complete.holds is False
                or report.completeness.h1_vanishing.holds is False)
    return payload, EXIT_NEGATIVE if negative else EXIT_OK


def _cmd_adjoint(args: argparse.Namespace) -> tuple[dict, int]:
    spec, k = args.model, args.k
    if spec is None or k is None:
        raise InputError("--model and --k are required")
    model = _parse_model(spec, args.general_position)
    report = adjunction.surface_adjunction(model, k)
    verdicts = {
        "canonical_very_ample": report.canonical_very_ample,
        "del_pezzo_exception": report.del_pezzo_exception,
        "canonical_birational": report.canonical_birational,
    }
    payload = {
        "report_version": REPORT_VERSION,
        "command": "adjoint",
        "model": report.model,
        "n": report.n, "k": report.k,
        "delta_l": [[l, value] for l, value in report.delta_l],
        "e_source": report.e_source,
        "e_prime": report.e_prime,
        "degree": report.degree,
        "degree_prime": report.degree_prime,
        "K_dot_H": report.k_dot_h,
        "K_squared": report.k_squared,
        "sectional_genus": report.sectional_genus,
        "h0_omega": report.h0_omega,
        "h0_omega_minus_h": report.h0_omega_minus_h,
        "general_type": report.general_type,
        "assumptions": dict(report.assumptions),
        "verdicts": {name: _verdict_payload(v) for name, v in verdicts.items()},
    }
    negative = report.canonical_very_ample.holds is False
    return payload, EXIT_NEGATIVE if negative else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="key=value file supplying any flag")
    sub.add_argument("--out", help="write output to this path instead of stdout")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--format", choices=FORMATS)
    group.add_argument("--json", dest="format", action="store_const",
                       const="json", help="shorthand for --format json")
    group.add_argument("--csv", dest="format", action="store_const",
                       const="csv", help="shorthand for --format csv")


def _split_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--l", type=int)
    sub.add_argument("--endo", help="endomorphism file instead of --n/--k")
    sub.add_argument("--emax", type=int,
                     help="upper twist for the Hilbert identity check")
    sub.add_argument("--primes", help="comma-separated modular primes")
    sub.add_argument("--exact", action="store_const", const=True,
                     help="confirm over Q every rank that no prime brings "
                          "to its known bound (kernel vectors checked over "
                          "the integers)")


def _verify_endo_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("--endo", help="endomorphism file")
    sub.add_argument("--random", action="store_const", const=True,
                     help="test a random perturbation of the power map")
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--seed", type=int,
                     help="seed for --random (default 0)")
    sub.add_argument("--primes", help="comma-separated modular primes")
    sub.add_argument("--exact", action="store_const", const=True,
                     help="confirm a NOT_FINITE verdict by a certified rank "
                          "over Q (kernel vectors checked over the "
                          "integers)")


def _pullback_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("--model",
                     help="ci:d1,...@n | p<n> | plane@4 | table:<path>")
    sub.add_argument("--k", type=int)
    sub.add_argument("--lrange", type=_cast_range, metavar="a..b",
                     help="twist range (default -k..3k)")
    sub.add_argument("--general-position", type=_cast_bool,
                     metavar="true|false",
                     help="override the model's general-position flag")


def _adjoint_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("--model", help="ci:a,b@4 | plane@4 | table:<path>")
    sub.add_argument("--k", type=int)
    sub.add_argument("--general-position", type=_cast_bool,
                     metavar="true|false",
                     help="override the model's general-position flag")


# name -> (help, add-arguments function, command)
_COMMANDS = {
    "split": ("splitting type of the pushforward of O(lH')",
              _split_arguments, _cmd_split),
    "verify-endo": ("finiteness verdict for an endomorphism",
                    _verify_endo_arguments, _cmd_verify_endo),
    "pullback": ("cohomology and verdicts for the inverse image "
                 "of a model variety", _pullback_arguments, _cmd_pullback),
    "adjoint": ("adjunction report for a surface model in P^4",
                _adjoint_arguments, _cmd_adjoint),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The CLI parser.  When argv[0] names a subcommand, only that
    subparser is built, under a metavar that lists all four, so usage
    lines and errors read as with the full parser.  Otherwise (--help, an
    empty argv, a bad command) every subcommand is built, with no metavar,
    so argparse names the missing or bad subcommand ``command``."""
    parser = argparse.ArgumentParser(
        prog="pushsplit",
        description="Exact splitting types of pushforwards of line bundles "
                    "under finite endomorphisms of projective space, and "
                    "the cohomology of inverse-image varieties.")
    if argv and argv[0] in _COMMANDS:
        names = [argv[0]]
        subs = parser.add_subparsers(dest="command", required=True,
                                     metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        names = list(_COMMANDS)
        subs = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_arguments, _ = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(parser=sub)
        add_arguments(sub)
        _add_common(sub)
    return parser


def _glue_range_values(argv: list) -> list:
    """Join '--lrange -2..4' into '--lrange=-2..4' so argparse does not
    mistake a range starting with a negative bound for a flag."""
    out = []
    for arg in argv:
        if out and out[-1] == "--lrange" and arg.startswith("-"):
            out[-1] = f"--lrange={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _glue_range_values(list(argv))
    args = build_parser(argv).parse_args(argv)
    try:
        if args.config:
            _apply_config(args, args.parser)
        payload, code = _COMMANDS[args.command][2](args)
        _emit(_render(payload, args.format or "text"), args.out)
        return code
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except PushsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE if isinstance(exc, TableRangeError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
