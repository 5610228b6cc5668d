"""Independent answer checks for the benchmark's queries.

Nothing here imports pushsplit.  Each expected value is recomputed from
first principles:

* multiplicities m_{l,d} count exponent vectors in {0..k-1}^(n+1) of total
  degree l+kd, by inclusion-exclusion over the coordinates that reach k;
* the inverse image X' of a complete intersection of degrees d_i is the
  complete intersection of degrees k*d_i, so its cohomology rows come from
  its own Koszul table;
* adjunction numbers follow from e' = ke + 5k - 5 and deg' = k^2 deg;
* finiteness verdicts are known from how the generator built each map.

``check`` returns None when an output is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from workloads import FINITE, CompleteIntersection, gdim

EXIT_OK, EXIT_NEGATIVE, EXIT_RANGE = 0, 1, 4


def box_count(num_vars: int, k: int, s: int) -> int:
    """#{a in {0..k-1}^num_vars : |a| = s}."""
    if s < 0:
        return 0
    return sum((-1) ** j * math.comb(num_vars, j)
               * math.comb(s - j * k + num_vars - 1, num_vars - 1)
               for j in range(min(num_vars, s // k) + 1))


def splitting(n: int, k: int, l: int) -> list[tuple[int, int]]:
    """Nonzero (d, m_{l,d}) in increasing d."""
    out = []
    d = -(l // k)
    while l + k * d <= (k - 1) * (n + 1):
        m = box_count(n + 1, k, l + k * d)
        if m:
            out.append((d, m))
        d += 1
    return out


def parse_form(text: str) -> dict:
    """Read a form in the endomorphism grammar into {exponents: coeff}."""
    out: dict = {}
    for sign, body in re.findall(r"([+-]?)([^+-]+)", text.replace(" ", "")):
        coeff = -1 if sign == "-" else 1
        exps: dict[int, int] = {}
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            var, _, power = factor.partition("^")
            exps[int(var[1:])] = exps.get(int(var[1:]), 0) + int(power or 1)
        key = tuple(sorted(exps.items()))
        out[key] = out.get(key, 0) + coeff
    return {key: c for key, c in out.items() if c}


def _sparse(f: dict) -> dict:
    return {tuple((i, e) for i, e in enumerate(mono) if e): c
            for mono, c in f.items()}


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _csv_pairs(text: str) -> dict:
    rows = _csv_rows(text)
    if rows[:1] != [["key", "value"]]:
        raise ValueError("csv header is not key,value")
    return {key: value for key, value in rows[1:]}


def check(expect: dict, code, output: bytes | None) -> str | None:
    """Compare one query's exit code and output with the expected answer."""
    want = expected_exit(expect)
    if code != want:
        return f"exit {code!r}, expected {want}"
    if want == EXIT_RANGE:
        return "range error still wrote output" if output is not None else None
    if output is None:
        return "no output written"
    try:
        text = output.decode("utf-8")
        return _CHECKS[expect["cmd"]](expect, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable {expect['fmt']} output: {type(exc).__name__}: {exc}"


def expected_exit(expect: dict) -> int:
    cmd = expect["cmd"]
    if cmd == "verify":
        return EXIT_OK if expect["verdict"] == FINITE else EXIT_NEGATIVE
    if cmd == "split":
        return EXIT_OK
    n, degrees = expect["ci"]
    k = expect["k"]
    if cmd == "adjoint":
        return EXIT_NEGATIVE if math.prod(degrees) == 1 and k == 2 else EXIT_OK
    if expect["trange"] is not None:
        lo, hi = expect["trange"]
        for l in range(expect["lrange"][0], expect["lrange"][1] + 1):
            if any(not lo <= -d <= hi for d, _ in splitting(n, k, l)):
                return EXIT_RANGE
    x = CompleteIntersection(n, degrees)
    return EXIT_OK if x.h(0, 0) == 1 else EXIT_NEGATIVE


def _check_verify(expect: dict, text: str) -> str | None:
    out = json.loads(text)
    n, k = expect["n"], expect["k"]
    degree = (n + 1) * (k - 1) + 1
    required = gdim(n + 1, degree)
    if out["verdict"] != expect["verdict"]:
        return f"verdict {out['verdict']}, expected {expect['verdict']}"
    if (out["n"], out["k"], out["test_degree"], out["required_rank"]) != \
            (n, k, degree, required):
        return "wrong n, k, test degree or required rank"
    ranks = [r for _, r in out["modular_ranks"]]
    if not ranks:
        return "no modular rank reported"
    if expect["verdict"] == FINITE:
        if ranks[-1] != required or any(r >= required for r in ranks[:-1]):
            return f"modular ranks {ranks} do not end at full rank {required}"
    elif any(r >= required for r in ranks):
        return f"modular rank reaches {required} on a map with a common zero"
    if expect["exact"] and expect["verdict"] != FINITE:
        if not out.get("rational_rank", required) < required:
            return "exact run did not report a deficient rational rank"
    elif "rational_rank" in out:
        return "rational rank reported without --exact"
    if out["source"] != expect["source"]:
        return "wrong source"
    forms = [parse_form(f) for f in out["forms"]]
    if forms != [_sparse(f) for f in expect["forms"]]:
        return "echoed forms differ from the input"
    return None


def _check_split(expect: dict, text: str) -> str | None:
    n, k, l = expect["n"], expect["k"], expect["l"]
    want = splitting(n, k, l)
    fmt = expect["fmt"]
    if fmt == "json":
        out = json.loads(text)
        got = [tuple(pair) for pair in out["multiplicities"]]
        if (out["n"], out["k"], out["l"]) != (n, k, l):
            return "wrong n, k or l"
        if out["delta"] != want[-1][0] or out["support"] != [want[0][0], want[-1][0]]:
            return "wrong delta or support"
        if out["rank"] != k ** n:
            return f"rank {out['rank']}, expected k^n = {k ** n}"
        if not out["hilbert_check"]["passed"]:
            return "hilbert check failed"
        if expect["endo"] is not None and (
                out["source"] != f"endomorphism:{expect['endo']}"
                or out["matches_closed_form"] is not True):
            return "wrong source for an endomorphism split"
    elif fmt == "csv":
        rows = _csv_rows(text)
        if rows[0] != ["d", "multiplicity"]:
            return "csv header is not d,multiplicity"
        got = [(int(d), int(m)) for d, m in rows[1:]]
    else:
        head = re.search(r"delta = (-?\d+), support = \[(-?\d+), (-?\d+)\], "
                         r"rank = (\d+)", text)
        if head is None or [int(g) for g in head.groups()] != \
                [want[-1][0], want[0][0], want[-1][0], k ** n]:
            return "wrong delta, support or rank line"
        if "hilbert check: pass" not in text:
            return "hilbert check failed"
        got = [(int(d), int(m)) for d, m in
               re.findall(r"^\s*(-?\d+)   (\d+)$", text, re.MULTILINE)]
    if got != want:
        return f"multiplicities differ from exponent counting for (n={n}, k={k}, l={l})"
    return None


def _check_pullback(expect: dict, text: str) -> str | None:
    n, degrees = expect["ci"]
    k = expect["k"]
    x = CompleteIntersection(n, degrees)
    xp = CompleteIntersection(n, tuple(k * d for d in degrees))
    lo, hi = expect["lrange"]
    h_rows = {(i, l): xp.h(i, l) for l in range(lo, hi + 1)
              for i in range(x.dim + 1)}
    euler = {l: sum((-1) ** i * xp.h(i, l) for i in range(x.dim + 1))
             for l in range(lo, hi + 1)}
    ideal = {(i, l): xp.h_ideal(i, l) for i in range(n + 1)
             for l in range(lo, hi + 1)}
    degree_prime = x.degree * k ** len(degrees)
    fmt = expect["fmt"]
    if fmt == "json":
        out = json.loads(text)
        got_h = {(i, l): v for i, l, v in out["cohomology"]}
        got_chi = {l: v for l, v in out["euler"]}
        got_ideal = {(i, l): v for i, l, v in out.get("ideal_cohomology", ())}
        if (out["dim"], out["degree"], out["degree_prime"]) != \
                (x.dim, x.degree, degree_prime):
            return "wrong dim, degree or degree'"
    elif fmt == "csv":
        rows = _csv_rows(text)
        if rows[0] != ["section", "i", "l", "value"]:
            return "csv header is not section,i,l,value"
        got_h = {(int(i), int(l)): int(v) for s, i, l, v in rows[1:] if s == "h"}
        got_ideal = {(int(i), int(l)): int(v)
                     for s, i, l, v in rows[1:] if s == "hI"}
        got_chi = {int(l): int(v) for s, _, l, v in rows[1:] if s == "chi"}
    else:
        head = re.search(r"dim = (\d+), deg X = (\d+), deg X' = (\d+)", text)
        if head is None or [int(g) for g in head.groups()] != \
                [x.dim, x.degree, degree_prime]:
            return "wrong dim/degree line"
        got_h, got_chi, got_ideal = {}, {}, None
        for l, values, chi in re.findall(r"^\s*(-?\d+) \| ([\d ]+) \| (-?\d+)$",
                                         text, re.MULTILINE):
            for i, v in enumerate(values.split()):
                got_h[(i, int(l))] = int(v)
            got_chi[int(l)] = int(chi)
    if got_h != h_rows:
        return "cohomology rows differ from the Koszul table of X'"
    if got_chi != euler:
        return "Euler characteristics differ from the Koszul table of X'"
    if got_ideal is not None and got_ideal != ideal:
        return "ideal rows differ from the Koszul table of X'"
    return None


def adjunction_numbers(ci, k: int) -> dict:
    """Invariants of S' for the complete-intersection surface S in P^4."""
    n, degrees = ci
    e_prime = k * (sum(degrees) - n - 1) + 5 * k - 5
    deg_prime = math.prod(degrees) * k * k
    sp = CompleteIntersection(n, tuple(k * d for d in degrees))
    return {"degree_prime": deg_prime, "K_dot_H": e_prime * deg_prime,
            "K_squared": e_prime * e_prime * deg_prime,
            "sectional_genus": (e_prime + 1) * deg_prime // 2 + 1,
            "h0_omega": sp.h(0, e_prime),
            "h0_omega_minus_h": sp.h(0, e_prime - 1), "e_prime": e_prime}


def _check_adjoint(expect: dict, text: str) -> str | None:
    want = adjunction_numbers(expect["ci"], expect["k"])
    fmt = expect["fmt"]
    if fmt == "json":
        out = json.loads(text)
        got = {key: out[key] for key in want}
    elif fmt == "csv":
        pairs = _csv_pairs(text)
        got = {key: int(pairs[key]) for key in want}
    else:
        nums = re.search(
            r"omega_S' = O_S'\((-?\d+)\)\n"
            r"deg S' = (\d+), K.H' = (-?\d+), K\^2 = (\d+), "
            r"sectional genus = (\d+)\n"
            r"h\^0\(omega_S'\) = (\d+), h\^0\(omega_S'\(-H'\)\) = (\d+)", text)
        if nums is None:
            return "adjunction lines missing"
        keys = ("e_prime", "degree_prime", "K_dot_H", "K_squared",
                "sectional_genus", "h0_omega", "h0_omega_minus_h")
        got = dict(zip(keys, (int(g) for g in nums.groups())))
    if got != want:
        bad = sorted(key for key in want if got.get(key) != want[key])
        return f"adjunction numbers differ: {', '.join(bad)}"
    return None


_CHECKS = {"verify": _check_verify, "split": _check_split,
           "pullback": _check_pullback, "adjoint": _check_adjoint}
