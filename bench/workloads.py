"""Seeded inputs for the benchmark, built so that every answer is known.

Endomorphisms of P^n are written as n+1 forms of degree k in y0..yn.

* FINITE maps are triangular: f_i = y_i^k + g_i, where every monomial of
  g_i contains some y_j with j > i.  At a common zero, take the largest i
  with y_i != 0; then g_i vanishes and f_i = y_i^k does not.  The argument
  works over every field, so the map stays finite modulo every prime.
* NOT_FINITE maps have no y0^k term in any form, so every form vanishes
  at e0 = (1, 0, ..., 0).
* The dense variant of a map is the same map after a random unimodular
  change of coordinates y -> A y, which keeps its verdict.

Complete-intersection tables follow the table file format of the README.
Nothing here imports pushsplit.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass

FINITE = "FINITE"
NOT_FINITE = "NOT_FINITE"


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: nonzero int}


def monomials(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(num_vars), degree):
        exps = [0] * num_vars
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return out


def power(num_vars: int, i: int, e: int) -> tuple[int, ...]:
    return tuple(e if j == i else 0 for j in range(num_vars))


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for mp, cp in p.items():
        for mq, cq in q.items():
            mono = tuple(a + b for a, b in zip(mp, mq))
            out[mono] = out.get(mono, 0) + cp * cq
    return {m: c for m, c in out.items() if c}


def substitute(f: dict, a: list[list[int]]) -> dict:
    """f(A y): variable y_j of f becomes the linear form sum_m A[j][m] y_m."""
    nv = len(a)
    linear = [{power(nv, m, 1): a[j][m] for m in range(nv) if a[j][m]}
              for j in range(nv)]
    powers: dict = {}

    def lin_pow(j: int, e: int) -> dict:
        if (j, e) not in powers:
            powers[(j, e)] = {power(nv, 0, 0): 1} if e == 0 \
                else poly_mul(lin_pow(j, e - 1), linear[j])
        return powers[(j, e)]

    out: dict = {}
    for mono, coeff in f.items():
        piece = {power(nv, 0, 0): coeff}
        for j, e in enumerate(mono):
            if e:
                piece = poly_mul(piece, lin_pow(j, e))
        for m, c in piece.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def form_text(f: dict) -> str:
    """Render in the endomorphism file grammar, largest monomial first."""
    parts = []
    for mono in sorted(f, reverse=True):
        c = f[mono]
        factors = [f"y{i}" if e == 1 else f"y{i}^{e}"
                   for i, e in enumerate(mono) if e]
        if abs(c) != 1:
            factors.insert(0, str(abs(c)))
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return " ".join([head] + [f"{s} {t}" for s, t in parts[1:]])


def endo_text(n: int, k: int, forms: list[dict]) -> str:
    lines = [f"n = {n}", f"k = {k}"]
    lines += [f"f{i} = {form_text(f)}" for i, f in enumerate(forms)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# maps with known verdicts


G_TERMS = 3   # monomials in each g_i


def _coeff(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def finite_map(n: int, k: int, shape: random.Random,
               values: random.Random) -> list[dict]:
    """Sparse triangular map y_i^k + g_i; finite by construction.

    ``shape`` picks the monomials of each g_i and ``values`` their
    coefficients, so maps drawn with one shape and different values share
    a sparsity pattern and cost about the same to test.
    """
    nv = n + 1
    monos = monomials(nv, k)
    forms = []
    for i in range(nv):
        later = [m for m in monos if any(m[j] for j in range(i + 1, nv))]
        f = {power(nv, i, k): 1}
        for mono in shape.sample(later, min(G_TERMS, len(later))):
            f[mono] = _coeff(values)
        forms.append(f)
    return forms


def not_finite_map(n: int, k: int, shape: random.Random,
                   values: random.Random) -> list[dict]:
    """Like finite_map, but f0 trades y0^k for y0^(k-1)*y1: e0 is a common zero."""
    forms = finite_map(n, k, shape, values)
    nv = n + 1
    f0 = dict(forms[0])
    del f0[power(nv, 0, k)]
    f0[tuple(k - 1 if j == 0 else (1 if j == 1 else 0) for j in range(nv))] = 1
    forms[0] = f0
    return forms


def unimodular(num_vars: int, shape: random.Random,
               values: random.Random) -> list[list[int]]:
    """L * U with unit triangular L, U whose off-diagonal entries are 0 or +-1."""
    def entry(r: int, c: int, below: bool) -> int:
        if r == c:
            return 1
        if (c < r) != below or shape.random() < 0.3:
            return 0
        return values.choice((-1, 1))

    lower = [[entry(r, c, True) for c in range(num_vars)] for r in range(num_vars)]
    upper = [[entry(r, c, False) for c in range(num_vars)] for r in range(num_vars)]
    return [[sum(lower[r][m] * upper[m][c] for m in range(num_vars))
             for c in range(num_vars)] for r in range(num_vars)]


def make_map(n: int, k: int, verdict: str, dense: bool, slot: int,
             seed: int) -> list[dict]:
    """Map number ``slot`` of its size: the shape depends on (n, k, slot,
    verdict, dense) only, the coefficients on ``seed`` as well."""
    label = f"{n},{k},{slot},{verdict},{int(dense)}"
    shape = random.Random("shape:" + label)
    values = random.Random(f"values:{seed}:" + label)
    build = finite_map if verdict == FINITE else not_finite_map
    forms = build(n, k, shape, values)
    if dense:
        a = unimodular(n + 1, shape, values)
        forms = [substitute(f, a) for f in forms]
    return forms


# ---------------------------------------------------------------------------
# complete intersections: the Koszul table, computed here on its own


def gdim(num_vars: int, degree: int) -> int:
    return math.comb(degree + num_vars - 1, num_vars - 1) if degree >= 0 else 0


class CompleteIntersection:
    """Cohomology of the complete intersection of ``degrees`` in P^n.

    h^0 is the Koszul sum, the top row is its Serre dual at the twist
    sum(degrees) - n - 1, middle rows vanish, and a zero-dimensional
    intersection has h^0 equal to its degree at every twist.  Ideal rows
    come from 0 -> I -> O_P -> O_X -> 0.
    """

    def __init__(self, n: int, degrees=()):
        self.n = n
        self.degrees = tuple(degrees)
        self.dim = n - len(self.degrees)
        self.degree = math.prod(self.degrees)
        self.omega_twist = sum(self.degrees) - n - 1

    def _koszul(self, t: int) -> int:
        total = 0
        for size in range(len(self.degrees) + 1):
            for subset in itertools.combinations(self.degrees, size):
                total += (-1) ** size * gdim(self.n + 1, t - sum(subset))
        return total

    def h(self, i: int, t: int) -> int:
        if not 0 <= i <= self.dim:
            return 0
        if self.dim == 0:
            return self.degree
        if i == 0:
            return self._koszul(t)
        if i == self.dim:
            return self._koszul(self.omega_twist - t)
        return 0

    def h_ideal(self, i: int, t: int) -> int:
        n = self.n
        if not self.degrees or not 0 <= i <= n:
            return 0
        if i == 0:
            return gdim(n + 1, t) - self._koszul(t)
        if i == 1:
            # cokernel of H^0(O_P(t)) -> H^0(O_X(t)), whose image is the
            # Koszul count; nonzero only for finite sets of points
            extra = gdim(n + 1, -n - 1 - t) if n == 1 else 0
            return self.h(0, t) - self._koszul(t) + extra
        if i < n:
            return self.h(i - 1, t)
        return self.h(n - 1, t) + gdim(n + 1, -n - 1 - t)


def ci_table_text(ci: CompleteIntersection, trange: tuple[int, int]) -> str:
    lo, hi = trange
    lines = [f"# complete intersection of degrees {ci.degrees} in P^{ci.n}",
             f"n={ci.n}", f"dim={ci.dim}", f"degree={ci.degree}",
             f"omega_twist={ci.omega_twist}", f"trange={lo}..{hi}",
             f"linear_pm={'true' if all(d == 1 for d in ci.degrees) else 'false'}",
             "general_position=true"]
    lines += [f"h {i} {t} {ci.h(i, t)}"
              for i in range(ci.dim + 1) for t in range(lo, hi + 1)]
    lines += [f"hI {i} {t} {ci.h_ideal(i, t)}"
              for i in range(ci.n + 1) for t in range(lo, hi + 1)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# query lists


@dataclass
class Query:
    """One CLI call: ``argv`` without ``--out``, and what the oracle needs."""

    argv: list[str]
    expect: dict


FORMATS = ("text", "json", "csv")
TABLE_TRANGE = (-12, 12)
PLANE_TRANGE = (-60, 60)   # the built-in plane@4 table


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _endo_file(workdir: str, n: int, k: int, verdict: str, dense: bool,
               slot: int, seed: int) -> tuple[str, list[dict]]:
    forms = make_map(n, k, verdict, dense, slot, seed)
    name = f"map_{n}_{k}_{verdict.lower()}_{'dense' if dense else 'sparse'}_{slot}.endo"
    return _write(os.path.join(workdir, name), endo_text(n, k, forms)), forms


# (n, k, verdict, dense, copies).  Every query is one socle-degree rank
# test.  The 10 verify queries at (4,3), (3,4) or with --exact and the 4
# split queries at (3,4) are the slow ones, so the latency tail (10 samples
# beyond it) falls among them.  NOT_FINITE and dense (4,3) maps are left
# out: one costs 2-8 s (15 s when both), which would leave too few passes
# in a run to take each query's best over.  NOT_FINITE maps at (3,3) and
# (4,2) are also run with --exact.
VERIFY_MAPS = (
    (4, 3, FINITE, False, 1),
    (3, 4, FINITE, False, 3), (3, 4, FINITE, True, 2),
    (3, 4, NOT_FINITE, False, 1), (3, 4, NOT_FINITE, True, 1),
    (3, 3, FINITE, False, 3), (3, 3, FINITE, True, 3),
    (3, 3, NOT_FINITE, False, 1),
    (4, 2, FINITE, False, 3), (4, 2, FINITE, True, 3),
    (4, 2, NOT_FINITE, False, 1),
)
EXACT_SIZES = ((3, 3), (4, 2))   # Bareiss is affordable up to here
# (n, k, dense) of the finite maps that split --endo runs on, for every l
SPLIT_MAPS = ((3, 3, False), (3, 3, True), (4, 2, False), (4, 2, True),
              (2, 6, False), (2, 6, True), (3, 4, False))


def _repeat(queries: list[Query], picks) -> list[Query]:
    """Append exact copies, so the checker can compare their bytes."""
    return queries + [Query(list(queries[i].argv), queries[i].expect)
                      for i in picks]


def _interleave(queries: list[Query]) -> list[Query]:
    """One fixed order for every seed, with cheap and costly queries mixed,
    so each latency percentile samples the whole round."""
    order = list(range(len(queries)))
    random.Random("order").shuffle(order)
    return [queries[i] for i in order]


def endo(seed: int, workdir: str) -> list[Query]:
    """verify-endo on every map of VERIFY_MAPS, and split --endo for every
    l on every map of SPLIT_MAPS."""
    verify = []
    for n, k, verdict, dense, copies in VERIFY_MAPS:
        for slot in range(copies):
            path, forms = _endo_file(workdir, n, k, verdict, dense, slot, seed)
            runs = [False, True] if verdict == NOT_FINITE and \
                (n, k) in EXACT_SIZES else [False]
            for exact in runs:
                verify.append(Query(
                    ["verify-endo", "--endo", path, "--json"]
                    + (["--exact"] if exact else []),
                    {"cmd": "verify", "fmt": "json", "n": n, "k": k,
                     "verdict": verdict, "exact": exact, "forms": forms,
                     "source": path}))
    split = []
    for n, k, dense in SPLIT_MAPS:
        path, _ = _endo_file(workdir, n, k, FINITE, dense, 0, seed)
        for l in range(k):
            split.append(Query(
                ["split", "--endo", path, "--l", str(l), "--json"],
                {"cmd": "split", "fmt": "json", "n": n, "k": k, "l": l,
                 "endo": path}))
    # repeat two cheap queries of each command
    cheap = [i for i, q in enumerate(verify)
             if q.expect["n"] + q.expect["k"] <= 6 and not q.expect["exact"]]
    picks = cheap[:2] + [len(verify), len(verify) + 1]
    return _interleave(_repeat(verify + split, picks))


# Large closed-form pairs, the same in every run: each appears three times,
# cold the first time.  Their _box_counts cost sets the latency tail.
LARGE_PAIRS = ((30, 40), (60, 20), (40, 30), (20, 40), (50, 25), (45, 20),
               (25, 30), (35, 35), (55, 15), (15, 40), (60, 12), (30, 25))
SMALL_PAIRS = 20
SPLIT_QUERIES = 70
PULLBACK_QUERIES = 25
ADJOINT_QUERIES = 15
POINTS_QUERIES = 3       # pullback of a finite point set: exit 1
RANGE_QUERIES = 3        # pullback past a table's twist range: exit 4
DEL_PEZZO_QUERIES = 3    # adjoint of a plane with k = 2: exit 1
REPEATS = 3

# model spec -> (n, degrees) of the complete intersection it stands for
BUILTIN_MODELS = {
    "p4": (4, ()), "ci:2@4": (4, (2,)), "ci:3@4": (4, (3,)),
    "ci:2,2@4": (4, (2, 2)), "ci:2,3@4": (4, (2, 3)),
    "ci:3,3@4": (4, (3, 3)), "ci:2,2,2@4": (4, (2, 2, 2)),
    "plane@4": (4, (1, 1)),
}
TABLE_MODELS = {"surface22": (4, (2, 2)), "surface23": (4, (2, 3)),
                "threefold3": (4, (3,)), "curve222": (4, (2, 2, 2)),
                "plane": (4, (1, 1))}
POINT_MODELS = {"ci:2,2,2,2@4": (4, (2, 2, 2, 2)),
                "ci:1,2,2,2@4": (4, (1, 2, 2, 2))}
PLANE_MODELS = ("plane@4", "ci:1,1@4")
SURFACE_MODELS = {"ci:2,2@4": (4, (2, 2)), "ci:2,3@4": (4, (2, 3)),
                  "ci:3,3@4": (4, (3, 3)), "ci:2,4@4": (4, (2, 4))}


def _fmt_flags(fmt: str) -> list[str]:
    return [] if fmt == "text" else [f"--{fmt}"]


def _split(n: int, k: int, l: int, fmt: str) -> Query:
    return Query(["split", "--n", str(n), "--k", str(k), "--l", str(l)]
                 + _fmt_flags(fmt),
                 {"cmd": "split", "fmt": fmt, "n": n, "k": k, "l": l,
                  "endo": None})


def _pullback(spec: str, ci, trange, k: int, lrange, fmt: str) -> Query:
    argv = ["pullback", "--model", spec, "--k", str(k)]
    if lrange is not None:
        argv += ["--lrange", f"{lrange[0]}..{lrange[1]}"]
    return Query(argv + _fmt_flags(fmt),
                 {"cmd": "pullback", "fmt": fmt, "ci": ci, "trange": trange,
                  "k": k, "lrange": lrange or (-k, 3 * k)})


def _adjoint(spec: str, ci, k: int, fmt: str) -> Query:
    return Query(["adjoint", "--model", spec, "--k", str(k)] + _fmt_flags(fmt),
                 {"cmd": "adjoint", "fmt": fmt, "ci": ci, "k": k})


def closed_form(seed: int, workdir: str) -> list[Query]:
    rng = random.Random(f"closed-form:{seed}")
    tables = {}
    for name, ci in TABLE_MODELS.items():
        path = _write(os.path.join(workdir, f"{name}.table"),
                      ci_table_text(CompleteIntersection(*ci), TABLE_TRANGE))
        tables["table:" + path] = ci
    formats = itertools.cycle(FORMATS)
    fmt = lambda: next(formats)

    queries = []
    small = set()
    while len(small) < SMALL_PAIRS:
        small.add((rng.randint(1, 12), rng.randint(2, 12)))
    small = sorted(small)
    for n, k in LARGE_PAIRS:
        for _ in range(3):
            queries.append(_split(n, k, rng.randrange(k), fmt()))
    for i in range(SPLIT_QUERIES - len(queries)):
        n, k = small[i % len(small)]
        queries.append(_split(n, k, rng.randint(-k, 3 * k), fmt()))

    models = [(spec, ci, PLANE_TRANGE if spec == "plane@4" else None)
              for spec, ci in BUILTIN_MODELS.items()]
    models += [(spec, ci, TABLE_TRANGE) for spec, ci in tables.items()]
    ranged = [m for m in models if m[2] is not None]
    for i in range(PULLBACK_QUERIES - POINTS_QUERIES - RANGE_QUERIES):
        spec, ci, trange = models[i % len(models)]
        k = rng.randint(2, 5)
        lrange = None if rng.random() < 0.7 else \
            (-rng.randint(0, k), rng.randint(k, 3 * k))
        queries.append(_pullback(spec, ci, trange, k, lrange, fmt()))
    for i in range(POINTS_QUERIES):
        spec = sorted(POINT_MODELS)[i % len(POINT_MODELS)]
        queries.append(_pullback(spec, POINT_MODELS[spec], None,
                                 rng.randint(2, 5), None, fmt()))
    for i in range(RANGE_QUERIES):
        spec, ci, trange = ranged[i % len(ranged)]
        k = rng.randint(2, 5)
        start = (trange[1] + 1) * k
        queries.append(_pullback(spec, ci, trange, k, (start, start + 1), fmt()))

    surfaces = list(SURFACE_MODELS.items())
    surfaces += [(spec, ci) for spec, ci in tables.items()
                 if len(ci[1]) == 2 and ci[1] != (1, 1)]
    planes = [(spec, (4, (1, 1))) for spec in PLANE_MODELS]
    planes += [(spec, ci) for spec, ci in tables.items() if ci[1] == (1, 1)]
    for i in range(ADJOINT_QUERIES - DEL_PEZZO_QUERIES):
        if i % 10 == 0:
            spec, ci = planes[(i // 10) % len(planes)]
            k = rng.randint(3, 6)
        else:
            spec, ci = surfaces[i % len(surfaces)]
            k = rng.randint(2, 6)
        queries.append(_adjoint(spec, ci, k, fmt()))
    for i in range(DEL_PEZZO_QUERIES):
        spec, ci = planes[i % len(planes)]
        queries.append(_adjoint(spec, ci, 2, fmt()))

    rng.shuffle(queries)
    return _repeat(queries, rng.sample(range(len(queries)), REPEATS))


WORKLOADS = {"endo": endo, "closed-form": closed_form}
