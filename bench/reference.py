"""A fixed task that stands for the machine's speed, timed by worker.py.

The host gives the benchmark a share of its cores, and how fast they run
drifts by a quarter or more over minutes with the load of other tenants.
The worker times this task once after every query, so its samples follow
the drift through the whole run.  run.py divides the end-to-end query
times by the median of these samples and multiplies them by REFERENCE_S,
the task's median time on the machine named in README.md: what it reports
is the time on that machine at that speed.

The task imports nothing of pushsplit, so no change to pushsplit can
change its time.  It mixes the kinds of work pushsplit's queries do:
building and running an argparse parser, formatting JSON, Python integer
arithmetic and numpy int64 elimination steps.
"""

from __future__ import annotations

import argparse
import json

import numpy

REFERENCE_S = 0.0013
PRIME = 65521
_MATRIX = (numpy.arange(96 * 96, dtype=numpy.int64).reshape(96, 96) * 7919) % PRIME


def task() -> int:
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for name in ("split", "verify"):
        command = commands.add_parser(name)
        command.add_argument("--n", type=int, required=True)
        command.add_argument("--json", action="store_true")
    args = parser.parse_args(["verify", "--n", "3", "--json"])
    text = json.dumps({"rows": [[i * j % 97 for j in range(24)]
                                for i in range(24)]})
    m = _MATRIX.copy()
    for c in range(8):
        m[c + 1:] = (m[c + 1:] - numpy.outer(m[c + 1:, c], m[c])) % PRIME
    return args.n + len(text) + int(m[-1, -1])
