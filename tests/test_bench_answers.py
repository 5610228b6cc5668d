"""Every seed-77 answer of both benchmark workloads, pinned by digest.

``bench/workloads.py`` is loaded read-only and each query of both
workloads, at seed 77, runs through ``cli.main`` with ``--out``, as the
benchmark's worker runs it.  A query's digest is the sha256 of its exit
code, stdout, stderr and ``--out`` bytes, with the work directory
replaced by a placeholder.  ``fixtures/golden/bench_seed77.txt`` holds
one line per query: workload, index, digest and argv.

Run this file as a script to rewrite that file from the current code.
"""

import contextlib
import hashlib
import io
import json
import runpy
import shlex
from pathlib import Path

from pushsplit import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden" / "bench_seed77.txt"
SEED = 77
PLACEHOLDER = "<work>"


def answers(tmp: Path) -> list[str]:
    """One golden line per query of both workloads, in workload order."""
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    lines = []
    for name, build in sorted(workloads["WORKLOADS"].items()):
        workdir = tmp / name
        workdir.mkdir()
        base = str(workdir)
        for i, query in enumerate(build(SEED, base)):
            out = workdir / f"q{i}.out"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(query.argv + ["--out", str(out)])
                except SystemExit as exc:
                    code = exc.code
            written = out.read_bytes() if out.exists() else None
            record = [code, stdout.getvalue(), stderr.getvalue(),
                      None if written is None else
                      written.decode("utf-8", "surrogateescape")]
            text = json.dumps(record).replace(base, PLACEHOLDER)
            digest = hashlib.sha256(text.encode()).hexdigest()
            argv = shlex.join(query.argv).replace(base, PLACEHOLDER)
            lines.append(f"{name} {i} {digest} {argv}")
    return lines


def test_seed77_answers_match_the_golden(tmp_path):
    expected = GOLDEN.read_text().splitlines()
    actual = answers(tmp_path)
    changed = [line for line, pinned in zip(actual, expected)
               if line != pinned]
    assert len(actual) == len(expected) and not changed, \
        "changed queries:\n" + "\n".join(changed)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text("\n".join(answers(Path(tmp))) + "\n")
