"""CLI behavior: exit codes, canonical JSON, CSV, config, environment."""

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushsplit import cli, exactla, pullback
from pushsplit.cli import main
from pushsplit.errors import IntegrityError
from pushsplit.exactla import PRIME_LIMIT, is_prime
from pushsplit.varieties import dump_table, plane_in_p4


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


SRC = Path(__file__).resolve().parent.parent / "src"


def run_process(*argv, cwd=None):
    """Run ``python argv...`` in a fresh interpreter that imports pushsplit
    from this checkout; stdout escapes undecodable bytes as a C locale does."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONIOENCODING="utf-8:surrogateescape")
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True)


def test_split_closed_form_json(capsys):
    code, out, _ = run(capsys, "split", "--n", "4", "--k", "2", "--l", "0",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report_version"] == "1"
    assert payload["multiplicities"] == [[0, 1], [1, 10], [2, 5]]
    assert payload["delta"] == 2
    assert payload["support"] == [0, 2]
    assert payload["rank"] == 16
    assert payload["hilbert_check"]["passed"] is True
    assert payload["source"] == "closed-form"
    assert out == canonical(payload)


def test_split_is_deterministic(capsys):
    first = run(capsys, "split", "--n", "4", "--k", "3", "--l", "0", "--json")
    second = run(capsys, "split", "--n", "4", "--k", "3", "--l", "0", "--json")
    assert first == second
    assert first[0] == 0


def test_split_negative_twist(capsys):
    code, out, _ = run(capsys, "split", "--n", "3", "--k", "2", "--l", "4",
                       "--json")
    assert code == 0
    assert json.loads(out)["multiplicities"] == [[-2, 1], [-1, 6], [0, 1]]


def test_split_from_endomorphism(capsys):
    code, out, _ = run(capsys, "split", "--endo",
                       "tests/fixtures/power42.endo", "--l", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicities"] == [[0, 5], [1, 10], [2, 1]]
    assert payload["source"] == "endomorphism:tests/fixtures/power42.endo"
    assert payload["matches_closed_form"] is True


def test_split_rejects_nonfinite_endomorphism(capsys):
    code, _, err = run(capsys, "split", "--endo",
                       "tests/fixtures/nonfinite12.endo", "--l", "0")
    assert code == 2
    assert "not finite" in err


def test_split_csv(capsys):
    code, out, _ = run(capsys, "split", "--n", "2", "--k", "2", "--l", "0",
                       "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["d", "multiplicity"], ["0", "1"], ["1", "3"]]


def test_split_text_mentions_support(capsys):
    code, out, _ = run(capsys, "split", "--n", "1", "--k", "2", "--l", "0")
    assert code == 0
    assert "support = [0, 1]" in out
    assert "hilbert check: pass" in out


def test_split_argument_validation(capsys):
    assert run(capsys, "split", "--n", "4", "--l", "0")[0] == 2
    assert run(capsys, "split", "--l", "0")[0] == 2
    code, _, err = run(capsys, "split", "--n", "4", "--k", "2", "--l", "0",
                       "--endo", "tests/fixtures/power42.endo")
    assert code == 2 and "either" in err


def test_closed_form_split_uses_no_primes(capsys, tmp_path):
    closed_form = ["split", "--n", "2", "--k", "2", "--l", "0"]
    assert run(capsys, *closed_form)[0] == 0
    # an unusable prime list in a config file is read with --endo
    config = tmp_path / "primes.cfg"
    config.write_text("primes = 15\n")
    assert run(capsys, "split", "--endo", "tests/fixtures/power42.endo",
               "--l", "0", "--config", str(config))[0] == 2
    # but asking for primes or --exact beside --n/--k is refused
    for extra in (["--primes", "101"], ["--exact"],
                  ["--config", str(config)]):
        code, out, err = run(capsys, *closed_form, *extra)
        assert (code, out) == (2, "") and "only with --endo" in err


def test_split_hilbert_range_is_never_empty(capsys):
    # the default e_max reaches -floor(l/k) = 50, so some twist is checked
    code, out, _ = run(capsys, "split", "--n", "2", "--k", "2", "--l", "-100")
    assert code == 0
    assert "hilbert check: pass (e in [50, 50])" in out
    code, out, err = run(capsys, "split", "--n", "2", "--k", "2",
                         "--l", "-100", "--emax", "10")
    assert (code, out) == (2, "") and "range is empty" in err


def test_oversized_closed_forms_exit_2_without_a_traceback():
    # 50^3000 has 5097 digits, past the interpreter's 4300-digit limit for
    # printing an integer; 10**12 would need a table of 2 * 10**12 terms
    for argv, message in (
            (["--n", "3000", "--k", "50", "--l", "7", "--csv"],
             "50^3000 has more than 4300 digits"),
            (["--n", "1", "--k", str(10 ** 12), "--l", "0"],
             "= 1999999999999 coefficients")):
        done = run_process("-m", "pushsplit", "split", *argv)
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.startswith(b"error: ")
        assert message.encode() in done.stderr
        assert b"Traceback" not in done.stderr


def test_large_closed_form_split_succeeds(capsys):
    code, out, err = run(capsys, "split", "--n", "2000", "--k", "50",
                         "--l", "0", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["rank"] == 50 ** 2000
    assert payload["hilbert_check"]["passed"] is True


def test_split_integrity_exit_code(capsys, monkeypatch):
    import pushsplit.cli as cli_module

    def explode(*args, **kwargs):
        raise IntegrityError("routes disagree")

    monkeypatch.setattr(cli_module.splitting, "splitting_from_endo", explode)
    code, _, err = run(capsys, "split", "--endo",
                       "tests/fixtures/power42.endo", "--l", "0")
    assert code == 3
    assert "routes disagree" in err


def test_pullback_rows_checked_against_the_pulled_back_ci(capsys, monkeypatch):
    real = pullback.pushforward_cohomology

    def off_by_one(m, k, l, i):
        return real(m, k, l, i) + (i == 0 and l == 1)

    monkeypatch.setattr(pullback, "pushforward_cohomology", off_by_one)
    with pytest.raises(IntegrityError) as exc:
        pullback.build_pullback_report(cli._parse_model("ci:2,2@4", None), 2)
    assert (exc.value.expected, exc.value.actual) == (5, 6)
    code, out, err = run(capsys, "pullback", "--model", "ci:2,2@4", "--k", "2")
    assert code == 3 and out == ""
    assert "h^0(O_X'(1)) is 6" in err and "but 5" in err


def test_verify_endo_finite(capsys):
    code, out, _ = run(capsys, "verify-endo", "--endo",
                       "tests/fixtures/perturbed22.endo", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "FINITE"
    assert payload["required_rank"] == 15
    assert payload["test_degree"] == 4
    assert len(payload["modular_ranks"]) >= 1
    assert payload["forms"][2] == "y2^2"


def test_verify_endo_not_finite(capsys):
    code, out, _ = run(capsys, "verify-endo", "--endo",
                       "tests/fixtures/nonfinite12.endo", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "NOT_FINITE"
    assert all(r < payload["required_rank"]
               for _, r in payload["modular_ranks"])


# every form vanishes at (1:0:0:0); the 220 x 336 socle matrix has rank 216
NOT_FINITE_33 = """n = 3
k = 3
f0 = y0^2*y1 + 2*y2^2*y3 - y1*y3^2
f1 = y1^3 - 2*y0*y2*y3 + 3*y2^3
f2 = y2^3 + 3*y0*y1*y3 - y1^2*y2
f3 = y3^3 + y0^2*y2 - 2*y1*y2*y3
"""


def test_verify_endo_exact_flag(capsys, tmp_path):
    code, out, _ = run(capsys, "verify-endo", "--endo",
                       "tests/fixtures/nonfinite12.endo", "--exact", "--json")
    assert code == 1
    assert json.loads(out)["rational_rank"] == 3
    endo = tmp_path / "nonfinite33.endo"
    endo.write_text(NOT_FINITE_33)
    code, out, _ = run(capsys, "verify-endo", "--endo", str(endo),
                       "--exact", "--json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["verdict"], payload["rational_rank"]) == ("NOT_FINITE", 216)


def test_missing_rank_certificate_is_an_integrity_error(capsys, tmp_path,
                                                        monkeypatch):
    # too few primes for the kernel certificate is a broken proof: exit 3
    monkeypatch.setattr(exactla, "_prime_budget", lambda *args: 0)
    endo = tmp_path / "nonfinite33.endo"
    endo.write_text(NOT_FINITE_33)
    code, out, err = run(capsys, "verify-endo", "--endo", str(endo), "--exact")
    assert (code, out) == (3, "")
    assert err.startswith("integrity error: no rank certificate")


def test_split_endo_exact_matches_default(capsys):
    for l in range(-2, 5):
        argv = ["split", "--endo", "tests/fixtures/perturbed22.endo",
                "--l", str(l), "--json"]
        default = run(capsys, *argv)
        assert default[0] == 0
        assert run(capsys, *argv, "--exact") == default


# verify-endo --json on every fixture, without and with --exact: the
# verdict, the primes tried (stopping at the first full rank), and the
# rational rank when one was computed (None: the key is absent)
VERIFY_GOLDEN = {
    ("disagree23", False): ("FINITE", [[1048583, 4]], None),
    ("disagree23", True): ("FINITE", [[1048583, 4]], None),
    ("nonfinite12", False): ("NOT_FINITE", [[1048583, 3], [1048589, 3]], None),
    ("nonfinite12", True): ("NOT_FINITE", [[1048583, 3], [1048589, 3]], 3),
    ("perturbed22", False): ("FINITE", [[1048583, 15]], None),
    ("perturbed22", True): ("FINITE", [[1048583, 15]], None),
    ("power42", False): ("FINITE", [[1048583, 210]], None),
    ("power42", True): ("FINITE", [[1048583, 210]], None),
}


@pytest.mark.parametrize("name, exact", sorted(VERIFY_GOLDEN))
def test_verify_endo_golden(capsys, name, exact):
    code, out, _ = run(capsys, "verify-endo", "--endo",
                       f"tests/fixtures/{name}.endo", "--json",
                       *(["--exact"] if exact else []))
    payload = json.loads(out)
    verdict, modular, rational = VERIFY_GOLDEN[(name, exact)]
    assert code == (0 if verdict == "FINITE" else 1)
    assert (payload["verdict"], payload["modular_ranks"],
            payload.get("rational_rank"), payload["certificate"]) == \
        (verdict, modular, rational, "rank-test")


def test_verify_endo_random_is_seeded(capsys):
    first = run(capsys, "verify-endo", "--random", "--n", "2", "--k", "2",
                "--seed", "5", "--json")
    second = run(capsys, "verify-endo", "--random", "--n", "2", "--k", "2",
                 "--seed", "5", "--json")
    assert first == second
    assert first[0] == 0
    assert json.loads(first[1])["verdict"] == "FINITE"


def test_verify_endo_refuses_random_flags_without_random(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    for flag in ("--n", "--k", "--seed"):
        cfg.write_text(f"{flag[2:]} = 3\n")
        for extra in ([flag, "3"], ["--config", str(cfg)]):
            code, out, err = run(capsys, "verify-endo", "--endo",
                                 "tests/fixtures/power42.endo", *extra)
            assert (code, out) == (2, "") and "--random" in err


def test_verify_endo_refuses_endo_beside_random(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("endo = tests/fixtures/power42.endo\n")
    for extra in (["--endo", "tests/fixtures/power42.endo"],
                  ["--config", str(cfg)]):
        code, out, err = run(capsys, "verify-endo", "--random", "--n", "2",
                             "--k", "2", *extra)
        assert (code, out) == (2, "") and "--random" in err


def test_verify_endo_primes_flag(capsys):
    code, out, _ = run(capsys, "verify-endo", "--endo",
                       "tests/fixtures/power42.endo", "--primes", "101,103",
                       "--json")
    assert code == 0
    primes = [p for p, _ in json.loads(out)["modular_ranks"]]
    assert primes == [101]  # full rank at the first prime certifies


def test_primes_at_or_above_the_limit_are_refused(capsys):
    p = PRIME_LIMIT
    while not is_prime(p):
        p += 1
    code, _, err = run(capsys, "verify-endo", "--endo",
                       "tests/fixtures/power42.endo", "--primes", f"101,{p}")
    assert code == 2
    assert "2**26" in err


def test_verify_endo_disagreeing_primes_escalate(capsys):
    code, out, _ = run(capsys, "verify-endo", "--endo",
                       "tests/fixtures/disagree23.endo", "--primes", "2,3",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["modular_ranks"] == [[2, 2], [3, 3]]
    assert payload["rational_rank"] == 4
    assert payload["verdict"] == "FINITE"


def test_verify_endo_huge_coefficient(capsys, tmp_path):
    endo = tmp_path / "huge.endo"
    endo.write_text("n = 1\nk = 2\n"
                    "f0 = y0^2 + 100000000000000000000000*y0*y1\n"
                    "f1 = y1^2\n")
    code, out, _ = run(capsys, "verify-endo", "--endo", str(endo), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "FINITE"


def test_verify_endo_with_a_thousand_variables(capsys, tmp_path):
    # the graded bases are built without recursion, so n is not bounded by
    # the interpreter's recursion limit
    n = 1100
    endo = tmp_path / "linear.endo"
    endo.write_text(f"n = {n}\nk = 1\n"
                    + "".join(f"f{i} = y{i}\n" for i in range(n + 1)))
    code, out, err = run(capsys, "verify-endo", "--endo", str(endo), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "FINITE"


def test_table_with_bad_omega_twist_is_an_input_error(capsys, tmp_path):
    table = tmp_path / "bad.table"
    table.write_text("n=3\ndim=1\ndegree=2\nomega_twist=abc\n"
                     "trange=-1..1\n")
    code, _, err = run(capsys, "pullback", "--model", f"table:{table}",
                       "--k", "2")
    assert code == 2
    assert "omega_twist" in err


def test_primes_config_key(capsys, tmp_path):
    config = tmp_path / "primes.cfg"
    config.write_text("primes = 211\n")
    code, out, _ = run(capsys, "verify-endo", "--endo",
                       "tests/fixtures/power42.endo", "--config", str(config),
                       "--json")
    assert code == 0
    assert [p for p, _ in json.loads(out)["modular_ranks"]] == [211]
    # the command-line flag wins over the config file
    code, out, _ = run(capsys, "verify-endo", "--endo",
                       "tests/fixtures/power42.endo", "--config", str(config),
                       "--primes", "101", "--json")
    assert [p for p, _ in json.loads(out)["modular_ranks"]] == [101]
    config.write_text("primes = 15\n")
    assert run(capsys, "verify-endo", "--endo",
               "tests/fixtures/power42.endo", "--config", str(config))[0] == 2


def test_pullback_json_success(capsys):
    code, out, _ = run(capsys, "pullback", "--model", "ci:2,2@4", "--k", "2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree_prime"] == 16
    assert [2, 0, 35] in payload["cohomology"]
    assert [0, 36] in payload["euler"]
    assert payload["verdicts"]["linearly_complete"]["holds"] is True
    assert payload["verdicts"]["hyperplane_section"]["witness"][
        "h0_Yprime_1"] == 4
    assert [0, 0, 35] in payload["dualizing"]
    assert [0, 1, 15] in payload["dualizing"]
    assert out == canonical(payload)


def test_pullback_text_table(capsys):
    code, out, _ = run(capsys, "pullback", "--model", "ci:2,2@4", "--k", "2")
    assert code == 0
    assert "h^0 h^1 h^2 | chi" in out
    assert "deg X' = 16" in out


def test_pullback_negative_verdict_exit(capsys):
    code, out, _ = run(capsys, "pullback", "--model",
                       "table:tests/fixtures/two_lines_p3.table", "--k", "2",
                       "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdicts"]["linearly_complete"]["holds"] is False
    assert payload["verdicts"]["linearly_complete"]["witness"][
        "h0_Xprime_1"] == 8


def test_pullback_k1_not_applicable(capsys):
    code, out, _ = run(capsys, "pullback", "--model", "ci:2,2@4", "--k", "1",
                       "--json")
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert all("holds" not in v for v in verdicts.values())
    assert all(v["status"] == "NOT_APPLICABLE" for v in verdicts.values())


def test_pullback_lrange_and_range_error(capsys):
    code, out, _ = run(capsys, "pullback", "--model",
                       "table:tests/fixtures/rational_quartic_p3.table",
                       "--k", "2", "--lrange", "0..2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lrange"] == [0, 2]
    assert [1, 2, 1] in payload["ideal_cohomology"]
    code, _, err = run(capsys, "pullback", "--model",
                       "table:tests/fixtures/rational_quartic_p3.table",
                       "--k", "2", "--lrange", "0..20")
    assert code == 4
    assert "range" in err.lower() or "table" in err.lower()


def test_pullback_negative_lrange_parses(capsys):
    code, out, _ = run(capsys, "pullback", "--model", "p2", "--k", "2",
                       "--lrange", "-2..1", "--json")
    assert code == 0
    assert json.loads(out)["lrange"] == [-2, 1]


def test_adjoint_success_and_negative(capsys):
    code, out, _ = run(capsys, "adjoint", "--model", "ci:2,2@4", "--k", "2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["K_squared"] == 144
    assert payload["sectional_genus"] == 33
    assert payload["verdicts"]["canonical_birational"]["witness"][
        "h0_omega_Xprime_minus_H"] == 15

    code, out, _ = run(capsys, "adjoint", "--model", "plane@4", "--k", "2",
                       "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["e_prime"] == -1
    assert payload["verdicts"]["del_pezzo_exception"]["holds"] is True


def test_table_contradicting_its_degree_is_refused(capsys, tmp_path):
    # a degree-1 table is a linear P^m, so the Del Pezzo exception and the
    # canonical-birationality exclusion read one rule; a linear_pm header
    # that denies it is an input error
    text = dump_table(plane_in_p4(), (-20, 20))
    table = tmp_path / "plane.table"
    table.write_text(text)
    model = ["adjoint", "--model", f"table:{table}", "--k", "3"]
    assert run(capsys, *model)[0] == 0
    table.write_text(text.replace("linear_pm=true", "linear_pm=false"))
    code, out, err = run(capsys, *model)
    assert (code, out) == (2, "")
    assert "linear_pm=false contradicts degree=1" in err


def test_adjoint_requires_a_surface(capsys):
    code, _, err = run(capsys, "adjoint", "--model", "ci:3@4", "--k", "2")
    assert code == 2
    assert "surface" in err


def test_bad_model_specs(capsys):
    assert run(capsys, "pullback", "--model", "nope", "--k", "2")[0] == 2
    assert run(capsys, "pullback", "--model", "ci:2,2", "--k", "2")[0] == 2
    assert run(capsys, "pullback", "--model", "ci:x@4", "--k", "2")[0] == 2
    assert run(capsys, "pullback", "--model", "p\u00b2", "--k", "2")[0] == 2
    assert run(capsys, "pullback", "--model", "table:/no/such/file",
               "--k", "2")[0] == 2


def test_general_position_override(capsys):
    code, out, _ = run(capsys, "pullback", "--model", "ci:2,2@4", "--k", "2",
                       "--general-position", "false", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["hyperplane_section"]["status"] == \
        "NOT_APPLICABLE"


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = ci:2,2@4\nk = 2\nformat = json\n")
    code, out, _ = run(capsys, "pullback", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["degree_prime"] == 16
    # explicit flags beat config values
    code, out, _ = run(capsys, "pullback", "--config", str(cfg),
                       "--model", "ci:3@2")
    assert code == 0
    assert json.loads(out)["degree_prime"] == 6


def test_config_comments_are_whole_lines(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "# a comment line\n  # an indented one\nn = 2\nk = 2\nl = 1\n"
        "out = r#1.txt\n")
    code, out, err = run(capsys, "split", "--config", "run.cfg", "--json")
    assert (code, out, err) == (0, "", "")
    assert json.loads((tmp_path / "r#1.txt").read_text())["rank"] == 4
    assert not (tmp_path / "r").exists()


def test_config_file_rejects_unknown_and_duplicate_keys(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = ci:2,2@4\nk = 2\nwat = 1\n")
    code, _, err = run(capsys, "pullback", "--config", str(bad))
    assert code == 2 and "wat" in err
    dup = tmp_path / "dup.cfg"
    dup.write_text("k = 2\nk = 3\nmodel = ci:2,2@4\n")
    assert run(capsys, "pullback", "--config", str(dup))[0] == 2
    xml = tmp_path / "xml.cfg"
    xml.write_text("model = ci:2,2@4\nk = 2\nformat = xml\n")
    code, out, err = run(capsys, "pullback", "--config", str(xml))
    assert (code, out) == (2, "") and "format='xml'" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "split", "--n", "2", "--k", "2", "--l", "1",
                       "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["multiplicities"] == [[0, 3], [1, 1]]


def test_failed_out_write_keeps_existing_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("previous report\n")
    real_open = open

    class FullDisk:
        """A file that takes half of what is written, then runs out of space."""

        def __init__(self, *args, **kwargs):
            self.handle = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[:len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    code, out, err = run(capsys, "split", "--n", "2", "--k", "2", "--l", "1",
                         "--json", "--out", str(target))
    assert code == 2
    assert "No space left on device" in err and out == ""
    assert target.read_text() == "previous report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_out_path_with_undecodable_bytes(tmp_path):
    name = os.fsdecode(b"map\xff.endo")
    shutil.copy("tests/fixtures/perturbed22.endo", tmp_path / name)
    shown = run_process("-m", "pushsplit", "verify-endo", "--endo", name,
                        cwd=tmp_path)
    assert shown.returncode == 0 and b"map\xff.endo" in shown.stdout
    written = run_process("-m", "pushsplit", "verify-endo", "--endo", name,
                          "--out", "o.txt", cwd=tmp_path)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert (tmp_path / "o.txt").read_bytes() == shown.stdout


def test_cli_module_entry_point_keeps_the_exit_code():
    done = run_process("-m", "pushsplit.cli", "verify-endo", "--endo",
                       "tests/fixtures/nonfinite12.endo")
    assert done.returncode == 1
    assert b"NOT_FINITE" in done.stdout


def test_format_flags_are_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["split", "--n", "2", "--k", "2", "--l", "0", "--json", "--csv"])
    assert exc.value.code == 2


# Every command in every format, compared byte for byte with the captured
# stdout, stderr (a missing .err file means empty) and exit code of the
# three-builder CLI that rendered text, JSON and CSV separately.
GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"
QUARTIC = "table:tests/fixtures/rational_quartic_p3.table"
GOLDEN_CASES = {
    "split_l_negative": ["split", "--n", "3", "--k", "2", "--l", "-3"],
    "split_l_below_k": ["split", "--n", "4", "--k", "3", "--l", "1"],
    "split_l_above_k": ["split", "--n", "3", "--k", "2", "--l", "4"],
    "split_endo": ["split", "--endo", "tests/fixtures/power42.endo",
                   "--l", "1"],
    "verify_finite": ["verify-endo", "--endo",
                      "tests/fixtures/perturbed22.endo"],
    "verify_not_finite": ["verify-endo", "--endo",
                          "tests/fixtures/nonfinite12.endo"],
    "verify_exact": ["verify-endo", "--endo",
                     "tests/fixtures/nonfinite12.endo", "--exact"],
    "verify_random": ["verify-endo", "--random", "--n", "2", "--k", "2",
                      "--seed", "3"],
    "pullback_ci": ["pullback", "--model", "ci:2,2@4", "--k", "2"],
    "pullback_ci_k1": ["pullback", "--model", "ci:2,2@4", "--k", "1"],
    "pullback_p3": ["pullback", "--model", "p3", "--k", "3"],
    "pullback_plane": ["pullback", "--model", "plane@4", "--k", "2"],
    "pullback_table": ["pullback", "--model", QUARTIC, "--k", "2",
                       "--lrange", "-1..2"],
    "pullback_two_lines": ["pullback", "--model",
                           "table:tests/fixtures/two_lines_p3.table",
                           "--k", "2"],
    "pullback_out_of_range": ["pullback", "--model", QUARTIC, "--k", "2",
                              "--lrange", "0..20"],
    "adjoint_ci": ["adjoint", "--model", "ci:2,3@4", "--k", "4"],
    "adjoint_plane": ["adjoint", "--model", "plane@4", "--k", "2"],
}
FORMAT_FLAGS = {"text": [], "json": ["--json"], "csv": ["--csv"]}


def golden(name):
    """The exit code, stdout and stderr bytes pinned for ``name`` (a missing
    .err file means empty)."""
    err = GOLDEN / f"{name}.err"
    return (json.loads((GOLDEN / "exit_codes.json").read_text())[name],
            (GOLDEN / f"{name}.out").read_bytes(),
            err.read_bytes() if err.exists() else b"")


def run_bytes(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, out.encode(), err.encode()


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
@pytest.mark.parametrize("fmt", sorted(FORMAT_FLAGS))
def test_output_matches_golden(capsys, tmp_path, case, fmt):
    argv = GOLDEN_CASES[case] + FORMAT_FLAGS[fmt]
    code, out, err = run(capsys, *argv)
    assert (code, out.encode(), err.encode()) == golden(f"{case}.{fmt}")
    if case == "pullback_table":
        target = tmp_path / "report"
        assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
        assert target.read_bytes() == out.encode()


def config_lines(argv):
    """``key = value`` lines for ``--key value`` flags; an on/off flag (one
    followed by another flag or by nothing) becomes ``key = true``."""
    lines = []
    for i, flag in enumerate(argv):
        if flag.startswith("--"):
            value = argv[i + 1] if i + 1 < len(argv) and \
                not argv[i + 1].startswith("--") else "true"
            lines.append(f"{flag[2:]} = {value}\n")
    return lines


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
@pytest.mark.parametrize("fmt", sorted(FORMAT_FLAGS))
def test_config_file_matches_golden(capsys, tmp_path, case, fmt):
    # every flag after the command moves into the config file; --json and
    # --csv, which a config file cannot name, become a format line
    command, *rest = GOLDEN_CASES[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(config_lines(rest))
                   + ("" if fmt == "text" else f"format = {fmt}\n"))
    assert run_bytes(capsys, command, "--config", str(cfg)) == \
        golden(f"{case}.{fmt}")


def test_command_line_flags_beat_config_values(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nk = 5\nl = 4\n")
    assert run_bytes(capsys, "split", "--config", str(cfg), "--k", "2") == \
        golden("split_l_above_k.text")
    cfg.write_text("endo = tests/fixtures/nonfinite12.endo\nexact = false\n")
    assert run_bytes(capsys, "verify-endo", "--config", str(cfg),
                     "--exact") == golden("verify_exact.text")
    # an on/off key set to false is the flag left out; other words fail
    assert run_bytes(capsys, "verify-endo", "--config", str(cfg)) == \
        golden("verify_not_finite.text")
    cfg.write_text("endo = tests/fixtures/nonfinite12.endo\nexact = yes\n")
    code, out, err = run(capsys, "verify-endo", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "config value exact='yes' is not valid" in err


# Help, usage and parse errors, byte for byte as the CLI printed them when
# it built every subcommand's arguments on each call.
USAGE_CASES = {
    "usage_help": ["--help"],
    "usage_empty": [],
    "usage_split_help": ["split", "--help"],
    "usage_verify_endo_help": ["verify-endo", "--help"],
    "usage_pullback_help": ["pullback", "--help"],
    "usage_adjoint_help": ["adjoint", "--help"],
    "usage_split_bogus": ["split", "--bogus"],
    "usage_unknown_command": ["frobnicate", "--n", "2"],
    "usage_pullback_bad_lrange": ["pullback", "--lrange", "5..1"],
}


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_usage_matches_golden(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(USAGE_CASES[name])
    captured = capsys.readouterr()
    expected_err = GOLDEN / f"{name}.err"
    assert exc.value.code == \
        json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert captured.out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert captured.err.encode() == (expected_err.read_bytes()
                                     if expected_err.exists() else b"")


def subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def subparser(parser, command):
    return subparsers(parser).choices[command]


def flags(parser, command):
    return {opt for action in subparser(parser, command)._actions
            for opt in action.option_strings}


def test_parser_adds_only_the_named_subcommands_arguments():
    full = cli.build_parser()
    assert set(subparsers(full).choices) == set(cli._COMMANDS)
    assert flags(full, "adjoint") >= {"--model", "--k", "--out"}
    for command in cli._COMMANDS:
        narrow = cli.build_parser([command, "--k", "2"])
        assert set(subparsers(narrow).choices) == {command}
        assert flags(narrow, command) == flags(full, command)
        assert narrow.format_usage() == full.format_usage()
    assert flags(cli.build_parser(["--help"]), "pullback") == \
        flags(full, "pullback")


# Argv and config files built from each subcommand's own flags, with small
# integers (so n, k, --emax and --lrange stay cheap), model-spec pieces and
# the fixture files.  --out writes only into the example's temporary
# directory, never over a fixture.
FIXTURES = Path(__file__).resolve().parent / "fixtures"
ENDOS = (*(str(path) for path in sorted(FIXTURES.glob("*.endo"))),
         "no/such.endo")
MODELS = ("ci:2,2@4", "ci:3@4", "ci:2,3@4", "ci:2@", "p2", "p", "plane@4",
          "nope", *(f"table:{path}" for path in sorted(FIXTURES.glob(
              "*.table"))))
LIKELY = {"endo": ENDOS, "model": MODELS, "format": ("json", "csv", "xml"),
          "lrange": ("-1..2", "0..3", "3..0", "..", "0..20"),
          "primes": ("101,103", "2,3", "15", ""),
          "general-position": ("true", "false", "TRUE", "x"),
          "exact": ("true", "false"), "random": ("true", "false"),
          "config": ("no/such.cfg", ENDOS[0])}
ANY_VALUE = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(
    ("", "x", "true", "false", *ENDOS, *MODELS,
     *LIKELY["format"], *LIKELY["lrange"], *LIKELY["primes"])))
OUT_VALUES = st.sampled_from(("report.txt", "", "no/such/dir/report"))


def fuzz_value(name):
    """A value for flag or config key ``name``: half the time one that
    suits it (a small integer when nothing else does), else any."""
    key = name.lstrip("-")
    if key == "out":
        return OUT_VALUES
    suited = st.sampled_from(LIKELY[key]) if key in LIKELY \
        else st.integers(-1, 3).map(str)
    return st.one_of(suited, ANY_VALUE)


# command -> each of its long flags -> whether the flag takes a value
FUZZ_FLAGS = {command: {
    option: action.nargs != 0 for option, action in subparser(
        cli.build_parser([command]), command)._option_string_actions.items()
    if option.startswith("--")} for command in cli._COMMANDS}


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    takes_value = FUZZ_FLAGS[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(takes_value)),
                              unique=True, max_size=4)):
        # one flag in ten gets the wrong arity
        valued = takes_value[flag] != (draw(st.integers(0, 9)) == 0)
        argv += [flag, draw(fuzz_value(flag))] if valued else [flag]
    keys = [flag[2:] for flag in sorted(takes_value)] + [
        "json", "general_position", "wat"]
    lines = [key + draw(st.sampled_from(("=", " = ", " "))) + draw(
        fuzz_value(key)) for key in draw(st.lists(st.sampled_from(keys),
                                                  max_size=5))]
    config = draw(st.one_of(st.none(), st.just("\n".join(
        lines + draw(st.lists(st.sampled_from(("# note", "", "=")),
                              max_size=2))))))
    return argv, config


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cli_calls())
def test_cli_exits_with_a_known_code(call):
    argv, config = call
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if config is not None:
            Path("run.cfg").write_text(config)
            argv = argv + ["--config", "run.cfg"]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in range(5)
