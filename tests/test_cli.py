"""CLI behavior: exit codes, canonical JSON, CSV, config, environment."""

import argparse
import ast
import contextlib
import csv
import errno
import io
import json
import os
import re
import runpy
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushsplit import cli, endomorphism, exactla, polyring, pullback, \
    varieties
from pushsplit.cli import main
from pushsplit.endomorphism import load_endomorphism
from pushsplit.errors import InputError, IntegrityError
from pushsplit.exactla import PRIME_LIMIT, is_prime
from pushsplit.varieties import KoszulTable, plane_in_p4


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


def test_split_rejects_nonfinite_endomorphism(capsys, tmp_path):
    code, _, err = run(capsys, "split", "--endo",
                       "tests/fixtures/nonfinite12.endo", "--l", "0")
    assert code == 2
    assert "not finite" in err
    # a refusal names what it rests on: primes that agree, which
    # verify-endo --exact can confirm over Q ...
    assert "modulo 1048583, 1048589," in err
    assert "verify-endo --exact" in err
    code, _, err = run(capsys, "split", "--endo",
                       "tests/fixtures/nonfinite12.endo", "--l", "0",
                       "--primes", "101")
    assert code == 2
    assert "modulo 101," in err and "1048583" not in err
    # ... or the rank over Q, computed because the primes disagreed:
    # (y0^2, 2*y0*y1) has rank 2 modulo 2, and 3 modulo 3 and over Q
    endo = tmp_path / "zero_at_0_1.endo"
    endo.write_text("n = 1\nk = 2\nf0 = y0^2\nf1 = 2*y0*y1\n")
    code, _, err = run(capsys, "split", "--endo", str(endo), "--l", "0",
                       "--primes", "2,3")
    assert code == 2
    assert "not finite" in err
    assert "rank 3 over Q, below the required 4" in err
    assert "modulo" not in err and "--exact" not in err


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
    # but asking for primes beside --n/--k is refused
    for extra in (["--primes", "101"], ["--config", str(config)]):
        code, out, err = run(capsys, *closed_form, *extra)
        assert (code, out) == (2, "") and "only with --endo" in err


def test_split_hilbert_range_is_never_empty(capsys):
    # the check runs to max(10, -floor(l/k)), so some twist is checked
    code, out, _ = run(capsys, "split", "--n", "2", "--k", "2", "--l", "-100")
    assert code == 0
    assert "hilbert check: pass (e in [50, 50])" in out


def test_split_refuses_the_removed_exact_and_emax(capsys, tmp_path):
    # neither can change a split's answer, so split no longer takes them,
    # from flags or from a config file; verify-endo keeps --exact
    endo = ["split", "--endo", "tests/fixtures/perturbed22.endo", "--l", "1"]
    closed_form = ["split", "--n", "2", "--k", "2", "--l", "0"]
    config = tmp_path / "split.cfg"
    for argv in (endo, closed_form):
        for extra in (["--exact"], ["--emax", "5"]):
            code, out, _ = run_any(capsys, [*argv, *extra])
            assert (code, out) == (2, b""), extra
        for line in ("exact = true\n", "emax = 12\n"):
            config.write_text(line)
            code, out, err = run(capsys, *argv, "--config", str(config))
            assert (code, out) == (2, ""), line
            assert "not accepted by this subcommand" in err


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


@pytest.mark.parametrize("form, position", [
    ("{long}*y0^2", 0), ("y0^{long}", 3), ("y{long}^2", 1)],
    ids=["coefficient", "exponent", "variable-index"])
def test_oversized_numbers_in_a_form_exit_2_without_a_traceback(
        capsys, tmp_path, form, position):
    endo = tmp_path / "long.endo"
    endo.write_text(f"n = 1\nk = 2\nf0 = {form.format(long='1' * 5000)}\n"
                    "f1 = y1^2\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (["verify-endo", "--endo", str(endo)],
                     ["split", "--endo", str(endo), "--l", "0"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ")
            assert "more than 4300 digits" in err
            assert f"(at position {position})" in err
            assert "Traceback" not in err
    finally:
        sys.set_int_max_str_digits(limit)


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
    # the report reads every m_{l,d} off the closed-form table, where
    # box[1] = m_{1,0} = 5; over the twists 0..2 only l = 1 reads it, so
    # one more O(0) summand adds h^0(O_X) = 1 to h^0(O_X'(1)) and to no
    # other h row
    real = pullback._closed_form_box

    def off_by_one(n, k):
        box = list(real(n, k))
        assert box[1] == 5
        box[1] += 1
        return tuple(box)

    monkeypatch.setattr(pullback, "_closed_form_box", off_by_one)
    with pytest.raises(IntegrityError) as exc:
        pullback.build_pullback_report(cli._parse_model("ci:2,2@4", None), 2,
                                       (0, 2))
    assert (exc.value.expected, exc.value.actual) == (5, 6)
    code, out, err = run(capsys, "pullback", "--model", "ci:2,2@4", "--k", "2",
                         "--lrange", "0..2")
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


def test_verify_endo_exact_on_a_dense_nonfinite_map(capsys):
    code, out, _ = run(capsys, "verify-endo", "--endo",
                       "tests/fixtures/dense33_nonfinite.endo", "--exact",
                       "--json")
    payload = json.loads(out)
    assert (code, payload["verdict"]) == (1, "NOT_FINITE")
    assert payload["modular_ranks"] == [[1048583, 214], [1048589, 214]]
    assert (payload["rational_rank"], payload["required_rank"]) == (214, 220)


def test_missing_rank_certificate_is_an_integrity_error(capsys, tmp_path,
                                                        monkeypatch):
    # too few primes for the kernel certificate is a broken proof: exit 3
    monkeypatch.setattr(exactla, "_prime_budget", lambda *args: 0)
    endo = tmp_path / "nonfinite33.endo"
    endo.write_text(NOT_FINITE_33)
    code, out, err = run(capsys, "verify-endo", "--endo", str(endo), "--exact")
    assert (code, out) == (3, "")
    assert err.startswith("integrity error: no rank certificate")


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


def test_a_repeated_prime_is_refused_before_any_rank(capsys, tmp_path,
                                                     monkeypatch):
    # two ranks modulo one prime would pass for two primes agreeing
    def no_rank(*args, **kwargs):
        raise AssertionError("a rank was computed")

    monkeypatch.setattr(exactla, "rank_mod", no_rank)
    config = tmp_path / "primes.cfg"
    config.write_text("primes = 101,103,101\n")
    endo = ["--endo", "tests/fixtures/nonfinite12.endo"]
    for argv in (["verify-endo", *endo, "--primes", "101,101"],
                 ["verify-endo", *endo, "--config", str(config)],
                 ["split", *endo, "--l", "0", "--primes", "101,101"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "prime 101 is repeated" in err


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
    plane = plane_in_p4()
    text = "".join(["n=4\ndim=2\ndegree=1\nomega_twist=-3\ntrange=-5..5\n"
                    "linear_pm=true\ngeneral_position=true\n"]
                   + [f"h {i} {t} {plane.table.h(i, t)}\n"
                      for i in range(3) for t in range(-5, 6)])
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
    # beyond the interpreter's int-to-str digit limit
    for command in ("pullback", "adjoint"):
        assert run(capsys, command, "--model", "p" + "1" * 5000,
                   "--k", "2")[0] == 2


@pytest.mark.parametrize("argv", (
    ["pullback", "--model", "table:{}", "--k", "2"],
    ["verify-endo", "--endo", "{}"],
    ["split", "--l", "0", "--config", "{}"],
), ids=("table", "endo", "config"))
def test_non_utf8_input_files_are_input_errors(tmp_path, argv):
    bad = tmp_path / "bad.in"
    bad.write_bytes(b"n=2\n\xff\n")
    done = run_process("-m", "pushsplit", *(a.format(bad) for a in argv))
    assert done.returncode == 2
    assert done.stderr.startswith(b"error: ")
    assert b"Traceback" not in done.stderr and str(bad).encode() in done.stderr


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


def test_out_into_a_directory_prints_the_same_error_every_run(tmp_path):
    # the error names the target and the system's reason, not the temp
    # file beside it, whose name holds the process id
    (tmp_path / "edge").mkdir()
    runs = [run_process("-m", "pushsplit", "split", "--n", "2", "--k", "2",
                        "--l", "0", "--out", "edge", cwd=tmp_path)
            for _ in range(2)]
    assert [done.returncode for done in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr == \
        b"error: cannot write output file edge: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edge"]
    assert list((tmp_path / "edge").iterdir()) == []


@pytest.mark.parametrize("kind, text, argv", (
    ("endo", (SRC.parent / "tests/fixtures/dense33.endo").read_text(),
     ["verify-endo", "--endo", "{}", "--json"]),
    ("table", (SRC.parent / "tests/fixtures/two_lines_p3.table").read_text(),
     ["pullback", "--model", "table:{}", "--k", "2", "--json"]),
    ("config", "n = 2\nk = 2\nl = 1\nformat = json\n",
     ["split", "--config", "{}"]),
), ids=("endo", "table", "config"))
def test_a_leading_byte_order_mark_is_dropped(capsys, tmp_path, kind, text,
                                              argv):
    # an editor's UTF-8 byte-order mark changes no answer; the file name
    # is the same in both runs, since answers quote it
    path = tmp_path / f"input.{kind}"
    answers = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(prefix + text.encode())
        answers.append(run(capsys, *(a.format(path) for a in argv)))
    assert answers[0][2] == "" and answers[1] == answers[0]


def test_a_non_utf8_byte_after_a_byte_order_mark_counts_the_mark(tmp_path):
    bad = tmp_path / "bad.endo"
    bad.write_bytes(b"\xef\xbb\xbfn = 1\xff")
    with pytest.raises(InputError, match=r"not UTF-8 \(byte 8\)"):
        load_endomorphism(str(bad))


def test_cli_module_entry_point_keeps_the_exit_code():
    done = run_process("-m", "pushsplit.cli", "verify-endo", "--endo",
                       "tests/fixtures/nonfinite12.endo")
    assert done.returncode == 1
    assert b"NOT_FINITE" in done.stdout


# Runs main() on each argv of argv[1] (JSON) in one interpreter and prints
# the exit codes, then whether numpy is loaded, before and after ranking
# the random map of argv[2].
NUMPY_PROBE = """
import contextlib, io, json, sys
from pushsplit.cli import main

def call(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

print([call(argv) for argv in json.loads(sys.argv[1])])
print("numpy" in sys.modules)
print(call(json.loads(sys.argv[2])), "numpy" in sys.modules)
"""


def test_closed_form_commands_never_load_numpy():
    closed_form = [
        ["split", "--n", "4", "--k", "2", "--l", "0"],
        ["split", "--n", "3", "--k", "3", "--l", "1", "--json"],
        ["pullback", "--model", "ci:2,2@4", "--k", "2"],
        ["pullback", "--model",
         "table:tests/fixtures/rational_quartic_p3.table", "--k", "2",
         "--csv"],
        ["adjoint", "--model", "ci:2,2@4", "--k", "2"],
        ["--help"],
    ]
    endo = ["verify-endo", "--random", "--n", "2", "--k", "2"]
    done = run_process("-c", NUMPY_PROBE, json.dumps(closed_form),
                       json.dumps(endo))
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().splitlines() == [
        "[0, 0, 0, 0, 0, 0]", "False", "0 True"]


def test_importing_the_cli_loads_every_traced_module():
    # bench/tracer.py wraps LAYERS in sys.modules["pushsplit.<module>"]
    # after importing only pushsplit.cli, so none of them may load lazily
    tracer = runpy.run_path(str(SRC.parent / "bench" / "tracer.py"))
    modules = sorted({f"pushsplit.{module}" for module, _ in tracer["LAYERS"]})
    done = run_process("-c", "import sys, pushsplit.cli; "
                       "print(sorted(m for m in sys.modules "
                       "if m.startswith('pushsplit.')))")
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout.decode())
    assert modules and [m for m in modules if m not in loaded] == []


def test_every_traced_function_resolves_after_importing_the_cli():
    # the tracer wraps each (module, name) of LAYERS by attribute, so a
    # renamed or deleted function would fail every traced bench run
    tracer = runpy.run_path(str(SRC.parent / "bench" / "tracer.py"))
    layers = sorted(tracer["LAYERS"])
    done = run_process("-c", "import sys, pushsplit.cli; print(["
                       "callable(getattr(sys.modules['pushsplit.' + m], f, None))"
                       f" for m, f in {layers!r}])")
    assert done.returncode == 0, done.stderr
    resolved = ast.literal_eval(done.stdout.decode())
    assert layers and [layer for layer, ok in zip(layers, resolved)
                       if not ok] == []


def spy_ranks(monkeypatch) -> list:
    """The names of the rank_mod and rank_rational calls made from now on,
    each call still computed."""
    calls = []
    for name in ("rank_mod", "rank_rational"):
        real = getattr(exactla, name)
        spy = (lambda m, *args, real=real, name=name:
               calls.append(name) or real(m, *args))
        # wherever the package holds the function, as the tracer wraps it
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("pushsplit") \
                    and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    return calls


def test_not_finite_verdict_is_one_elimination_per_prime(capsys, monkeypatch):
    # the socle matrix is ranked once modulo each default prime, Macaulay's
    # columns first; --exact adds the one certified rank over Q
    calls = spy_ranks(monkeypatch)
    endo = "tests/fixtures/dense33_nonfinite.endo"
    assert run(capsys, "verify-endo", "--endo", endo)[0] == 1
    assert calls == ["rank_mod"] * 2
    calls.clear()
    assert run(capsys, "verify-endo", "--endo", endo, "--exact")[0] == 1
    assert calls == ["rank_mod"] * 2 + ["rank_rational"]


def test_random_exact_ranks_the_kept_draw_once(capsys, monkeypatch):
    # a kept draw is FINITE, which --exact cannot change, so its report is
    # read back under the key the draw was validated with
    calls = spy_ranks(monkeypatch)
    argv = ("verify-endo", "--random", "--n", "2", "--k", "2")
    plain = run(capsys, *argv)
    assert plain[0] == 0 and calls == ["rank_mod"]
    endomorphism._finiteness_report.cache_clear()
    calls.clear()
    assert run(capsys, *argv, "--exact") == plain
    assert calls == ["rank_mod"]


def test_finiteness_is_decided_once_per_map_and_policy(capsys, monkeypatch):
    # cli.main called again in one process answers from the finiteness
    # cache with the bytes it printed cold, and ranks nothing
    calls = spy_ranks(monkeypatch)
    endo = "tests/fixtures/dense33.endo"
    series = [["verify-endo", "--endo", endo, "--json"]] + [
        ["split", "--endo", endo, "--l", str(l), "--json"] for l in range(3)]
    cold = [run(capsys, *argv) for argv in series]
    assert [code for code, _, _ in cold] == [0] * 4 and calls
    calls.clear()
    assert [run(capsys, *argv) for argv in series] == cold
    assert calls == []
    # the key holds the whole rank policy: other primes are another key
    code, out, _ = run(capsys, "verify-endo", "--endo", endo,
                       "--primes", "101", "--json")
    assert code == 0 and json.loads(out)["modular_ranks"][0][0] == 101
    assert calls and calls[0] == "rank_mod"
    # and so is --exact, which a NOT_FINITE verdict answers over Q
    nonfinite = ["verify-endo", "--endo",
                 "tests/fixtures/dense33_nonfinite.endo", "--json"]
    default = run(capsys, *nonfinite)
    exact = run(capsys, *nonfinite, "--exact")
    calls.clear()
    assert run(capsys, *nonfinite, "--exact") == exact
    assert run(capsys, *nonfinite) == default
    assert calls == []
    assert "rational_rank" in json.loads(exact[1])
    assert "rational_rank" not in json.loads(default[1])


def test_each_map_text_is_parsed_once_per_process(capsys, monkeypatch):
    # cli.main called again in one process reads the map file again but
    # answers from the parsed map, with the bytes it printed cold
    parsed = []
    real = polyring.parse_form
    monkeypatch.setattr(endomorphism, "parse_form",
                        lambda *args: parsed.append(args) or real(*args))
    endo = "tests/fixtures/dense33.endo"
    series = [["verify-endo", "--endo", endo, "--json"]] + [
        ["split", "--endo", endo, "--l", str(l), "--json"] for l in range(3)]
    cold = [run(capsys, *argv) for argv in series]
    assert [code for code, _, _ in cold] == [0] * 4 and parsed
    parsed.clear()
    assert [run(capsys, *argv) for argv in series] == cold
    assert parsed == []


def test_map_cache_is_keyed_by_the_text(capsys, tmp_path):
    # one path, two texts: the verdict follows the file's current text
    path = str(tmp_path / "map.endo")
    shutil.copy("tests/fixtures/dense33.endo", path)
    code, out, _ = run(capsys, "verify-endo", "--endo", path, "--json")
    assert (code, json.loads(out)["verdict"]) == (0, "FINITE")
    shutil.copy("tests/fixtures/dense33_nonfinite.endo", path)
    code, out, _ = run(capsys, "verify-endo", "--endo", path, "--json")
    assert (code, json.loads(out)["verdict"]) == (1, "NOT_FINITE")
    # one text, two paths: the same map
    other = str(tmp_path / "copy.endo")
    shutil.copy(path, other)
    assert load_endomorphism(other) is load_endomorphism(path)


def test_map_parse_errors_are_not_cached(capsys, tmp_path):
    # the same invalid text fails on every call, naming the path it came
    # from; a valid text later written to a failing path parses
    first, second = tmp_path / "first.endo", tmp_path / "second.endo"
    for path in (first, second):
        path.write_text("n = 1\nk = 2\nf0 = y0^2\n")
    for path in (first, second, first):
        code, out, err = run(capsys, "verify-endo", "--endo", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: missing required statement "
                       "'f1 = ...'\n")
    shutil.copy("tests/fixtures/perturbed22.endo", first)
    assert run(capsys, "verify-endo", "--endo", str(first))[0] == 0


def table_text(degrees, trange=(-8, 8)):
    """A table file of the complete intersection of ``degrees`` in P^4."""
    ci = KoszulTable(4, degrees)
    lo, hi = trange
    return "".join(
        [f"n=4\ndim={ci.dim}\ndegree={ci.degree}\n"
         f"omega_twist={ci.omega_twist}\ntrange={lo}..{hi}\n"
         "general_position=true\n"]
        + [f"h {i} {t} {ci.h(i, t)}\n"
           for i in range(ci.dim + 1) for t in range(lo, hi + 1)]
        + [f"hI {i} {t} {ci.hI(i, t)}\n"
           for i in range(5) for t in range(lo, hi + 1)])


def test_each_table_text_is_parsed_once_per_process(capsys, tmp_path):
    # cli.main called again in one process reads the table file again but
    # answers from the parsed table, with the bytes it printed cold
    path = tmp_path / "surface.table"
    path.write_text(table_text((2, 2)))
    model = f"table:{path}"
    series = [["pullback", "--model", model, "--k", "2", *flags]
              for flags in ([], ["--json"], ["--csv", "--lrange", "-1..3"])]
    series += [["adjoint", "--model", model, "--k", k] for k in ("2", "3")]
    cold = [run(capsys, *argv) for argv in series]
    assert [code for code, _, _ in cold] == [0] * 5
    assert varieties._parse_table.cache_info().misses == 1
    assert [run(capsys, *argv) for argv in series] == cold
    info = varieties._parse_table.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(series) - 1)


def test_table_cache_is_keyed_by_the_text(capsys, tmp_path):
    # one path, two texts: the answer follows the file's current text
    path = tmp_path / "surface.table"
    argv = ["pullback", "--model", f"table:{path}", "--k", "2", "--json"]
    answers = {}
    for degrees in ((2, 2), (2, 3), (2, 2)):
        path.write_text(table_text(degrees))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["degree"] == degrees[0] * degrees[1]
        assert answers.setdefault(degrees, out) == out
    # one text, two paths: the same table
    other = tmp_path / "copy.table"
    shutil.copy(path, other)
    assert varieties.load_custom_table(str(other)).table is \
        varieties.load_custom_table(str(path)).table


def test_table_parse_errors_are_not_cached(capsys, tmp_path):
    # the same invalid text fails on every call, naming the path it came
    # from; a valid text later written to a failing path parses
    first, second = tmp_path / "first.table", tmp_path / "second.table"
    for path in (first, second):
        path.write_text(table_text((2, 2)).replace("h 0 0 1\n", ""))
    for path in (first, second, first):
        code, out, err = run(capsys, "pullback", "--model", f"table:{path}",
                             "--k", "2")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: missing table row h 0 0\n"
    first.write_text(table_text((2, 2)))
    assert run(capsys, "pullback", "--model", f"table:{first}",
               "--k", "2")[0] == 0


def test_table_cache_is_bounded():
    size = varieties.TABLE_CACHE_SIZE
    assert varieties._parse_table.cache_info().maxsize == size
    for i in range(size + 5):
        varieties.parse_table(f"n=2\ndim=0\ndegree={i + 1}\n"
                              "omega_twist=none\ntrange=0..0\nh 0 0 1\n")
    assert varieties._parse_table.cache_info().currsize == size


@pytest.mark.parametrize("flag, value, expected", (
    ("lrange", "5..1", "a range a..b of integers with a <= b"),
    ("lrange", "1..x", "a range a..b of integers with a <= b"),
    ("general-position", "maybe", "true or false")))
def test_bad_flag_values_exit_2_with_a_plain_message(capsys, tmp_path, flag,
                                                     value, expected):
    argv = ["pullback", "--model", "ci:2@4", "--k", "2"]
    code, out, err = run_any(capsys, argv + [f"--{flag}={value}"])
    assert (code, out) == (2, b"")
    assert err.decode().splitlines()[-1] == (
        f"pushsplit pullback: error: argument --{flag}: "
        f"expected {expected}, got {value!r}")
    # the same value from a config file: exit 2, no traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    assert run_any(capsys, argv + ["--config", str(cfg)]) == (2, b"", (
        f"error: config value {flag}={value!r} is not valid\n").encode())


# Runs verify-endo with bench/tracer.py installed, as a traced bench run
# does; prints the output to stdout and the tracer's rank_mod count to
# stderr.
TRACED_RUN = """
import runpy, sys
import pushsplit.cli
tracer = runpy.run_path(sys.argv[1])["Tracer"]()
tracer.install()
code = pushsplit.cli.main(sys.argv[2:])
print(tracer.summary()["calls"].get("exactla.rank_mod", 0), file=sys.stderr)
sys.exit(code)
"""


def test_traced_verify_endo_keeps_its_output():
    # the tracer wraps rank_mod by attribute and reads its arguments, so a
    # change to how the rank layer is called must still trace
    argv = ["verify-endo", "--endo", "tests/fixtures/dense33_nonfinite.endo",
            "--json"]
    plain = run_process("-m", "pushsplit.cli", *argv, cwd=SRC.parent)
    traced = run_process("-c", TRACED_RUN,
                         str(SRC.parent / "bench" / "tracer.py"), *argv,
                         cwd=SRC.parent)
    assert (traced.returncode, plain.returncode) == (1, 1), traced.stderr
    assert traced.stdout == plain.stdout
    assert json.loads(plain.stdout)["verdict"] == "NOT_FINITE"
    assert traced.stderr.decode().split() == ["2"]


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
    "pullback_points": ["pullback", "--model", "ci:2,2,2,2@4", "--k", "3"],
    "pullback_narrow_large_k": ["pullback", "--model", "ci:2,2@4", "--k", "7",
                                "--lrange", "0..0"],
    "pullback_plane_past_table": ["pullback", "--model", "plane@4", "--k",
                                  "2", "--lrange", "122..123"],
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


def subparser(parser, command):
    return next(a for a in parser._actions if isinstance(
        a, argparse._SubParsersAction)).choices[command]


def run_any(capsys, argv):
    """Exit code, stdout and stderr bytes of ``main(argv)``, also when
    argparse exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def test_reused_parser_carries_nothing_between_calls(capsys, monkeypatch,
                                                     tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "run.cfg"
    # a value carried into the next call would make ``plain`` exit 2
    cfg.write_text("primes = 101,103\nformat = csv\n")
    plain = ["split", "--n", "4", "--k", "2", "--l", "0"]
    calls = [
        ["split", "--endo", "tests/fixtures/power42.endo", "--l", "1",
         "--config", str(cfg)],
        plain,
        ["split", "--bogus"],
        plain,
        ["pullback", "--model", "plane@4", "--k", "2", "--csv",
         "--lrange", "-2..4", "--general-position", "false"],
        ["--help"],
        [],
        ["frobnicate", "--k", "2"],
        ["pullback", "--model", "ci:2,2@4", "--k", "2"],
        ["split", "--n", "4", "--k", "2", "--l", "0", "--primes", "101"],
        plain,
    ]
    in_process = [run_any(capsys, argv) for argv in calls]
    fresh = [run_process("-m", "pushsplit", *argv) for argv in calls]
    assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0, 0, 2, 2, 0,
                                                   2, 0]


def test_help_is_formatted_when_printed(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    assert run_any(capsys, ["split", "--n", "4", "--k", "2", "--l", "0"])[0] \
        == 0
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("usage_split_help", "usage_split_bogus"):
        assert run_any(capsys, USAGE_CASES[name]) == golden(name)


def test_parser_is_built_once_per_process(capsys):
    for _ in range(3):
        assert run_any(capsys, ["split", "--n", "3", "--k", "2",
                                "--l", "1"])[0] == 0
        assert run_any(capsys, ["pullback", "--model", "p2",
                                "--k", "2"])[0] == 0
    assert run_any(capsys, ["--help"])[0] == 0
    assert run_any(capsys, ["frobnicate"])[0] == 2
    assert cli.build_parser.cache_info().misses == 1
    cli.build_parser.cache_clear()
    run_any(capsys, ["split", "--n", "3", "--k", "2", "--l", "1"])
    assert cli.build_parser.cache_info().misses == 1


# Argv and config files built from each subcommand's own flags, with small
# integers (so n, k and --lrange stay cheap), model-spec pieces and
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
        cli.build_parser(), command)._option_string_actions.items()
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


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_examples_print_what_they_show(capsys, tmp_path):
    # each `$ pushsplit ...` block of section Command line, run where the
    # first map of section File formats is map.endo; a block shows its
    # output whole, or up to a line "...", however indented
    map_text = re.search(r"```text\n(.*?)```", readme_section("File formats"),
                         re.S).group(1)
    (tmp_path / "map.endo").write_text(map_text)
    blocks = re.findall(r"```text\n\$ pushsplit (.*?)\n(.*?)```",
                        readme_section("Command line"), re.S)
    assert [argv.split()[0] for argv, _ in blocks] == \
        ["split", "verify-endo", "pullback", "adjoint"]
    with contextlib.chdir(tmp_path):
        for argv, shown in blocks:
            code, out, err = run_any(capsys, shlex.split(argv))
            assert code in (0, 1) and err == b"", argv
            shown = shown.splitlines()
            cut = next((i for i, line in enumerate(shown)
                        if line.strip() == "..."), None)
            printed = out.decode().splitlines()
            assert printed[:cut] == shown[:cut], argv
