import io
import json
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from multisec import cli


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "multisec", *args],
                          capture_output=True, text=True)


def test_enriques_json_exit_zero():
    result = run_cli("enriques", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "verified"
    assert payload["results"]["min_degree"]["exact"] == 3
    assert payload["results"]["index"]["exact"] == 1
    assert payload["results"]["divisors"] == [4, 6, 3]
    assert payload["results"]["cover_divisors"] == [8, 12, 6]


def test_hypersurface_5_2():
    result = run_cli("hypersurface", "--d", "5", "--n", "2", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["results"]["divisors"] == [5, 10]
    assert payload["results"]["min_degree"]["exact"] == 5
    assert payload["results"]["index"]["lower_divisor"] == 5


def test_semigroup_query_is_info():
    result = run_cli("semigroup", "--d", "5", "--n", "2", "--query", "7", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "info"
    assert payload["results"]["contains"] is False


def test_witness_with_e():
    result = run_cli("witness", "--a", "1", "--b", "1", "--e", "4", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert (payload["results"]["a"], payload["results"]["b"]) == (1, 2)
    assert payload["results"]["no_section_ok"] is True


def test_witness_with_e_of_thirteen_digits():
    # a scan linear in e would take hours here
    result = run_cli("witness", "--a", "1", "--b", "1", "--e", str(10 ** 12), "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert (payload["results"]["a"], payload["results"]["b"]) == (1, 250000000001)
    assert payload["results"]["no_section_ok"] is True


def test_witness_without_e():
    result = run_cli("witness", "--a", "2", "--b", "2", "--json")
    payload = json.loads(result.stdout)
    assert payload["results"]["span_bound"] == 13
    assert "e" not in payload["results"]


def test_verify_construction_text_verdict():
    result = run_cli("verify-construction")
    assert result.returncode == 0
    assert result.stdout.rstrip().endswith("verdict: verified")
    assert "(informational)" in result.stdout


@pytest.mark.parametrize("args", [
    ("enriques", "--json"),
    ("hypersurface", "--d", "6", "--n", "3", "--json"),
    ("semigroup", "--d", "4", "--n", "2", "--query", "10", "--json"),
    ("witness", "--a", "2", "--b", "3", "--e", "19", "--json"),
    ("verify-construction", "--json"),
])
def test_json_byte_identical_across_runs(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_json_round_trips_byte_identical():
    result = run_cli("enriques", "--json")
    payload = json.loads(result.stdout)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == result.stdout


def test_bad_flag_value_exits_2_and_names_flag():
    result = run_cli("hypersurface", "--d", "0", "--n", "2")
    assert result.returncode == 2
    assert "--d" in result.stderr


def test_missing_flag_exits_2():
    result = run_cli("hypersurface", "--d", "5")
    assert result.returncode == 2


def test_zero_sample_exits_2():
    result = run_cli("verify-construction", "--samples", "0,1")
    assert result.returncode == 2
    assert "--samples" in result.stderr or "samples" in result.stderr


@pytest.mark.parametrize("samples", ["1,1", "1,2/2"])
def test_repeated_sample_exits_2_and_names_flag(samples, capsys):
    assert cli.main(["verify-construction", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert "--samples" in captured.err
    assert captured.out == ""


def test_negative_first_sample_needs_equals_form(capsys):
    assert cli.main(["verify-construction", "--samples=-1,2"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("verdict: verified")


def test_unknown_subcommand_exits_2():
    result = run_cli("frobenius")
    assert result.returncode == 2


def test_refuted_verdict_exits_1(monkeypatch, capsys):
    from multisec import construct

    jp = construct.corrected_jprime()
    # swapping two same-block entries keeps every check computable while
    # failing the equivariance, oracle, and table comparisons
    entries = (jp.entries[1], jp.entries[0]) + jp.entries[2:]
    swapped = construct.ProjectiveCurveMap(jp.source_vars, entries, jp.target_labels)
    monkeypatch.setattr(cli.construct, "corrected_jprime", lambda: swapped)
    code = cli.main(["verify-construction", "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: refuted" in out
    assert "FAIL" in out


def test_internal_fault_exits_3_with_one_stderr_line(monkeypatch, capsys):
    def fault():
        raise RuntimeError("injected")
    monkeypatch.setattr(cli.strata, "check_enriques_pencil", fault)
    for argv in (["enriques"], ["enriques", "--json"]):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "enriques" in captured.err and "RuntimeError" in captured.err


def test_exit_code_is_function_of_verdict():
    # same command, in-process: verified -> 0
    code = cli.main(["enriques"])
    assert code == 0


@pytest.mark.parametrize("d, n, contains", [(6, 3, True), (6, 1, False)])
def test_semigroup_query_of_thirty_one_digits(d, n, contains, capsys):
    # {6, 15, 20} is coprime; {6} rejects 10^30 by the gcd test
    start = time.perf_counter()
    assert cli.main(["semigroup", "--d", str(d), "--n", str(n),
                     "--query", str(10 ** 30), "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["results"]["contains"] is contains


def test_semigroup_query_of_a_million_stays_small(capsys):
    # traced allocations, not ru_maxrss: a child of this process inherits
    # its peak RSS on Linux, which would hide an 8 MB query-sized table
    tracemalloc.start()
    try:
        assert cli.main(["semigroup", "--d", "6", "--n", "3",
                         "--query", "1000000", "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert json.loads(capsys.readouterr().out)["results"]["contains"] is True


def test_hypersurface_at_the_d_cap_stays_small(capsys):
    # d = 17 builds the image rows of every stratum: traced peak 17.6 MiB with
    # tuple-coded subsets and label strings, about 4.2 MiB with bitmasks while
    # each stratum kept its action, about 3.4 MiB now that each is freed
    tracemalloc.start()
    try:
        assert cli.main(["hypersurface", "--d", "17", "--n", "17", "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "verified"
    assert payload["results"]["divisors"] == [comb(17, i) for i in range(1, 18)]


@pytest.mark.parametrize("subcommand", [["hypersurface"], ["semigroup", "--query", "3"]])
def test_d_above_cap_exits_2_and_names_flag(subcommand, monkeypatch, capsys):
    assert cli.MAX_D >= 14  # the largest d the benchmark runs
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started past the cap")
    monkeypatch.setattr(cli.strata, "check_hypersurface_pencil", refuse)
    monkeypatch.setattr(cli.semigroup, "sdn_generators", refuse)
    argv = subcommand + ["--d", str(cli.MAX_D + 1), "--n", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "--d" in captured.err
    assert captured.out == ""


def test_d_at_cap_answers():
    result = run_cli("hypersurface", "--d", str(cli.MAX_D), "--n", "2", "--json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["results"]["divisors"] == [
        cli.MAX_D, cli.MAX_D * (cli.MAX_D - 1) // 2]


def test_e_above_cap_exits_2_at_once(monkeypatch, capsys):
    assert cli.MAX_E >= 10 ** 12
    def refuse(*args):
        raise AssertionError("witness search started past the cap")
    monkeypatch.setattr(cli.witness, "choose_ab_and_certify", refuse)
    start = time.perf_counter()
    assert cli.main(["witness", "--a", "1", "--b", "1", "--e", str(cli.MAX_E + 1)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "--e" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--a", "--b"])
@pytest.mark.parametrize("value", [
    str(cli.MAX_E + 1),
    "9" * 3000,  # printed a traceback with exit 1 as n = 4ab was rendered
])
def test_witness_block_size_above_cap_exits_2_and_names_flag(flag, value, monkeypatch,
                                                             capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("witness arithmetic started past the cap")
    monkeypatch.setattr(cli.witness, "check_witness", refuse)
    monkeypatch.setattr(cli.witness, "choose_ab_and_certify", refuse)
    sizes = {"--a": "1", "--b": "1", flag: value}
    for extra in ([], ["--e", "4"]):
        assert cli.main(["witness", "--a", sizes["--a"], "--b", sizes["--b"],
                         *extra, "--json"]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be at most {cli.MAX_E}" in captured.err
        assert captured.out == ""


def test_witness_block_sizes_at_cap_answer(capsys):
    cap = str(cli.MAX_E)
    assert cli.main(["witness", "--a", cap, "--b", cap, "--e", cap, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["n"] == 4 * cli.MAX_E ** 2
    assert payload["verdict"] == "verified"


def _refuse_derivation(monkeypatch):
    def refuse(*args):
        raise AssertionError("derivation started past a --samples cap")
    monkeypatch.setattr(cli, "run_verify_construction", refuse)


@pytest.mark.parametrize("samples", [
    "1e5000",                  # ran 10 s, then a traceback with exit 1
    "1e100000000",             # hung in Fraction() building 10^(10^8)
    f"2,1e-{cli.MAX_HEIGHT_DIGITS + 1}",
    str(10 ** cli.MAX_HEIGHT_DIGITS + 1),
    f"-{10 ** cli.MAX_HEIGHT_DIGITS + 1}",
    f"1/{10 ** cli.MAX_HEIGHT_DIGITS + 1}",
    "0." + "0" * cli.MAX_HEIGHT_DIGITS + "1",
    ",".join(str(k) for k in range(1, cli.MAX_SAMPLES + 2)),
])
def test_samples_past_a_cap_exit_2_at_once(samples, monkeypatch, capsys):
    _refuse_derivation(monkeypatch)
    start = time.perf_counter()
    assert cli.main(["verify-construction", "--samples=" + samples]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "--samples" in captured.err
    assert captured.out == ""


def test_samples_at_the_caps_are_accepted(monkeypatch):
    seen = []
    def record(samples):
        seen.append(samples)
        return {"subcommand": "verify-construction", "inputs": {}, "results": {},
                "verdict": "verified"}
    monkeypatch.setattr(cli, "run_verify_construction", record)
    cap = 10 ** cli.MAX_HEIGHT_DIGITS
    samples = [f"1e{cli.MAX_HEIGHT_DIGITS}", f"-1/{cap}", f"{cap - 1}/{cap}"]
    samples += [str(k) for k in range(2, cli.MAX_SAMPLES - 1)]
    assert len(samples) == cli.MAX_SAMPLES
    assert cli.main(["verify-construction", "--samples=" + ",".join(samples)]) == 0
    assert seen[0][:3] == (Fraction(cap), Fraction(-1, cap), Fraction(cap - 1, cap))


def test_samples_cap_is_64_values(capsys):
    # literal lists, so a raised or lost cap fails here
    assert cli.main(["verify-construction", "--json",
                     "--samples=" + ",".join(str(k) for k in range(1, 65))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["inputs"]["samples"]) == 64
    assert payload["verdict"] == "verified"
    assert cli.main(["verify-construction", "--json",
                     "--samples=" + ",".join(str(k) for k in range(1, 66))]) == 2
    captured = capsys.readouterr()
    assert "--samples" in captured.err
    assert captured.out == ""


# integer flag values: in range, at and past each cap, negative, zero,
# exponent and decimal forms, and integers at and past the 4,300-digit limit
integer_values = st.one_of(
    st.integers(-3, 20).map(str),
    st.sampled_from([
        "0", "-1", str(cli.MAX_D + 1), str(cli.MAX_E), str(cli.MAX_E + 1), str(10 ** 30),
        "1e5", "-1e5", "2.5", "", "x", "9" * 4300, "-" + "9" * 4300, "9" * 4301]),
)
sample_values = st.one_of(
    st.integers(-10 ** 4, 10 ** 4).map(str),
    st.builds("{}/{}".format, st.integers(-10 ** 6, 10 ** 6), st.integers(-2, 10 ** 6)),
    st.sampled_from([
        "1e100", "-1e-100", "1e101", "1e5000", "1e100000000", "1e", "e5", "0.5", "1/0",
        "1_000", "", "9" * 4300, "9" * 4301, "0." + "0" * 4000 + "1"]),
)
sample_lists = st.one_of(
    st.lists(sample_values, min_size=1, max_size=3).map(",".join),
    st.sampled_from([",".join(str(k) for k in range(1, cli.MAX_SAMPLES + 2)),
                     ",".join(["1e100"] * 2)]),
)
FLAGS = {
    "hypersurface": ("--d", "--n"),
    "enriques": (),
    "semigroup": ("--d", "--n", "--query"),
    "verify-construction": ("--samples",),
    "witness": ("--a", "--b", "--e"),
}


@st.composite
def command_lines(draw):
    subcommand = draw(st.sampled_from(sorted(FLAGS)))
    argv = [subcommand]
    for flag in FLAGS[subcommand]:
        if draw(st.integers(0, 9)):  # one flag in ten left out
            value = draw(sample_lists if flag == "--samples" else integer_values)
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _verdict(argv, out):
    if "--json" in argv:
        return json.loads(out)["verdict"]
    return out.rstrip().rpartition("verdict: ")[2]


# The slowest cold run at a cap in the README table is 0.78 s (`witness --a 1
# --b 1 --e 10^12`; 64 samples of height 10^100 take 0.10 s).  Ten times
# that leaves room for a slow or loaded host, while a flag that lost its cap
# (an O(e) witness scan, 2^d subsets past d = 17) runs far longer.
WALL_BOUND_S = 8.0


class PastWallBound(BaseException):
    """Raised by the alarm; not an Exception, so `cli.main` cannot catch it."""


def _past_wall_bound(signum, frame):
    raise PastWallBound


# a drawn command can reach a cap (hypersurface at d = 17, witness at e = 10^12);
# the examples sit past each cap with valid companion flags, so a lost cap
# runs past the wall bound instead of relying on the draw
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
@example(["witness", "--a", "1", "--b", "1", "--e", str(10 ** 30)])
@example(["hypersurface", "--d", "64", "--n", "64"])
@example(["semigroup", "--d", "64", "--n", "64", "--query", str(10 ** 30)])
@example(["verify-construction", "--samples=" + ",".join(map(str, range(1, 66)))])
@example(["verify-construction", "--samples=1e101"])
def test_any_command_line_exits_by_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _past_wall_bound)
    signal.setitimer(signal.ITIMER_REAL, WALL_BOUND_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses a flag with exit 2
        code = exc.code
    except PastWallBound:
        code = f"still running after {WALL_BOUND_S} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue(), argv
    else:
        expected = ("refuted",) if code == 1 else ("verified", "info")
        assert _verdict(argv, out.getvalue()) in expected, argv
