import json
import subprocess
import sys
from pathlib import Path

import pytest

from ptasynth import jsonio

GATE = """clocks: x
params: p
loc q0 init inv: true
loc q1 inv: true
edge q0 -> q1 : x >= 2 & x <= p ; a ;
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "gate.pta").write_text(GATE)
    (tmp_path / "ef.prop").write_text("EF q1\n")
    (tmp_path / "empty.prop").write_text("EF (q1 && x <= 1)\n")
    (tmp_path / "bad.pta").write_text("clocks: x\nloc q0 init inv: true\nedge q0 -> q9 : true ; a ;\n")
    (tmp_path / "run0.txt").write_text("0\n")
    return tmp_path


def cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "ptasynth.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def golden(name: str) -> str:
    return (Path(__file__).parent / "golden" / name).read_text()


def test_parse_ok_and_error_exit_codes(workdir):
    ok = cli("parse", "--model", str(workdir / "gate.pta"))
    assert ok.returncode == 0
    assert "parametric clocks: x" in ok.stdout
    bad = cli("parse", "--model", str(workdir / "bad.pta"))
    assert bad.returncode == 2
    assert "q9" in bad.stderr


def test_check_verdicts(workdir):
    sat = cli("check", "--model", str(workdir / "gate.pta"), "--prop",
              str(workdir / "ef.prop"), "--set", "p=5")
    assert sat.returncode == 0 and "verdict: sat" in sat.stdout
    unsat = cli("check", "--model", str(workdir / "gate.pta"), "--prop",
                str(workdir / "ef.prop"), "--set", "p=1")
    assert unsat.returncode == 0 and "verdict: unsat" in unsat.stdout


def test_synth_region_and_empty_exit(workdir):
    out = workdir / "region.json"
    res = cli("synth", "--model", str(workdir / "gate.pta"), "--prop",
              str(workdir / "ef.prop"), "--out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    jsonio.validate(payload, jsonio.load_schema("region"))
    assert payload["empty"] is False

    res2 = cli("synth", "--model", str(workdir / "gate.pta"), "--prop",
               str(workdir / "empty.prop"), "--out", str(out))
    assert res2.returncode == 3
    payload2 = json.loads(out.read_text())
    jsonio.validate(payload2, jsonio.load_schema("region"))
    assert payload2["empty"] is True


def test_synth_reads_zero_exponent_as_one(workdir):
    """p^0 is 1, so no p lets a clock be at least 3 and at most p^0."""
    (workdir / "zero.pta").write_text(GATE.replace("x >= 2 & x <= p", "x >= 3 & x <= p^0"))
    res = cli("synth", "--model", str(workdir / "zero.pta"), "--prop", str(workdir / "ef.prop"))
    assert res.returncode == 3
    assert "feasible region is empty" in res.stdout


def test_synth_output_bytes_are_stable(workdir):
    args = ("synth", "--model", str(workdir / "gate.pta"), "--prop",
            str(workdir / "ef.prop"))
    first, second = cli(*args), cli(*args)
    assert first.stdout == second.stdout


def test_oracle_json_schema(workdir):
    out = workdir / "oracle.json"
    res = cli("oracle", "--model", str(workdir / "gate.pta"), "--prop",
              str(workdir / "ef.prop"), "--grid", "p=0..5", "--time", "nat",
              "--out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    jsonio.validate(payload, jsonio.load_schema("oracle"))
    verdicts = [pt["satisfied"] for pt in payload["points"]]
    assert verdicts == [False, False, True, True, True, True]
    assert out.read_text() == golden("cli_oracle.json")


def test_check_json_schema(workdir):
    out = workdir / "check.json"
    res = cli("check", "--model", str(workdir / "gate.pta"), "--prop",
              str(workdir / "ef.prop"), "--set", "p=5", "--out", str(out))
    assert res.returncode == 0
    jsonio.validate(json.loads(out.read_text()), jsonio.load_schema("check"))
    assert out.read_text() == golden("cli_check.json")


def test_feasible_and_runs(workdir):
    res = cli("feasible", "--model", str(workdir / "gate.pta"), "--run",
              str(workdir / "run0.txt"), "--set", "p=5")
    assert res.returncode == 0
    assert "feasible: True" in res.stdout
    assert "witness replays: True" in res.stdout
    res2 = cli("runs", "--model", str(workdir / "gate.pta"), "--max-len", "1")
    assert res2.stdout.splitlines() == ["-  (q0)", "0  (q0 -> q1)"]


RESET_RUN = """clocks: x
loc q0 init inv: true
loc q1 inv: true
loc q2 inv: true
loc q3 inv: true
loc q4 inv: true
edge q0 -> q1 : true ; a ;
edge q1 -> q2 : true ; b ; reset x:=4
edge q2 -> q3 : true ; c ;
edge q3 -> q4 : x <= 3 ; d ;
"""


def test_feasible_reason_names_the_failing_pair(tmp_path):
    (tmp_path / "reset.pta").write_text(RESET_RUN)
    (tmp_path / "run.txt").write_text("0 1 2 3\n")
    res = cli("feasible", "--model", str(tmp_path / "reset.pta"), "--run",
              str(tmp_path / "run.txt"))
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "failing pair: steps 2 and 4" in lines
    assert ("reason: no admissible value between the lower bound of step 2 "
            "and the upper bound of step 4") in lines


def test_missing_set_is_usage_error(workdir):
    res = cli("check", "--model", str(workdir / "gate.pta"), "--prop",
              str(workdir / "ef.prop"))
    assert res.returncode == 2


def test_selftest_quick_deterministic():
    a = cli("selftest", "--seed", "42", "--quick")
    b = cli("selftest", "--seed", "42", "--quick")
    assert a.returncode == 0, a.stdout + a.stderr
    assert a.stdout == b.stdout
    assert "selftest: PASS" in a.stdout


def test_analyze2_probe_schema(tmp_path):
    from importlib import resources
    base = resources.files("ptasynth").joinpath("data/twoone")
    out = tmp_path / "probe.json"
    res = cli("analyze2", "--model", str(base / "m03_even_pacer.pta"),
              "--prop", str(base / "m03_even_pacer.prop"), "--out", str(out))
    assert res.returncode == 0
    assert "EXPERIMENTAL" in res.stdout
    jsonio.validate(json.loads(out.read_text()), jsonio.load_schema("probe"))
    assert out.read_text() == golden("cli_probe_m03.json")


def test_scan_run_rejects_unknown_parameters(tmp_path):
    from importlib import resources
    model = resources.files("ptasynth").joinpath("data/twoone/m01_upward_gate.pta")
    trace = tmp_path / "trace.json"
    args = ("scan-run", "--model", str(model), "--trace", str(trace), "--lemma", "oneP4")
    trace.write_text('{"steps": [{"delay": "2", "edge": 0}], "valuation": {"p": "3"}}')
    assert cli(*args).returncode == 0
    assert cli(*args, "--set", "p=4").returncode == 0
    for extra in (("--set", "q=3"), ("--set", "p=4", "--set", "q=3")):
        res = cli(*args, *extra)
        assert res.returncode == 2 and "unknown parameter 'q'" in res.stderr, extra
    trace.write_text('{"steps": [{"delay": "2", "edge": 0}], "valuation": {"p": "3", "q": "1"}}')
    res = cli(*args)
    assert res.returncode == 2 and "unknown parameter 'q'" in res.stderr


def test_decompose_requires_prop(workdir):
    res = cli("decompose", "--model", str(workdir / "gate.pta"))
    assert res.returncode == 2 and "--prop" in res.stderr
    res = cli("decompose", "--model", str(workdir / "gate.pta"), "--prop",
              str(workdir / "ef.prop"))
    assert res.returncode == 0 and res.stdout.startswith("method: cad1")


def test_scan_run_rejects_malformed_traces(tmp_path):
    from importlib import resources
    model = resources.files("ptasynth").joinpath("data/twoone/m01_upward_gate.pta")
    trace = tmp_path / "trace.json"
    args = ("scan-run", "--model", str(model), "--trace", str(trace), "--lemma", "oneP4",
            "--set", "p=3")
    for text in ('{"steps": [{"delay": "2"}]}', '{"steps": [{"edge": 0}]}',
                 '{"steps": [3]}', '[{"delay": "2", "edge": 0}]', '{"steps": 3}',
                 '{"steps": [], "valuation": ["p", 3]}',
                 '{"steps": [{"delay": "2", "edge": 0.9}]}',
                 '{"steps": [{"delay": "2", "edge": true}]}',
                 '{"steps": [{"delay": "2", "edge": "0"}]}'):
        trace.write_text(text)
        res = cli(*args)
        assert res.returncode == 2, (text, res.stderr)
        assert res.stderr.startswith("error: malformed trace: "), (text, res.stderr)
        assert "Traceback" not in res.stderr


def test_bad_numbers_are_usage_errors(workdir, tmp_path):
    # a zero denominator or a non-integer part is a usage error naming the
    # text, not a traceback
    for value in ("1/0", "1.5"):
        res = cli("check", "--model", str(workdir / "gate.pta"), "--prop",
                  str(workdir / "ef.prop"), "--set", "p=" + value)
        assert res.returncode == 2, (value, res.stderr)
        assert res.stderr.splitlines() == [
            "error: expected an integer or a fraction a/b with b nonzero, got %r" % value]
    from importlib import resources
    model = resources.files("ptasynth").joinpath("data/twoone/m01_upward_gate.pta")
    trace = tmp_path / "trace.json"
    for text in ('{"steps": [{"delay": "1/0", "edge": 0}], "valuation": {"p": "3"}}',
                 '{"steps": [], "final_delay": "1/0", "valuation": {"p": "3"}}',
                 '{"steps": [], "valuation": {"p": "1/0"}}'):
        trace.write_text(text)
        res = cli("scan-run", "--model", str(model), "--trace", str(trace), "--lemma", "oneP4")
        assert res.returncode == 2, (text, res.stderr)
        assert res.stderr.splitlines() == [
            "error: expected an integer or a fraction a/b with b nonzero, got '1/0'"], text


def test_nat_time_real_parameters_are_rejected(tmp_path):
    model, prop, run = tmp_path / "m.pta", tmp_path / "ef.prop", tmp_path / "run0.txt"
    model.write_text(GATE.replace("clocks: x\n", "clocks: x\ndomain: time=nat param=real\n")
                     .replace("x >= 2 & x <= p", "x >= p & x <= p"))
    prop.write_text("EF q1\n")
    run.write_text("0\n")
    common = ("--model", str(model), "--prop", str(prop))
    for args in (("synth", *common), ("decompose", *common),
                 ("run-region", *common, "--run", str(run))):
        res = cli(*args)
        assert res.returncode == 2, args
        assert "error: synthesis in nat time needs int or nat parameters" in res.stderr
    res = cli("check", *common, "--set", "p=3/2")
    assert res.returncode == 0 and "verdict: unsat" in res.stdout
