import subprocess
import sys
from pathlib import Path

import pytest

from swarmlang import behaviors
from swarmlang.cli import main

GOOD = 'a = 1\nfunction step() { print("hi ", id) }\n'


def invoke(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def workspace(tmp_path):
    src = tmp_path / "script.swl"
    src.write_text(GOOD)
    return tmp_path, src


def test_compile_ok(workspace, capsys):
    tmp, src = workspace
    out_bo = tmp / "script.bo"
    code, _, err = invoke(["compile", str(src), "-o", str(out_bo)], capsys)
    assert code == 0 and err == ""
    assert out_bo.exists() and out_bo.read_bytes()[:4] == b"SWBC"


def test_compile_syntax_error_diagnostic(workspace, capsys):
    tmp, _ = workspace
    bad = tmp / "bad.swl"
    bad.write_text("while(")
    code, _, err = invoke(["compile", str(bad), "-o", str(tmp / "x.bo")],
                          capsys)
    assert code == 1
    assert "bad.swl:1:" in err


def test_compile_missing_file_io_error(workspace, capsys):
    tmp, _ = workspace
    code, _, err = invoke(["compile", str(tmp / "none.swl"),
                           "-o", str(tmp / "x.bo")], capsys)
    assert code == 3
    assert "io error" in err


def test_unknown_flag_exits_2(workspace):
    tmp, src = workspace
    with pytest.raises(SystemExit) as exc:
        main(["compile", str(src), "--bogus"])
    assert exc.value.code == 2


def test_disasm_round_trips(workspace, capsys):
    tmp, src = workspace
    out_bo = tmp / "script.bo"
    invoke(["compile", str(src), "-o", str(out_bo)], capsys)
    code, out, _ = invoke(["disasm", str(out_bo)], capsys)
    assert code == 0
    assert out.startswith(".image 1")
    from swarmlang.asm import assemble
    assert assemble(out).encode() == out_bo.read_bytes()


def test_run_prints_output_and_globals(workspace, capsys):
    tmp, src = workspace
    out_bo = tmp / "script.bo"
    invoke(["compile", str(src), "-o", str(out_bo)], capsys)
    code, out, _ = invoke(["run", str(out_bo), "--robot-id", "5",
                           "--steps", "1"], capsys)
    assert code == 0
    assert "hi 5" in out
    assert "a = 1" in out


def test_run_faulted_vm_exits_4(workspace, capsys):
    tmp, _ = workspace
    bad = tmp / "fault.swl"
    bad.write_text("x = no_such_fn(1)\n")
    out_bo = tmp / "fault.bo"
    invoke(["compile", str(bad), "-o", str(out_bo)], capsys)
    code, _, err = invoke(["run", str(out_bo)], capsys)
    assert code == 4
    assert "fault.swl:1:" in err


# Checked-in images made by patching bytes of compiled scripts:
# bad_string_index.bo is `s = "hi"` with PUSHS's operand set to 200, and
# stack_underflow.bo is `a = 1` with PUSHI 1 replaced by GSTORE "a", which
# pops an empty stack.
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("command", ["run", "disasm"])
@pytest.mark.parametrize("image, reason", [
    ("bad_string_index.bo", "string index 200 out of range"),
    ("stack_underflow.bo", "stack underflow"),
])
def test_corrupt_image_exits_1_without_traceback(command, image, reason,
                                                 capsys):
    code, out, err = invoke([command, str(DATA / image)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and reason in err
    assert "Traceback" not in err


def test_run_steps_zero_is_load_only(workspace, capsys):
    tmp, src = workspace
    out_bo = tmp / "script.bo"
    invoke(["compile", str(src), "-o", str(out_bo)], capsys)
    code, out, _ = invoke(["run", str(out_bo), "--steps", "0"], capsys)
    assert code == 0
    assert "hi" not in out  # step never ran, so no script output


def test_run_negative_steps_is_a_usage_error(workspace, capsys):
    tmp, src = workspace
    out_bo = tmp / "script.bo"
    invoke(["compile", str(src), "-o", str(out_bo)], capsys)
    code, out, err = invoke(["run", str(out_bo), "--steps", "-1"], capsys)
    assert code == 2
    assert err == "usage error: --steps must be >= 0\n" and out == ""


def test_run_with_mock_set_binds_actuators(workspace, capsys):
    tmp, _ = workspace
    src = tmp / "wheels.swl"
    src.write_text("function step() { set_wheels(10.0, 5.0) }\n")
    out_bo = tmp / "wheels.bo"
    invoke(["compile", str(src), "-o", str(out_bo)], capsys)
    code, _, _ = invoke(["run", str(out_bo), "--bind", "mock-set"], capsys)
    assert code == 0


def test_sim_outputs_parseable_csv(capsys):
    code, out, _ = invoke(["sim", "--script", "consensus", "--robots", "8",
                           "--drop-prob", "0", "--seed", "3",
                           "--max-steps", "30"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,converged,min,median,max"
    assert lines[-1].startswith("converged,")


def test_sim_rejects_bad_drop_prob(capsys):
    code, _, err = invoke(["sim", "--script", "consensus", "--robots", "8",
                           "--drop-prob", "1.5"], capsys)
    assert code == 2


def test_sweep_row_count(workspace, capsys):
    tmp, _ = workspace
    out_csv = tmp / "data.csv"
    code, out, _ = invoke(["sweep", "--script", "consensus",
                           "--robots", "6,8", "--drop-prob", "0,0.5",
                           "--reps", "2", "--seed", "1", "--max-steps", "40",
                           "--out", str(out_csv)], capsys)
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "experiment,N,P,rep,seed,converged,steps"
    assert len(lines) == 1 + 2 * 2 * 2
    summary = (tmp / "data_summary.csv").read_text().splitlines()
    assert summary[0] == "experiment,N,P,median,min,max"


def test_sweep_reps_zero_header_only(workspace, capsys):
    tmp, _ = workspace
    out_csv = tmp / "empty.csv"
    code, _, _ = invoke(["sweep", "--script", "consensus", "--robots", "6",
                         "--drop-prob", "0", "--reps", "0",
                         "--out", str(out_csv)], capsys)
    assert code == 0
    assert out_csv.read_text() == "experiment,N,P,rep,seed,converged,steps\n"


def test_sweep_same_seed_identical_output(workspace, capsys):
    tmp, _ = workspace
    a, b = tmp / "a.csv", tmp / "b.csv"
    argv = ["sweep", "--script", "consensus", "--robots", "6",
            "--drop-prob", "0,0.5", "--reps", "2", "--seed", "9",
            "--max-steps", "40"]
    assert invoke(argv + ["--out", str(a)], capsys)[0] == 0
    assert invoke(argv + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_gnuplot_output(workspace, capsys):
    tmp, _ = workspace
    out_csv = tmp / "g.csv"
    code, _, _ = invoke(["sweep", "--script", "consensus", "--robots", "6",
                         "--drop-prob", "0", "--reps", "1",
                         "--out", str(out_csv), "--gnuplot"], capsys)
    assert code == 0
    dat = (tmp / "g_summary.dat").read_text().splitlines()
    assert dat[0].startswith("# experiment N P")


def test_console_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "swarmlang.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "compile" in proc.stdout and "sweep" in proc.stdout


def test_env_var_worker_cap_does_not_change_csv(workspace, tmp_path):
    argv_base = [sys.executable, "-m", "swarmlang.cli", "sweep", "--script",
                 "consensus", "--robots", "6", "--drop-prob", "0,0.5",
                 "--reps", "2", "--seed", "4", "--max-steps", "40"]
    outputs = []
    for workers in ("1", "2"):
        out_csv = tmp_path / f"w{workers}.csv"
        proc = subprocess.run(argv_base + ["--out", str(out_csv)],
                              capture_output=True, text=True,
                              env=_env_with(SWARMLANG_THREADS=workers))
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1]


def _env_with(**extra):
    import os
    env = dict(os.environ)
    env.update(extra)
    return env


# --- user scripts: --script path.swl --readout GLOBAL ----------------------

def test_sweep_user_script_rows_carry_path_as_given(workspace, capsys,
                                                    monkeypatch):
    tmp, _ = workspace
    (tmp / "one.swl").write_text("x = 1\n")
    monkeypatch.chdir(tmp)
    code, _, err = invoke(["sweep", "--script", "one.swl", "--readout", "x",
                           "--convergence", "all-ones", "--robots", "3,4",
                           "--drop-prob", "0", "--reps", "2",
                           "--out", "data.csv"], capsys)
    assert code == 0, err
    rows = (tmp / "data.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(r.startswith("one.swl,") and r.endswith(",1,1")
               for r in rows)
    summary = (tmp / "data_summary.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in summary] == ["one.swl", "one.swl"]


@pytest.mark.parametrize("command,extra", [
    ("sim", []),
    ("sweep", ["--reps", "1", "--out", "x.csv"]),
    ("sweep", ["--reps", "0", "--out", "x.csv"]),
], ids=["sim", "sweep", "sweep-reps-0"])
def test_user_script_without_readout_exits_2(workspace, capsys, monkeypatch,
                                             command, extra):
    tmp, src = workspace
    monkeypatch.chdir(tmp)
    code, _, err = invoke([command, "--script", str(src), "--robots", "3"]
                          + extra, capsys)
    assert code == 2
    assert "--readout" in err


@pytest.mark.parametrize("command,extra", [
    ("sim", []),
    ("sweep", ["--reps", "1", "--out", "x.csv"]),
], ids=["sim", "sweep"])
def test_missing_user_script_exits_3(workspace, capsys, monkeypatch,
                                    command, extra):
    tmp, _ = workspace
    monkeypatch.chdir(tmp)
    code, _, err = invoke([command, "--script", "none.swl", "--readout", "x",
                           "--robots", "3"] + extra, capsys)
    assert code == 3
    assert "io error" in err


@pytest.mark.parametrize("command,extra", [
    ("compile", ["-o", "x.bo"]),
    ("sim", ["--readout", "x", "--robots", "3"]),
    ("sweep", ["--readout", "x", "--robots", "3", "--reps", "1",
               "--out", "x.csv"]),
], ids=["compile", "sim", "sweep"])
def test_non_utf8_script_exits_1(workspace, capsys, monkeypatch, command,
                                 extra):
    tmp, _ = workspace
    monkeypatch.chdir(tmp)
    (tmp / "latin1.swl").write_bytes("x = \"caf\u00e9\"\n".encode("latin-1"))
    script = ["latin1.swl"] if command == "compile" else \
        ["--script", "latin1.swl"]
    code, _, err = invoke([command] + script + extra, capsys)
    assert code == 1
    assert err.startswith("latin1.swl: source is not valid UTF-8")
    assert not (tmp / "x.bo").exists() and not (tmp / "x.csv").exists()


@pytest.mark.parametrize("text", [
    "x = " + "9" * 5000,
    "x = " + "(" * 10_000 + "1" + ")" * 10_000,
    "x = f" + "(1)" * 10_000,
], ids=["5000-digit-literal", "deep-parentheses", "long-call-chain"])
def test_compile_hostile_source_exits_1(workspace, capsys, text):
    tmp, _ = workspace
    src = tmp / "hostile.swl"
    src.write_text(text)
    code, _, err = invoke(["compile", str(src), "-o", str(tmp / "x.bo")],
                          capsys)
    assert code == 1
    assert err.startswith(f"{src}:1:") and "Traceback" not in err


def test_env_var_worker_cap_does_not_change_user_script_csv(tmp_path):
    script = tmp_path / "consensus_copy.swl"
    script.write_text(behaviors.load_script("consensus"))
    argv_base = [sys.executable, "-m", "swarmlang.cli", "sweep", "--script",
                 str(script), "--readout", "vs_value", "--convergence",
                 "max-id-consensus", "--robots", "6", "--drop-prob", "0,0.5",
                 "--reps", "2", "--seed", "4", "--max-steps", "40"]
    outputs = []
    for workers in ("1", "2"):
        out_csv = tmp_path / f"w{workers}.csv"
        proc = subprocess.run(argv_base + ["--out", str(out_csv)],
                              capture_output=True, text=True,
                              env=_env_with(SWARMLANG_THREADS=workers))
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1]
    rows = outputs[0].decode().splitlines()[1:]
    assert len(rows) == 4 and all(r.startswith(str(script) + ",")
                                  for r in rows)


@pytest.mark.parametrize("command", ["sim", "sweep"])
@pytest.mark.parametrize("flags, reason", [
    (["--density", "0"], "density must be finite and positive"),
    (["--density", "-1"], "density must be finite and positive"),
    (["--density", "nan"], "density must be finite and positive"),
    (["--density", "inf"], "density must be finite and positive"),
    (["--max-steps", "-1"], "max steps must be >= 0"),
    (["--robots", "0"], "need at least one robot"),
    (["--drop-prob", "nan"], "drop probability must be within [0, 1]"),
    (["--robots", "100", "--density", "0.95"], "could not place 100 robots"),
    (["--seed", "-1"], "seed must be >= 0"),
    (["--density", "1e-320"], "density too low: the arena side overflows"),
    (["--range", "-1"], "comm range must be >= 0"),
], ids=["density-0", "density-negative", "density-nan", "density-inf",
        "negative-max-steps", "no-robots", "drop-prob-nan", "infeasible",
        "negative-seed", "side-overflow", "negative-range"])
def test_bad_run_parameters_exit_2_with_one_usage_line(workspace, capsys,
                                                       monkeypatch, command,
                                                       flags, reason):
    tmp, _ = workspace
    monkeypatch.chdir(tmp)
    argv = [command, "--script", "consensus", "--robots", "8",
            "--max-steps", "5"] + flags
    if command == "sweep":
        argv += ["--reps", "1", "--out", "x.csv"]
    code, out, err = invoke(argv, capsys)
    assert code == 2
    assert err.startswith(f"usage error: {reason}")
    assert len(err.splitlines()) == 1 and out == ""
    assert not (tmp / "x.csv").exists()
