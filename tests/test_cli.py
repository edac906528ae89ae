import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import click
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointbell import analysis, cli, selfcheck
from jointbell.analysis import MINIMAL_COLUMNS, fit_bell_magnitude, pbflip_grid, read_sweep
from jointbell.cli import (
    _write_json,
    _write_output,
    main,
    parse_config_text,
    parse_state_spec,
)
from jointbell.core import CIRELSON_BOUND, random_two_qubit_state, werner_state
from jointbell.figures import FIT_GRID
from jointbell.sim import (
    ALL_OUTCOMES,
    CountTable,
    b_value,
    format_count_table,
    joint_distribution,
    sweep_grid,
)

ROOT2 = math.sqrt(2.0)


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


@pytest.fixture
def pipe_of(tmp_path):
    """A factory of FIFOs under ``tmp_path``, each filled with a text by one writer thread, as
    a shell fills ``<(cat file)``: a path that can be read once, front to back."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("os.mkfifo is missing")
    writers = []

    def make(text: str) -> str:
        path = tmp_path / f"pipe{len(writers)}"
        os.mkfifo(path)
        writers.append(threading.Thread(target=path.write_text, args=(text,),
                                        kwargs={"encoding": "utf-8"}, daemon=True))
        writers[-1].start()
        return str(path)

    yield make
    for writer in writers:
        writer.join(timeout=10)
        assert not writer.is_alive(), "a FIFO was never read to its end"


def assert_one_line_error(result, *fragments):
    """Exit 1 through click's error path: one ``Error:`` line, no traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1
    for fragment in fragments:
        assert fragment in result.output


MIXED_MATRIX = "0.25 0 0 0\n0 0.25 0 0\n0 0 0.25 0\n0 0 0 0.25\n"


@pytest.mark.parametrize("args, fragment", [
    pytest.param(["simulate", "--theta-a", "nan"], "finite", id="simulate-nan"),
    pytest.param(["simulate", "--theta-a", "inf"], "finite", id="simulate-inf"),
    pytest.param(["simulate", "--theta-b", "-inf", "--format", "csv"], "finite",
                 id="simulate-csv"),
    pytest.param(["simulate", "--config", "nan.cfg"], "finite", id="simulate-config"),
    pytest.param(["counts", "--theta-a", "nan", "--out", "x.csv"], "finite", id="counts-angle"),
    pytest.param(["counts", "--duration-s", "nan", "--out", "x.csv"], "finite",
                 id="counts-duration"),
    pytest.param(["analyze", "c.csv", "--theta-a", "nan", "--theta-b", "20"], "finite",
                 id="analyze-nan"),
    pytest.param(["analyze", "c.csv", "--theta-a", "20", "--theta-b", "inf"], "finite",
                 id="analyze-inf"),
    pytest.param(["analyze", "nan.csv", "--theta-a", "20", "--theta-b", "20"], "finite",
                 id="analyze-duration"),
    pytest.param(["counts", "--duration-s", "-5", "--out", "x.csv"],
                 "duration_s must be finite and non-negative, got -5.0",
                 id="counts-negative-duration"),
    pytest.param(["analyze", "neg.csv", "--theta-a", "20", "--theta-b", "20"],
                 "neg.csv: duration_s must be finite and non-negative, got -5.0",
                 id="analyze-negative-duration"),
    pytest.param(["analyze", "huge.csv", "--theta-a", "20", "--theta-b", "20"],
                 "huge.csv: count for (+,+;+,+) exceeds 2**53", id="analyze-huge-count"),
    pytest.param(["simulate", "--state", "nan.txt"], "entries must be finite", id="matrix-nan"),
    pytest.param(["counts", "--state", "inf.txt", "--out", "x.csv"], "entries must be finite",
                 id="matrix-inf"),
    # Warnings shown, not raised, so a loadtxt warning printed before the error fails the test.
    pytest.param(["sweep", "--state", "empty.txt", "--thetas", "0"], "cannot read matrix file",
                 id="matrix-empty", marks=pytest.mark.filterwarnings("default")),
])
def test_non_finite_input_fails(runner, tmp_path, monkeypatch, args, fragment):
    monkeypatch.chdir(tmp_path)
    table = format_count_table(CountTable(counts=[4] * 16))
    inputs = {
        "nan.cfg": "theta_a = nan\n", "c.csv": table, "nan.csv": table + "# duration_s=nan\n",
        "neg.csv": table + "# duration_s=-5.0\n",
        "huge.csv": table.replace(",4\n", "," + "9" * 320 + "\n", 1),
        "nan.txt": MIXED_MATRIX.replace("0.25 0 0 0", "0.25 nan 0 0"),
        "inf.txt": MIXED_MATRIX.replace("0.25 0 0 0", "inf 0 0 0"), "empty.txt": "",
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    assert_one_line_error(runner.invoke(main, args), fragment)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


@pytest.mark.parametrize("args, fragment", [
    pytest.param(["simulate", "--out", "adir"], "Is a directory", id="simulate-out-dir"),
    pytest.param(["analyze", "c.csv", "--theta-a", "20", "--theta-b", "20", "--out", "adir"],
                 "Is a directory", id="analyze-out-dir"),
    pytest.param(["counts", "--out", "adir"], "Is a directory", id="counts-out-dir"),
    pytest.param(["sweep", "--thetas", "0,45", "--out", "adir"], "Is a directory",
                 id="sweep-out-dir"),
    pytest.param(["fit", "s.csv", "--out", "adir"], "Is a directory", id="fit-out-dir"),
    pytest.param(["counts", "--out", "afile/x.csv"], "File exists", id="counts-under-file"),
    pytest.param(["figures", "--which", "6", "--out-dir", "afile"], "File exists",
                 id="figures-6-out-file"),
    pytest.param(["figures", "--which", "9", "--out-dir", "afile"], "File exists",
                 id="figures-9-out-file"),
    pytest.param(["fit", "latin1.csv"], "latin1.csv: 'utf-8' codec", id="fit-not-utf8"),
    pytest.param(["analyze", "latin1.csv", "--theta-a", "20", "--theta-b", "20"],
                 "latin1.csv: 'utf-8' codec", id="analyze-not-utf8"),
    pytest.param(["simulate", "--config", "latin1.csv"], "latin1.csv: 'utf-8' codec",
                 id="config-not-utf8"),
    pytest.param(["analyze", "arabic.csv", "--theta-a", "20", "--theta-b", "20"],
                 "arabic.csv: row 3: count must be an integer, got '\u0663'",
                 id="analyze-arabic-digit"),
    pytest.param(["analyze", "twice.csv", "--theta-a", "20", "--theta-b", "20"],
                 "twice.csv: row 19: duplicate duration metadata line",
                 id="analyze-duplicate-duration"),
])
def test_file_errors_fail(runner, tmp_path, monkeypatch, args, fragment):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("x\n")
    (tmp_path / "latin1.csv").write_bytes(b"theta_deg,x_a\n\xe9\xff\n")
    (tmp_path / "c.csv").write_text(format_count_table(CountTable([4] * 16)))
    rows = (tmp_path / "c.csv").read_text().splitlines()
    rows[2] = rows[2].replace(",4", ",\u0663")  # ARABIC-INDIC DIGIT THREE
    (tmp_path / "arabic.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "twice.csv").write_text(
        format_count_table(CountTable([4] * 16, 1.0)) + "# duration_s=2.0\n")
    assert runner.invoke(main, ["sweep", "--thetas", "0,90", "--out", "s.csv"]).exit_code == 0
    before = sorted(p.name for p in tmp_path.rglob("*"))
    assert_one_line_error(runner.invoke(main, args), fragment)
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


def test_counts_creates_parent_directory(runner, tmp_path):
    out = tmp_path / "nodir" / "x.csv"
    result = runner.invoke(main, ["counts", "--out", str(out)])
    assert result.output == f"wrote {out}\n"
    assert out.read_text().startswith("x_a,y_a,x_b,y_b,counts\n")


def _fail_midway(fh):
    fh.write("x_a,y_a\n1,")
    raise ValueError("stopped")


def test_failed_write_leaves_no_partial_file(tmp_path):
    out = tmp_path / "new" / "s.csv"
    with pytest.raises(click.ClickException, match="stopped"):
        _write_output(out, _fail_midway)
    assert list(out.parent.iterdir()) == []


def test_failed_write_keeps_the_existing_file(tmp_path):
    out = tmp_path / "s.csv"
    out.write_text("old\n")
    with pytest.raises(click.ClickException, match="stopped"):
        _write_output(out, _fail_midway)
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"] and out.read_text() == "old\n"


def test_write_through_a_symlink_replaces_its_target(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    _write_output(link, lambda fh: fh.write("new\n"))
    assert link.is_symlink() and target.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


@pytest.mark.parametrize("command", ["counts", "simulate"])
def test_write_to_a_device_goes_to_it_directly(runner, command):
    result = runner.invoke(main, [command, "--out", "/dev/null"])
    assert result.exit_code == 0, result.output
    assert result.output == "wrote /dev/null\n"


#: A locale whose text encoding is ASCII, with Python's coercion to UTF-8 switched off.
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def run_in_c_locale(args: list, cwd: Path) -> subprocess.CompletedProcess:
    """``python -m jointbell.cli`` with ``args`` (bytes pass into argv as they are) under the C
    locale, importing the package from ``src``."""
    env = {**os.environ, **C_LOCALE, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "jointbell.cli", *args], cwd=cwd, env=env,
                          capture_output=True)


def test_c_locale_writes_a_non_ascii_matrix_path_back_byte_for_byte(runner, tmp_path,
                                                                    monkeypatch):
    name = "st\u00e4te.txt".encode("utf-8")
    (tmp_path / os.fsdecode(name)).write_bytes(MIXED_MATRIX.encode())
    proc = run_in_c_locale([b"simulate", b"--state", name, b"--format", b"csv", b"--out",
                            b"r.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"wrote r.csv\n"
    in_c_locale = (tmp_path / "r.csv").read_bytes()
    assert b"# state=" + name + b"\n" in in_c_locale
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["simulate", "--state", os.fsdecode(name), "--format", "csv",
                                  "--out", "r.csv"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "r.csv").read_bytes() == in_c_locale


def test_c_locale_reads_a_matrix_file_with_a_non_ascii_comment(tmp_path):
    (tmp_path / "m.txt").write_bytes(("# Zustand f\u00fcr den Test\n" + MIXED_MATRIX).encode())
    proc = run_in_c_locale(["simulate", "--state", "m.txt"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["bell_expectation"] == 0.0


def test_c_locale_json_report_equals_the_report_of_the_own_locale(runner, tmp_path,
                                                                   monkeypatch):
    """A JSON report holds command-line text as the UTF-8 text of its bytes, so ``fit swé.csv``
    prints the same bytes under the C locale as under the test's own locale."""
    name = "sw\u00e9.csv".encode("utf-8")
    monkeypatch.chdir(tmp_path)
    assert runner.invoke(main, ["sweep", "--thetas", "0,45,90", "--out", "s.csv"]).exit_code == 0
    (tmp_path / os.fsdecode(name)).write_bytes((tmp_path / "s.csv").read_bytes())
    proc = run_in_c_locale([b"fit", name], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert b'"sweep_file": "sw\\u00e9.csv",' in proc.stdout
    result = runner.invoke(main, ["fit", os.fsdecode(name)])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == proc.stdout


def test_json_report_replaces_bytes_that_are_not_utf8(runner, tmp_path, monkeypatch):
    """The byte 0xff of the path ``sw\\xff.csv``, the argument "sw\\udcff.csv" on every locale,
    is no UTF-8, so the report names U+FFFD in its place and holds no lone surrogate."""
    monkeypatch.chdir(tmp_path)
    assert runner.invoke(main, ["sweep", "--thetas", "0,45,90", "--out", "s.csv"]).exit_code == 0
    (tmp_path / "sw\udcff.csv").write_bytes((tmp_path / "s.csv").read_bytes())
    report = run_json(runner, ["fit", "sw\udcff.csv"])
    assert report["sweep_file"] == "sw\ufffd.csv"
    json.dumps(report, ensure_ascii=False).encode("utf-8")


def test_import_pulls_in_no_network_modules():
    code = ("import sys, jointbell.cli; "
            "print(sorted({'ssl', 'http.client', 'urllib.request'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"


def test_run_freezes_the_collector_then_calls_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main"))
    cli.run()
    assert calls == ["freeze", "main"]


def test_redirected_stdout_is_freed(tmp_path):
    """Running commands in-process under a redirected stdout leaves nothing holding the
    buffer: click's stream cache would keep every redirected stdout alive."""
    sweep_path = tmp_path / "s.csv"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(["sweep", "--thetas", "0,45", "--out", str(sweep_path)], standalone_mode=False)
        main(["fit", str(sweep_path)], standalone_mode=False)
    assert buffer.getvalue().startswith(f"wrote {sweep_path}\n{{\n")
    ref = weakref.ref(buffer)
    del buffer
    gc.collect()
    assert ref() is None


def test_json_writer_rejects_nan():
    with pytest.raises(ValueError):
        _write_json(io.StringIO(), {"mean_b": float("nan")})


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def assert_clean_exit(result, out=None):
    """Exit 0 with strict JSON on stdout (or ``wrote <out>``), or exit 1
    through the one-line error path; True on success."""
    if result.exit_code != 0:
        assert_one_line_error(result)
        return False
    if out is None:
        json.loads(result.output, parse_constant=_reject_constant)
    else:
        assert result.output == f"wrote {out}\n"
    return True


# Each draw mixes a range where commands succeed with any float at all.
_ANGLES = st.one_of(st.floats(0.0, 90.0), st.floats())


@settings(max_examples=60, deadline=None)
@given(
    state=st.one_of(st.just("singlet"), st.floats(0.0, 1.0).map(lambda v: f"werner:{v!r}"),
                    st.floats().map(lambda v: f"werner:{v!r}"), st.text(max_size=10)),
    theta_a=_ANGLES,
    theta_b=_ANGLES,
    thetas=st.lists(_ANGLES, min_size=1, max_size=3),
    mean_total=st.one_of(st.floats(1.0, 1e7), st.floats()),
    seed=st.integers(0, 2**64 - 1),
)
@example(state="singlet", theta_a=20.0, theta_b=20.0, thetas=[10.0, 20.0], mean_total=1e308,
         seed=1)
@example(state="singlet", theta_a=20.0, theta_b=20.0, thetas=[0.0, 45.0], mean_total=1e-300,
         seed=1)
def test_any_input_exits_cleanly(state, theta_a, theta_b, thetas, mean_total, seed):
    runner = CliRunner()
    angles = [f"--theta-a={theta_a!r}", f"--theta-b={theta_b!r}"]
    sampling = [f"--mean-total={mean_total!r}", f"--seed={seed}"]
    with tempfile.TemporaryDirectory() as tmp:
        table, sweep = Path(tmp, "c.csv"), Path(tmp, "s.csv")
        assert_clean_exit(runner.invoke(main, ["simulate", f"--state={state}", *angles]))
        args = ["counts", f"--state={state}", *angles, *sampling, f"--out={table}"]
        counted = assert_clean_exit(runner.invoke(main, args), table)
        if counted:
            assert_clean_exit(runner.invoke(main, ["analyze", str(table), *angles]))
        args = ["sweep", f"--state={state}", "--thetas=" + ",".join(map(repr, thetas)),
                "--sample", *sampling, f"--out={sweep}"]
        swept = assert_clean_exit(runner.invoke(main, args), sweep)
        if swept:
            assert_clean_exit(runner.invoke(main, ["fit", str(sweep)]))
        # A failed command leaves no file behind, partial or temporary.
        written = [path.name for path, ok in ((table, counted), (sweep, swept)) if ok]
        assert sorted(p.name for p in Path(tmp).iterdir()) == written


def csv_header(path):
    return path.read_text().splitlines()[0]


FIT_KEYS = ["slope", "slope_std_err", "intercept", "intercept_std_err", "bell_magnitude"]


class TestConfig:
    def test_parse_and_types(self):
        text = "state = werner:0.9\ntheta_a = 20\nseed = 9\n# comment\n"
        values = parse_config_text(text)
        assert values == {"state": "werner:0.9", "theta_a": 20.0, "seed": 9}

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("bogus = 1\n")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_config_text("theta_a = fast\n")

    def test_line_without_equals_sign(self):
        with pytest.raises(ValueError, match="config line 1: expected 'key = value', "
                                             "got 'state singlet'"):
            parse_config_text("state singlet\n")

    @pytest.mark.parametrize("before", [False, True], ids=["flag-after", "flag-before"])
    def test_flag_beats_file_beats_default(self, runner, tmp_path, before):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta_a = 10\ntheta_b = 20\n")
        flag, config = ["--theta-a", "55"], ["--config", str(cfg)]
        report = run_json(runner, ["simulate", *(flag + config if before else config + flag)])
        assert (report["state"], report["theta_a_deg"], report["theta_b_deg"]) == (
            "singlet", 55.0, 20.0)
        report = run_json(runner, ["simulate", "--theta-b", "30"])
        assert (report["theta_a_deg"], report["theta_b_deg"]) == (45.0, 30.0)

    def test_one_file_serves_every_command(self, runner, tmp_path, monkeypatch):
        """A seven-key file runs ``simulate``, ``counts`` and ``sweep`` as the same flags do;
        the keys a command lacks are read and left unused."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(
            "state = werner:0.9\ntheta_a = 20\ntheta_b = 70\nmean_total = 5000\nseed = 7\n"
            "out = file.txt\nformat = csv\n")
        state, angles = ["--state", "werner:0.9"], ["--theta-a", "20", "--theta-b", "70"]
        sampling = ["--mean-total", "5000", "--seed", "7"]
        commands = {
            ("simulate",): [*state, *angles, "--format", "csv"],
            ("counts",): [*state, *angles, *sampling],
            ("sweep", "--thetas", "0,45,90", "--sample"): [*state, *sampling],
        }
        for command, flags in commands.items():
            for args in (["--config", "run.cfg"], [*flags, "--out", "flags.txt"]):
                result = runner.invoke(main, [*command, *args])
                assert result.exit_code == 0, result.output
            assert (tmp_path / "file.txt").read_bytes() == (tmp_path / "flags.txt").read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "counts", "sweep"])
    @pytest.mark.parametrize("entry", ["format = yaml", "seed = -1"], ids=["yaml", "seed"])
    def test_value_a_flag_would_reject_fails_in_one_line(self, runner, tmp_path, monkeypatch,
                                                          command, entry):
        """The file is checked whole, so a command fails on a key it does not use, with the
        parser's message, not click's usage error."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"state = singlet\n{entry}\n")
        key, _, value = entry.partition(" = ")
        result = runner.invoke(main, [command, "--config", "run.cfg"])
        assert_one_line_error(result, f"run.cfg: config line 2: bad value '{value}' for '{key}'")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_duplicate_key_fails(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("state = singlet\n\nstate = werner:0.5\n")
        result = runner.invoke(main, ["simulate", "--config", "run.cfg"])
        assert_one_line_error(result, "run.cfg: config line 3: duplicate key 'state' "
                                      "(first on line 1)")

    def test_help_shows_defaults(self, runner):
        result = runner.invoke(main, ["simulate", "--help"])
        assert result.exit_code == 0, result.output
        text = " ".join(result.output.split())
        for default in ("singlet", "json"):
            assert f"[default: {default}]" in text
        assert text.count("[default: 45.0]") == 2

    def test_state_spec_parsing(self, tmp_path):
        assert parse_state_spec("singlet").purity() == pytest.approx(1.0, abs=1e-12)
        assert parse_state_spec("werner:0.5").purity() < 1.0
        with pytest.raises(ValueError):
            parse_state_spec("werner:big")
        with pytest.raises(ValueError):
            parse_state_spec("no-such-file.txt")
        path = tmp_path / "rho.txt"
        np.savetxt(path, werner_state(0.8).rho.astype(complex))
        assert parse_state_spec(str(path)).purity() == pytest.approx(
            werner_state(0.8).purity(), abs=1e-12
        )


class TestSimulate:
    def test_singlet_theta45(self, runner):
        report = run_json(runner, ["simulate", "--state", "singlet"])
        assert report["p_b_plus"] == pytest.approx((2 - ROOT2) / 4, abs=1e-9)
        assert report["mean_b"] == pytest.approx(-ROOT2, abs=1e-9)
        assert report["bell_expectation"] == pytest.approx(-CIRELSON_BOUND, abs=1e-9)
        assert len(report["outcomes"]) == 16

    def test_white_noise_uniform(self, runner):
        report = run_json(
            runner,
            ["simulate", "--state", "werner:0", "--theta-a", "30", "--theta-b", "60"],
        )
        for row in report["outcomes"]:
            assert row["probability"] == pytest.approx(1 / 16, abs=1e-12)

    def test_werner_0975(self, runner):
        report = run_json(
            runner, ["simulate", "--state", "werner:0.975", "--theta-a", "45", "--theta-b", "45"]
        )
        assert report["p_b_plus"] == pytest.approx(0.1554, abs=5e-4)

    def test_bad_state_spec_fails(self, runner):
        result = runner.invoke(main, ["simulate", "--state", "werner:2.0"])
        assert result.exit_code != 0
        assert "[0, 1]" in result.output

    @pytest.mark.parametrize("v", ["0.2_5", "\u0660.\u0665"], ids=["underscore", "arabic-indic"])
    def test_werner_parameter_takes_the_file_number_grammar(self, runner, tmp_path, monkeypatch,
                                                            v):
        """``werner:<v>`` reads ``v`` as count and sweep files read a number, ``float``'s grammar
        in ASCII without ``_``, from the flag and from a config file alike."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"state = werner:{v}\n", encoding="utf-8")
        for args in (["--state", f"werner:{v}"], ["--config", "run.cfg"]):
            result = runner.invoke(main, ["simulate", *args])
            assert_one_line_error(result, f"bad mixing parameter in state spec 'werner:{v}'")

    def test_matrix_file_state(self, runner, tmp_path):
        path = tmp_path / "rho.txt"
        np.savetxt(path, werner_state(0.975).rho.astype(complex))
        report = run_json(runner, ["simulate", "--state", str(path)])
        assert report["p_b_plus"] == pytest.approx(0.5 - 0.975 * ROOT2 / 4, abs=1e-9)

    def test_matrix_file_through_a_pipe(self, runner, tmp_path, pipe_of):
        """``--state`` takes a path that exists and is no directory, as ``fit`` and ``analyze``
        take theirs, so a pipe such as ``<(cat rho.txt)`` gives the file's report."""
        path = tmp_path / "rho.txt"
        np.savetxt(path, werner_state(0.975).rho.astype(complex))
        report = run_json(runner, ["simulate", "--state", str(path)])
        pipe = pipe_of(path.read_text(encoding="utf-8"))
        assert run_json(runner, ["simulate", "--state", pipe]) == {**report, "state": pipe}
        result = runner.invoke(main, ["simulate", "--state", str(tmp_path)])
        assert_one_line_error(result, f"matrix file path; {str(tmp_path)!r} is none")

    def test_invalid_matrix_file_fails(self, runner, tmp_path):
        path = tmp_path / "rho.txt"
        np.savetxt(path, (np.eye(4) / 2).astype(complex))
        result = runner.invoke(main, ["simulate", "--state", str(path)])
        assert result.exit_code != 0
        assert "trace" in result.output

    def test_csv_format(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(
            main, ["simulate", "--state", "singlet", "--out", str(out), "--format", "csv"]
        )
        assert result.exit_code == 0, result.output
        with open(out, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if not r["x_a"].startswith("#")]
        assert len(rows) == 16

    def test_config_file_with_override(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state = werner:0\ntheta_a = 10\ntheta_b = 10\n")
        report = run_json(
            runner, ["simulate", "--config", str(cfg), "--state", "singlet"]
        )
        assert report["state"] == "singlet"
        assert report["theta_a_deg"] == 10.0


class TestCounts:
    def test_deterministic_per_seed(self, runner, tmp_path):
        args = [
            "counts", "--state", "singlet", "--theta-a", "45", "--theta-b", "45",
            "--mean-total", "50000", "--seed", "42",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        args[-1] = "43"
        assert runner.invoke(main, args + ["--out", str(c)]).exit_code == 0
        assert a.read_bytes() != c.read_bytes()

    def test_minimal_outcome_scale_with_source_noise(self, runner, tmp_path):
        out = tmp_path / "n.csv"
        result = runner.invoke(main, [
            "counts", "--state", "werner:0.975", "--theta-a", "20", "--theta-b", "20",
            "--mean-total", "568352", "--seed", "3", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        from jointbell.sim import read_count_table, Outcome
        table = read_count_table(out)
        # Imperfect source keeps the minimal outcomes at the few-hundred to
        # ~1500 count scale; the ideal singlet would sit near 135.
        for m in (Outcome(1, 1, 1, -1), Outcome(-1, -1, -1, 1)):
            assert 600 < table.counts[ALL_OUTCOMES.index(m)] < 1500

    def test_ideal_singlet_near_zero(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        result = runner.invoke(main, [
            "counts", "--state", "singlet", "--theta-a", "20", "--theta-b", "20",
            "--mean-total", "568352", "--seed", "3", "--out", str(out),
        ])
        assert result.exit_code == 0
        from jointbell.sim import read_count_table, Outcome
        table = read_count_table(out)
        assert table.counts[ALL_OUTCOMES.index(Outcome(1, 1, 1, -1))] < 300

    @pytest.mark.parametrize("args", [
        pytest.param(["counts", "--state", "singlet", "--mean-total", "0", "--seed", "1",
                      "--out", "x.csv"], id="counts"),
        pytest.param(["sweep", "--thetas", "10,20", "--sample", "--mean-total", "0",
                      "--out", "x.csv"], id="sweep"),
        pytest.param(["sweep", "--config", "zero.cfg", "--thetas", "10,20", "--sample",
                      "--out", "x.csv"], id="sweep-config"),
        pytest.param(["figures", "--which", "9", "--sample", "--mean-total", "-1",
                      "--out-dir", "."], id="figures"),
        pytest.param(["figures", "--which", "7", "--sample", "--mean-total", "0",
                      "--out-dir", "."], id="figures-7"),
        pytest.param(["counts", "--state", "singlet", "--mean-total", "nan", "--seed", "1",
                      "--out", "x.csv"], id="counts-nan"),
        pytest.param(["counts", "--state", "singlet", "--mean-total", "inf", "--seed", "1",
                      "--out", "x.csv"], id="counts-inf"),
        pytest.param(["sweep", "--thetas", "10,20", "--sample", "--mean-total", "nan",
                      "--out", "x.csv"], id="sweep-nan"),
        pytest.param(["sweep", "--thetas", "10,20", "--sample", "--mean-total", "inf",
                      "--out", "x.csv"], id="sweep-inf"),
        pytest.param(["figures", "--which", "9", "--sample", "--mean-total", "nan",
                      "--out-dir", "."], id="figures-nan"),
        pytest.param(["counts", "--state", "singlet", "--mean-total", "1e308", "--seed", "1",
                      "--out", "x.csv"], id="counts-1e308"),
        pytest.param(["sweep", "--thetas", "10,20", "--sample", "--mean-total", "1e308",
                      "--out", "x.csv"], id="sweep-1e308"),
        pytest.param(["figures", "--which", "9", "--sample", "--mean-total", "1e308",
                      "--out-dir", "."], id="figures-1e308"),
        # Passes the sampling checks, then fails with nothing drawn: no partial s.csv.
        pytest.param(["sweep", "--thetas", "0,45", "--sample", "--mean-total", "1e-300",
                      "--seed", "1", "--out", "s.csv"], id="sweep-empty"),
        pytest.param(["figures", "--which", "7", "--sample", "--mean-total", "1e-300",
                      "--out-dir", "."], id="figures-7-empty"),
    ])
    def test_zero_mean_total_fails(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "zero.cfg").write_text("mean_total = 0\n")
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert ("theta_deg 0.0 has no counts" if "1e-300" in args else "positive") in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["zero.cfg"]

    def test_default_location_from_env(self, runner, tmp_path):
        env = {"JOINTBELL_OUTPUT_DIR": str(tmp_path / "outputs")}
        result = runner.invoke(main, [
            "counts", "--state", "singlet", "--mean-total", "1000", "--seed", "1",
        ], env=env)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "outputs" / "counts.csv").is_file()


class TestAnalyze:
    def test_reported_aggregates(self, runner, tmp_path):
        from jointbell.sim import b_value

        # 10^6 total with P(b=+2) = 0.1554 split evenly over its 8 outcomes.
        counts = [19425 if b_value(m) == 2 else 105575 for m in ALL_OUTCOMES]
        path = tmp_path / "c.csv"
        path.write_text(format_count_table(CountTable(counts=counts)))
        report = run_json(
            runner, ["analyze", str(path), "--theta-a", "45", "--theta-b", "45"]
        )
        assert report["p_b_plus"] == pytest.approx(0.1554, abs=1e-9)
        assert report["mean_b"] == pytest.approx(-1.3784, abs=1e-9)
        assert report["mean_b_std_err"] == pytest.approx(2 / math.sqrt(10**6), abs=1e-9)
        assert report["p_bflip"]["(+,+;+,-)"] == pytest.approx(0.25, abs=1e-12)

    def test_uniform_counts(self, runner, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text(format_count_table(CountTable(counts=[9] * 16)))
        report = run_json(runner, ["analyze", str(path), "--theta-a", "45", "--theta-b", "45"])
        assert report["mean_b"] == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_with_counts(self, runner, tmp_path):
        table_path = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "counts", "--state", "werner:0.9716", "--theta-a", "20", "--theta-b", "20",
            "--mean-total", "200000", "--seed", "5", "--out", str(table_path),
        ])
        assert result.exit_code == 0
        report = run_json(runner, ["analyze", str(table_path), "--theta-a", "20", "--theta-b", "20"])
        truth = joint_distribution(werner_state(0.9716), 20.0, 20.0)
        for row in report["outcomes"]:
            from jointbell.sim import Outcome
            m = Outcome(row["x_a"], row["y_a"], row["x_b"], row["y_b"])
            p = truth.probs[ALL_OUTCOMES.index(m)]
            if row["std_err"] > 0:
                assert abs(row["probability"] - p) < 5 * row["std_err"]

    def test_malformed_file_names_row(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        text = format_count_table(CountTable(counts=[4] * 16))
        lines = text.strip().splitlines()
        lines[5] = "+1,+1,oops,+1,4"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["analyze", str(path), "--theta-a", "45", "--theta-b", "45"])
        assert result.exit_code != 0
        assert "row 6" in result.output

    def test_csv_trailing_metadata(self, runner, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(format_count_table(CountTable([4] * 16, 2.5)))
        out = tmp_path / "report.csv"
        result = runner.invoke(main, [
            "analyze", str(path), "--theta-a", "120", "--theta-b", "45",
            "--format", "csv", "--out", str(out),
        ])
        assert result.output == f"wrote {out}\n"
        lines = out.read_text().splitlines()
        assert lines[0] == "x_a,y_a,x_b,y_b,b,counts,probability,std_err"
        assert lines[1] == "1,1,1,1,2,4,0.0625,0.03125"
        assert lines[17:] == [
            f"# count_file={path}", "# total_counts=64", "# duration_s=2.5",
            "# theta_a_deg=120.0", "# theta_b_deg=45.0",
            "# p_b_plus=0.5", "# p_b_plus_std_err=0.08838834764831845",
            "# p_b_minus=0.5", "# p_b_minus_std_err=0.08838834764831845",
            "# mean_b=0.0", "# mean_b_std_err=0.25", "# p_bflip=None",
        ]

    def test_missing_outcome_named(self, runner, tmp_path):
        path = tmp_path / "short.csv"
        text = format_count_table(CountTable(counts=[4] * 16))
        lines = text.strip().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        result = runner.invoke(main, ["analyze", str(path), "--theta-a", "45", "--theta-b", "45"])
        assert result.exit_code != 0
        assert "missing outcome (-,-;-,-)" in result.output


def bits(values):
    """The IEEE bit patterns of a float array, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def rows_one_at_a_time(grid, legacy=False):
    """A sweep file formatted one ``%`` row at a time: the header, then one row per (angle,
    outcome) of ``sweep_grid``'s arrays and ``pbflip_grid``'s flips.  ``legacy`` gives the
    eleven columns that sweep files of earlier versions had: ``p_obs`` and ``std_err`` after
    ``counts``, blank in an exact sweep."""
    flips = pbflip_grid(grid.thetas).tolist()
    header = "theta_deg,x_a,y_a,x_b,y_b,b,p_theory,p_bflip,counts"
    lines = [header + (",p_obs,std_err\n" if legacy else "\n")]
    for k, theta in enumerate(grid.thetas):
        for j, m in enumerate(ALL_OUTCOMES):
            signs = "%d,%d,%d,%d,%d" % (*m, b_value(m))
            exact = (theta, signs, grid.p_theory[k, j].item(), flips[k][j])
            if grid.counts is None:
                lines.append(("%s,%s,%r,%r,,,\n" if legacy else "%s,%s,%r,%r,\n") % exact)
            elif legacy:
                counts = (grid.counts[k, j].item(), grid.p_obs[k, j].item(),
                          grid.std_err[k, j].item())
                lines.append("%s,%s,%r,%r,%d,%r,%r\n" % (*exact, *counts))
            else:
                lines.append("%s,%s,%r,%r,%d\n" % (*exact, grid.counts[k, j].item()))
    return "".join(lines)


class TestSweep:
    def test_noiseless_shape(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        result = runner.invoke(main, [
            "sweep", "--state", "singlet", "--thetas", "0,20,40", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 48
        by_theta = {}
        for row in rows:
            if (row["x_a"], row["y_a"], row["x_b"], row["y_b"]) == ("1", "1", "1", "-1"):
                by_theta[float(row["theta_deg"])] = float(row["p_theory"])
        assert by_theta[20.0] < by_theta[0.0]
        assert by_theta[20.0] < by_theta[40.0]

    def test_theta45_b_minus_rows_equal(self, runner, tmp_path):
        out = tmp_path / "s45.csv"
        assert runner.invoke(main, [
            "sweep", "--state", "singlet", "--thetas", "45", "--out", str(out),
        ]).exit_code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = {float(r["p_theory"]) for r in rows if r["b"] == "-2"}
        assert max(values) - min(values) < 1e-12

    def test_theta90_x_flip_symmetry(self, runner, tmp_path):
        out = tmp_path / "s90.csv"
        assert runner.invoke(main, [
            "sweep", "--state", "singlet", "--thetas", "90", "--out", str(out),
        ]).exit_code == 0
        with open(out, newline="") as fh:
            probs = {
                (r["x_a"], r["y_a"], r["x_b"], r["y_b"]): float(r["p_theory"])
                for r in csv.DictReader(fh)
            }
        for (xa, ya, xb, yb), p in probs.items():
            flipped = {"1": "-1", "-1": "1"}
            assert p == pytest.approx(probs[(flipped[xa], ya, xb, yb)], abs=1e-12)
            assert p == pytest.approx(probs[(xa, ya, flipped[xb], yb)], abs=1e-12)

    def test_csv_columns_and_wrote_line(self, runner, tmp_path):
        header = "theta_deg,x_a,y_a,x_b,y_b,b,p_theory,p_bflip,counts"
        for sample in ([], ["--sample", "--mean-total", "1000", "--seed", "2"]):
            out = tmp_path / "nested" / "s.csv"
            result = runner.invoke(main, [
                "sweep", "--state", "singlet", "--thetas", "0,45", "--out", str(out), *sample,
            ])
            assert result.output == f"wrote {out}\n"
            lines = out.read_text().splitlines()
            assert lines[0] == header and len(lines) == 33
            assert lines[1].endswith(",") != bool(sample)

    def test_empty_theta_list_fails(self, runner):
        for thetas, message in (
            (["--thetas", " , "], "theta list is empty"),
            ([], "--thetas is required (comma-separated degrees)"),
            (["--thetas", "1,x"], "bad theta list '1,x'"),
            (["--thetas", "4_5"], "bad theta list '4_5'"),
            (["--thetas", "10,\u0662\u0660"], "bad theta list '10,\u0662\u0660'"),
        ):
            result = runner.invoke(main, ["sweep", "--state", "singlet", *thetas])
            assert_one_line_error(result, message)

    def test_sampled_sweep_deterministic(self, runner, tmp_path):
        args = [
            "sweep", "--state", "werner:0.97", "--thetas", "0,45,90", "--sample",
            "--mean-total", "100000", "--seed", "12",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("sample", [False, True], ids=["exact", "sampled"])
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 63, 64, 65, 129, 181])
    @pytest.mark.parametrize("state", ["werner:0.9716", "singlet", "matrix-file"])
    def test_file_equals_rows_formatted_one_at_a_time(self, runner, tmp_path, state, n, sample):
        """Independent writer oracle: the file ``sweep`` writes, byte for byte, is the one
        ``rows_one_at_a_time`` formats, whatever the number of angles per block of the writer.
        ``read_sweep`` gives back the angles and the counts or exact probabilities bit for
        bit."""
        if state == "matrix-file":
            # A random state: no two probabilities repeat, at one angle or across angles.
            state = str(tmp_path / "rho.txt")
            np.savetxt(state, random_two_qubit_state(np.random.default_rng(n)).rho)
        thetas = sorted(np.random.default_rng(100 + n).uniform(0.0, 90.0, n).tolist())
        mean_total, seed = (568352.0, n) if sample else (None, None)
        args = ["sweep", "--state", state, "--thetas", ",".join(map(repr, thetas)),
                "--out", str(tmp_path / "s.csv")]
        if sample:
            args += ["--sample", "--mean-total", repr(mean_total), "--seed", str(seed)]
        assert runner.invoke(main, args).exit_code == 0

        grid = sweep_grid(parse_state_spec(state), thetas, mean_total, seed)
        assert (tmp_path / "s.csv").read_text() == rows_one_at_a_time(grid)
        read = read_sweep(tmp_path / "s.csv")
        assert read.thetas == grid.thetas
        if sample:
            assert read.p_theory is None and read.counts.tolist() == grid.counts.tolist()
        else:
            assert read.counts is None and bits(read.p_theory) == bits(grid.p_theory)


#: Doubles that a formatter keyed on values rather than bits could confuse or misprint.
_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-300, 0.1, math.inf]
#: Strided and reordered views of a 1-D array, as a caller may pass them: ``read_sweep``
#: returns its columns as views with a stride of seven doubles.
_VIEWS = {
    "contiguous": lambda a: a,
    "every-other": lambda a: a[::2],
    "reversed": lambda a: a[::-1],
    "column": lambda a: np.stack([a, -a, a], axis=1)[:, 1],
    "2-d column": lambda a: np.stack([a, a], axis=1)[:, :1],
    "transposed": lambda a: np.stack([a, -a], axis=1).T,
}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from(_EDGE_DOUBLES), st.floats(allow_nan=False)),
             min_size=1, max_size=6)
    .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=64)),
    st.sampled_from(sorted(_VIEWS)),
)
@example([0.0, -0.0, 0.1, 0.1, -0.0, 1e-300], "contiguous")
def test_distinct_reprs_equal_each_values_repr(values, view):
    """Each value's repr, in raveled order, whatever repeats and layout: 0.0 and -0.0 differ
    in their bits, so neither takes the other's text."""
    values = _VIEWS[view](np.array(values))
    assert analysis._distinct_reprs(values) == list(map(repr, values.ravel().tolist()))


def _set_count(row, value):
    """A sweep edit for ``TestFit._edit_data_rows``: data row ``row`` gets count ``value``."""
    return lambda rows: [[*f[:8], value, *f[9:]] if i == row else f for i, f in enumerate(rows)]


class TestFit:
    def _sweep(self, runner, path, state="werner:0.9716", sample=False, seed=1):
        args = [
            "sweep", "--state", state,
            "--thetas", ",".join(str(t) for t in range(0, 91, 10)),
            "--out", str(path),
        ]
        if sample:
            args += ["--sample", "--mean-total", "550000", "--seed", str(seed)]
        assert runner.invoke(main, args).exit_code == 0

    def _legacy_sweep(self, path, sample=False):
        """The sweep of ``_sweep(runner, path, sample=sample)`` in the eleven-column format of
        earlier versions."""
        mean_total, seed = (550000.0, 1) if sample else (None, None)
        thetas = [float(t) for t in range(0, 91, 10)]
        grid = sweep_grid(werner_state(0.9716), thetas, mean_total, seed)
        path.write_text(rows_one_at_a_time(grid, legacy=True))

    def test_noiseless_werner_sweep(self, runner, tmp_path):
        sweep_path = tmp_path / "s.csv"
        self._sweep(runner, sweep_path)
        report = run_json(runner, ["fit", str(sweep_path)])
        assert report["bell_magnitude"] == pytest.approx(0.9716 * CIRELSON_BOUND, abs=1e-9)
        assert report["cirelson_ratio"] == pytest.approx(0.9716, abs=1e-9)
        assert report["n_points"] == 40

    def test_noiseless_singlet_sweep(self, runner, tmp_path):
        sweep_path = tmp_path / "s.csv"
        self._sweep(runner, sweep_path, state="singlet")
        report = run_json(runner, ["fit", str(sweep_path)])
        assert report["bell_magnitude"] == pytest.approx(CIRELSON_BOUND, abs=1e-9)

    def test_sampled_sweep_within_errors(self, runner, tmp_path):
        sweep_path = tmp_path / "s.csv"
        self._sweep(runner, sweep_path, sample=True, seed=99)
        report = run_json(runner, ["fit", str(sweep_path)])
        truth = 0.9716 * CIRELSON_BOUND
        assert abs(report["bell_magnitude"] - truth) < 3 * report["bell_magnitude_std_err"]

    def test_degenerate_abscissae_fail(self, runner, tmp_path):
        sweep_path = tmp_path / "s.csv"
        assert runner.invoke(main, [
            "sweep", "--state", "singlet", "--thetas", "45", "--out", str(sweep_path),
        ]).exit_code == 0
        result = runner.invoke(main, ["fit", str(sweep_path)])
        assert result.exit_code != 0
        assert "distinct" in result.output

    def test_report_key_order_and_out(self, runner, tmp_path):
        sweep_path = tmp_path / "s.csv"
        self._sweep(runner, sweep_path)
        report = run_json(runner, ["fit", str(sweep_path)])
        assert list(report) == ["sweep_file", "n_points", *FIT_KEYS, "bell_magnitude_std_err",
                                "p_int_low", "p_int_low_std_err", "cirelson_ratio",
                                "cirelson_ratio_std_err"]
        out = tmp_path / "fits" / "fit.json"
        result = runner.invoke(main, ["fit", str(sweep_path), "--out", str(out)])
        assert result.output == f"wrote {out}\n"
        assert out.read_text() == json.dumps(report, indent=2) + "\n"

    def _edit_data_rows(self, path, edit):
        """Rewrite the sweep at ``path`` with its data rows, a list of lists of fields, replaced
        by ``edit(rows)``; the header stays.  Row 1 is the minimal outcome (+,+;+,-) at the
        first angle, theta 0, and field 8 is the count."""
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        rows = edit([line.split(",") for line in lines])
        text = "\n".join([header, *(",".join(row) for row in rows)]) + "\n"
        path.write_text(text, encoding="utf-8")

    @pytest.mark.parametrize("edit, fragment", [
        # The first data row keeps its count, so the file stays sampled.
        pytest.param(_set_count(17, ""), "mixes sampled and exact rows", id="blank-count"),
        pytest.param(lambda r: [r[0], r[1][:8], *r[2:]], "data row 2: has 8 fields, so no counts",
                     id="short-row"),
        pytest.param(lambda r: [*r[:16], ["# note"], *r[16:]],
                     "data row 17: theta_deg must be a number, got '# note'", id="comment-line"),
        pytest.param(_set_count(1, "nan"), "data row 2: counts must be finite, got nan",
                     id="nan-count"),
        pytest.param(_set_count(1, "1e400"), "counts must be finite, got inf", id="inf-count"),
        pytest.param(_set_count(1, "-3"), "data row 2: count must be an integer",
                     id="negative-count"),
        pytest.param(_set_count(1, "1_000"), "data row 2: counts must be a number, got '1_000'",
                     id="underscore-count"),
        pytest.param(_set_count(1, "\u0663"), "counts must be a number", id="non-ascii-digit"),
        pytest.param(_set_count(1, "1.5"), "got 1.5", id="fractional-count"),
        pytest.param(_set_count(1, str(2**53 + 2)), "[0, 2**53]", id="huge-count"),
        pytest.param(lambda r: [r[0], r[2], r[1], *r[3:]],
                     "data row 2 must be outcome (+,+;+,-) at theta_deg 0.0",
                     id="swapped-outcomes"),
        pytest.param(lambda r: [*r[:5], ["1.5", *r[5][1:]], *r[6:]],
                     "data row 6 must be outcome", id="theta-changes"),
        pytest.param(lambda r: [*r[:4], r[3], *r[4:]], "has 161 data rows", id="extra-row"),
        pytest.param(lambda r: [*r[:16], *(row[:8] + ["0"] + row[9:] for row in r[16:32]),
                                *r[32:]], "theta_deg 10.0 has no counts", id="zero-total"),
        pytest.param(lambda r: [], "holds no data rows", id="header-only"),
        pytest.param(_set_count(1, "0"), "data row 2: outcome (+,+;+,-) at theta_deg 0.0 has 0 "
                     "counts, so its std_err is 0", id="zero-count"),
    ])
    def test_bad_sampled_row_names_file(self, runner, tmp_path, edit, fragment):
        sweep_path = tmp_path / "s.csv"
        self._sweep(runner, sweep_path, sample=True)
        self._edit_data_rows(sweep_path, edit)
        result = runner.invoke(main, ["fit", str(sweep_path)])
        assert_one_line_error(result, str(sweep_path), fragment)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda f: f[:-1] + [""], id="blank-std-err"),
        pytest.param(lambda f: f[:-1], id="short-row"),
        pytest.param(lambda f: f[:-2] + ["nan", f[-1]], id="nan-p-obs"),
        pytest.param(lambda f: f[:-1] + ["1e-200"], id="tiny-std-err"),
        pytest.param(lambda f: f[:-1] + ["1e-160"], id="subnormal-variance"),
        pytest.param(lambda f: f[:-1] + ["1e200"], id="huge-std-err"),
        pytest.param(lambda f: f[:-2] + ["1e308", f[-1]], id="huge-p-obs"),
    ])
    def test_p_obs_and_std_err_edits_are_ignored(self, runner, tmp_path, edit):
        """fit derives p_obs and std_err from the counts, so it never reads either column of
        an eleven-column file of earlier versions."""
        sweep_path = tmp_path / "s.csv"
        self._legacy_sweep(sweep_path, sample=True)
        before = runner.invoke(main, ["fit", str(sweep_path)]).output
        # Row 16 k + 1 is the minimal outcome (+,+;+,-) at angle k.
        self._edit_data_rows(sweep_path, lambda r: [edit(f) if i % 16 == 1 else f
                                                    for i, f in enumerate(r)])
        assert runner.invoke(main, ["fit", str(sweep_path)]).output == before

    @pytest.mark.parametrize("sample", [False, True], ids=["exact", "sampled"])
    def test_p_bflip_is_derived_from_theta(self, runner, tmp_path, sample):
        """fit recomputes the flips from theta, so a p_bflip column edited by hand, to 0.5 or
        to a non-number, fits as the file did; a theta outside [0, 90], where the flip model
        does not reach, is rejected at the first row of its angle."""
        sweep_path = tmp_path / "s.csv"
        self._sweep(runner, sweep_path, sample=sample)
        before = runner.invoke(main, ["fit", str(sweep_path)])
        assert before.exit_code == 0, before.output
        for value in ("0.5", "x"):  # field 7 is p_bflip
            self._edit_data_rows(sweep_path, lambda r, v=value: [[*f[:7], v, *f[8:]] for f in r])
            assert runner.invoke(main, ["fit", str(sweep_path)]).output == before.output
        self._edit_data_rows(sweep_path, lambda r: [
            ["100.0" if f[0] == "90.0" else f[0], *f[1:]] for f in r])
        result = runner.invoke(main, ["fit", str(sweep_path)])
        assert_one_line_error(result)
        assert result.output == (f"Error: {sweep_path}: data row 145: theta_deg must lie in "
                                 "[0, 90], got 100.0\n")

    @pytest.mark.parametrize("sample", [False, True], ids=["exact", "sampled"])
    def test_legacy_file_fits_as_the_new_file(self, runner, tmp_path, monkeypatch, sample):
        """A sweep file ends at ``counts``; an eleven-column file of earlier versions, with
        ``p_obs`` and ``std_err`` after it, still reads to the same grid and fits to the same
        report, byte for byte."""
        (tmp_path / "new").mkdir()
        (tmp_path / "legacy").mkdir()
        self._sweep(runner, tmp_path / "new" / "s.csv", sample=sample)
        self._legacy_sweep(tmp_path / "legacy" / "s.csv", sample=sample)
        new_lines = (tmp_path / "new" / "s.csv").read_text().splitlines()
        assert new_lines[0].endswith(",p_bflip,counts")
        assert [line.rsplit(",", 2)[0] for line in
                (tmp_path / "legacy" / "s.csv").read_text().splitlines()] == new_lines
        new, legacy = (read_sweep(tmp_path / name / "s.csv") for name in ("new", "legacy"))
        assert legacy.thetas == new.thetas
        if sample:
            assert legacy.p_theory is None and legacy.counts.tolist() == new.counts.tolist()
        else:
            assert legacy.counts is None and bits(legacy.p_theory) == bits(new.p_theory)
        outputs = []
        for name in ("new", "legacy"):
            monkeypatch.chdir(tmp_path / name)
            result = runner.invoke(main, ["fit", "s.csv"])
            assert result.exit_code == 0, result.output
            outputs.append(result.output)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("sample", [False, True], ids=["exact", "sampled"])
    def test_fit_equals_library_fit_of_sweep_grid(self, runner, tmp_path, sample):
        """The fit of a sweep file is the library fit of ``sweep_grid``'s own arrays, bit for
        bit: the counts give back p_obs and std_err exactly, summed in file order."""
        thetas = [0.0, 3.25, 17.5, 22.5, 41.0, 45.0, 67.5, 80.125, 90.0]
        mean_total, seed = (568352.0, 5) if sample else (None, None)
        args = ["sweep", "--state", "werner:0.9716", "--thetas", ",".join(map(repr, thetas)),
                "--out", str(tmp_path / "s.csv")]
        if sample:
            args += ["--sample", "--mean-total", repr(mean_total), "--seed", str(seed)]
        assert runner.invoke(main, args).exit_code == 0
        report = run_json(runner, ["fit", str(tmp_path / "s.csv")])
        grid = sweep_grid(werner_state(0.9716), thetas, mean_total, seed)
        minimal = sorted(MINIMAL_COLUMNS)
        y = grid.p_obs if sample else grid.p_theory
        result = fit_bell_magnitude(
            pbflip_grid(grid.thetas)[:, minimal].ravel(), y[:, minimal].ravel(),
            grid.std_err[:, minimal].ravel() if sample else None,
        )
        assert report["n_points"] == 4 * len(thetas)
        for key in (*FIT_KEYS, "bell_magnitude_std_err"):
            assert report[key] == getattr(result, key), key
        assert report["p_int_low"] == result.intercept

    @pytest.mark.parametrize("sample", [False, True], ids=["exact", "sampled"])
    def test_pipe_reads_as_the_file(self, runner, tmp_path, pipe_of, sample):
        """``read_sweep`` reads its file once, front to back, so a pipe such as
        ``<(cat s.csv)`` gives the file's grid, and ``fit`` its report apart from the name."""
        sweep_path = tmp_path / "s.csv"
        self._sweep(runner, sweep_path, sample=sample)
        text = sweep_path.read_text(encoding="utf-8")
        piped, read = read_sweep(pipe_of(text)), read_sweep(sweep_path)
        assert piped.thetas == read.thetas
        if sample:
            assert piped.p_theory is None and piped.counts.tolist() == read.counts.tolist()
        else:
            assert piped.counts is None and bits(piped.p_theory) == bits(read.p_theory)
        before = runner.invoke(main, ["fit", str(sweep_path)])
        assert before.exit_code == 0, before.output
        pipe = pipe_of(text)
        result = runner.invoke(main, ["fit", pipe])
        assert result.exit_code == 0, result.output
        assert result.output == before.output.replace(json.dumps(str(sweep_path)),
                                                      json.dumps(pipe))

    def test_pipe_names_a_bad_row(self, runner, tmp_path, pipe_of):
        """A bad row of a pipe is named as in a file, from the one read of its text."""
        sweep_path = tmp_path / "s.csv"
        self._sweep(runner, sweep_path, sample=True)
        self._edit_data_rows(sweep_path, lambda r: [r[0], ["abc", *r[1][1:]], *r[2:]])
        pipe = pipe_of(sweep_path.read_text(encoding="utf-8"))
        assert_one_line_error(runner.invoke(main, ["fit", pipe]),
                              f"{pipe}: data row 2: theta_deg must be a number, got 'abc'")

    def test_missing_columns_fail(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        result = runner.invoke(main, ["fit", str(bad)])
        assert result.exit_code != 0


class TestFigures:
    def test_figure6_two_level(self, runner, tmp_path):
        result = runner.invoke(main, [
            "figures", "--which", "6", "--state", "werner:0.9716", "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        with open(tmp_path / "figure6_theta45.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        high = {float(r["probability"]) for r in rows if r["b"] == "-2"}
        low = {float(r["probability"]) for r in rows if r["b"] == "2"}
        assert len(rows) == 16
        assert max(low) < min(high)
        assert max(high) - min(high) < 1e-12 and max(low) - min(low) < 1e-12

    def test_figures_7_and_8_per_theta_files(self, runner, tmp_path):
        assert runner.invoke(main, [
            "figures", "--which", "7", "--out-dir", str(tmp_path),
        ]).exit_code == 0
        assert runner.invoke(main, [
            "figures", "--which", "8", "--out-dir", str(tmp_path),
        ]).exit_code == 0
        for theta in (0, 20, 40):
            assert (tmp_path / f"figure7_theta{theta}.csv").is_file()
        for theta in (50, 70, 90):
            assert (tmp_path / f"figure8_theta{theta}.csv").is_file()

    def test_figure9_singlet_on_line(self, runner, tmp_path):
        assert runner.invoke(main, [
            "figures", "--which", "9", "--state", "singlet", "--out-dir", str(tmp_path),
        ]).exit_code == 0
        fit = json.loads((tmp_path / "figure9_fit.json").read_text())
        with open(tmp_path / "figure9.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                predicted = fit["slope"] * float(row["p_bflip"]) + fit["intercept"]
                assert float(row["probability"]) == pytest.approx(predicted, abs=1e-9)
        assert fit["bell_magnitude"] == pytest.approx(CIRELSON_BOUND, abs=1e-9)

    def test_svg_outputs_parse(self, runner, tmp_path):
        assert runner.invoke(main, [
            "figures", "--which", "6", "--format", "svg", "--out-dir", str(tmp_path),
        ]).exit_code == 0
        assert runner.invoke(main, [
            "figures", "--which", "9", "--format", "svg", "--state", "singlet",
            "--out-dir", str(tmp_path),
        ]).exit_code == 0
        for name in ("figure6_theta45.svg", "figure9.svg"):
            root = ET.parse(tmp_path / name).getroot()
            assert root.tag.endswith("svg")

    def test_sampled_figures_deterministic(self, runner, tmp_path):
        for sub in ("one", "two"):
            assert runner.invoke(main, [
                "figures", "--which", "6", "--sample", "--seed", "4",
                "--out-dir", str(tmp_path / sub),
            ]).exit_code == 0
        a = (tmp_path / "one" / "figure6_theta45.csv").read_bytes()
        b = (tmp_path / "two" / "figure6_theta45.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("sample", [False, True])
    def test_csv_columns_and_wrote_lines(self, runner, tmp_path, sample):
        extra = ["--sample", "--seed", "3"] if sample else []
        result = runner.invoke(main, ["figures", "--which", "6", "--out-dir", str(tmp_path), *extra])
        assert result.output == f"wrote {tmp_path / 'figure6_theta45.csv'}\n"
        header = "theta_deg,x_a,y_a,x_b,y_b,b,probability"
        assert csv_header(tmp_path / "figure6_theta45.csv") == header + (",counts,p_obs" if sample else "")
        result = runner.invoke(main, ["figures", "--which", "9", "--out-dir", str(tmp_path), *extra])
        fit_path = tmp_path / "figure9_fit.json"
        assert result.output == f"wrote {tmp_path / 'figure9.csv'}\nwrote {fit_path}\n"
        header = "theta_deg,x_a,y_a,x_b,y_b,p_bflip,probability"
        assert csv_header(tmp_path / "figure9.csv") == header + (",p_obs,std_err" if sample else "")
        fit = json.loads(fit_path.read_text())
        assert list(fit) == FIT_KEYS
        assert fit_path.read_text() == json.dumps(fit, indent=2) + "\n"

    @pytest.mark.parametrize("state", ["singlet", "werner:0.9716"])
    @pytest.mark.parametrize("seed", [None, 1, 2, 3], ids=["exact", "seed1", "seed2", "seed3"])
    def test_figure9_fit_is_the_head_of_fits_report(self, runner, tmp_path, state, seed):
        """figure9_fit.json is keys 3 to 7 of ``fit``'s report on a sweep of the same grid, bit
        for bit.  ``figures`` and ``sweep`` default to different mean totals, so the sampled runs
        pass one."""
        args = ["--state", state]
        if seed is not None:
            args += ["--sample", "--mean-total", "568352", "--seed", str(seed)]
        result = runner.invoke(main, ["figures", "--which", "9", *args, "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        thetas = ",".join(str(t) for t in range(0, 91, 10))
        sweep = ["sweep", *args, "--thetas", thetas, "--out", str(tmp_path / "s.csv")]
        assert runner.invoke(main, sweep).exit_code == 0
        report = run_json(runner, ["fit", str(tmp_path / "s.csv")])
        head = dict(list(report.items())[2:7])
        assert list(head) == FIT_KEYS
        assert (tmp_path / "figure9_fit.json").read_text() == json.dumps(head, indent=2) + "\n"

    def test_figure9_names_a_zero_count_point_as_fit_does(self, runner, tmp_path):
        """A sampled view 9 with a minimal outcome of 0 counts, whose std_err is 0, fails with
        that point named as ``fit`` names it in the same sweep, and writes no file.  At seed 40
        two minimal outcomes of theta 70 have 0 counts: both name the first in file order."""
        for seed, point, row in [(1, "(+,+;+,-) at theta_deg 20.0", 34),
                                 (40, "(+,-;-,-) at theta_deg 70.0", 120)]:
            args = ["--state", "singlet", "--sample", "--mean-total", "1000", "--seed", str(seed)]
            result = runner.invoke(main, ["figures", "--which", "9", *args,
                                          "--out-dir", str(tmp_path / "figures")])
            assert_one_line_error(result, f"Error: outcome {point} has 0 counts, "
                                          "so its std_err is 0\n")
            assert not (tmp_path / "figures").exists()
            thetas = ",".join(map(repr, FIT_GRID))
            sweep = ["sweep", *args, "--thetas", thetas, "--out", str(tmp_path / "s.csv")]
            assert runner.invoke(main, sweep).exit_code == 0
            fitted = runner.invoke(main, ["fit", str(tmp_path / "s.csv")])
            assert_one_line_error(fitted, f"data row {row}: {result.output.removeprefix('Error: ')}")

    def test_unknown_figure_rejected(self, runner):
        result = runner.invoke(main, ["figures", "--which", "5"])
        assert result.exit_code != 0


# sha256 of outputs for a fixed 19-angle grid: fit.json taken when a sweep's counts became
# one stream; exact.csv and sampled.csv, and sampled181.csv, 181 angles 0, 0.5, ..., 90 that
# span three blocks of the writer (twelve when it took 16 angles a block), taken when sweep
# files dropped p_obs and std_err, each the file of the version before cut to its first nine
# fields.  A change to the kernel, the sampler or the writers that moves one byte fails.
PINNED_SHA256 = {
    "exact.csv": "96b5dcf63af5ec5f5d1b406967c258f93bef8064a6c4b8e285cb2054b0c4e150",
    "sampled.csv": "f0174277931dccc11806d058a409d26ceb347068ecc7a43c97a0e26fcb006334",
    "fit.json": "01661dafeb380676844b16e8a059520d163230718f5a18e06d6033ae48a07122",
    "sampled181.csv": "835ddb3070cf4f16898fc04898f3a0df5c98e9739462c360610726a07d31c9f7",
}


def test_sweep_and_fit_bytes_pinned(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    thetas = ",".join(str(t) for t in range(0, 91, 5))
    sweep = ["sweep", "--state", "werner:0.9716", "--thetas", thetas]
    assert runner.invoke(main, [*sweep, "--out", "exact.csv"]).exit_code == 0
    assert runner.invoke(main, [*sweep, "--sample", "--mean-total", "568352", "--seed", "11",
                                "--out", "sampled.csv"]).exit_code == 0
    assert runner.invoke(main, ["fit", "sampled.csv", "--out", "fit.json"]).exit_code == 0
    dense = ",".join(repr(t / 2) for t in range(181))
    assert runner.invoke(main, [*sweep[:3], "--thetas", dense, "--sample", "--mean-total", "568352",
                                "--seed", "11", "--out", "sampled181.csv"]).exit_code == 0
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert digests == PINNED_SHA256


# The whole stdout of ``validate``, taken when its suites were stacked over their states and
# angles; byte for byte the output of the per-call suites before them.  Most details are
# float rounding dust (eigenvalues from LAPACK among them), so a change to a suite's inputs,
# its arithmetic or the library it checks that moves one printed digit fails.
VALIDATE_STDOUT = """\
PASS  povm-positivity: min element eigenvalue -6.94e-17
PASS  povm-completeness: max |sum - I| = 2.22e-16
PASS  uncertainty-boundary: vx^2+vy^2 > 1 always breaks positivity
PASS  observable-algebra: max defect 4.44e-16
PASS  werner-linearity: max |error| 8.88e-16
PASS  distribution-normalization: |sum-1| <= 4.44e-16, min prob 0.00e+00
PASS  marginal-consistency: max |error| 1.11e-16
PASS  theta45-degeneracy: max in-group spread 2.78e-17
PASS  visibility-scaling: max |error| 4.44e-16
PASS  flip-convolution: max |error| 8.33e-17
PASS  line-consistency: max |error| 5.55e-17
PASS  flip-floor: min p_bflip 0.146447 vs floor 0.146447
PASS  minimal-outcome-monotonicity: minima at 22.5 and 67.5 degrees with monotone flanks
PASS  visibility-circle: max |radius - 1| 2.22e-16
PASS  count-roundtrip: max deviation 1.63 sigma; text round-trips
15/15 suites passed
"""


def test_validate_stdout_pinned(runner):
    result = runner.invoke(main, ["validate"])
    assert result.exit_code == 0, result.output
    assert result.output == VALIDATE_STDOUT


REPORT_SHA256 = {
    "simulate.json": "e204cf19ac6e73eb5753ee230545cbc950dee881043cde3197d8e64371e8b926",
    "simulate.csv": "2f18e4aa7c18b643dd68204698cbdd816dbb3624f186a699d403fce4fe0984f1",
    "counts.csv": "0498d18c1355fc2c94396a416b04695a47877fd6e39d9040e792c4159db32a5e",
    "analyze.json": "fd7270b33275f5941133de13c81f477930d4371b93ca69e8860fde26eb970736",
    "analyze.csv": "70a1236d78ff5cdedb65e98a384b3787486e6361d6b849fd1897b811acdf5d37",
}


def test_report_bytes_pinned(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    simulate = ["simulate", "--state", "werner:0.93", "--theta-a", "12.3", "--theta-b", "77.1"]
    analyze = ["analyze", "counts.csv", "--theta-a", "20", "--theta-b", "20"]
    commands = [
        [*simulate, "--out", "simulate.json"],
        [*simulate, "--format", "csv", "--out", "simulate.csv"],
        ["counts", "--state", "werner:0.9716", "--theta-a", "20", "--theta-b", "20",
         "--mean-total", "568352", "--seed", "7", "--out", "counts.csv"],
        [*analyze, "--out", "analyze.json"],
        [*analyze, "--format", "csv", "--out", "analyze.csv"],
    ]
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in REPORT_SHA256}
    assert digests == REPORT_SHA256


# sha256 of every preset view at the default state and grids, exact and sampled with
# --seed 3.  Figures run on the kernel path, so a change there that moves one byte fails.
FIGURES_SHA256 = {
    "exact/figure6_theta45.csv": "70132eb7987067587416ffb0c41a6d7f5c922798e218fb8971aaa9daa1bfd34d",
    "exact/figure6_theta45.svg": "62bd949342267394520a43bd6ee2ce3fb98c6b75c94ef0cf84645c0ae4eb8a58",
    "exact/figure7_theta0.csv": "5d99b8270ef09616f98d375c515eee5d842716e5b73b8668d333a994e0dd33a1",
    "exact/figure7_theta0.svg": "60ef497761f282b5e4167dbbe5ba0567241c06cebfa378f8f84e412528a0075b",
    "exact/figure7_theta20.csv": "6188d961f1a36c477825d85ca46f69ea0fe7a9fd9f0565ddd58fbe34b3d562e0",
    "exact/figure7_theta20.svg": "b8d9b9aa427436cdf6b5be17853ac5ab0a21a29a70c78704db3e054f24ad6590",
    "exact/figure7_theta40.csv": "6517ee4bb06fe23c393fd19d0f379aa427e8ca15bce00942ae217c8ecf80136f",
    "exact/figure7_theta40.svg": "f1b952fa6ccae12b4fa98e74ff86a35653d8498551485139c62ea1daa67fdcd9",
    "exact/figure8_theta50.csv": "bf27b4102bb4aa157544ce6f0cd53269016751de12693b7ca88f6ffb88a4f2cc",
    "exact/figure8_theta50.svg": "d876c7160486d2a89a866b89e744bbeb673dc512d7b7aea820e8d994756d110a",
    "exact/figure8_theta70.csv": "3a699897b3ea9ff87f6d239463cd5102810a0bf9970948808e867cde9fe008b0",
    "exact/figure8_theta70.svg": "b540a3f0caab14d6211ce4cb840ec3ecb3e4b53426cc9a8216afecd526e179a3",
    "exact/figure8_theta90.csv": "c48a05361bda39b6f5227acf9e476754db89498e96ad8a4c2e5075454ee21b2a",
    "exact/figure8_theta90.svg": "37c6c618ad41628426ab9aa433dc904f8a0164cc802f4dba00c2e1e11586d9b9",
    "exact/figure9.csv": "5ea600e8208dc71b6ef73b6c689005f33de45494293ec401216e6473f5f34a3a",
    "exact/figure9.svg": "56c065435f9137343060a0d8ed24248c1a96b2d3339b344a44912c9e718bf279",
    "exact/figure9_fit.json": "d8c2005ccd93cbb934a2ad14eb8bd578bd33bcc327832c8fea1551f4d8124bf3",
    "sampled/figure6_theta45.csv": "b3563cbb142bc7a49f488831f2d271756e87f9db1e378e0086bb656fdf02268f",
    "sampled/figure6_theta45.svg": "06ead4018d09c5f467d559ee1044cff43290b0fc8f704dce9c78f941b1d43cb1",
    "sampled/figure7_theta0.csv": "8e49824a7104d7a16e3f9970a4047aa0f0e45efbb6decf45516e6f526742f784",
    "sampled/figure7_theta0.svg": "85500aea6a31c93dec6fc5a847e42e97d519521d324c4ff71c6b5f124bc385f9",
    "sampled/figure7_theta20.csv": "2ad00f92db798ccb4c3ad9a1f86334ce9d9aa493da6de4b17a6d6ac47ceb070f",
    "sampled/figure7_theta20.svg": "e7d60ef043bed5aaef27cc8e6346c2aae06980d1d93a9bbb45291569bccc09f7",
    "sampled/figure7_theta40.csv": "e2d19d061ed962a5eb28caf2994675f849bc453735e2d8412e8eaef92b469da1",
    "sampled/figure7_theta40.svg": "8da42a079002d384897d682a679473472f2072774a608c141bd0790eca8f7c03",
    "sampled/figure8_theta50.csv": "f93ed275e45fcc10b12a319a2d7ae7d5506aa3b2e14091a8147fa2247dbdc925",
    "sampled/figure8_theta50.svg": "0545cb24d97472a0762e61760d9ef1933e104398977d8e5d1c5e75b496732551",
    "sampled/figure8_theta70.csv": "be29b21b58f36cf3ceccba05263a3711b1854c6f5e9929cbbaca74a851503a0e",
    "sampled/figure8_theta70.svg": "5b8deaca1adb97cc84f8c1a1976cfb9a8562d38338cd95e0ea6b9c4b4cfdafcd",
    "sampled/figure8_theta90.csv": "d5ed71480564bc2006d191962bf409e16c8b9b819f87e165150fab700ed385a9",
    "sampled/figure8_theta90.svg": "150148cd147baa84dcf3c8d905f84a2ac56efd86a8acb5ac2dbf05786b725399",
    "sampled/figure9.csv": "9fe714d4f9f6ac0adad49712fd6ae462f4eeaa67815585d6fcc93703ab656ccb",
    "sampled/figure9.svg": "75ab46067983110ac411a702aebfa61c27ce5185a279f70623af7f2525467a01",
    "sampled/figure9_fit.json": "64b392eeec8541d3a6571a137ff188d7de9e9109d6df6b136812a69f5dfd8580",
}


def test_figures_bytes_pinned(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for sub, extra in (("exact", []), ("sampled", ["--sample", "--seed", "3"])):
        for which in ("6", "7", "8", "9"):
            for fmt in ("csv", "svg"):
                result = runner.invoke(main, ["figures", "--which", which, "--format", fmt,
                                              "--out-dir", sub, *extra])
                assert result.exit_code == 0, result.output
    written = sorted(p.as_posix() for p in Path().rglob("*.*"))
    assert written == sorted(FIGURES_SHA256)
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in FIGURES_SHA256}
    assert digests == FIGURES_SHA256


class TestValidate:
    @pytest.mark.parametrize(
        "check",
        selfcheck.ALL_CHECKS,
        ids=lambda check: check.__name__.removeprefix("check_").replace("_", "-"),
    )
    def test_suite_passes(self, check):
        result = check()
        assert result.passed, result.detail

    def test_validate_passes(self, runner):
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 0, result.output
        assert result.output.endswith("15/15 suites passed\n")

    def test_process_entry_point_prints_what_main_prints(self, capsys):
        """``python -m jointbell.cli`` runs through ``run``, which freezes the collector; an
        in-process ``main`` leaves it alone and prints the same bytes."""
        frozen = gc.get_freeze_count()
        main(["validate"], standalone_mode=False)
        assert gc.get_freeze_count() == frozen
        in_process = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "jointbell.cli", "validate"],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == in_process.encode()

    def test_raising_suite_fails_alone(self, monkeypatch, capsys):
        printed_before = []

        def check_exploding_suite():
            printed_before.append(capsys.readouterr().out)
            raise ValueError("negative outcome probability -1.831e-11")

        checks = list(selfcheck.ALL_CHECKS)
        checks[3] = check_exploding_suite
        monkeypatch.setattr(selfcheck, "ALL_CHECKS", tuple(checks))
        with pytest.raises(SystemExit) as exit_info:
            main(["validate"])
        assert exit_info.value.code == 1
        # The three suites before it printed their lines before it ran; the rest still ran.
        assert len(printed_before[0].splitlines()) == 3
        lines = (printed_before[0] + capsys.readouterr().out).splitlines()
        names = [c.__name__.removeprefix("check_").replace("_", "-") for c in checks]
        assert [line.split(":")[0] for line in lines[:15]] == [
            f"{'FAIL' if i == 3 else 'PASS'}  {name}" for i, name in enumerate(names)
        ]
        assert lines[3] == "FAIL  exploding-suite: raised ValueError: negative outcome probability -1.831e-11"
        assert lines[15:] == ["14/15 suites passed"]
