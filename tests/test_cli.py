import csv
import hashlib
import html
import io
import json
import math
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import click
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointbell import selfcheck
from jointbell.cli import (
    RunConfig,
    _write_json,
    _write_output,
    build_config,
    main,
    parse_config_text,
    parse_state_spec,
)
from jointbell.core import CIRELSON_BOUND, werner_state
from jointbell.sim import ALL_OUTCOMES, CountTable, format_count_table, joint_distribution

ROOT2 = math.sqrt(2.0)


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


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


def test_import_pulls_in_no_network_modules():
    code = ("import sys, jointbell.cli; "
            "print(sorted({'ssl', 'http.client', 'urllib.request'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"


def test_svg_escape_matches_html_escape():
    from jointbell.figures import _escape

    text = "a & b < c > d \"e\" 'f' &amp;"
    assert _escape(text) == html.escape(text, quote=False)


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

    def test_flags_override_file(self):
        config = build_config({"theta_a": 10.0, "theta_b": 20.0}, theta_a=55.0)
        assert config.theta_a == 55.0
        assert config.theta_b == 20.0
        assert config.state == RunConfig().state

    def test_format_validated(self):
        with pytest.raises(ValueError):
            build_config(None, format="yaml")

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

    def test_matrix_file_state(self, runner, tmp_path):
        path = tmp_path / "rho.txt"
        np.savetxt(path, werner_state(0.975).rho.astype(complex))
        report = run_json(runner, ["simulate", "--state", str(path)])
        assert report["p_b_plus"] == pytest.approx(0.5 - 0.975 * ROOT2 / 4, abs=1e-9)

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
        assert ("count table is empty" if "1e-300" in args else "positive") in result.output
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
        header = "theta_deg,x_a,y_a,x_b,y_b,b,p_theory,p_bflip,counts,p_obs,std_err"
        for sample in ([], ["--sample", "--mean-total", "1000", "--seed", "2"]):
            out = tmp_path / "nested" / "s.csv"
            result = runner.invoke(main, [
                "sweep", "--state", "singlet", "--thetas", "0,45", "--out", str(out), *sample,
            ])
            assert result.output == f"wrote {out}\n"
            lines = out.read_text().splitlines()
            assert lines[0] == header and len(lines) == 33
            assert lines[1].endswith(",,,") != bool(sample)

    def test_empty_theta_list_fails(self, runner):
        result = runner.invoke(main, ["sweep", "--state", "singlet", "--thetas", " , "])
        assert result.exit_code != 0

    def test_sampled_sweep_deterministic(self, runner, tmp_path):
        args = [
            "sweep", "--state", "werner:0.97", "--thetas", "0,45,90", "--sample",
            "--mean-total", "100000", "--seed", "12",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()


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

    @pytest.mark.parametrize("edit, fragment", [
        pytest.param(lambda f: f[:-1] + [""], "could not convert", id="blank-std-err"),
        pytest.param(lambda f: f[:-1], "could not convert", id="short-row"),
        pytest.param(lambda f: f[:-2] + ["nan", f[-1]], "finite", id="nan-p-obs"),
        pytest.param(lambda f: f[:-1] + ["1e-200"], "weights", id="tiny-std-err"),
        pytest.param(lambda f: f[:-1] + ["1e-160"], "weights", id="subnormal-variance"),
        pytest.param(lambda f: f[:-1] + ["1e200"], "weights", id="huge-std-err"),
        pytest.param(lambda f: f[:-2] + ["1e308", f[-1]], "not finite", id="huge-p-obs"),
    ])
    def test_bad_sampled_row_names_file(self, runner, tmp_path, edit, fragment):
        sweep_path = tmp_path / "s.csv"
        self._sweep(runner, sweep_path, sample=True)
        lines = sweep_path.read_text().splitlines()
        # Rows of the minimal outcome (+,+;+,-) enter the fit.
        i = next(i for i, line in enumerate(lines) if line.split(",")[1:5] == ["1", "1", "1", "-1"])
        lines[i] = ",".join(edit(lines[i].split(",")))
        sweep_path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["fit", str(sweep_path)])
        assert_one_line_error(result, str(sweep_path), fragment)

    def test_missing_std_err_column_names_file(self, runner, tmp_path):
        sweep_path = tmp_path / "s.csv"
        self._sweep(runner, sweep_path, sample=True)
        lines = [line.rsplit(",", 1)[0] for line in sweep_path.read_text().splitlines()]
        sweep_path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["fit", str(sweep_path)])
        assert_one_line_error(result, str(sweep_path), "could not convert")

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

    def test_unknown_figure_rejected(self, runner):
        result = runner.invoke(main, ["figures", "--which", "5"])
        assert result.exit_code != 0


# sha256 of outputs for a fixed 19-angle grid: exact.csv taken before the sweep became an
# array pipeline, sampled.csv and fit.json when a sweep's counts became one stream.  A
# change to the kernel, the sampler or the writers that moves one byte fails.
PINNED_SHA256 = {
    "exact.csv": "f14d5f0ca72cd39fb8aae95f2661e330df547d7b8a79b7151b4baf72ab6ee148",
    "sampled.csv": "cea9797b81683de1e9ea813c768a6374206f9faa27aabbeaf18c67719e973b32",
    "fit.json": "01661dafeb380676844b16e8a059520d163230718f5a18e06d6033ae48a07122",
}


def test_sweep_and_fit_bytes_pinned(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    thetas = ",".join(str(t) for t in range(0, 91, 5))
    sweep = ["sweep", "--state", "werner:0.9716", "--thetas", thetas]
    assert runner.invoke(main, [*sweep, "--out", "exact.csv"]).exit_code == 0
    assert runner.invoke(main, [*sweep, "--sample", "--mean-total", "568352", "--seed", "11",
                                "--out", "sampled.csv"]).exit_code == 0
    assert runner.invoke(main, ["fit", "sampled.csv", "--out", "fit.json"]).exit_code == 0
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert digests == PINNED_SHA256


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
