import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from jointbell.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["p_err"] == pytest.approx(0.1478, abs=5e-5)
    assert namespace["dist"].probs.shape == (16,)
    assert namespace["fit"].bell_magnitude == pytest.approx(2.7476, abs=1e-9)


def test_command_line_examples_run(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("jointbell ")]
    assert [args[0] for args in commands] == [
        "simulate", "counts", "analyze", "sweep", "fit", "sweep", "figures", "validate",
    ]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("JOINTBELL_OUTPUT_DIR", raising=False)
    runner = CliRunner()
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
