import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["p_err"] == pytest.approx(0.1478, abs=5e-5)
    assert namespace["dist"].probs.shape == (16,)
    assert namespace["fit"].bell_magnitude == pytest.approx(2.7476, abs=1e-9)
