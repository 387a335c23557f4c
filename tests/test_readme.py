"""The README's library example runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_library_use_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"Minimal library use:\s*```python\n(.*?)```", text, re.S)
    assert match, "README has no 'Minimal library use' python block"
    namespace = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    lhs, rhs = namespace["lhs"], namespace["rhs"]
    assert len(lhs) == len(rhs) == 1001
    final, holds = capsys.readouterr().out.split()
    assert float(final) == lhs[-1]
    assert holds == "True"
