"""The README's Python examples run as written, in order, from the repo root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_python_blocks_run(monkeypatch, capsys):
    blocks = BLOCK.findall((ROOT / "README.md").read_text())
    assert len(blocks) == 4
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert "route s_squared needs the dfs4 code" in capsys.readouterr().out
