"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)  # the block writes sphere.obj
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert (tmp_path / "sphere.obj").stat().st_size > 0
