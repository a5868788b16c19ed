"""The README's Python API example runs as written."""

import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python_api_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_python_api_example_runs(tmp_path, monkeypatch):
    shutil.copy(ROOT / "perfbench" / "inputs" / "tree.adt", tmp_path)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(python_api_block(), "README.md", "exec"), scope)
    assert scope["q"] == {"Tree": 1.0}
    assert scope["trace"].steps and scope["spec"].size == 10
    assert len(scope["values"]) == 100 and scope["stats"].samples == 100_000
