"""The public API: the README tour runs as written, and every exported name
resolves."""

import pathlib
import re

import ghzstab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_all_names_resolve():
    assert len(set(ghzstab.__all__)) == len(ghzstab.__all__)
    for name in ghzstab.__all__:
        assert getattr(ghzstab, name, None) is not None, name
