"""README's two quick starts, run exactly as written."""

import csv
import pathlib
import re

from prnls.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language: str) -> str:
    """The first fenced block of the given language in README.md."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)
    assert blocks, f"README.md has no ```{language} block"
    return blocks[0]


def test_library_quick_start_runs():
    scope = {}
    exec(compile(_block("python"), "README.md", "exec"), scope)
    assert scope["report"].converged


def test_cli_quick_start_runs(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(_block("ini"))
    out = tmp_path / "out"
    assert main(["solve", str(ini), "--output-dir", str(out)]) == 0
    with open(out / "solve.csv", newline="") as fh:
        assert [row["outcome"] for row in csv.DictReader(fh)] == ["converged"]
