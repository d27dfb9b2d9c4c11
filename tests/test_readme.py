"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from pcpsketch import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_python_examples_run():
    blocks = _blocks("python")
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # the second reuses the first one's imports
        exec(compile(block, "README.md", "exec"), namespace)


def test_command_line_examples_exit_0_or_2(tmp_path, monkeypatch, capsys):
    section = README.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, flags=re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[0] for argv in commands] == ["pcp"] * 7
    monkeypatch.chdir(tmp_path)  # gen writes a.csv, which the next lines read
    for argv in commands:
        code = cli.main(argv[1:])
        assert code in (0, 2), (argv, code, capsys.readouterr().err)
