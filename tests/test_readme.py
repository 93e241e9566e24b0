"""README's examples run as written: the library quick tour, and every
`qgns` line of the CLI block, each through cli.execute in a temporary
directory."""
from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from qgns.cli import execute

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ```lang fenced block after the heading."""
    section = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("## Library quick tour", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "True"


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    env, ran = {}, 0
    for line in _block("## CLI", "sh").splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        if words[0] == "printf":  # printf 'text' > file
            assert words[2:3] == [">"], line
            text = words[1].encode().decode("unicode_escape")
            Path(words[3]).write_text(text, encoding="utf-8")
        elif re.fullmatch(r"\w+=\$\(python3 -c .*\)", line.strip()):  # VAR=$(python3 -c '...')
            name, command = line.split("=", 1)
            code = shlex.split(command[2:-1])[2]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(code, {})
            env[name.strip()] = out.getvalue().strip()
        else:
            assert words[0] == "qgns", line
            argv = [env.get(w[1:], w) if w.startswith("$") else w for w in words[1:]]
            assert execute(argv) == 0, line
            ran += 1
    capsys.readouterr()
    assert ran == 8
