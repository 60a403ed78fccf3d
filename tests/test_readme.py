"""The README's command-line examples, run through `nvswap.cli.main`: each
printed block must be the command's output byte for byte.

Every fenced block that starts with `# <command>.cfg` is a config; the next
plain fenced block after it is what the command prints.  A `...` line in a
printed block stands for rows the README leaves out: the rows before it must
open the output, the rows after it must close it, and at least one row must
lie between them.
"""

import re
from pathlib import Path

import pytest

from nvswap import cli

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)


def readme_examples() -> dict[str, tuple[str, str]]:
    blocks = [(match.group(1), match.group(2)) for match in FENCE.finditer(README.read_text())]
    examples = {}
    for i, (language, body) in enumerate(blocks):
        config = re.match(r"# (\w+)\.cfg\n", body)
        if language == "" and config:
            printed = next(text for lang, text in blocks[i + 1 :] if lang == "")
            examples[config.group(1)] = (body, printed)
    return examples


EXAMPLES = readme_examples()


def test_every_command_has_an_example():
    assert sorted(EXAMPLES) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(EXAMPLES))
def test_readme_example_output(command, tmp_path, capsys):
    config, printed = EXAMPLES[command]
    path = tmp_path / f"{command}.cfg"
    path.write_text(config)
    assert cli.main([command, "--config", str(path)]) == 0
    output = capsys.readouterr().out
    rows = printed.splitlines(keepends=True)
    if "...\n" not in rows:
        assert output == printed
        return
    cut = rows.index("...\n")
    head, tail = rows[:cut], rows[cut + 1 :]
    got = output.splitlines(keepends=True)
    assert len(got) > len(head) + len(tail)
    assert got[: len(head)] == head
    assert got[len(got) - len(tail) :] == tail
