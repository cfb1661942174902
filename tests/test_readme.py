"""The README's library example and CLI examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from spiked_eigvec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    statistic, passed = capsys.readouterr().out.split()
    assert 0.0 < float(statistic) < 1.0 and passed == "True"


def _cli_examples():
    """(argv, exit code) of each `spiked-eigvec` line of the CLI section's bash
    block; the comment above a line documents a nonzero code as "expects exit N"."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    examples, code = [], 0
    for line in block.splitlines():
        if line.startswith("#"):
            documented = re.search(r"expects exit (\d)", line)
            code = int(documented.group(1)) if documented else 0
        elif line.startswith("spiked-eigvec "):
            examples.append((shlex.split(line)[1:], code))
    return examples


CLI_EXAMPLES = _cli_examples()


@pytest.mark.parametrize("argv,code", CLI_EXAMPLES, ids=[f"{a[0]}-{a[2]}" for a, _ in CLI_EXAMPLES])
def test_readme_cli_example_runs(argv, code, tmp_path):
    argv = list(argv)
    out = argv.index("--out") + 1
    argv[out] = str(tmp_path / argv[out])
    assert main(argv) == code
    assert Path(argv[out]).exists()


def test_readme_cli_examples_include_the_negative_control():
    # The control samples one theta and tests another; the other example that
    # exits 1 is the n = 30 limit-law verdict at 100,000 draws.
    assert [code for argv, code in CLI_EXAMPLES if "--data-theta" in argv] == [1]
    assert [code for _, code in CLI_EXAMPLES].count(1) == 2
