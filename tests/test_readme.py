"""The README's configuration example, usage block and verify row count stay
in step with the code: the example parses and builds, every command it
shows exists, and `gsteady verify all` gives the rows it names."""

import re
from pathlib import Path

from gsteady import verify
from gsteady.cli import main
from gsteady.config import build_setup, parse_config_text

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _first_block(lang, text=README):
    return re.search(rf"^```{lang}\n(.*?)^```", text, re.M | re.S).group(1)


def test_readme_config_example_builds():
    values = parse_config_text(_first_block("ini"))
    setup = build_setup(values)
    assert setup.engine.n == values["engine.N"]
    assert setup.model.kind == values["restitution.kind"]


def test_readme_usage_commands_exist():
    usage = _first_block("sh", README.split("## Command-line usage", 1)[1])
    commands = re.findall(r"^gsteady (\S+)", usage, re.M)
    assert len(commands) >= 5
    assert set(commands) <= set(main.commands)


def test_readme_verify_all_row_count():
    rows = int(re.search(r"\(every check, (\d+) rows\)", README).group(1))
    assert rows == len(verify.run_suite("all"))
