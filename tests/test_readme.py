"""The README's configuration example and usage block stay in step with the
code: the example parses and builds, and every command it shows exists."""

import re
from pathlib import Path

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
