"""The README's "Library sketch" block runs as written, each `cort` line
of its "Command line" block parses, and its "Profile JSON format" example
loads and is written back unchanged, so that neither the public signatures,
the flags nor the interchange format it shows can drift from the code."""

import json
import re
import shlex
from pathlib import Path

import cort
from cort import cli
from cort.tree_code import load_profile

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    sketch = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    names = {}
    exec(code, names)
    assert isinstance(names["report"], cort.BoundReport)
    assert names["report"].profile == names["profile"]


def test_command_lines_parse():
    text = README.read_text()
    block = text[text.index("## Command line"):]
    shell = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    commands = [line for line in shell.replace("\\\n", " ").splitlines()
                if line.startswith("cort ")]
    assert [c.split()[1] for c in commands] \
        == ["bound", "sbp", "simulate", "tables"]
    parser = cli.build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_profile_json_example_round_trips(tmp_path):
    text = README.read_text()
    block = text[text.index("## Profile JSON format"):]
    example = re.search(r"```json\n(.*?)```", block, re.S).group(1)
    path = tmp_path / "profile.json"
    path.write_text(example)
    assert json.dumps(load_profile(path).to_json_dict()) == example.strip()
