"""The README's Python examples run against the library as documented, and
its sample configs (and their copy in the `cli` docstring) run through the
command line."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from stconvex import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)
INI_BLOCKS = re.findall(r"^```ini\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
DOCSTRING_CONFIG = textwrap.dedent(
    re.search(r"text file:\n\n(.*?)\n\nExpression payloads", cli.__doc__, re.DOTALL).group(1))
COMMANDS = ("certify", "barrier-scan", "geodesic-probe", "foliate", "slice-probe")
CONFIG_RUNS = [(f"{name}-{command}", text, command)
               for name, text in [*((f"readme-ini-{i}", b) for i, b in enumerate(INI_BLOCKS)),
                                  ("cli-docstring", DOCSTRING_CONFIG)]
               for command in COMMANDS if f"[{command}]" in text]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_every_subcommand_has_a_sample_config():
    assert INI_BLOCKS
    for text in INI_BLOCKS + [DOCSTRING_CONFIG]:
        assert all(f"[{command}]" in text for command in COMMANDS), text


@pytest.mark.parametrize("text, command", [run[1:] for run in CONFIG_RUNS],
                         ids=[run[0] for run in CONFIG_RUNS])
def test_sample_config_runs(tmp_path, text, command):
    """`python -m stconvex <command>` on the sample exits 0 or 2: the run
    completed and the condition was decided, with no usage or evaluation error."""
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "stconvex", command, "--config", str(config),
                           "--no-timestamp"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode in (0, 2), done.stderr
    assert done.stdout
