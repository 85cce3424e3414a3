"""README.md's quickstarts: the ```python block runs and prints what its
comments say, and the ```ini block loads."""

import re
from pathlib import Path

from symquant.config import parse_config_text

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(lang: str) -> str:
    """The one ```lang block of the README."""
    found = re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert len(found) == 1
    return found[0]


def test_library_quickstart_runs_as_documented(capsys):
    ns = {}
    exec(compile(block("python"), "README.md", "exec"), ns)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "frr-report seed=1 samples=1000 checked=930 skipped=70 violations=0"
    assert lines[1].startswith("run completed: phases 4/4")
    ts = ns["ts"]
    assert (len(ts.ids), ts.n_transitions) == (25, 9875)


def test_cli_quickstart_config_loads():
    # unknown sections and keys fail at load, so this keeps the block free
    # of them too
    cfg = parse_config_text(block("ini"))
    assert (cfg.system.n, cfg.system.m, cfg.lipschitz) == (2, 1, 6.0)
