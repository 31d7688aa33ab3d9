"""CLI output compared byte for byte against golden text.

Covers the bundled two-field config, a small degenerate one and the bundled
source behind a tabulated signal filter with an unfiltered idler, over the
rate-bearing subcommands in all three formats. The config path in the
metadata is replaced by ``<config>`` so the text does not depend on where
the checkout lives.

Regenerate the golden files (only at a commit whose output is the
reference) with:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
from importlib import resources
from pathlib import Path

import pytest

from spdckit.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CONFIGS = {
    "bundled": str(resources.files("spdckit").joinpath("data/ppktp_800_typeII.cfg")),
    "degenerate": str(GOLDEN_DIR / "degenerate.cfg"),
    "tabulated": str(GOLDEN_DIR / "tabulated.cfg"),
}
COMMANDS = (
    ["sfg"],
    ["pairs"],
    ["singles", "--basis-order", "40"],
    ["singles", "--basis-order", "120"],
    ["correlation", "--points", "401"],
    ["sweep", "--sweep", "P_p=0.5:2:3", "--sweep", "Gamma_s=1:5:3"],
    ["sweep", "--sweep", "kappa=-5:-1:5"],
    ["sweep", "--sweep", "zeta_R=0.1:1:4"],
)
FORMATS = ("table", "csv", "ndjson")
CASES = [(name, cmd, fmt) for name in CONFIGS for cmd in COMMANDS for fmt in FORMATS]


def _header(cmd: list[str], fmt: str) -> str:
    return f"$ spdckit {' '.join(cmd)} --format {fmt}\n"


def run_cli(config: str, cmd: list[str], fmt: str) -> str:
    path = CONFIGS[config]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*cmd, "--config", path, "--format", fmt])
    assert code == 0, f"{cmd} exited {code}"
    return buf.getvalue().replace(path, "<config>")


def _golden_file(config: str) -> Path:
    return GOLDEN_DIR / f"cli_{config}.txt"


def read_golden(config: str) -> dict[str, str]:
    """Golden file -> {section header: output text}."""
    sections: dict[str, str] = {}
    header = None
    for line in _golden_file(config).read_text().splitlines(keepends=True):
        if line.startswith("$ spdckit "):
            header = line
            sections[header] = ""
        else:
            sections[header] += line
    return sections


@pytest.mark.parametrize(
    "config,cmd,fmt",
    CASES,
    ids=[f"{name}-{'-'.join(c.lstrip('-') for c in cmd)}-{fmt}" for name, cmd, fmt in CASES],
)
def test_cli_output_matches_golden(config, cmd, fmt):
    golden = read_golden(config)
    assert run_cli(config, cmd, fmt) == golden[_header(cmd, fmt)]


def write_golden() -> None:
    for config in CONFIGS:
        parts = [
            _header(cmd, fmt) + run_cli(config, cmd, fmt)
            for cmd in COMMANDS
            for fmt in FORMATS
        ]
        _golden_file(config).write_text("".join(parts))


if __name__ == "__main__":
    write_golden()
