"""CLI output compared byte for byte against golden text.

Covers the bundled two-field config, a small degenerate one and the bundled
source behind a tabulated signal filter with an unfiltered idler, over the
rate-bearing subcommands in all three formats. The config path in the
metadata is replaced by ``<config>`` so the text does not depend on where
the checkout lives.

Regenerate the golden files (only at a commit whose output is the
reference) with:

    PYTHONPATH=src python tests/test_cli_golden.py

and see first, without writing anything, how the current output moves
against them (changed lines, largest relative move of a numeric token, any
non-numeric change) with:

    PYTHONPATH=src python tests/test_cli_golden.py --compare [--max-rel 1e-13]

which exits 1 on any non-numeric change or relative move above --max-rel,
and 0 otherwise.
"""

import argparse
import contextlib
import io
import math
import re
import sys
from importlib import resources
from pathlib import Path

import pytest

from spdckit import modebasis
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
    ["sweep", "--sweep", "kappa=-5:-1:3", "--sweep", "P_p=0.5:2:2"],
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
    assert_same_output(run_cli(config, cmd, fmt), read_golden(config)[_header(cmd, fmt)])


def assert_same_output(got: str, want: str, label: str = "") -> None:
    """Fail unless got == want, naming the first differing line.

    pytest's own diff of two strings this long takes minutes.
    """
    if got == want:
        return
    prefix = f"{label}: " if label else ""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            pytest.fail(f"{prefix}line {n} differs:\n  got:  {g}\n  want: {w}", pytrace=False)
    pytest.fail(
        f"{prefix}{len(got_lines)} lines, golden has {len(want_lines)} (or line ends differ)",
        pytrace=False,
    )


@pytest.mark.parametrize(
    "cmd", [["sfg"], ["pairs"], ["correlation", "--points", "401"]], ids=lambda cmd: cmd[0]
)
@pytest.mark.parametrize("config", CONFIGS)
def test_pair_side_commands_run_no_mode_sum(monkeypatch, config, cmd):
    # A pair rate takes I_SFG alone; pairs used to run both arms' mode sums.
    def no_mode_sum(*args, **kwargs):
        raise AssertionError("modebasis._mode_sums called")

    monkeypatch.setattr(modebasis, "_mode_sums", no_mode_sum)
    golden = read_golden(config)
    for fmt in FORMATS:
        assert_same_output(run_cli(config, cmd, fmt), golden[_header(cmd, fmt)], fmt)


def test_assert_same_output_names_the_first_differing_line():
    want = "".join(f"row {n}\n" for n in range(400))
    assert_same_output(want, want)
    with pytest.raises(pytest.fail.Exception, match=r"pairs: line 8 differs:\n  got:  row x"):
        assert_same_output(want.replace("row 7\n", "row x\n"), want, "pairs")
    with pytest.raises(pytest.fail.Exception, match="399 lines, golden has 400"):
        assert_same_output(want[: -len("row 399\n")], want)


def test_compare_lines_separates_numbers_from_text():
    move, text = compare_lines("a  1.0  2.5e-3  x", "a  1.0000000000000002  2.5e-3  x")
    assert move == pytest.approx(2.22e-16, rel=1e-3) and not text
    # Wider table columns are no text change; a changed word or a new token is.
    assert compare_lines("a 1 b", "a    1 b") == (0.0, False)
    assert compare_lines("a 1 b", "c 1 b")[1]
    assert compare_lines('{"x": 2.0, "e": null}', '{"x": 2.0, "e": "V1"}')[1]


def test_compare_golden_passes_only_small_numeric_moves(monkeypatch):
    goldens = {config: _golden_file(config).read_text() for config in CONFIGS}
    # Move the first number of one file's first data row by 4.4e-13 relative.
    old_line = next(line for line in goldens["bundled"].splitlines() if _NUMBER.match(line))
    number = _NUMBER.split(old_line)[1]
    moved = old_line.replace(number, repr(float(number) * (1.0 + 4.4e-13)), 1)
    outputs = {**goldens, "bundled": goldens["bundled"].replace(old_line, moved, 1)}
    monkeypatch.setitem(globals(), "generate", outputs.__getitem__)
    assert compare_text(goldens["bundled"], outputs["bundled"])[::2] == (1, False)
    assert not compare_golden(1e-13)
    assert compare_golden(1e-12)
    outputs["degenerate"] += "new line\n"
    assert not compare_golden(1e-12)


def generate(config: str) -> str:
    return "".join(
        _header(cmd, fmt) + run_cli(config, cmd, fmt) for cmd in COMMANDS for fmt in FORMATS
    )


def write_golden() -> None:
    for config in CONFIGS:
        _golden_file(config).write_text(generate(config))


# A numeric token; the split keeps it, so odd pieces are numbers.
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan)")


def compare_lines(old: str, new: str) -> tuple[float, bool]:
    """(largest relative move of a numeric token, whether other text changed).

    Whitespace runs count as one separator, so table columns that widen
    with the digits are no text change.
    """
    a, b = _NUMBER.split(old), _NUMBER.split(new)
    if len(a) != len(b):
        return 0.0, True
    text_changed = any(x.split() != y.split() for x, y in zip(a[::2], b[::2]))
    move = 0.0
    for x, y in zip(a[1::2], b[1::2]):
        u, v = float(x), float(y)
        if u != v:
            scale = max(abs(u), abs(v))
            move = max(move, abs(u - v) / scale if math.isfinite(scale) else math.inf)
    return move, text_changed


def compare_text(old: str, new: str) -> tuple[int, float, bool]:
    """(lines changed, largest relative move of a numeric token, whether other text changed)."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    moves = [compare_lines(x, y) for x, y in zip(old_lines, new_lines) if x != y]
    largest = max((m for m, _ in moves), default=0.0)
    text = len(old_lines) != len(new_lines) or any(t for _, t in moves)
    return len(moves), largest, text


def compare_golden(max_rel: float) -> bool:
    """Print, per golden file, how the current output differs from it.

    True when every change is a numeric move of at most max_rel relative.
    """
    ok = True
    for config in CONFIGS:
        old, new = _golden_file(config).read_text(), generate(config)
        changed, largest, text = compare_text(old, new)
        n_old, n_new = len(old.splitlines()), len(new.splitlines())
        print(
            f"{_golden_file(config).name}: {changed} of {n_old} lines changed"
            f"{f' (now {n_new} lines)' if n_new != n_old else ''}, "
            f"largest relative move {largest:.2e}, "
            f"non-numeric change: {'yes' if text else 'no'}"
        )
        ok = ok and not text and largest <= max_rel
    return ok


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write or check the CLI golden files.")
    parser.add_argument(
        "--compare",
        action="store_true",
        help="write nothing; exit 1 on a non-numeric change or a move above --max-rel",
    )
    parser.add_argument("--max-rel", type=float, default=1e-13, help="default: %(default)g")
    args = parser.parse_args()
    if args.compare:
        sys.exit(0 if compare_golden(args.max_rel) else 1)
    write_golden()
