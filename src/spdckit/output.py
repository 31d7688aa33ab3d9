"""Output formats of the command line: rows as table, csv or ndjson.

    table    aligned columns for eyes
    csv      comma separated, header row first
    ndjson   one JSON object per row

table and csv are preceded by '#' metadata lines; ndjson instead starts
with one {"_meta": {...}} object. Floats print with repr (shortest
round-trip). Formatting goes by column: a column of 64-bit floats is
converted by float.__repr__ in one pass, any other column cell by cell,
with the same bytes either way.

emit takes one form of rows: a source with columns (their names), len()
its row count, and cells(start, stop, fmt), each column's text over those
rows. Columns makes them from values given a block at a time (rows_of:
from row dicts), and _SweepRows from a sweep's runs. emit writes blocks
of _BLOCK_ROWS rows: csv and ndjson write each block as it is formatted,
and table keeps each block's cells to pad every column to its widest
cell. So emit holds one block (table: each block's cells), never a
record per row.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

from . import quantum

__all__ = ["Columns", "emit", "rows_of"]

# Rows per block: csv and ndjson are formatted and written a block at a
# time. This bounds the temporaries, so a 300000-row trace peaks no higher
# than writing row by row did.
_BLOCK_ROWS = 256
# Formatted cells a sweep keeps between blocks: of this many runs, and of as
# many powers.
_KEPT_CELLS = 4096
_FLOAT_TYPES = {float, np.float64}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, np.generic):
        # numpy scalars repr as np.float64(...) under numpy 2; unwrap first
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_cell(value) -> str:
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    return json.dumps(value)


def _cells(values: list, fmt: str) -> list[str]:
    """One column's text, with one converter picked for the whole column.

    A column of Python or numpy 64-bit floats prints with float.__repr__,
    which is what _fmt and json.dumps give each of them, except that JSON
    spells non-finite floats NaN/Infinity. Any other column is converted
    cell by cell.
    """
    if set(map(type, values)) <= _FLOAT_TYPES and (
        fmt != "ndjson" or all(map(math.isfinite, values))
    ):
        return list(map(float.__repr__, values))
    return list(map(_json_cell if fmt == "ndjson" else _fmt, values))


class Columns:
    """Rows for emit from columns of values made on request.

    values(start, stop) gives each column's values over rows start to stop,
    in the order of names.
    """

    def __init__(self, names: list[str], n_rows: int, values) -> None:
        self.columns, self._n_rows, self.values = list(names), n_rows, values

    def __len__(self) -> int:
        return self._n_rows

    def cells(self, start: int, stop: int, fmt: str) -> list[list[str]]:
        """Each column's text over rows start to stop."""
        return [_cells(col, fmt) for col in self.values(start, stop)]


def rows_of(rows: list[dict]) -> Columns:
    """Columns of row dicts that all have the same keys in the same order."""
    names = list(rows[0]) if rows else []

    def values(start, stop):
        block = rows[start:stop]
        return [[row[k] for row in block] for k in names]

    return Columns(names, len(rows), values)


def emit(rows, meta: dict, fmt: str, out=None) -> None:
    """Write meta, then rows in fmt.

    rows is a source of at least one column: Columns, or a sweep's runs
    (_SweepRows). emit asks it for one block of cells at a time.
    """
    out = out or sys.stdout
    n_rows = len(rows)
    blocks = (
        rows.cells(start, min(start + _BLOCK_ROWS, n_rows), fmt)
        for start in range(0, n_rows, _BLOCK_ROWS)
    )
    if fmt == "ndjson":
        out.write(json.dumps({"_meta": meta}) + "\n")
        heads = (json.dumps(k).replace("%", "%%") + ": %s" for k in rows.columns)
        line = "{" + ", ".join(heads) + "}\n"
        for cells in blocks:
            out.write("".join(map(line.__mod__, zip(*cells))))
        return
    for key, value in meta.items():
        out.write(f"# {key}: {value}\n")
    if fmt == "csv":
        out.write(",".join(rows.columns) + "\n")
        for cells in blocks:
            out.write("".join(",".join(line) + "\n" for line in zip(*cells)))
        return
    # Widths span every row: a first pass formats each block once and keeps
    # each of its columns as one NUL-joined string (its cells as they are if
    # a cell holds a NUL), and the second pads them.
    widths = list(map(len, rows.columns))
    kept = []
    for cells in blocks:
        widths = [max(w, *map(len, col)) for w, col in zip(widths, cells)]
        joined = ["\0".join(col) for col in cells]
        kept.append([j if j.count("\0") == len(c) - 1 else c for j, c in zip(joined, cells)])
    out.write("  ".join(c.ljust(w) for c, w in zip(rows.columns, widths)).rstrip() + "\n")
    for block in kept:
        cells = [
            [c.ljust(w) for c in (col.split("\0") if isinstance(col, str) else col)]
            for col, w in zip(block, widths)
        ]
        out.write("".join("  ".join(line).rstrip() + "\n" for line in zip(*cells)))


def _kept(kept: dict, keys: list, make) -> list:
    """kept[k] for each key, made in one batch for the keys kept lacks.

    kept is emptied first when it would outgrow _KEPT_CELLS.
    """
    new = [k for k in dict.fromkeys(keys) if k not in kept]
    if new:
        if len(kept) + len(new) > _KEPT_CELLS:
            kept.clear()
            new = list(dict.fromkeys(keys))
        kept.update(zip(new, make(new)))
    return [kept[k] for k in keys]


class _SweepRows:
    """A sweep's rows for emit, made a block at a time straight from its runs.

    A row holds its point's display coordinates, W2, each arm's eta,
    Gamma_eff and the error. Within a run only the power and W2 change, so
    a run's other cells and a power's cell are formatted once and kept for
    later blocks, up to _KEPT_CELLS of each.
    """

    def __init__(self, runs, names: list[str], display: list[tuple], power: int | None):
        self.runs, self._display, self._power = runs, display, power
        self.columns = [*names, "w2_per_s", "eta_signal", "eta_idler", "gamma_eff_rad_s", "error"]
        others = [values for k, values in enumerate(display) if k != power]
        self._coords = list(itertools.product(*others))  # of each run
        self._kept = {}  # of each format: the kept cells of runs, and of powers

    def __len__(self) -> int:
        return len(self.runs)

    def cells(self, start: int, stop: int, fmt: str) -> list[list[str]]:
        """Each column's text over rows start to stop, in grid order."""
        kept_runs, kept_powers = self._kept.setdefault(fmt, ({}, {}))
        blank, n_axes = "null" if fmt == "ndjson" else "", len(self._display)

        def run_cells(new):
            stages = [self.runs.stages[j] for j in new]
            values = [
                (*self._coords[j], *(s.fields[:3] if isinstance(s, quantum._Stage) else [None] * 3))
                for j, s in zip(new, stages)
            ]
            return list(zip(*(_cells(col, fmt) for col in zip(*values))))

        def power_cells(new):
            return _cells([self._display[self._power][i] for i in new], fmt)

        jj, ii = self.runs.index(start, stop)
        w2, _, _, errors = self.runs.columns(jj, ii)
        failed = [k for k, error in enumerate(errors) if error is not None]
        for k in failed:
            w2[k] = 0.0  # not printed; keeps the column finite
        per_run = [list(col) for col in zip(*_kept(kept_runs, jj.tolist(), run_cells))]
        coords = iter(per_run[:-3])
        cells = [
            _kept(kept_powers, ii.tolist(), power_cells) if k == self._power else next(coords)
            for k in range(n_axes)
        ]
        cells += [_cells(w2, fmt), *per_run[-3:], [blank] * len(errors)]
        texts = _cells([f"{type(errors[k]).__name__}: {errors[k]}" for k in failed], fmt)
        for k, text in zip(failed, texts):
            for col in cells[n_axes:-1]:
                col[k] = blank
            cells[-1][k] = text
        return cells
