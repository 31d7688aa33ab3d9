"""Output formats of the command line: rows as table, csv or ndjson.

    table    aligned columns for eyes
    csv      comma separated, header row first
    ndjson   one JSON object per row

table and csv are preceded by '#' metadata lines; ndjson instead starts
with one {"_meta": {...}} object. Floats print with repr (shortest
round-trip). Formatting goes by column: a column of 64-bit floats is
converted by float.__repr__ in one pass, any other column cell by cell,
with the same bytes either way.

emit writes blocks of _BLOCK_ROWS rows: csv and ndjson write each block
as it is formatted, and table keeps each block's cells to pad every
column to its widest cell. Its rows are a list of dicts, or a sweep's
runs (_SweepRows), whose blocks are made from the runs' columns as they
are written, so a sweep holds one block and never a record per point.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

from . import quantum

__all__ = ["emit"]

# Rows per block: csv and ndjson are formatted and written, and the
# correlation rows built, a block at a time. This bounds the temporaries,
# so a 300000-row trace peaks no higher than writing row by row did.
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


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _json_cell(value) -> str:
    return json.dumps(_jsonable(value))


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


def _lines(columns: list[list[str]], n_rows: int):
    """Rows of cells from columns of cells; a row without columns is empty."""
    return zip(*columns) if columns else [()] * n_rows


def _block_cells(rows: list[dict], columns: list[str], fmt: str) -> list[list[str]]:
    """Each column's text over a block of rows."""
    return [_cells([row.get(c) for row in rows], fmt) for c in columns]


def _heads(keys) -> list[str]:
    """The ndjson text before each key's value."""
    return [json.dumps(k) + ": " for k in keys]


def _dict_blocks(rows: list[dict], columns: list[str], fmt: str):
    """(rows, cells of each column) of each block of row dicts.

    An ndjson cell is its member's text, head and value. A block whose rows
    do not all have the same keys in the same order is one column of each
    row's members.
    """
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        if fmt != "ndjson":
            yield len(block), _block_cells(block, columns, fmt)
            continue
        keys = list(block[0])
        if all(list(row) == keys for row in block):
            cells = [
                [head + cell for cell in _cells([row[k] for row in block], fmt)]
                for k, head in zip(keys, _heads(keys))
            ]
        else:
            cells = [[json.dumps({k: _jsonable(v) for k, v in row.items()})[1:-1] for row in block]]
        yield len(block), cells


def emit(rows, meta: dict, fmt: str, out=None) -> None:
    """Write meta, then rows in fmt.

    rows is a list of dicts, or a sized source of blocks (a sweep's rows,
    _SweepRows) that gives its columns and each block's cells.
    """
    out = out or sys.stdout
    if isinstance(rows, list):
        # ndjson rows carry their own keys.
        keys = [] if fmt == "ndjson" else itertools.chain.from_iterable(rows)
        columns = list(dict.fromkeys(keys))
        blocks = _dict_blocks(rows, columns, fmt)
    else:
        columns, blocks = rows.columns, rows.blocks(fmt)
    if fmt == "ndjson":
        out.write(json.dumps({"_meta": meta}) + "\n")
        for n_rows, cells in blocks:
            out.write("".join("{" + ", ".join(line) + "}\n" for line in _lines(cells, n_rows)))
        return
    for key, value in meta.items():
        out.write(f"# {key}: {value}\n")
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for n_rows, cells in blocks:
            out.write("".join(",".join(line) + "\n" for line in _lines(cells, n_rows)))
        return
    # Widths span every row: a first pass formats each block once and keeps
    # each of its columns as one NUL-joined string (its cells as they are if
    # a cell holds a NUL), and the second pads them.
    widths = list(map(len, columns))
    kept = []
    for n_rows, cells in blocks:
        widths = [max(w, *map(len, col)) for w, col in zip(widths, cells)]
        joined = ["\0".join(col) for col in cells]
        cells = [j if j.count("\0") == len(c) - 1 else c for j, c in zip(joined, cells)]
        kept.append((n_rows, cells))
    out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
    for n_rows, block in kept:
        cells = [
            [c.ljust(w) for c in (col.split("\0") if isinstance(col, str) else col)]
            for col, w in zip(block, widths)
        ]
        out.write("".join("  ".join(line).rstrip() + "\n" for line in _lines(cells, n_rows)))


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

    def __len__(self) -> int:
        return len(self.runs)

    def blocks(self, fmt: str):
        """(rows, cells of each column) of each block, in grid order."""
        heads = _heads(self.columns) if fmt == "ndjson" else [""] * len(self.columns)
        blank = [head + ("null" if fmt == "ndjson" else "") for head in heads]
        n_axes = len(self._display)
        run_heads = [h for k, h in enumerate(heads[:n_axes]) if k != self._power]
        run_heads += heads[n_axes + 1 : n_axes + 4]

        def headed(head, values):
            cells = _cells(values, fmt)
            return [head + cell for cell in cells] if head else cells

        def run_cells(new):
            stages = [self.runs.stages[j] for j in new]
            values = [
                (*self._coords[j], *(s.fields[:3] if isinstance(s, quantum._Stage) else [None] * 3))
                for j, s in zip(new, stages)
            ]
            return list(zip(*map(headed, run_heads, zip(*values))))

        def power_cells(new):
            return headed(heads[self._power], [self._display[self._power][i] for i in new])

        kept_runs, kept_powers = {}, {}
        for start in range(0, len(self), _BLOCK_ROWS):
            jj, ii = self.runs.index(start, min(start + _BLOCK_ROWS, len(self)))
            w2, _, _, errors = self.runs.columns(jj, ii)
            failed = [k for k, error in enumerate(errors) if error is not None]
            w2[failed] = 0.0  # not printed; keeps the column finite
            per_run = [list(col) for col in zip(*_kept(kept_runs, jj.tolist(), run_cells))]
            coords = iter(per_run[:-3])
            cells = [
                _kept(kept_powers, ii.tolist(), power_cells) if k == self._power else next(coords)
                for k in range(n_axes)
            ]
            cells += [headed(heads[n_axes], w2.tolist()), *per_run[-3:], [blank[-1]] * len(errors)]
            texts = headed(heads[-1], [f"{type(errors[k]).__name__}: {errors[k]}" for k in failed])
            for k, text in zip(failed, texts):
                for col, empty in zip(cells[n_axes:-1], blank[n_axes:-1]):
                    col[k] = empty
                cells[-1][k] = text
            yield len(errors), cells
