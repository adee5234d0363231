"""The two formats of every result file: CSV tables and key=value lines.

A value is written as str() of its Python value (numpy scalars and arrays
through tolist()): a float comes out as the shortest text that float() reads
back to the same double, whatever numpy type it arrived as.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def text(value) -> str:
    """The written form of one value."""
    return str(np.asarray(value).tolist())


def write_table(path, header: str, *columns, last: str | None = None) -> None:
    """CSV file: `header`, one row per index of the equally long `columns`,
    then the line `last` when given."""
    cols = [np.asarray(c).tolist() for c in columns]
    if header.count(",") + 1 != len(cols) or len({len(c) for c in cols}) > 1:
        raise ValueError(f"{path}: {header!r} over columns of {[len(c) for c in cols]} rows")
    lines = [header] + [",".join(map(str, row)) for row in zip(*cols)]
    if last is not None:
        lines.append(last)
    Path(path).write_text("\n".join(lines) + "\n")


def write_fields(path, mapping: dict) -> None:
    """key=value file, one line per entry of `mapping`, in its order."""
    Path(path).write_text("".join(f"{key}={text(v)}\n" for key, v in mapping.items()))
