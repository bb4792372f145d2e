"""Plain-text formats, and the package's one reader and one writer.

Command payloads are JSON (two-space indent, no NaN) or CSV (flat rows
under a header of the first row's keys).  Matrix files carry a ``rows cols``
header line followed by one line per row, each entry written as a
comma-joined ``re,im`` pair and entries separated by whitespace.  Subspace
files prepend a ``subspace n r`` header to the matrix format of the basis.
Parsers reject non-finite entries; a read or write that fails at the OS
level raises :class:`~twonorm.errors.IoFailure`.
"""

import json
import math

import numpy as np

from .errors import DimMismatch, IoFailure
from .subspaces import span
from .space import WeightedSpace

__all__ = [
    "dumps_json",
    "dumps_csv",
    "write_text",
    "dump_matrix",
    "load_matrix",
    "dumps_matrix",
    "loads_matrix",
    "dump_subspace",
    "load_subspace",
]


def dumps_json(obj):
    """``obj`` as strict JSON, indented by two spaces, ending in a newline."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _csv_cell(val):
    if isinstance(val, bool):
        return "true" if val else "false"
    if val is None:
        return ""
    return repr(val) if isinstance(val, (int, float)) else str(val)


def dumps_csv(rows):
    """Flat dicts as CSV under a header of the first row's keys.  Cells:
    ``true``/``false`` for a bool, empty for None, ``repr`` of an int or a
    float, ``str`` of anything else."""
    keys = list(rows[0])
    body = [",".join(_csv_cell(row[k]) for k in keys) for row in rows]
    return "\n".join([",".join(keys)] + body) + "\n"


def write_text(text, sink):
    """Write ``text`` to a file-like ``sink`` or to the file at path ``sink``.

    Raises :class:`IoFailure` when the write fails at the OS level.
    """
    try:
        if hasattr(sink, "write"):
            sink.write(text)
        else:
            with open(sink, "w", encoding="ascii") as fh:
                fh.write(text)
    except OSError as exc:
        name = getattr(sink, "name", sink)
        raise IoFailure(f"could not write {name}: {exc}") from exc


def _read_text(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc


def dumps_matrix(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimMismatch(f"expected a matrix, got ndim {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("refusing to write non-finite entries")
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    return "\n".join(lines) + "\n"


def loads_matrix(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad matrix header: {lines[0]!r}")
    rows, cols = int(head[0]), int(head[1])
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    out = np.zeros((rows, cols), dtype=complex)
    for i, line in enumerate(lines[1:]):
        cells = line.split()
        if len(cells) != cols:
            raise ValueError(f"row {i} has {len(cells)} entries, wanted {cols}")
        for j, cell in enumerate(cells):
            parts = cell.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad entry {cell!r} at ({i}, {j})")
            re, im = float(parts[0]), float(parts[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"non-finite entry at ({i}, {j})")
            out[i, j] = complex(re, im)
    return out


def dump_matrix(m, path):
    write_text(dumps_matrix(m), path)


def load_matrix(path):
    return loads_matrix(_read_text(path))


def dump_subspace(sub, path):
    n, r = sub.basis.shape
    write_text(f"subspace {n} {r}\n" + dumps_matrix(sub.basis), path)


def load_subspace(path, ws):
    """Read a subspace file onto an existing space.

    The stored basis must match the space dimension and be orthonormal to
    ``1e-8``.  The subspace holds an orthonormal basis of its span to
    working precision, as every :class:`~twonorm.subspaces.Subspace` does,
    so a basis stored at a few digits short of full precision still loads.
    """
    lines = _read_text(path).splitlines()
    if not lines or not lines[0].startswith("subspace"):
        raise ValueError("missing subspace header")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"bad subspace header: {lines[0]!r}")
    n, r = int(head[1]), int(head[2])
    basis = loads_matrix("\n".join(lines[1:]))
    if basis.shape != (n, r):
        raise ValueError(
            f"basis shape {basis.shape} disagrees with header ({n}, {r})"
        )
    if not isinstance(ws, WeightedSpace) or ws.dim != n:
        raise DimMismatch("subspace file does not fit the given space")
    if r and np.abs(basis.conj().T @ basis - np.eye(r)).max() > 1e-8:
        raise ValueError("stored basis is not orthonormal")
    return span(ws, basis)
