"""Plain-text formats, and the package's one reader and one writer.

Command payloads are JSON (two-space indent, no NaN) or CSV (a header
line, then one line per row).  A JSON payload may hold float64
arrays, written byte for byte as their nested lists would be.  Matrix
files carry a ``rows cols`` header line followed by one line per row, each
entry written as a comma-joined ``re,im`` pair and entries separated by
whitespace.  Subspace files prepend a ``subspace n r`` header to the matrix
format of the basis.  Parsers reject non-finite entries; a read or write
that fails at the OS level raises :class:`~twonorm.errors.IoFailure`.
"""

import json
import math
from itertools import repeat

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
    """``obj`` as strict JSON, indented by two spaces, ending in a newline.

    ``obj`` may hold float64 ``ndarray`` leaves.  Each is written as
    ``json.dumps`` writes its ``tolist()`` at that depth, byte for byte, but
    from one template per array; a non-finite entry raises ``ValueError``
    as it would there.  Everything else goes through ``json.dumps``.
    """
    arrays = []

    def as_leaf(o):
        if isinstance(o, np.ndarray) and o.dtype == np.float64:
            arrays.append(o)
            return ""
        raise TypeError(
            f"Object of type {o.__class__.__name__} is not JSON serializable"
        )

    encoder = json.JSONEncoder(indent=2, allow_nan=False, default=as_leaf)
    out = []
    for chunk in encoder.iterencode(obj):
        if arrays:
            # The encoder asks ``as_leaf`` for an array's stand-in just
            # before it yields the stand-in, as a chunk of its own.
            line = "".join(out).rpartition("\n")[2]
            depth = (len(line) - len(line.lstrip(" "))) // 2
            chunk = _array_json(arrays.pop(), depth)
        out.append(chunk)
    return "".join(out) + "\n"


def _array_json(a, depth):
    """``json.dumps(a.tolist(), indent=2, allow_nan=False)`` for a float64
    array whose opening bracket sits on a line indented ``depth`` levels."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        bad = float(a[~np.isfinite(a)][0])
        raise ValueError(
            f"Out of range float values are not JSON compliant: {bad!r}"
        )
    template = "%r"
    for axis in reversed(range(a.ndim)):
        if a.shape[axis] == 0:
            template = "[]"
            continue
        pad = "\n" + "  " * (depth + axis + 1)
        template = ("[" + pad + ("," + pad).join([template] * a.shape[axis])
                    + "\n" + "  " * (depth + axis) + "]")
    return template % tuple(a.ravel().tolist())


def _csv_cell(val):
    if isinstance(val, bool):
        return "true" if val else "false"
    if val is None:
        return ""
    return repr(val) if isinstance(val, (int, float)) else str(val)


def dumps_csv(table):
    """A table as CSV: ``table`` is the header's cells, then each row's.
    Cells: ``true``/``false`` for a bool, empty for None, ``repr`` of an
    int or a float, ``str`` of anything else."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in table)


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
    table = [line.split() for line in lines[1:]]
    entries = _bulk_entries(table, cols)
    if entries is None:
        _raise_first_fault(table, cols)
    out.reshape(-1).view(float)[:] = entries
    return out


def _bulk_entries(table, cols):
    """The ``re, im`` floats of the rows of cells ``table``, row-major, or
    None when a row, an entry or a value is malformed."""
    cells = [cell for row in table for cell in row]
    if any(len(row) != cols for row in table) \
            or not set(map(str.count, cells, repeat(","))) <= {1}:
        return None
    # every cell holds one comma, so the tokens pair up as re, im
    tokens = ",".join(cells).split(",")
    try:
        entries = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        return None
    return entries if np.isfinite(entries).all() else None


def _raise_first_fault(table, cols):
    """Raise the ``ValueError`` for the first fault of ``table`` in
    row-major order, scanning cell by cell."""
    for i, cells in enumerate(table):
        if len(cells) != cols:
            raise ValueError(f"row {i} has {len(cells)} entries, wanted {cols}")
        for j, cell in enumerate(cells):
            parts = cell.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad entry {cell!r} at ({i}, {j})")
            re, im = float(parts[0]), float(parts[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"non-finite entry at ({i}, {j})")


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
