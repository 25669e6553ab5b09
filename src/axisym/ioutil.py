"""Deterministic JSON and CSV rendering with 17-significant-digit floats.

Artifacts are compared byte for byte across reruns, so
serialization must be fully deterministic: keys sorted, floats rendered
with %.17g (which round-trips IEEE doubles exactly), LF line endings.
Every JSON artifact is strict JSON: non-finite floats are refused, never
written as bare inf/nan, and loads refuses NaN and Infinity on input.
write_json and read_json are the package's only JSON file I/O, and
write_csv and read_csv its only CSV file I/O.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np


def float17(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} has no JSON rendering")
    return "%.17g" % x


def dumps(obj, indent=0):
    """Serialize dict/list/str/int/float/bool/None deterministically.

    numpy scalars render like their Python counterparts; a non-finite float
    raises ValueError and any other object (an array included) TypeError.
    """
    out = []
    _render(obj, out, indent, 0)
    return "".join(out) + "\n"


def _render(obj, out, indent, level):
    pad = " " * (indent * (level + 1)) if indent else ""
    closepad = " " * (indent * level) if indent else ""
    nl = "\n" if indent else ""
    sep = "," + nl
    if isinstance(obj, dict):
        out.append("{" + nl)
        items = sorted(obj.items())
        for n, (k, v) in enumerate(items):
            out.append(pad + json.dumps(str(k)) + ": ")
            _render(v, out, indent, level + 1)
            if n < len(items) - 1:
                out.append(sep)
            else:
                out.append(nl)
        out.append(closepad + "}")
    elif isinstance(obj, (list, tuple)):
        out.append("[" + nl)
        seq = list(obj)
        for n, v in enumerate(seq):
            out.append(pad)
            _render(v, out, indent, level + 1)
            out.append(sep if n < len(seq) - 1 else nl)
        out.append(closepad + "]")
    elif isinstance(obj, (bool, np.bool_)) or obj is None:
        out.append(json.dumps(obj if obj is None else bool(obj)))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (float, np.generic)):  # other numpy scalars too
        out.append(float17(obj))
    else:
        raise TypeError(f"{type(obj).__name__} has no JSON rendering")


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def loads(text):
    """Parse strict JSON: NaN, Infinity and -Infinity raise ValueError."""
    return json.loads(text, parse_constant=_refuse_constant)


def write_json(path, obj):
    """Write obj to path as dumps(obj, indent=2), UTF-8."""
    Path(path).write_text(dumps(obj, indent=2), encoding="utf-8")


def read_json(path):
    """Parse the UTF-8 JSON file at path with loads.  Raises OSError when it
    cannot be read and ValueError when it is not UTF-8 or not strict JSON."""
    return loads(Path(path).read_text(encoding="utf-8"))


def sha256_of(obj):
    """Hash of the canonical rendering; dicts may drop volatile keys first."""
    return hashlib.sha256(dumps(obj).encode("utf-8")).hexdigest()


def write_csv(path_or_buf, header, columns, comment=None):
    """Write a CSV table to a path or an open text file, one row at a time: an
    optional "# " comment line, the header, a row per entry of the columns
    (broadcast together, in C order); integers as %d, else %.17g, LF endings."""
    if not hasattr(path_or_buf, "write"):
        with open(path_or_buf, "w", encoding="utf-8", newline="") as f:
            return write_csv(f, header, columns, comment)
    columns = np.broadcast_arrays(*columns)
    line = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    if comment:
        path_or_buf.write("# " + comment + "\n")
    path_or_buf.write(",".join(header) + "\n")
    path_or_buf.writelines(line % row for row in zip(*(c.flat for c in columns)))


def read_csv(path_or_buf, names):
    """The columns `names` of the CSV table at a path or in an open file, as a
    finite float array (data rows, len(names)); lines that start with "#" and
    blank lines are skipped, and the first other line is the header.
    OSError if unreadable, else ValueError naming a line, a column or a cell."""
    if not hasattr(path_or_buf, "read"):
        # undecodable bytes become lone surrogates, which no UTF-8 text holds
        with open(path_or_buf, encoding="utf-8", errors="surrogateescape",
                  newline="") as f:
            return read_csv(f, names)
    return np.fromiter(_rows(path_or_buf, names), dtype=(float, len(names)))


def _rows(f, names):
    """The cells `names` of each data row of f, as finite floats."""
    n = 0

    def lines():
        nonlocal n
        for n, line in enumerate(f, start=1):
            if re.search("[\udc80-\udcff]", line):
                raise ValueError(f"line {n} is not UTF-8 text")
            if line.strip() and not line.startswith("#"):
                yield line

    try:
        reader = csv.DictReader(lines())
        missing = [name for name in names if name not in (reader.fieldnames or names)]
        if missing:
            raise ValueError(f"no {missing[0]} column")
        for k, row in enumerate(reader, start=1):
            yield [_number(row[name], k, name) for name in names]
    except csv.Error as exc:    # a cell over csv.field_size_limit(); NUL on 3.10
        raise ValueError(f"line {n}: {exc}") from None


def _number(text, k, name):
    if text is None:
        raise ValueError(f"data row {k} has no {name} cell")
    try:
        if math.isfinite(value := float(text)):
            return value
        problem = "finite"
    except ValueError:
        problem = "a number"
    shown = text if len(text) <= 40 else text[:40] + "..."
    raise ValueError(f"data row {k}: {name} {shown!r} is not {problem}")
