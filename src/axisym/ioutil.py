"""Deterministic JSON rendering with 17-significant-digit floats.

Artifacts are compared byte for byte across reruns, so
serialization must be fully deterministic: keys sorted, floats rendered
with %.17g (which round-trips IEEE doubles exactly), LF line endings.
Every artifact is strict JSON: non-finite floats are refused, never
written as bare inf/nan, and loads refuses NaN and Infinity on input.
write_json and read_json are the package's only JSON file I/O.
"""

from __future__ import annotations

import hashlib
import json
import math
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
