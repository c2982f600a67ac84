"""Deterministic JSON emission with 17 significant digits for every float.

The stdlib ``json`` module does not expose float formatting, and report
files must be bitwise reproducible, so reports go through this small
recursive emitter instead.  Strings and keys are escaped by ``json`` itself
(``ensure_ascii=False``: non-ASCII text stays as it is).
"""

import json
import math

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must not contain NaN or infinity")
    text = format(float(x), ".17g")
    # make sure the token stays a JSON number that parses back as float
    if "e" not in text and "." not in text and "E" not in text:
        text += ".0"
    return text


def dumps(obj, indent: int = 2) -> str:
    """Serialize nested dicts/lists/scalars; floats at 17 significant digits."""

    def emit(node, depth):
        pad = " " * (indent * depth)
        pad_in = " " * (indent * (depth + 1))
        if node is None:
            return "null"
        if isinstance(node, bool) or isinstance(node, np.bool_):
            return "true" if node else "false"
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            return _fmt_float(node)
        if isinstance(node, str):
            return json.dumps(node, ensure_ascii=False)
        if isinstance(node, np.ndarray):
            node = node.tolist()
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            items = [emit(v, depth + 1) for v in node]
            return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = [
                f"{pad_in}{json.dumps(str(k), ensure_ascii=False)}: {emit(v, depth + 1)}"
                for k, v in node.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        raise TypeError(f"cannot serialize {type(node)!r}")

    return emit(obj, 0) + "\n"
