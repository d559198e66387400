"""Helpers shared by the geometry and the dynamic modules."""

from __future__ import annotations

import re

import numpy as np

# np.trapezoid arrived in numpy 2.0 and np.trapz is gone from numpy 2.4.
trapezoid = getattr(np, "trapezoid", None) or np.trapz

_CALL_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_call(spec: str, kind: str) -> tuple[str, list[float]]:
    """Split ``name`` or ``name(a, b, ...)`` into the name and its finite
    numeric arguments; ``kind`` names the spec in error messages."""
    m = _CALL_RE.match(spec)
    if not m:
        raise ValueError(f"malformed {kind}: {spec!r}")
    name, argstr = m.group(1), m.group(2)
    if argstr is None or not argstr.strip():
        return name, []
    try:
        args = [float(tok) for tok in argstr.split(",")]
    except ValueError:
        raise ValueError(f"non-numeric arguments in {kind}: {spec!r}") from None
    if not np.all(np.isfinite(args)):
        raise ValueError(f"non-finite arguments in {kind}: {spec!r}")
    return name, args
