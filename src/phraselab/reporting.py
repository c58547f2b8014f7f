"""Deterministic serialization helpers used by every report writer.

All real numbers are rendered as fixed-point with six decimals and all
JSON objects are written with sorted keys, so re-running a command on
the same inputs reproduces its output files byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import IoError

# bin rows are (lo, hi, count) with hi exclusive except the last bin
HistBins = Sequence[tuple[float, float, int]]


class ExactReal(float):
    """Float serialized at full precision instead of six decimals.

    Used for configuration echoes, where values like an optimizer
    epsilon must round-trip exactly.
    """


def exact_reals(obj: object) -> object:
    """Recursively wrap every float in ``obj`` as ExactReal."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return ExactReal(obj)
    if isinstance(obj, Mapping):
        return {k: exact_reals(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [exact_reals(v) for v in obj]
    return obj


def format_real(value: float) -> str:
    """Render a finite real as fixed-point with six decimals."""
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite real: {value!r}")
    text = f"{value:.6f}"
    # normalize the negative-zero artifact so equal values render equally
    return "0.000000" if text == "-0.000000" else text


def _render_json(obj: object, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, ExactReal):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError(f"cannot serialize non-finite real: {obj!r}")
        out.append(repr(float(obj)))
    elif isinstance(obj, float):
        out.append(format_real(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, Mapping):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(": ")
            _render_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _render_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(path: Path | str, obj: object) -> Path:
    """Write ``obj`` as JSON with sorted keys and six-decimal reals."""
    out: list[str] = []
    _render_json(obj, out)
    return write_text(path, "".join(out) + "\n")


def write_text(path: Path | str, text: str) -> Path:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_hist_csv(path: Path | str, bins: HistBins) -> Path:
    """Write histogram rows as ``bin_lo,bin_hi,count`` under a header."""
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, count in bins:
        lines.append(f"{format_real(lo)},{format_real(hi)},{count:d}")
    return write_text(path, "\n".join(lines) + "\n")


def write_terms_csv(path: Path | str, counts: Mapping[str, int]) -> Path:
    """Write token counts sorted by descending count, then token."""
    lines = ["token,count"]
    for token in sorted(counts, key=lambda t: (-counts[t], t)):
        lines.append(f"{_csv_field(token)},{counts[token]:d}")
    return write_text(path, "\n".join(lines) + "\n")


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def sha256_of(path: Path | str) -> str:
    # imported here: hashlib loads OpenSSL, which would add ~3.7 MB and
    # ~3 ms to every ``score``, a command that hashes nothing
    import hashlib

    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise IoError(f"cannot hash {path}: {exc}") from exc
    return digest.hexdigest()


def integer_histogram(values: Iterable[int], bin_width: int) -> list[tuple[float, float, int]]:
    """Histogram of non-negative integers over [i*w, (i+1)*w) bins.

    Bins run contiguously from zero through the bin holding the largest
    value; interior empty bins are kept so the rows are plot-ready.
    """
    if bin_width < 1:
        raise ValueError(f"bin width must be >= 1, got {bin_width}")
    counts: dict[int, int] = {}
    top = -1
    for v in values:
        b = v // bin_width
        counts[b] = counts.get(b, 0) + 1
        top = max(top, b)
    return [
        (float(i * bin_width), float((i + 1) * bin_width), counts.get(i, 0))
        for i in range(top + 1)
    ]


def unit_histogram(values: Iterable[float]) -> list[tuple[float, float, int]]:
    """Ten fixed-width bins over [0, 1]; the last bin includes 1.0."""
    counts = [0] * 10
    for v in values:
        counts[min(int(v * 10.0), 9)] += 1
    return [(i / 10.0, (i + 1) / 10.0, counts[i]) for i in range(10)]
