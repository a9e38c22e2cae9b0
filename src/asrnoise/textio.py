"""The one text-file format: every text file asrnoise reads or writes.

A text file is UTF-8 and may start with a byte-order mark.  Lines end with
``\\n``, and one ``\\r`` before it is dropped, so CRLF files read the same;
a ``\\r`` anywhere else stays inside its line.  A first line that starts
with :data:`ARTIFACT_HEADER` names the command that wrote the file and is
skipped on read.  Callers keep only their own field parsing and comment
rule.
"""
from __future__ import annotations

import codecs
from typing import Iterable

#: Written as the first line of an artifact, and skipped there on read.
ARTIFACT_HEADER = "# produced-by:"


def read_lines(path) -> list[tuple[int, str]]:
    """``(1-based line number, text)`` of every line but a header line.

    Bytes that are not UTF-8 raise ValueError naming their line.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        number = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {number}: byte 0x{data[exc.start]:02x} is not UTF-8") from None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # nothing follows the last line end
    numbered = [(n, line[:-1] if line.endswith("\r") else line) for n, line in enumerate(lines, start=1)]
    return numbered[1:] if numbered and numbered[0][1].startswith(ARTIFACT_HEADER) else numbered


def write_lines(path, lines: Iterable[str], header: str = "") -> None:
    """Write each line ended by ``\\n``, after a header line when ``header`` is given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header:
            fh.write(f"{ARTIFACT_HEADER} {header}\n")
        for line in lines:
            fh.write(line + "\n")
