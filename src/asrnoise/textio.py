"""The one text-file format: every text file asrnoise reads or writes.

A text file is UTF-8 and may start with a byte-order mark.  Lines end with
``\\n``, and one ``\\r`` before it is dropped, so CRLF files read the same;
a ``\\r`` anywhere else stays inside its line.  A first line that starts
with :data:`ARTIFACT_HEADER` names the command that wrote the file and is
skipped on read.  Callers keep only their own field parsing and comment
rule.

Every artifact, text or binary, is written through :func:`replacing`: the
bytes go to a temporary file beside the target, which is renamed over it only
once the whole write succeeded, so a failed or interrupted write leaves the
previous file as it was.
"""
from __future__ import annotations

import codecs
import os
from contextlib import contextmanager
from typing import IO, Iterable, Iterator

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


@contextmanager
def replacing(path, binary: bool = False) -> Iterator[IO]:
    """A file opened for writing whose content replaces ``path`` when the
    block ends without an error.

    The content goes to a temporary file in the target's directory, which
    ``os.replace`` renames over the target; on an error the temporary file
    is removed and the target is untouched.  A path that is a symlink or
    not a regular file (``/dev/stdout``, a pipe) is written through instead,
    since renaming over it would replace the link or device itself.
    """
    target = os.fspath(path)
    kwargs = {} if binary else {"encoding": "utf-8", "newline": ""}
    mode = "wb" if binary else "w"
    if os.path.islink(target) or (os.path.exists(target) and not os.path.isfile(target)):
        with open(target, mode, **kwargs) as fh:
            yield fh
        return
    head, name = os.path.split(target)
    partial = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(partial, mode, **kwargs) as fh:
            yield fh
        os.replace(partial, target)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise


def write_lines(path, lines: Iterable[str], header: str = "") -> None:
    """Write each line ended by ``\\n``, after a header line when ``header`` is given."""
    with replacing(path) as fh:
        if header:
            fh.write(f"{ARTIFACT_HEADER} {header}\n")
        for line in lines:
            fh.write(line + "\n")
