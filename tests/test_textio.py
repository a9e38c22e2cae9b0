"""The shared text-file format, and the rule that only ``textio`` owns it."""
import copy
import os
import re
from pathlib import Path

import pytest

from asrnoise import textio, training

SRC = Path(textio.__file__).parent


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"a b\rc\nd\n", [(1, "a b\rc"), (2, "d")]),
        (b"a\r\nb\r\r\n\r\n", [(1, "a"), (2, "b\r"), (3, "")]),
        (b"\xef\xbb\xbf# produced-by: asrnoise vocab\n#x\n", [(2, "#x")]),
        (b"x\n# produced-by: y\nlast", [(1, "x"), (2, "# produced-by: y"), (3, "last")]),
        (b"\xef\xbb\xbfok\nfine\nbad \xff byte\n", "line 3: byte 0xff is not UTF-8"),
        (b"", []),
    ],
    ids=["cr-inside-a-line", "crlf", "bom-and-header", "header-only-on-line-1", "bad-utf8", "empty"],
)
def test_read_lines(tmp_path, data, expected):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{expected}$"):
            textio.read_lines(path)
    else:
        assert textio.read_lines(path) == expected


def test_written_header_is_skipped_on_read(tmp_path):
    path = tmp_path / "f.txt"
    textio.write_lines(path, ["a\tb", "", "#c"], header="x")
    assert path.read_bytes() == b"# produced-by: x\na\tb\n\n#c\n"
    assert textio.read_lines(path) == [(2, "a\tb"), (3, ""), (4, "#c")]
    textio.write_lines(path, ["é"])
    assert path.read_bytes() == "é\n".encode("utf-8")


def _lines_failing_after(n):
    for i in range(n):
        yield f"line {i}"
    raise OSError("disk full")


class _UnwritableArray:
    """A parameter whose bytes cannot be produced."""

    def astype(self, dtype):
        raise OSError("disk full")


def test_a_failed_text_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    textio.write_lines(path, ["kept"], header="first run")
    before = path.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        textio.write_lines(path, _lines_failing_after(3), header="second run")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.txt"]


def test_a_failed_checkpoint_write_leaves_the_previous_checkpoint(tmp_path, small_model):
    path = tmp_path / "model.ckpt"
    training.save_checkpoint(path, small_model)
    before = path.read_bytes()
    broken = copy.copy(small_model)
    broken.params = {**small_model.params, "b_ph": _UnwritableArray()}  # written last
    with pytest.raises(OSError, match="disk full"):
        training.save_checkpoint(path, broken)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_a_symlinked_target_is_written_through(tmp_path):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old\n")
    link.symlink_to(real)
    textio.write_lines(link, ["new"])
    assert link.is_symlink() and real.read_bytes() == b"new\n"


def test_textio_is_the_only_text_reader_and_writer():
    """No other module opens a file or spells out the header, so the format
    lives in one place; ``training`` opens only its binary checkpoints."""
    file_call = re.compile(r"\bopen\(|\.(?:read|write)_(?:text|bytes)\(")
    binary_open = re.compile(r'\bopen\([^)]*"[rw]b"\)')
    offenders = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "textio.py":
            continue
        for number, line in enumerate(module.read_text(encoding="utf-8").splitlines(), start=1):
            where = f"{module.name}:{number}: {line.strip()}"
            if "produced-by" in line:
                offenders.append(where)
            if file_call.search(line) and not (module.name == "training.py" and binary_open.search(line)):
                offenders.append(where)
    assert offenders == []
