"""Every command on messy input files ends in an exit code, never a traceback.

The files mix CR, CRLF, a byte-order mark, NUL, tabs, non-ASCII text,
over-long lines, blank lines, a header line and, now and then, a byte that
is not UTF-8.  A checkpoint's header may hold a wrong JSON value at any
place.  Exit codes: 0 success, 1 usage error, 2 data error.
"""
import contextlib
import io
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrnoise import cli, training
from asrnoise import corpus as C
from asrnoise.phonetics import default_lexicon

_CHARS = st.sampled_from([*"the cue gag queue zebra", "\r", "\t", "\x00", "é", "ß", "日", "#", "!"])
_LINE = st.one_of(st.text(_CHARS, max_size=24), st.just(" ".join(["the cue gag"] * 40)))
# a GT<TAB>ASR pair whose GT side holds a word, or now and then any line at all
_FIELD = st.text(_CHARS.filter(lambda ch: ch != "\t"), max_size=24)
_PAIR = st.one_of(
    st.builds("{}{}\t{}".format, st.sampled_from(["the cue ", "gag ", "zebra queue "]), _FIELD, _FIELD),
    _LINE,
)


@st.composite
def messy_files(draw, line=_LINE):
    """``(file bytes, its lines)``; every line of the file ends with ``\\n``."""
    body = draw(st.lists(line, max_size=6))
    lines = (["# produced-by: asrnoise fuzz"] if draw(st.booleans()) else []) + body
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, ends))
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")
    if draw(st.integers(0, 9)) == 5:  # one file in ten
        data += b"bad \xff byte\n"
    return data, body


def _run(argv):
    """Exit code of ``asrnoise argv``, with the error output checked for tracebacks."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert "Traceback" not in err.getvalue()
    assert rc in (0, 1, 2)
    return rc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoint(workdir, small_model):
    path = workdir / "small.ckpt"
    training.save_checkpoint(path, small_model)
    return path


@pytest.fixture(scope="module")
def vocab_file(workdir, small_model):
    path = workdir / "small.vocab"
    small_model.vocab.save(path, header="fuzz")
    return path


@settings(max_examples=40)
@given(corpus=messy_files(_PAIR))
def test_vocab(workdir, corpus):
    path = workdir / "vocab_in.tsv"
    path.write_bytes(corpus[0])
    if _run(["vocab", str(path), "--out", str(workdir / "vocab_out.txt"), "--size", "60"]) == 0:
        C.SubwordVocab.load(workdir / "vocab_out.txt")


@settings(max_examples=40)
@given(corpus=messy_files(_PAIR))
def test_align(workdir, corpus):
    path = workdir / "align_in.tsv"
    path.write_bytes(corpus[0])
    _run(["align", str(path), "--out", str(workdir / "align_out.tsv")])


@settings(max_examples=20)
@given(corpus=messy_files(_PAIR))
def test_train(workdir, vocab_file, corpus):
    path, cfg = workdir / "train_in.tsv", workdir / "train.cfg"
    path.write_bytes(corpus[0])
    cfg.write_text("d_model = 8\nn_heads = 2\nepochs = 1\nmax_gen_len = 5\nmax_len = 256\n")
    _run(["train", str(path), "--vocab", str(vocab_file), "--checkpoint", str(workdir / "train.ckpt"),
          "--config", str(cfg)])


@settings(max_examples=40)
@given(words=st.lists(st.text(_CHARS, min_size=1, max_size=12), min_size=1, max_size=3),
       lexicon=messy_files(_PAIR))
def test_g2p(workdir, words, lexicon):
    lex_path, inv_path = workdir / "lexicon.tsv", workdir / "inventory.tsv"
    lex_path.write_bytes(lexicon[0])
    rows = ["\t".join((p.symbol, p.kind, *p.features)) for p in default_lexicon().inventory.values()]
    inv_path.write_bytes("\r\n".join(rows).encode("utf-8"))
    _run(["g2p", *words, "--out", str(workdir / "g2p_out.txt")])
    _run(["g2p", *words, "--lexicon", str(lex_path), "--inventory", str(inv_path)])


@settings(max_examples=40)
@given(texts=messy_files())
def test_corrupt(workdir, checkpoint, texts):
    data, lines = texts
    path, out = workdir / "corrupt_in.txt", workdir / "corrupt_out.txt"
    path.write_bytes(data)
    rc = _run(["corrupt", str(path), "--checkpoint", str(checkpoint), "--out", str(out), "--p-z", "0.5"])
    if b"\xff" in data or not any(line.strip() for line in lines):
        assert rc == 2
    else:
        assert rc == 0
        # the header line, then one line per input line
        assert out.read_bytes().count(b"\n") == 1 + len(lines)


# JSON values that a checkpoint header may hold where another one belongs
_HEADER_VALUES = st.sampled_from([None, True, -1, 2**70, 1.5, "", "x", "[EOS]", [], [1], {}])


@st.composite
def header_edits(draw, header):
    """``(path, value)``: a path of keys and indices from the header's root
    to one of its values, at least one step long, and a value to put there."""
    path, node = [], header
    while isinstance(node, (dict, list)) and node and (not path or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1))
        path.append(key)
        node = node[key]
    return path, draw(_HEADER_VALUES)


@settings(max_examples=40)
@given(data=st.data())
def test_corrupt_with_a_malformed_checkpoint_header(workdir, checkpoint, data):
    raw = checkpoint.read_bytes()
    start = len(training.CHECKPOINT_MAGIC)
    (size,) = struct.unpack("<I", raw[start:start + 4])
    header = json.loads(raw[start + 4:start + 4 + size])
    path, value = data.draw(header_edits(header))
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    blob = json.dumps(header).encode("utf-8")
    mutated, texts = workdir / "mutated.ckpt", workdir / "mutated_in.txt"
    mutated.write_bytes(raw[:start] + struct.pack("<I", len(blob)) + blob + raw[start + 4 + size:])
    texts.write_text("the cue gag\n")
    rc = _run(["corrupt", str(texts), "--checkpoint", str(mutated), "--out", str(workdir / "mutated_out.txt")])
    assert rc in (0, 2)


@settings(max_examples=40)
@given(ref=messy_files(), hyp=messy_files(), same_text=st.booleans())
def test_eval(workdir, ref, hyp, same_text):
    if same_text:
        # the reference's lines, with each CR and tab a space: they normalize alike
        hyp = ("".join(line.replace("\r", " ").replace("\t", " ") + "\n" for line in ref[1]).encode("utf-8"),)
    ref_path, hyp_path = workdir / "ref.txt", workdir / "hyp.txt"
    ref_path.write_bytes(ref[0])
    hyp_path.write_bytes(hyp[0])
    metrics = workdir / "metrics"
    rc = _run(["eval", "--ref", str(ref_path), "--hyp", str(hyp_path), "--out", str(metrics)])
    if same_text and b"\xff" not in ref[0]:
        assert rc == 0
        assert "total_errors,0" in metrics.with_suffix(".csv").read_text().splitlines()
