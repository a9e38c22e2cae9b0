"""Independent reference implementations used only to cross-check results.

Almost everything here is deliberately written without the package's dynamic
program or autodiff engine: the edit distance is a memoized recursion, the
network forwards are straight formula transcriptions (numpy or mpmath).  The
exception is the composed autodiff ops at the end (``sub``, ``neg``, ``exp``,
``matmul``, ``reshape``, ``sum_``, ``softmax``, ``log_softmax``): the model
runs none of them, and the tests build the composed references for the fused
``linear``/``attention`` kernels and the ``nll``/``kl`` losses from them on
the engine's own node primitives.  ``full_prefix_span`` and
``first_step_one_row`` are the other exceptions: the package's decoder block
and heads in training's packed form (``one_span_hidden``, one sentence's
rows under a one-group ``Grid``), driven by a decode loop that reruns the
block over one span's whole prefix at every step, and by a loop that decodes
each given position's first step from its own start row.  Decoding is thus
checked against the path training runs.  ``step_distributions_reference`` and
``pick_reference`` keep the decode step's head combination and pick in their
first form, one fresh array per operation, to pin that the in-place kernels
compute the same bits, ``normalize_reference`` keeps normalization's first
form, a substitution and a split, to pin that collecting the matches of the
word rule gives the same text, and ``align_sequences_reference`` keeps the
alignment DP's first form, full cost and choice tables with every cell
computed, to pin that the package's smaller table backtraces the same steps.  ``edited_pairs`` is no reference but
the seeded input set that ``align_pair`` is checked on against
``align_pair_reference``, in tier-1 and in CI's larger sweep.
``backward_and_check`` is the finite-difference gradient audit of
acceptance criterion 2: it runs the package's loss graph and backward
pass, and checks drawn parameter coordinates against central differences
of the loss value.  ``loss_terms`` reads a batch's three loss terms from
the same graph.
"""
import re
import unicodedata
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf

from asrnoise.autodiff import WEIGHT_GRAD_ROWS, Tensor, _acc, _node, _unbroadcast, backward
from asrnoise.corpus import CONTINUATION_PREFIX, SPECIALS, normalize
from asrnoise.errors import EmptyCorpusError, SizeTooSmallError
from asrnoise.model import _loss_graph
from asrnoise.phonetics import articulatory_mismatches, code_key, g2p, supervision_distribution


def normalize_reference(text: str) -> str:
    """``corpus.normalize`` in its first form: fold accents, lowercase, turn
    every run of characters outside ``a-z``, ``0-9`` and space into a space,
    then split on whitespace and join the words with one space."""
    if not text.isascii():
        text = "".join(ch for ch in unicodedata.normalize("NFKD", text) if not unicodedata.combining(ch))
    return " ".join(re.sub(r"[^a-z0-9 ]+", " ", text.lower()).split())


def edit_distance_recursive(cp, cq) -> float:
    """Exhaustive-recursion weighted edit distance (memoized)."""
    cp = tuple(cp)
    cq = tuple(cq)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return 3 * j
        if j == 0:
            return 3 * i
        return min(
            go(i - 1, j - 1) + articulatory_mismatches(cp[i - 1], cq[j - 1]),
            go(i, j - 1) + 3,
            go(i - 1, j) + 3,
        )

    return go(len(cp), len(cq)) / 3.0


def alignment_cost_recursive(n: int, m: int, sub_cost) -> float:
    """Minimum cost of aligning ``n`` reference items with ``m`` hypothesis
    items: ``sub_cost(i, j)`` pairs item ``i`` with item ``j``, and an
    insertion or deletion costs 1 (memoized recursion)."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> float:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(go(i - 1, j - 1) + sub_cost(i - 1, j - 1), go(i, j - 1) + 1, go(i - 1, j) + 1)

    return go(n, m)


_DIAG, _INS, _DEL = 0, 1, 2


def align_sequences_reference(sub_costs, m: int):
    """``corpus.align_sequences`` in its first form: the full cost and choice
    tables, every cell computed, then the backtrace from the corner.  Ties
    prefer the diagonal step, then insertion."""
    n = len(sub_costs)
    cost = [[0] * (m + 1) for _ in range(n + 1)]
    choice = [[_DIAG] * (m + 1) for _ in range(n + 1)]
    for j in range(1, m + 1):
        cost[0][j] = j
        choice[0][j] = _INS
    for i in range(1, n + 1):
        costs_i = sub_costs[i - 1]
        above, row, row_choice = cost[i - 1], cost[i], choice[i]
        row[0] = i
        row_choice[0] = _DEL
        for j in range(1, m + 1):
            diag = above[j - 1] + costs_i[j - 1]
            ins = row[j - 1] + 1
            dele = above[j] + 1
            if diag <= ins and diag <= dele:
                row[j], row_choice[j] = diag, _DIAG
            elif ins <= dele:
                row[j], row_choice[j] = ins, _INS
            else:
                row[j], row_choice[j] = dele, _DEL
    steps = []
    i, j = n, m
    while i > 0 or j > 0:
        c = choice[i][j]
        if c == _DIAG:
            i, j = i - 1, j - 1
            steps.append((i, j))
        elif c == _INS:
            j -= 1
            steps.append((None, j))
        else:
            i -= 1
            steps.append((i, None))
    steps.reverse()
    return steps


def align_pair_reference(gt: str, asr: str, lexicon):
    """``corpus.align_pair`` with each substitution cost computed per cell by
    a closure, distances from :func:`edit_distance_recursive`, aligned by
    :func:`align_sequences_reference`.  It reuses the package's grouping and
    labels, so what it checks is the cost rows and the backtrace the
    alignment is built from."""
    from asrnoise.corpus import AlignmentEntry, _classify_entry, _group_alignment
    from asrnoise.phonetics import g2p

    gt_words, asr_words = normalize(gt).split(), normalize(asr).split()

    def sub_cost(gw: str, aw: str) -> float:
        if gw == aw:
            return 0.0
        cg = g2p(gw, lexicon)
        return min(edit_distance_recursive(cg, g2p(aw, lexicon)) / max(len(cg), 1), 1.0)

    sub_costs = [[sub_cost(gw, aw) for aw in asr_words] for gw in gt_words]
    entries = []
    for i, js in _group_alignment(align_sequences_reference(sub_costs, len(asr_words))):
        matched = tuple(asr_words[j] for j in js)
        entries.append(AlignmentEntry(gt_words[i], matched, _classify_entry(gt_words[i], matched)))
    return entries


def edited_pairs(count: int, seed: int, lexicon) -> list[tuple[str, str]]:
    """``count`` seeded (clean, transcript) pairs that stress word alignment.

    Each pair is one of: word-by-word edits (a homophone, a one-letter
    misspelling or any word in place of a word, a deletion, an insertion
    after a word), a run of deleted or inserted words, a transcript much
    shorter or much longer than the clean text, or an empty transcript.  One
    pair in five draws its words from a pool of three, so repeats tie many
    paths.
    """
    rng = np.random.default_rng(seed)
    words = sorted(lexicon.words())
    by_code: dict[str, list[str]] = {}
    for w in words:
        by_code.setdefault(code_key(g2p(w, lexicon)), []).append(w)
    homophones = {w: [v for v in group if v != w] for group in by_code.values() if len(group) > 1 for w in group}

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    def substitute(w: str) -> str:
        r = rng.random()
        if r < 0.3 and w in homophones:
            return pick(homophones[w])
        if r < 0.7:
            k = int(rng.integers(len(w)))
            letter = chr(ord("a") + int(rng.integers(26)))
            if len(w) > 1 and r < 0.45:
                return w[:k] + w[k + 1:]
            return w[:k] + letter + w[k + (r < 0.6):]
        return pick(words)

    def edit(gt: list[str], rate: float, pool) -> list[str]:
        asr: list[str] = []
        for w in gt:
            r = rng.random()
            if r >= rate:
                asr.append(w)
            elif r < rate * 0.5:
                asr.append(substitute(w))
            elif r < rate * 0.75:
                asr.extend([w] + [pick(pool) for _ in range(int(rng.integers(1, 3)))])
        return asr

    kinds = ["edits", "run", "shorter", "longer", "empty"]
    pairs = []
    for _ in range(count):
        kind = kinds[int(rng.choice(5, p=[0.5, 0.2, 0.1, 0.1, 0.1]))]
        pool = words if rng.random() < 0.8 else [pick(words) for _ in range(3)]
        if kind == "shorter":
            gt = [pick(pool) for _ in range(int(rng.integers(8, 25)))]
            asr = [w if rng.random() < 0.5 else substitute(w) for w in gt if rng.random() < 0.1]
        elif kind == "longer":
            gt = [pick(pool) for _ in range(int(rng.integers(1, 4)))]
            asr = [pick(pool) for _ in range(int(rng.integers(8, 25)))]
            for w in gt:
                asr.insert(int(rng.integers(len(asr) + 1)), w)
        else:
            gt = [pick(pool) for _ in range(int(rng.integers(1, 13)))]
            asr = [] if kind == "empty" else edit(gt, float(rng.uniform(0.0, 0.6)), pool)
            if kind == "run":
                start, length = int(rng.integers(len(asr) + 1)), int(rng.integers(1, 7))
                if rng.random() < 0.5:
                    del asr[start:start + length]
                else:
                    asr[start:start] = [pick(pool) for _ in range(length)]
        pairs.append((" ".join(gt), " ".join(asr)))
    return pairs


def induce_vocab_reference(texts, size: int) -> list[str]:
    """Vocabulary pieces by frequency-greedy merges, recounting every adjacent
    pair of every word before each merge (lexicographic tie-break)."""
    word_counts: dict[str, int] = {}
    for text in texts:
        for word in normalize(text).split():
            word_counts[word] = word_counts.get(word, 0) + 1
    if not word_counts:
        raise EmptyCorpusError("empty corpus")
    charset = sorted({ch for word in word_counts for ch in word})
    if size < len(SPECIALS) + len(charset):
        raise SizeTooSmallError(f"size {size} too small")

    pieces = [*SPECIALS, *charset]
    sequences = {w: [w[0]] + [CONTINUATION_PREFIX + ch for ch in w[1:]] for w in word_counts}
    while len(pieces) < size:
        pair_counts: dict[tuple[str, str], int] = {}
        for word, seq in sequences.items():
            for pair in zip(seq, seq[1:]):
                pair_counts[pair] = pair_counts.get(pair, 0) + word_counts[word]
        if not pair_counts:
            break
        left, right = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        merged = left + right[len(CONTINUATION_PREFIX):]
        if merged not in pieces:
            pieces.append(merged)
        for word, seq in sequences.items():
            out: list[str] = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            sequences[word] = out
    return pieces


# ------------------------------------------------------------------ mpmath
def _mp_matrix(a):
    return [[mpf(float(x)) for x in row] for row in np.atleast_2d(np.asarray(a, dtype=np.float64))]


def _mp_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]


def _mp_add_rowvec(a, v):
    return [[a[i][j] + v[j] for j in range(len(v))] for i in range(len(a))]


def _mp_softmax_rows(a):
    out = []
    for row in a:
        m = max(row)
        e = [mp.e ** (x - m) for x in row]
        s = sum(e)
        out.append([x / s for x in e])
    return out


def _mp_layer_norm(a, gamma, beta, eps=1e-12):
    out = []
    for row in a:
        n = len(row)
        mu = sum(row) / n
        var = sum((x - mu) ** 2 for x in row) / n
        sigma = mp.sqrt(var + mpf(eps))
        out.append([(x - mu) / sigma * gamma[j] + beta[j] for j, x in enumerate(row)])
    return out


def _mp_gelu(a):
    c = mp.sqrt(mpf(2) / mp.pi)
    out = []
    for row in a:
        out.append([mpf("0.5") * x * (1 + mp.tanh(c * (x + mpf("0.044715") * x**3))) for x in row])
    return out


def block_forward_mp(q_in, kv_in, weights: dict, n_heads: int, dps: int = 50) -> np.ndarray:
    """High-precision attention + feed-forward block, post-layer-norm."""
    mp.dps = dps
    q_in_m = _mp_matrix(q_in)
    kv_in_m = _mp_matrix(kv_in)
    d = len(q_in_m[0])
    dh = d // n_heads
    q = _mp_add_rowvec(_mp_matmul(q_in_m, _mp_matrix(weights["wq"])), [mpf(float(x)) for x in weights["bq"]])
    k = _mp_add_rowvec(_mp_matmul(kv_in_m, _mp_matrix(weights["wk"])), [mpf(float(x)) for x in weights["bk"]])
    v = _mp_add_rowvec(_mp_matmul(kv_in_m, _mp_matrix(weights["wv"])), [mpf(float(x)) for x in weights["bv"]])
    n, m = len(q), len(k)
    merged = [[mpf(0)] * d for _ in range(n)]
    scale = 1 / mp.sqrt(mpf(dh))
    for h in range(n_heads):
        cols = range(h * dh, (h + 1) * dh)
        qh = [[q[i][c] for c in cols] for i in range(n)]
        kh = [[k[i][c] for c in cols] for i in range(m)]
        vh = [[v[i][c] for c in cols] for i in range(m)]
        scores = [[sum(qh[i][x] * kh[j][x] for x in range(dh)) * scale for j in range(m)] for i in range(n)]
        att = _mp_softmax_rows(scores)
        for i in range(n):
            for idx, c in enumerate(cols):
                merged[i][c] = sum(att[i][j] * vh[j][idx] for j in range(m))
    attn = _mp_add_rowvec(_mp_matmul(merged, _mp_matrix(weights["wo"])), [mpf(float(x)) for x in weights["bo"]])
    resid1 = [[q_in_m[i][j] + attn[i][j] for j in range(d)] for i in range(n)]
    h1 = _mp_layer_norm(resid1, [mpf(float(x)) for x in weights["ln1_g"]], [mpf(float(x)) for x in weights["ln1_b"]])
    inner = _mp_gelu(_mp_add_rowvec(_mp_matmul(h1, _mp_matrix(weights["w1"])), [mpf(float(x)) for x in weights["b1"]]))
    ffn = _mp_add_rowvec(_mp_matmul(inner, _mp_matrix(weights["w2"])), [mpf(float(x)) for x in weights["b2"]])
    resid2 = [[h1[i][j] + ffn[i][j] for j in range(d)] for i in range(n)]
    out = _mp_layer_norm(resid2, [mpf(float(x)) for x in weights["ln2_g"]], [mpf(float(x)) for x in weights["ln2_b"]])
    return np.array([[float(x) for x in row] for row in out], dtype=np.float64)


# ------------------------------------------------------------ numpy forward
def _np_softmax(a, axis=-1):
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _np_layer_norm(a, gamma, beta, eps=1e-12):
    mu = a.mean(axis=-1, keepdims=True)
    var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
    return (a - mu) / np.sqrt(var + eps) * gamma + beta


def _np_gelu(a):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * a * (1.0 + np.tanh(c * (a + 0.044715 * a**3)))


def _np_block(q_in, kv_in, p, prefix, n_heads):
    d = q_in.shape[1]
    dh = d // n_heads
    q = q_in @ p[prefix + "wq"] + p[prefix + "bq"]
    k = kv_in @ p[prefix + "wk"] + p[prefix + "bk"]
    v = kv_in @ p[prefix + "wv"] + p[prefix + "bv"]
    pieces = []
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        pieces.append(_np_softmax(scores) @ v[:, sl])
    attn = np.concatenate(pieces, axis=1) @ p[prefix + "wo"] + p[prefix + "bo"]
    h1 = _np_layer_norm(q_in + attn, p[prefix + "ln1_g"], p[prefix + "ln1_b"])
    ffn = _np_gelu(h1 @ p[prefix + "w1"] + p[prefix + "b1"]) @ p[prefix + "w2"] + p[prefix + "b2"]
    return _np_layer_norm(h1 + ffn, p[prefix + "ln2_g"], p[prefix + "ln2_b"])


def loss_reference(model, example, lexicon):
    """Plain-numpy recomputation of one example's loss terms."""
    cfg = model.config
    p = model.params
    rows_map = model.code_index.token_rows

    ids = np.asarray(example.sentence, dtype=np.intp)
    pos = p["m_pos"][: len(ids)]
    if cfg.phoneme_head:
        e_in = cfg.lambda_w * p["m_word"][ids] + (1 - cfg.lambda_w) * p["m_ph"][rows_map[ids]] + pos
    else:
        e_in = p["m_word"][ids] + pos
    e_enc = _np_block(e_in, e_in, p, "enc_", cfg.n_heads)

    target = list(example.target_ids)
    e_k = e_enc[example.position:example.position + 1]
    head = np.concatenate([e_k, p["bos_emb"]], axis=1) @ p["dec_h"] + p["m_pos"][0:1]
    queries = [head]
    for i, tid in enumerate(target[:-1]):
        if cfg.phoneme_head:
            emb = cfg.lambda_w * p["m_word"][tid] + (1 - cfg.lambda_w) * p["m_ph"][rows_map[tid]]
        else:
            emb = p["m_word"][tid]
        queries.append((emb + p["m_pos"][i + 1])[None, :])
    q = np.concatenate(queries, axis=0)
    hidden = _np_block(q, e_enc, p, "dec_", cfg.n_heads)

    logits_n = hidden @ p["m_word"].T + p["b_n"]
    lp_n = logits_n - logits_n.max(axis=-1, keepdims=True)
    lp_n = lp_n - np.log(np.exp(lp_n).sum(axis=-1, keepdims=True))
    l_n = -sum(lp_n[l, t] for l, t in enumerate(target))

    l_ph = 0.0
    if cfg.phoneme_head and cfg.lambda_ph != 0.0:
        ph_rows = p["m_ph"][rows_map]
        logits_ph = hidden @ ph_rows.T + p["b_ph"][rows_map]
        p_ph = _np_softmax(logits_ph)
        for l, tid in enumerate(target):
            if tid in (model.vocab.eos_id, model.vocab.unk_id):
                continue
            r = supervision_distribution(model.vocab.pieces[tid], model.r_support(), lexicon)
            l_ph += float(np.sum(p_ph[l] * (np.log(p_ph[l]) - np.log(np.maximum(r, 1e-12)))))
    return float(l_n), float(l_ph), float(l_n + cfg.lambda_ph * l_ph)


def loss_terms(batch, model, lexicon):
    """``(l_tot, l_n, l_ph)`` of the package's loss graph for ``batch``."""
    graph = _loss_graph(batch, model, lexicon)
    return graph.l_tot, graph.l_n, graph.l_ph


#: Central-difference step of :func:`backward_and_check`'s audit.
_FD_STEP = 1e-5


def backward_and_check(model, batch, lexicon, check_coords: int = 0, check_seed: int = 0):
    """Gradients of the total loss, optionally audited by finite differences.

    When ``check_coords`` > 0, that many randomly chosen parameter
    coordinates are re-derived with central differences at ``_FD_STEP`` and
    the maximum relative error (guarded at unit scale) is returned beside
    the gradients; otherwise None is.  A non-finite gradient raises
    ValueError naming its parameter.
    """
    graph = _loss_graph(batch, model, lexicon)
    backward(graph.l_tot)
    grads = {}
    for name, leaf in graph.params.items():
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        if not np.all(np.isfinite(g)):
            raise ValueError(f"gradient for {name} contains non-finite values")
        grads[name] = g

    if check_coords <= 0:
        return grads, None

    def loss_value() -> float:
        return float(_loss_graph(batch, model, lexicon, needs_grad=False).l_tot.data)

    rng = np.random.default_rng(check_seed)
    names = sorted(model.params)
    max_rel = 0.0
    for _ in range(check_coords):
        name = names[int(rng.integers(len(names)))]
        array = model.params[name]
        flat = int(rng.integers(array.size))
        original = array.flat[flat]
        array.flat[flat] = original + _FD_STEP
        up = loss_value()
        array.flat[flat] = original - _FD_STEP
        down = loss_value()
        array.flat[flat] = original
        fd = (up - down) / (2.0 * _FD_STEP)
        adg = float(grads[name].flat[flat])
        max_rel = max(max_rel, abs(adg - fd) / max(abs(adg), abs(fd), 1.0))
    return grads, max_rel


# composed autodiff ops ---------------------------------------------
def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        if a.needs_grad:
            _acc(a, _unbroadcast(g, a.data.shape))
        if b.needs_grad:
            _acc(b, _unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _acc(a, -g)

    return _node(-a.data, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)

    def bwd(g):
        _acc(a, g * e)

    return _node(e, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading (stack) axes broadcast.

    A 2-D ``b`` takes the 2-D products ``autodiff.linear`` takes, so the two
    agree bit for bit: ``a`` gets one product over all of its rows, and
    ``b`` the in-order sum of one product per block of
    ``WEIGHT_GRAD_ROWS`` rows.  A stacked ``b`` gets one product per stack
    entry for both."""

    def bwd(g):
        if b.data.ndim == 2:
            d, k = b.data.shape
            a_rows, g_rows = a.data.reshape(-1, d), g.reshape(-1, k)
            if a.needs_grad:
                _acc(a, (g_rows @ b.data.T).reshape(a.data.shape))
            if b.needs_grad:
                blocks = [
                    a_rows[lo : lo + WEIGHT_GRAD_ROWS].T @ g_rows[lo : lo + WEIGHT_GRAD_ROWS]
                    for lo in range(0, len(a_rows), WEIGHT_GRAD_ROWS)
                ]
                _acc(b, sum(blocks[1:], blocks[0]))
            return
        if a.needs_grad:
            _acc(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.needs_grad:
            _acc(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _node(a.data @ b.data, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    def bwd(g):
        _acc(a, g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    p = _np_softmax(a.data, axis)

    def bwd(g):
        _acc(a, p * (g - (g * p).sum(axis=axis, keepdims=True)))

    return _node(p, (a,), bwd)


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(g, a.data.shape))

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    lp = shifted - lse

    def bwd(g):
        _acc(a, g - np.exp(lp) * g.sum(axis=axis, keepdims=True))

    return _node(lp, (a,), bwd)


def one_span_hidden(start, prefix, memory, params, config, token_rows):
    """``model.decoder_hidden`` in training's packed form for one span of one
    sentence: its start row ``[1, d]`` and ``prefix`` over the sentence's
    decoder keys and values ``[n, d]``, each side one group of a one-sentence
    ``Grid``.  Returns the span's query rows ``[1 + len(prefix), d]``."""
    from asrnoise import autodiff as ad
    from asrnoise.model import decoder_hidden

    steps = ad.Grid(np.zeros(1 + len(prefix), dtype=np.intp), 1)
    keys = ad.Grid(np.zeros(memory[0].data.shape[0], dtype=np.intp), 1)
    return decoder_hidden(start, [prefix], memory, params, config, token_rows, (steps, keys))


def _sentence_of_chunk(chunk, sentence: int):
    """A :class:`generation.SpanChunk`'s decoder, and the encoder rows and
    decoder keys and values of its sentence ``sentence`` as packed rows
    ``[n, d]``."""
    from asrnoise import autodiff as ad

    memory = tuple(ad.rows(x, sentence) for x in chunk.memory)
    return chunk.decoder, ad.rows(chunk.rows, sentence), memory


def full_prefix_span(chunk, sentence: int, position: int, temperature=None, seed: int = 0):
    """The span at ``position`` of the chunk's sentence ``sentence``,
    decoded by running the decoder block over the span's start row and
    every token generated so far at each step, in training's packed form
    (:func:`one_span_hidden`), and keeping the newest row.
    Without a ``temperature`` each step takes the argmax; with one it draws
    from the temperature-scaled weights by a right-side search of one
    uniform: step t's is ``uniforms_at(seed, (position + 1) * 2**32 + t)``,
    the counter the plan of a sentence of under 2**32 tokens never reaches.
    Returns the token ids, [EOS] included, and each step's newest hidden
    row ``[d]``."""
    from asrnoise import autodiff as ad
    from asrnoise.model import decoder_start, step_distributions
    from asrnoise.rng import uniforms_at

    decoder, e_enc, memory = _sentence_of_chunk(chunk, sentence)
    model, params = decoder.model, decoder.params
    config, eos = model.config, model.vocab.eos_id
    start = decoder_start(ad.rows(e_enc, [position]), params)
    generated, rows = [], []
    while len(generated) < config.max_gen_len - 1:
        hidden = one_span_hidden(start, generated, memory, params, config, model.code_index.token_rows)
        d_last = ad.rows(hidden, [len(generated)])
        rows.append(d_last.data[0])
        _, _, p_gen = step_distributions(d_last, decoder.tables, model.special_mask)
        p = p_gen[0]
        if temperature is None:
            generated.append(int(np.argmax(p)))
        else:
            cdf = ((p / p.max()) ** (1.0 / temperature)).cumsum()
            u = float(uniforms_at(seed, (position + 1) * 2**32 + len(generated)))
            generated.append(int(cdf.searchsorted(u * cdf[-1], side="right")))
        if generated[-1] == eos:
            break
    if not generated or generated[-1] != eos:
        generated.append(eos)
    return tuple(generated), rows


def first_step_one_row(chunk, sentence: int, positions):
    """The first decode step of each of ``positions`` of the chunk's
    sentence ``sentence`` run alone: its start row ``[1, d]`` through the
    decoder block in training's packed form (:func:`one_span_hidden`) and
    the heads.  Returns the combined distributions ``[len(positions), V]``."""
    from asrnoise import autodiff as ad
    from asrnoise.model import decoder_start, step_distributions

    decoder, e_enc, memory = _sentence_of_chunk(chunk, sentence)
    model, params = decoder.model, decoder.params
    p_rows = []
    for position in positions:
        start = decoder_start(ad.rows(e_enc, [position]), params)
        hidden = one_span_hidden(start, (), memory, params, model.config, model.code_index.token_rows)
        _, _, p_gen = step_distributions(hidden, decoder.tables, model.special_mask)
        p_rows.append(p_gen[0])
    return np.array(p_rows)


def step_distributions_reference(logits_n, logits_ph, special_mask):
    """``model.step_distributions``' head combination, from the heads'
    logits (``logits_ph`` None without a phoneme head), one fresh array per
    operation: ``p_n``, ``p_ph`` and ``p_gen``."""
    special, eos = special_mask
    content = 1.0 - special
    p_n = _np_softmax(logits_n)
    p_ph = None if logits_ph is None else _np_softmax(logits_ph)
    p_content = p_n * content
    prod_content = p_content if p_ph is None else p_content * p_ph
    mean_factor = prod_content.sum(axis=-1, keepdims=True) / np.maximum(
        p_content.sum(axis=-1, keepdims=True), np.finfo(np.float64).smallest_subnormal
    )
    unnorm = prod_content + p_n * eos * mean_factor
    total = unnorm.sum(axis=-1, keepdims=True)
    if not total.all():
        unnorm = np.where(total > 0.0, unnorm, eos)
        total = unnorm.sum(axis=-1, keepdims=True)
    return p_n, p_ph, unnorm / total


def pick_reference(p, temperature, u):
    """``generation._pick`` with one fresh array per operation: the argmax
    without uniforms ``u``, else each row's draw from its temperature-scaled
    weights."""
    if u is None:
        return p.argmax(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = (p / p.max(axis=1, keepdims=True)) ** (1.0 / temperature)
    cdf = weights.cumsum(axis=1)
    if not (p.min() >= 0.0 and np.isfinite(cdf[:, -1]).all()):
        raise ValueError("sampling weights must be finite and non-negative")
    return (cdf <= (u * cdf[:, -1])[:, None]).sum(axis=1)
