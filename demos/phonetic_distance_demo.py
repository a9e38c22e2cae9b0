"""Walk through the phonetic machinery: codes, distances, similarity, supervision.

Run:  python3 demos/phonetic_distance_demo.py
"""
import numpy as np

from asrnoise import (
    code_key,
    default_lexicon,
    g2p,
    phoneme_edit_distance,
    phoneme_sub_cost,
    phonetic_similarity,
    supervision_distribution,
)

lexicon = default_lexicon()

# Every word maps to a phonetic code: a tuple of phonemes, each a symbol,
# a kind and three articulatory features.  Out-of-lexicon surfaces fall back to a
# deterministic letter table, so subword pieces always get a code.
print("== phonetic codes ==")
for word in ("cue", "queue", "sue", "cereal", "serial", "##ial"):
    print(f"  {word:8s} -> {code_key(g2p(word, lexicon))}")

# Substitution costs come from articulatory features: phonemes differing in
# one slot (say voicing, B vs P) are cheap; a consonant against a vowel
# costs the full unit.
print("\n== substitution costs ==")
for a, b in (("B", "P"), ("B", "M"), ("S", "SH"), ("B", "IY")):
    cost = phoneme_sub_cost(lexicon.phoneme(a), lexicon.phoneme(b))
    print(f"  {a:3s} vs {b:3s}: {cost:.3f}")

# The edit distance weights substitutions by those costs, so homophones sit
# at distance zero and near-homophones just above it.
print("\n== phoneme edit distance ==")
pairs = [("cue", "queue"), ("cue", "sue"), ("cereal", "serial"), ("cat", "workers")]
for a, b in pairs:
    d = phoneme_edit_distance(g2p(a, lexicon), g2p(b, lexicon))
    print(f"  D({a}, {b}) = {d:.3f}")

# Similarity clips the distance against the first word's code length:
# positive for soundalikes, zero once the words share nothing.
print("\n== phonetic similarity ==")
for a, b in (("cue", "queue"), ("cue", "sue"), ("cue", "workers")):
    print(f"  S({a}, {b}) = {phonetic_similarity(a, b, lexicon):.3f}")

# Normalizing similarities over a vocabulary yields the supervision
# distribution used to train the phoneme generation head: a soft label that
# spreads mass over soundalike tokens.
print("\n== supervision distribution for 'cue' ==")
vocab = ["queue", "sue", "few", "new", "key", "workers"]
r = supervision_distribution("cue", vocab, lexicon)
order = np.argsort(-r)
for i in order:
    print(f"  R({vocab[i]:8s}) = {r[i]:.4f}")
print(f"  total mass = {r.sum():.12f}")
