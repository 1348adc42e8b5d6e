"""Synthetic corpora used by the trainer and acceptance tests."""

from itertools import permutations

import numpy as np

from seqlab.corpus import Sentence
from seqlab.embeddings import UNK, EmbeddingTable

SEP_LABELS = ("A", "B", "C", "D")
COMBO_WORD_DIM = 12


def separable_corpus(n_sentences=50, seed=42):
    """Corpus where each token's identity uniquely determines its label.

    Three dedicated word types per label; a unigram feature (or a dedicated
    embedding) is enough to classify every position, so the corpus is
    linearly separable for the discrete model.
    """
    rng = np.random.default_rng(seed)
    words = {lab: [f"w{lab.lower()}{k}" for k in range(3)] for lab in SEP_LABELS}
    sentences = []
    for _ in range(n_sentences):
        length = int(rng.integers(5, 9))
        toks, labs = [], []
        for _ in range(length):
            lab = SEP_LABELS[rng.integers(0, len(SEP_LABELS))]
            toks.append(words[lab][rng.integers(0, 3)])
            labs.append(lab)
        sentences.append(Sentence(tokens=toks, gold_labels=labs))
    return sentences


def combination_data(seed):
    """Entity corpus where the two feature families see disjoint signal.

    Discrete-only cues: twelve anagrams of one five-letter multiset, absent
    from the pretrained vocabulary.  They share the unknown-word embedding
    row and (being anagrams) an identical mean character vector, so the
    dense input is the same for the entity and non-entity members; only
    exact-match indicator features can separate them.  They recur verbatim
    in train and dev.

    Neural-only cues: twenty pairs of random words where the train-side and
    dev-side surface differ but share one pretrained vector.  The dev
    surfaces never occur in training, so frozen indicator features carry no
    signal there; the shared embedding does.

    Returns (train sentences, dev sentences, fresh word table).  Call once
    per training run: the table is fine-tuned in place.
    """
    rng = np.random.default_rng([seed, 100])
    dis_words = ["".join(p) for p in list(permutations("zqxvw"))[:12]]
    dis_entity = {w: (k % 2 == 0) for k, w in enumerate(dis_words)}

    letters = list("abcdefghijklmnop")
    seen = set(dis_words)

    def rand_word():
        while True:
            w = "".join(rng.choice(letters, size=5))
            if w not in seen:
                seen.add(w)
                return w

    pairs = []
    vectors = {}
    for k in range(20):
        train_w, dev_w = rand_word(), rand_word()
        entity = k % 2 == 0
        base = np.full(COMBO_WORD_DIM, 0.5 if entity else -0.5)
        vec = base + 0.05 * rng.normal(size=COMBO_WORD_DIM)
        pairs.append((train_w, dev_w, entity))
        vectors[train_w] = vec
        vectors[dev_w] = vec.copy()

    symbols = list(vectors) + [UNK]
    matrix = np.vstack(
        [vectors[s] for s in vectors] + [rng.uniform(-0.01, 0.01, COMBO_WORD_DIM)]
    )
    word_table = EmbeddingTable("word", COMBO_WORD_DIM, symbols, matrix)

    def draw_sentences(n_sent, use_dev_variant):
        out = []
        for _ in range(n_sent):
            toks, labs = [], []
            for _ in range(8):
                if rng.random() < 0.5:
                    w = dis_words[rng.integers(0, len(dis_words))]
                    entity = dis_entity[w]
                else:
                    train_w, dev_w, entity = pairs[rng.integers(0, len(pairs))]
                    w = dev_w if use_dev_variant else train_w
                toks.append(w)
                labs.append("B-GADGET" if entity else "O")
            out.append(Sentence(tokens=toks, gold_labels=labs, aux_tags=["NN"] * 8))
        return out

    return draw_sentences(60, False), draw_sentences(30, True), word_table
