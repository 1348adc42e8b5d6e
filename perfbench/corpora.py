"""Seeded synthetic corpora for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed yields the
same train/dev/test sentences (and cluster lexicon), token for token.  The
"language" of each task (its grammar, vocabularies and lexicon) is fixed;
the seed draws the sample of sentences from it, as different corpora of one
language would be.  That keeps the work and the attainable accuracy of a
run nearly the same across seeds.  Vocabularies are drawn with Zipfian
frequencies, so the rare tail of each vocabulary shows up in dev and test
without having occurred in training, as unseen words do in real text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from seqlab.corpus import Sentence, segmentation_to_bies, spans_to_position_tags, SpanAnnotation

ZIPF_S = 1.1
LANGUAGE_SEED = 1708
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


@dataclass
class Corpora:
    """One workload's inputs: labeled splits plus the cluster lexicon, if the task uses one."""

    train: list[Sentence]
    dev: list[Sentence]
    test: list[Sentence]
    cluster_lexicon: dict[str, str] = field(default_factory=dict)


class _Zipf:
    """Draws indices in [0, n) with probability proportional to 1 / rank^s."""

    def __init__(self, n, s=ZIPF_S):
        weights = 1.0 / np.arange(1, n + 1) ** s
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng) -> int:
        return min(int(np.searchsorted(self.cdf, rng.random(), side="right")), len(self.cdf) - 1)


def _syllable_word(rng, syllables) -> str:
    return "".join(
        _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
        for _ in range(syllables)
    )


def _unique_words(rng, count, min_syl, max_syl, suffix="", taken=None) -> list[str]:
    taken = set() if taken is None else taken
    out = []
    while len(out) < count:
        w = _syllable_word(rng, int(rng.integers(min_syl, max_syl + 1))) + suffix
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _lengths(rng, counts, lo, hi) -> list[int]:
    """Sentence lengths spread evenly over [lo, hi] per split, in seeded order.

    Each split's total length is then the same for every seed, so work per
    run does not drift with the seed.
    """
    out: list[int] = []
    for count in counts:
        out.extend(int(n) for n in rng.permutation(np.linspace(lo, hi, count).round()))
    return out


def _split(sentences, n_train, n_dev):
    return sentences[:n_train], sentences[n_train : n_train + n_dev], sentences[n_train + n_dev :]


# ---------------------------------------------------------------------------
# SEG-ZH: Chinese character segmentation, BIES
# ---------------------------------------------------------------------------

_ZH_PUNCT_END = "。！？"
_ZH_PUNCT_MID = "，、；"
_ZH_DIGITS = "0123456789"
_ZH_NUMERALS = "一二三四五六七八九十百千万"
_ZH_DATE = "年月日"


def seg_zh(seed, n_train, n_dev, n_test, min_len=20, max_len=70) -> Corpora:
    """Character sequences of 20-70 characters built from a Zipfian word lexicon.

    Words are 1-4 characters over a Zipfian character inventory, so frequent
    characters occur in many words and only context resolves their tag.
    Number and date words exercise the character-type templates.
    """
    lang = np.random.default_rng([LANGUAGE_SEED, 1])
    inventory = [chr(0x4E00 + int(k)) for k in lang.permutation(6000)[:2500]]
    char_zipf = _Zipf(len(inventory))
    lengths = lang.choice([1, 2, 3, 4], size=8000, p=[0.25, 0.5, 0.15, 0.1])
    lexicon = list(dict.fromkeys(
        "".join(inventory[char_zipf.draw(lang)] for _ in range(int(k))) for k in lengths
    ))
    word_zipf = _Zipf(len(lexicon))
    rng = np.random.default_rng([seed, 1])
    by_length = {k: [w for w in lexicon if len(w) == k] for k in range(1, 5)}

    def number_word():
        digits = _ZH_DIGITS if rng.random() < 0.5 else _ZH_NUMERALS
        body = "".join(digits[rng.integers(len(digits))] for _ in range(int(rng.integers(1, 5))))
        return body + _ZH_DATE[rng.integers(len(_ZH_DATE))]

    sentences = []
    for n in _lengths(rng, (n_train, n_dev, n_test), min_len, max_len):
        words: list[str] = []
        remaining = n - 1  # the closing punctuation
        while remaining:
            r = rng.random()
            if r < 0.04:
                w = number_word()
            elif r < 0.09 and words:
                w = _ZH_PUNCT_MID[rng.integers(len(_ZH_PUNCT_MID))]
            else:
                w = lexicon[word_zipf.draw(rng)]
            if len(w) > remaining:
                if remaining > 4:
                    continue
                bucket = by_length[remaining]
                w = bucket[min(word_zipf.draw(rng), len(bucket) - 1)]
            words.append(w)
            remaining -= len(w)
        words.append(_ZH_PUNCT_END[rng.integers(len(_ZH_PUNCT_END))])
        tokens, labels = segmentation_to_bies(words)
        sentences.append(Sentence(tokens=tokens, gold_labels=labels))
    return Corpora(*_split(sentences, n_train, n_dev))


# ---------------------------------------------------------------------------
# POS-EN: English part-of-speech tagging, the 45 Penn Treebank tags
# ---------------------------------------------------------------------------

PTB_TAGS = (
    "#", "$", "''", "``", "(", ")", ",", ".", ":",
    "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD",
    "NN", "NNS", "NNP", "NNPS", "PDT", "POS", "PRP", "PRP$", "RB", "RBR",
    "RBS", "RP", "SYM", "TO", "UH", "VB", "VBD", "VBG", "VBN", "VBP", "VBZ",
    "WDT", "WP", "WP$", "WRB",
)

_PUNCT_WORDS = {
    "#": ["#"], "$": ["$", "US$"], "''": ["''"], "``": ["``"], "(": ["(", "-LRB-"],
    ")": [")", "-RRB-"], ",": [","], ".": [".", "?", "!"], ":": [":", ";", "--"],
    "SYM": ["&", "%", "+"], "POS": ["'s", "'"], "TO": ["to"], "EX": ["there"],
}

# open classes: (vocabulary size, suffix shared by the class)
_OPEN_CLASSES = {
    "NN": (3000, ""), "NNS": (1500, "s"), "NNP": (2500, ""), "NNPS": (200, "s"),
    "JJ": (1500, "ous"), "JJR": (100, "er"), "JJS": (80, "est"), "RB": (500, "ly"),
    "RBR": (40, "er"), "RBS": (20, "est"), "VB": (1200, ""), "VBD": (900, "ed"),
    "VBG": (700, "ing"), "VBN": (700, "en"), "VBP": (600, ""), "VBZ": (600, "s"),
    "FW": (150, ""), "UH": (30, ""), "CD": (800, ""),
}


def pos_en(seed, n_train, n_dev, n_test, min_len=10, max_len=40) -> Corpora:
    """Sentences of 10-40 words from a tag HMM over the 45 PTB tags.

    Each tag has its own Zipfian vocabulary; open classes share a suffix and
    some stems are shared between noun and verb tags, so unseen words are
    partly predictable from their characters and frequent ones are
    ambiguous.  A uniform floor in the transitions makes every tag occur.
    """
    lang = np.random.default_rng([LANGUAGE_SEED, 2])
    L = len(PTB_TAGS)
    trans = lang.dirichlet(np.full(L, 0.08), size=L + 1)
    trans = 0.85 * trans + 0.15 / L
    trans_cdf = np.cumsum(trans, axis=1)
    taken: set[str] = set()
    stems = _unique_words(lang, 600, 1, 3, taken=taken)
    vocab: dict[str, list[str]] = {}
    for tag in PTB_TAGS:
        if tag in _PUNCT_WORDS:
            vocab[tag] = _PUNCT_WORDS[tag]
        elif tag in _OPEN_CLASSES:
            size, suffix = _OPEN_CLASSES[tag]
            if tag == "CD":
                words = [str(k) for k in lang.permutation(100000)[:size]]
            else:
                words = _unique_words(lang, size, 1, 4, suffix, taken)
                if tag == "NNP" or tag == "NNPS":
                    words = [w.capitalize() for w in words]
                if tag in ("NN", "VB", "VBP"):
                    # shared stems: the same surface string under several tags
                    words[5:5 + len(stems) // 3] = stems[: len(stems) // 3]
            vocab[tag] = words
        else:
            vocab[tag] = _unique_words(lang, int(lang.integers(4, 40)), 1, 2, taken=taken)
    zipfs = {tag: _Zipf(len(words)) for tag, words in vocab.items()}

    rng = np.random.default_rng([seed, 2])
    sentences = []
    for n in _lengths(rng, (n_train, n_dev, n_test), min_len, max_len):
        prev = L
        tokens, tags = [], []
        for _ in range(n):
            t = min(int(np.searchsorted(trans_cdf[prev], rng.random() * trans_cdf[prev, -1])), L - 1)
            tag = PTB_TAGS[t]
            tokens.append(vocab[tag][zipfs[tag].draw(rng)])
            tags.append(tag)
            prev = t
        if tokens[0].islower():
            tokens[0] = tokens[0].capitalize()
        sentences.append(Sentence(tokens=tokens, gold_labels=tags))
    return Corpora(*_split(sentences, n_train, n_dev))


# ---------------------------------------------------------------------------
# NER-EN: English entity recognition, BIOES over four types, aux POS column
# ---------------------------------------------------------------------------

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")
_FUNCTION_WORDS = (
    ("the", "DT"), ("a", "DT"), ("of", "IN"), ("in", "IN"), ("for", "IN"), ("and", "CC"),
    ("to", "TO"), ("on", "IN"), ("with", "IN"), ("by", "IN"), ("said", "VBD"),
    ("was", "VBD"), ("is", "VBZ"), ("has", "VBZ"), (",", ","), (".", "."), ("-", "HYPH"),
)
_CONTENT_TAGS = (("NN", ""), ("NNS", "s"), ("VBD", "ed"), ("VBG", "ing"), ("JJ", "al"), ("RB", "ly"))


def ner_en(seed, n_train, n_dev, n_test, min_len=4, max_len=20) -> Corpora:
    """Sentences with BIOES entity spans, an aux POS column and a cluster lexicon.

    Entity names are capitalized words from type-specific Zipfian lists;
    organization names contain the connectives "of", "and", "for" and "-",
    so every NER-EN template row fires.  The cluster lexicon assigns cluster
    bit strings that correlate with the entity type, and covers most of the
    vocabulary including words that never occur in training, as clusters
    induced from unlabeled text would.
    """
    lang = np.random.default_rng([LANGUAGE_SEED, 3])
    taken: set[str] = {w for w, _ in _FUNCTION_WORDS}
    content = {
        tag: _unique_words(lang, 400, 1, 3, suffix, taken) for tag, suffix in _CONTENT_TAGS
    }
    names = {
        "PER_FIRST": _unique_words(lang, 200, 2, 3, "", taken),
        "PER_LAST": _unique_words(lang, 500, 2, 4, "", taken),
        "LOC": _unique_words(lang, 300, 2, 4, "", taken),
        "ORG": _unique_words(lang, 300, 1, 3, "", taken),
        "ORG_HEAD": ["Bank", "Council", "Ministry", "Institute", "Group", "Union"],
        "ORG_TAIL": ["Corp", "Inc", "Ltd", "Association"],
        "MISC": _unique_words(lang, 150, 2, 3, "ian", taken),
    }
    names = {k: [w.capitalize() for w in v] for k, v in names.items()}
    zipf = {k: _Zipf(len(v)) for k, v in {**content, **names}.items()}
    func_zipf = _Zipf(len(_FUNCTION_WORDS), s=0.8)
    lexicon = _cluster_lexicon(lang, names, content)
    rng = np.random.default_rng([seed, 3])

    def pick(key):
        pool = content.get(key) or names[key]
        return pool[zipf[key].draw(rng)]

    def entity(kind):
        """Words and POS tags of one entity; each type spans 1-3 words."""
        r = rng.random()
        if kind == "PER":
            words = [pick("PER_LAST")]
            if r < 0.75:
                words.insert(0, pick("PER_FIRST"))
            if r < 0.2:
                words.insert(0, pick("PER_FIRST"))
            return words, ["NNP"] * len(words)
        if kind == "LOC":
            words = [pick("LOC") for _ in range(1 if r < 0.6 else 2 if r < 0.85 else 3)]
            return words, ["NNP"] * len(words)
        if kind == "MISC":
            words = [pick("MISC")] + ["Open", "Cup"][: 0 if r < 0.55 else 1 if r < 0.8 else 2]
            return words, ["JJ"] + ["NNP"] * (len(words) - 1)
        if r < 0.2:
            return [pick("ORG")], ["NNP"]
        if r < 0.4:
            return [pick("ORG"), pick("ORG_TAIL")], ["NNP", "NNP"]
        if r < 0.6:
            return [pick("ORG_HEAD"), "of", pick("LOC")], ["NNP", "IN", "NNP"]
        if r < 0.73:
            return [pick("ORG"), "and", pick("ORG")], ["NNP", "CC", "NNP"]
        if r < 0.86:
            return [pick("ORG_HEAD"), "for", pick("ORG")], ["NNP", "IN", "NNP"]
        return [pick("ORG"), "-", pick("ORG")], ["NNP", "HYPH", "NNP"]

    sentences = []
    for n in _lengths(rng, (n_train, n_dev, n_test), min_len, max_len):
        tokens, tags, spans = [], [], []
        while len(tokens) < n:
            r = rng.random()
            if r < 0.22:
                kind = ENTITY_TYPES[int(rng.choice(4, p=[0.35, 0.3, 0.2, 0.15]))]
                words, pos = entity(kind)
                if len(tokens) + len(words) > n:
                    continue
                spans.append(SpanAnnotation(len(tokens), len(tokens) + len(words), kind))
            elif r < 0.6:
                word, tag = _FUNCTION_WORDS[func_zipf.draw(rng)]
                words, pos = [word], [tag]
            else:
                tag, _ = _CONTENT_TAGS[rng.integers(len(_CONTENT_TAGS))]
                words, pos = [pick(tag)], [tag]
            tokens.extend(words)
            tags.extend(pos)
        if tokens[0].islower():
            tokens[0] = tokens[0].capitalize()
        labels = spans_to_position_tags(len(tokens), spans, "BIOES")
        sentences.append(Sentence(tokens=tokens, gold_labels=labels, aux_tags=tags))

    return Corpora(*_split(sentences, n_train, n_dev), cluster_lexicon=lexicon)


def _cluster_lexicon(lang, names, content) -> dict[str, str]:
    """Cluster bit strings: a prefix by word class plus a random leaf; 85 % coverage."""
    prefixes = {"PER_FIRST": "00", "PER_LAST": "00", "LOC": "01", "ORG": "10",
                "ORG_HEAD": "10", "ORG_TAIL": "10", "MISC": "11"}
    prefixes.update({tag: f"11{k:03b}" for k, (tag, _) in enumerate(_CONTENT_TAGS)})

    def bits(k):
        return "".join("01"[int(b)] for b in lang.integers(0, 2, size=k))

    lexicon = {}
    for key, words in [*names.items(), *content.items()]:
        for w in words:
            if lang.random() < 0.85:
                lexicon[w] = prefixes[key] + bits(4)
    for w, _ in _FUNCTION_WORDS:
        lexicon[w] = "111" + bits(3)
    return lexicon
