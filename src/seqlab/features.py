"""Sparse indicator feature extraction for the discrete models.

Each task/language pair has a closed template table.  A template row
instantiates to context strings of the form ``T<row>[<offsets>]=<values>``;
multi-part values are joined with ``~``.  Context positions outside the
sentence contribute the boundary sentinels ``<S>`` / ``</S>``.  Contexts
carry no label: the discrete scorer crosses each context with every output
label by indexing a (contexts x labels) weight matrix with the context's
``FeatureAlphabet`` id.
"""

from __future__ import annotations

import enum
import logging
import unicodedata
from dataclasses import dataclass, field

from .corpus import Sentence, strip_line

log = logging.getLogger(__name__)

BOS = "<S>"
EOS = "</S>"

TASKS = ("SEG", "POS", "NER")
LANGUAGES = ("EN", "ZH")


class CharType(enum.IntEnum):
    PUNCT = 0
    ALPHA = 1
    DATE = 2
    NUM = 3
    OTHER = 4


_DATE_CHARS = frozenset("年月日时分秒")
_CJK_NUMERALS = frozenset("〇一二三四五六七八九十百千万亿")


def char_type(c: str) -> CharType:
    """Classify one character; total and deterministic.

    Order matters: punctuation, then Latin letters, then the fixed date
    characters, then digits (ASCII, fullwidth, Chinese numerals), else other.
    """
    if unicodedata.category(c).startswith("P"):
        return CharType.PUNCT
    if "a" <= c <= "z" or "A" <= c <= "Z" or "ａ" <= c <= "ｚ" or "Ａ" <= c <= "Ｚ":
        return CharType.ALPHA
    if c in _DATE_CHARS:
        return CharType.DATE
    if "0" <= c <= "9" or "０" <= c <= "９" or c in _CJK_NUMERALS:
        return CharType.NUM
    return CharType.OTHER


def word_shape(w: str) -> str:
    """Per-character shape string over {D, L, U, O}."""
    out = []
    for c in w:
        if unicodedata.category(c) == "Nd":
            out.append("D")
        elif c.isupper():
            out.append("U")
        elif c.islower():
            out.append("L")
        else:
            out.append("O")
    return "".join(out)


def connect_class(w: str) -> str:
    lowered = w.lower()
    if lowered in ("of", "and", "for"):
        return lowered.upper()
    if w == "-":
        return "HYPHEN"
    return "OTHER"


def is_capitalized(w: str) -> bool:
    return bool(w) and w[0].isupper()


# ---------------------------------------------------------------------------
# context alphabet
# ---------------------------------------------------------------------------


class FeatureAlphabet:
    """Dense string-to-id map; once frozen, unseen strings stay absent."""

    def __init__(self):
        self._index: dict[str, int] = {}
        self.frozen = False

    @property
    def size(self) -> int:
        return len(self._index)

    def add(self, feature: str) -> int | None:
        idx = self._index.get(feature)
        if idx is None:
            if self.frozen:
                return None
            idx = len(self._index)
            self._index[feature] = idx
        return idx

    def lookup(self, feature: str) -> int | None:
        return self._index.get(feature)

    def freeze(self):
        self.frozen = True

    def strings(self) -> list[str]:
        return list(self._index)

    @classmethod
    def from_strings(cls, strings) -> "FeatureAlphabet":
        """The frozen alphabet of ``strings``, ids in list order."""
        alpha = cls()
        for s in strings:
            alpha.add(s)
        alpha.freeze()
        return alpha


# ---------------------------------------------------------------------------
# template tables
# ---------------------------------------------------------------------------

# Row layout: (row id, kind, argument tuple).  Kinds taking per-position
# offsets list them singly; pair/ngram kinds list offset tuples.

_SEG_ROWS = (
    (1, "char", (-2, -1, 0, 1, 2)),
    (2, "char_ngram", ((-2, -1), (-1, 0), (0, 1), (1, 2), (-1, 1), (0, 2))),
    (3, "char_eq", ((0, -2), (0, 1))),
    (4, "char_ngram", ((-1, 0, 1),)),
    (5, "char_type", ((0,),)),
    (6, "char_type", ((-1, 0, 1),)),
    (7, "char_type", ((-2, -1, 0, 1, 2),)),
)

_POS_ROWS_EN = (
    (1, "word", (-2, -1, 0, 1, 2)),
    (2, "word_ngram", ((-1, 0), (0, 1), (-1, 1))),
    (3, "prefix", (0,)),
    (4, "suffix", (0,)),
)

_POS_ROWS_ZH = _POS_ROWS_EN + ((5, "length", (0,)),)

_NER_ROWS_EN = (
    (1, "word", (-1, 0, 1)),
    (2, "word_ngram", ((-2, -1), (-1, 0), (0, 1), (1, 2))),
    (3, "shape", (-1, 0, 1)),
    (4, "shape_ngram", ((-1, 0), (0, 1))),
    (5, "capital", (-1, 0, 1)),
    (6, "capital_word", ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))),
    (7, "connect", (-1, 0, 1)),
    (8, "capital_connect", (-1, 0, 1)),
    (9, "cluster", (-1, 0, 1)),
    (10, "cluster_ngram", ((-1, 0), (0, 1))),
    (11, "prefix", (0, 1)),
    (12, "suffix", (-1, 0)),
    (13, "postag", (0,)),
    (14, "postag_ngram", ((-1, 0), (0, 1))),
    (15, "postag_ngram", ((-1, 0, 1),)),
    (16, "postag_word", ((0, 0),)),
)

# The published Chinese NER table has no row 5; row ids are kept as printed.
_NER_ROWS_ZH = (
    (1, "postag", (0,)),
    (2, "postag_ngram", ((-1, 0), (0, 1))),
    (3, "postag_ngram", ((-1, 0, 1),)),
    (4, "postag_word", ((0, 0),)),
    (6, "word", (-1, 0, 1)),
    (7, "word_ngram", ((-1, 0), (0, 1))),
    (8, "prefix", (-1, 0)),
    (9, "suffix", (-1, 0)),
    (10, "radical", (0,)),
    (11, "cluster", (0,)),
)

_TABLES = {
    ("SEG", "ZH"): _SEG_ROWS,
    ("SEG", "EN"): _SEG_ROWS,
    ("POS", "EN"): _POS_ROWS_EN,
    ("POS", "ZH"): _POS_ROWS_ZH,
    ("NER", "EN"): _NER_ROWS_EN,
    ("NER", "ZH"): _NER_ROWS_ZH,
}

_AFFIX_LEN = {("POS", "EN"): 5, ("POS", "ZH"): 3, ("NER", "EN"): 4, ("NER", "ZH"): 4}

RADICAL_POSITIONS = 5  # radical(w0, k) for k in 0..4
LENGTH_CAP = 6


def load_lexicon(path, what: str) -> dict[str, str]:
    """Read a ``key<TAB>value`` lexicon; a missing file is an empty lexicon."""
    if path is None:
        return {}
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        log.warning("%s lexicon %s not found; continuing with an empty lexicon", what, path)
        return {}
    lex = {}
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = strip_line(raw)
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'key<TAB>value'")
            lex[parts[0]] = parts[1]
    return lex


@dataclass
class TemplateSet:
    """The closed template table for one (task, language) pair."""

    task: str
    language: str
    cluster_lexicon: dict[str, str] = field(default_factory=dict)
    radical_lexicon: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.language not in LANGUAGES:
            raise ValueError(f"unknown language {self.language!r}")
        self.rows = _TABLES[(self.task, self.language)]
        self.affix_len = _AFFIX_LEN.get((self.task, self.language), 0)

    # -- raw accessors ------------------------------------------------------

    def _token(self, sent: Sentence, pos: int) -> str | None:
        if pos < 0:
            return None
        if pos >= len(sent):
            return None
        return sent.tokens[pos]

    def _sentinel(self, pos: int) -> str:
        return BOS if pos < 0 else EOS

    def _value(self, kind: str, sent: Sentence, pos: int):
        """Component value for one offset; None means "skip this feature"."""
        tok = self._token(sent, pos)
        if tok is None:
            return self._sentinel(pos)
        if kind in ("char", "word"):
            return tok
        if kind == "char_type":
            # token is one character for the segmentation task
            return str(int(char_type(tok)))
        if kind == "shape":
            return word_shape(tok)
        if kind == "capital":
            return "T" if is_capitalized(tok) else "F"
        if kind == "connect":
            return connect_class(tok)
        if kind == "cluster":
            return self.cluster_lexicon.get(tok)
        if kind == "postag":
            if sent.aux_tags is None:
                raise ValueError("templates need an aux tag column but the sentence has none")
            return sent.aux_tags[pos]
        raise AssertionError(kind)

    # -- instantiation ------------------------------------------------------

    def instantiate(self, sent: Sentence, i: int) -> list[str]:
        """Unlabeled feature strings at position ``i``, in table order, deduped."""
        if not 0 <= i < len(sent):
            raise IndexError(f"position {i} outside sentence of length {len(sent)}")
        out: list[str] = []
        seen = set()

        def emit(row, offsets, value):
            if value is None:
                return
            offs = ",".join(str(o) for o in offsets)
            s = f"T{row}[{offs}]={value}"
            if s not in seen:
                seen.add(s)
                out.append(s)

        single = ("char", "word", "shape", "capital", "connect", "cluster", "postag")
        ngram_base = {
            "char_ngram": "char",
            "word_ngram": "word",
            "shape_ngram": "shape",
            "cluster_ngram": "cluster",
            "postag_ngram": "postag",
            "char_type": "char_type",
        }

        for row, kind, args in self.rows:
            if kind in single:
                groups = tuple((off,) for off in args)
                base = kind
            elif kind in ngram_base:
                groups = args
                base = ngram_base[kind]
            else:
                groups = None
            if groups is not None:
                for offsets in groups:
                    parts = [self._value(base, sent, i + off) for off in offsets]
                    if any(p is None for p in parts):
                        continue
                    emit(row, offsets, "~".join(parts))
            elif kind == "char_eq":
                for a, b in args:
                    ta = self._token(sent, i + a)
                    tb = self._token(sent, i + b)
                    if ta is None:
                        value = self._sentinel(i + a)
                    elif tb is None:
                        value = self._sentinel(i + b)
                    else:
                        value = "T" if ta == tb else "F"
                    emit(row, (a, b), value)
            elif kind in ("prefix", "suffix"):
                for off in args:
                    tok = self._token(sent, i + off)
                    if tok is None:
                        emit(row, (off,), self._sentinel(i + off))
                        continue
                    for length in range(1, min(self.affix_len, len(tok)) + 1):
                        piece = tok[:length] if kind == "prefix" else tok[-length:]
                        emit(row, (off,), piece)
            elif kind == "capital_word":
                for a, b in args:
                    cap = self._value("capital", sent, i + a)
                    word = self._value("word", sent, i + b)
                    emit(row, (a, b), f"{cap}~{word}")
            elif kind == "capital_connect":
                for off in args:
                    cap = self._value("capital", sent, i + off)
                    conn = self._value("connect", sent, i)
                    emit(row, (off, 0), f"{cap}~{conn}")
            elif kind == "postag_word":
                for a, b in args:
                    tag = self._value("postag", sent, i + a)
                    word = self._value("word", sent, i + b)
                    emit(row, (a, b), f"{tag}~{word}")
            elif kind == "radical":
                tok = sent.tokens[i]
                for k in range(min(RADICAL_POSITIONS, len(tok))):
                    radical = self.radical_lexicon.get(tok[k])
                    if radical is not None:
                        emit(row, (0, k), radical)
            elif kind == "length":
                tok = sent.tokens[i]
                emit(row, (0,), str(min(len(tok), LENGTH_CAP)))
            else:
                raise AssertionError(kind)
        return out
