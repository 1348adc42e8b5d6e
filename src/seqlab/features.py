"""Sparse indicator feature extraction for the discrete models.

Each task/language pair has a closed template table.  ``TemplateSet``
compiles each row once into offset groups with finished ``T<row>[<offsets>]=``
prefixes.  ``token_values`` computes each per-token value the groups read
once per sentence (character equality, affixes and radicals included),
padded with the boundary sentinels ``<S>`` / ``</S>``; ``instantiate`` makes
one pass per group over its offsets' slices of them and yields each
position's key: the value a ``one`` group reads, or the tuple of values a
``join`` group reads.  A key's context string is the group's prefix plus the
value (multi-part values joined with ``~``); only the affix groups of one
offset share a prefix, one group per affix length, so the strings at one
position are distinct by construction.  Contexts carry no label: the
discrete scorer crosses each context with every output label by indexing a
(contexts x labels) weight matrix with the context's id in the model's
``ContextAlphabet``, which maps keys to ids without rendering the strings.
"""

from __future__ import annotations

import enum
import logging
import unicodedata
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import Sentence, open_text, strip_line

log = logging.getLogger(__name__)

BOS = "<S>"
EOS = "</S>"
PAD = 2  # sentinels on each side of a sentence's token values: the widest offset

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
# template tables
# ---------------------------------------------------------------------------

# Row layout: (row id, kind, argument tuple).  Kinds taking per-position
# offsets list them singly; pair/ngram kinds list offset tuples.

_SEG_ROWS = (
    (1, "char", (-2, -1, 0, 1, 2)),
    (2, "char_ngram", ((-2, -1), (-1, 0), (0, 1), (1, 2), (-1, 1), (0, 2))),
    (3, "char_eq", ((0, -2), (0, 1))),
    (4, "char_ngram", ((-1, 0, 1),)),
    (5, "char_type", (0,)),
    (6, "char_type_ngram", ((-1, 0, 1),)),
    (7, "char_type_ngram", ((-2, -1, 0, 1, 2),)),
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

# values read from the token alone, by kind; a SEG token is one character
_TOKEN_VALUE = {
    "char_type": lambda tok: str(int(char_type(tok))),
    "shape": word_shape,
    "capital": lambda tok: "T" if is_capitalized(tok) else "F",
    "connect": connect_class,
    "length": lambda tok: str(min(len(tok), LENGTH_CAP)),
}


def load_lexicon(path, what: str) -> dict[str, str]:
    """Read a ``key<TAB>value`` lexicon of ``what`` values (``cluster`` or
    ``radical``).  None is the empty lexicon, and a path that cannot be
    opened raises; a repeated key keeps its later value with a warning."""
    if path is None:
        return {}
    lex = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = strip_line(raw)
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'key<TAB>{what}'")
            if parts[0] in lex:
                log.warning("%s: line %d: key %r repeats; keeping the later value", path, lineno, parts[0])
            lex[parts[0]] = parts[1]
    return lex


def _compile_row(row: int, kind: str, args, affix_len: int) -> list[tuple[str, str, tuple]]:
    """One table row as offset groups ``(how, prefix, reads)``.

    ``prefix`` is the group's finished ``T<row>[<offsets>]=``; ``reads`` lists
    the (per-token kind, offset) pairs whose values the group appends, one
    for a ``one`` group, several joined with ``~`` for a ``join`` group.
    Three kinds carry an argument: ``("char_eq", d)`` compares a token with
    the one ``d`` places on, ``("prefix", k)`` / ``("suffix", k)`` is a
    word's k-character affix (the groups of one offset share its prefix and
    come in length order) and ``("radical", k)`` the radical of its k-th
    character.
    """

    def prefix(offsets):
        return f"T{row}[{','.join(map(str, offsets))}]="

    if kind == "char_eq":
        return [("one", prefix((a, b)), ((("char_eq", b - a), a),)) for a, b in args]
    if kind in ("prefix", "suffix"):
        lengths = range(1, affix_len + 1)
        return [("one", prefix((off,)), (((kind, k), off),)) for off in args for k in lengths]
    if kind == "radical":
        return [("one", prefix((0, k)), ((("radical", k), 0),)) for k in range(RADICAL_POSITIONS)]
    if kind == "capital_connect":
        return [("join", prefix((off, 0)), (("capital", off), ("connect", 0))) for off in args]
    if kind in ("capital_word", "postag_word"):
        first = kind.partition("_")[0]
        return [("join", prefix(pair), ((first, pair[0]), ("word", pair[1]))) for pair in args]
    if kind.endswith("_ngram"):
        base = kind.removesuffix("_ngram")
        return [("join", prefix(offsets), tuple((base, off) for off in offsets)) for offsets in args]
    return [("one", prefix((off,)), ((kind, off),)) for off in args]


@dataclass
class TemplateSet:
    """The closed template table for one (task, language) pair, compiled
    once into offset groups (see ``_compile_row``) that read their values
    by slot: a kind's index in ``kinds``."""

    task: str
    language: str
    cluster_lexicon: dict[str, str] = field(default_factory=dict)
    radical_lexicon: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.language not in LANGUAGES:
            raise ValueError(f"unknown language {self.language!r}")
        affix_len = _AFFIX_LEN.get((self.task, self.language), 0)
        rows = _TABLES[(self.task, self.language)]
        groups = [group for row in rows for group in _compile_row(*row, affix_len)]
        # the per-token kinds the groups read, which ``token_values`` computes
        self.kinds = list(dict.fromkeys(kind for _, _, reads in groups for kind, _ in reads))
        slot = {kind: s for s, kind in enumerate(self.kinds)}
        self.groups = [
            (how, prefix, tuple((slot[kind], off) for kind, off in reads)) for how, prefix, reads in groups
        ]

    def token_values(self, sent: Sentence) -> list[list]:
        """Each per-token value the groups read, computed once per token: one
        list per kind, in ``kinds`` order, between ``PAD`` boundary sentinels
        each side.  None (a cluster or radical miss, an affix longer than its
        word) skips the group reading it."""
        tokens = sent.tokens
        n = len(tokens)
        lists = []
        for kind in self.kinds:
            name, k = kind if isinstance(kind, tuple) else (kind, 0)
            if name in ("char", "word"):
                values = tokens
            elif name == "cluster":
                values = map(self.cluster_lexicon.get, tokens)
            elif name == "postag":
                if sent.aux_tags is None:
                    raise ValueError("templates need an aux tag column but the sentence has none")
                values = sent.aux_tags
            elif name == "char_eq":  # token t against token t + k
                values = (
                    BOS if t + k < 0 else EOS if t + k >= n else "T" if tokens[t] == tokens[t + k] else "F"
                    for t in range(n)
                )
            elif name == "prefix":
                values = (tok[:k] if k <= len(tok) else None for tok in tokens)
            elif name == "suffix":
                values = (tok[-k:] if k <= len(tok) else None for tok in tokens)
            elif name == "radical":
                values = (self.radical_lexicon.get(tok[k]) if k < len(tok) else None for tok in tokens)
            else:
                values = map(_TOKEN_VALUE[name], tokens)
            # an affix offset outside the sentence gives one string, the 1-character group's sentinel
            head, tail = (None, None) if name in ("prefix", "suffix") and k > 1 else (BOS, EOS)
            lists.append([head] * PAD + [*values] + [tail] * PAD)
        return lists

    def instantiate(self, sent: Sentence) -> list[list]:
        """``sent``'s unlabeled context keys, one list per group in table order
        with each position's key: the value a ``one`` group reads, or the tuple
        of values a ``join`` group reads.  A None value skips the group there."""
        values, n = self.token_values(sent), len(sent)
        columns = []
        for how, _, reads in self.groups:
            parts = [values[slot][PAD + off : PAD + off + n] for slot, off in reads]
            columns.append(parts[0] if how == "one" else list(zip(*parts)))
        return columns


class _Prefix(NamedTuple):
    """The groups of one ``T<row>[<offsets>]=`` prefix: how they read, how many
    values a join reads, and the prefix's key-to-id dicts."""

    prefix: str
    how: str
    arity: int
    known: dict
    fallback: dict


class ContextAlphabet:
    """A model's template contexts as dense ids in [0, size), in
    first-appearance order, looked up by ``TemplateSet.instantiate``'s keys.

    Each ``T<row>[<offsets>]=`` prefix owns one dict from key to id, which
    the affix groups of one offset share, so an affix spelled like a
    sentinel reaches the sentinel's id.  A join key holding a ``~`` renders
    like other keys (``("", "~")`` and ``("~", "")`` are both ``~~``), so
    such keys go in the prefix's fallback dict, keyed by their joined
    values.  The map holds no context string: ``strings`` renders them for
    the checkpoint.
    """

    def __init__(self, templates: TemplateSet, strings: Sequence[str] = (), what: str = "contexts"):
        """The alphabet of ``strings``, in order.  A repeat, which would shift
        later ids, and a string no template renders, which no key would
        reach, raise ``ValueError``."""
        prefixes = {}  # keyed without the prefix's "="
        for how, prefix, reads in templates.groups:
            prefixes.setdefault(prefix[:-1], _Prefix(prefix, how, len(reads), {}, {}))
        self._prefixes = list(prefixes.values())
        self._groups = [prefixes[prefix[:-1]] for _, prefix, _ in templates.groups]
        self.size = len(strings)
        canon = {}.setdefault  # one object per distinct value
        for k, s in enumerate(strings):
            head, sep, rest = s.partition("=")
            p = prefixes.get(head) if sep else None
            if p is None:
                raise ValueError(f"{what}: no template renders {s!r}")
            _, how, arity, table, fallback = p
            if how == "one":
                key = canon(rest, rest)
            else:
                split = rest.split("~")
                if len(split) == arity:
                    key = tuple(map(canon, split, split))
                elif len(split) > arity:
                    table, key = fallback, rest
                else:
                    raise ValueError(f"{what}: no template renders {s!r}")
            if table.setdefault(key, k) != k:
                raise ValueError(f"{what} has duplicate symbols: {s!r} repeats")

    def __len__(self):
        return self.size

    def strings(self) -> list[str]:
        """Every context string in id order."""
        out = [""] * self.size
        for prefix, how, _, known, fallback in self._prefixes:
            for rest, k in fallback.items():
                out[k] = prefix + rest
            if how == "one":
                for key, k in known.items():
                    out[k] = prefix + key
            else:
                for key, k in known.items():
                    out[k] = prefix + "~".join(key)
        return out

    def __eq__(self, other):
        if not isinstance(other, ContextAlphabet):
            return False
        return self.size == other.size and self.strings() == other.strings()

    def find(self, columns: list[list], n: int) -> np.ndarray:
        """The ``(n, groups)`` int32 ids of ``instantiate``'s ``columns`` for a
        sentence of ``n`` tokens, -1 where a group skips or its key is
        unknown; adds nothing."""
        groups = self._groups
        ids = np.fromiter(
            chain.from_iterable(map(p.known.get, keys, repeat(-1, n)) for p, keys in zip(groups, columns)),
            np.int32,
            len(groups) * n,
        ).reshape(len(groups), n)
        for p, keys, row in zip(groups, columns, ids):
            if p.fallback:  # only a join key holding a ``~`` can reach it
                for j in np.flatnonzero(row < 0).tolist():
                    if None not in keys[j]:
                        row[j] = p.fallback.get("~".join(keys[j]), -1)
        return np.ascontiguousarray(ids.T)

    def grow(self, columns: list[list], n: int) -> np.ndarray:
        """``find``, adding each unknown key first: position first, then group."""
        ids, size = self.find(columns, n), self.size
        misses = np.nonzero(ids < 0)
        found = []
        for i, g in zip(*(m.tolist() for m in misses)):
            key = columns[g][i]
            _, how, arity, table, fallback = self._groups[g]
            if key is None or how == "join" and None in key:
                found.append(-1)
                continue
            if how == "join":
                rest = "~".join(key)
                if rest.count("~") != arity - 1:
                    table, key = fallback, rest
            k = table.setdefault(key, size)
            if k == size:
                size += 1
            found.append(k)
        ids[misses] = found
        self.size = size
        return ids
