"""Data model and file IO for labeled token sequences, and ``Alphabet``,
the string-to-id map of labels and embedding symbols.

The on-disk corpus format is the same for every task: UTF-8 text with one
token per line as ``token<TAB>[aux<TAB>]label``, a blank line closing each
sentence.  "Character" throughout the package means one Unicode scalar
value, so Chinese text is never split inside a code point.

Also provides the tagging-scheme conversions: word segmentation to
per-character B/I/E/S tags, entity spans to BIO / BIOES position tags, and
both kinds of tags back to ``SpanAnnotation`` tuples.  One repair loop
decodes BIO, BIOES and BIES, and it is total: an ill-formed tag sequence is
repaired deterministically (a tag inconsistent with its left context starts
a new segment; dangling segments close at the boundary).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

BIES_TAGS = ("B", "I", "E", "S")
SCHEMES = ("BIO", "BIOES")


class CorpusFormatError(ValueError):
    """A corpus file violated the column format."""


@dataclass(frozen=True)
class Sentence:
    """One labeled (or unlabeled) token sequence.

    Tokens are characters for segmentation and words otherwise.  ``aux_tags``
    carries an auxiliary per-token column when present (e.g. the POS column
    of an entity-recognition corpus).
    """

    tokens: tuple[str, ...]
    gold_labels: tuple[str, ...] | None = None
    aux_tags: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")
        for name in ("gold_labels", "aux_tags"):
            val = getattr(self, name)
            if val is not None:
                val = tuple(val)
                object.__setattr__(self, name, val)
                if len(val) != len(self.tokens):
                    raise ValueError(
                        f"{name} has {len(val)} entries for {len(self.tokens)} tokens"
                    )

    def __len__(self):
        return len(self.tokens)


class Alphabet:
    """Strings to dense ids in [0, size), in first-appearance order: the map
    for labels and embedding symbols (template contexts have
    ``features.ContextAlphabet``, keyed by the values the templates read)."""

    def __init__(self, strings=()):
        # a dict keeps its keys in first-insertion order; built in one
        # comprehension, not by calling ``add`` per string, which takes
        # about three times as long on a corpus's embedding symbols
        self._strings: list[str] = list({s: None for s in strings})
        self._index: dict[str, int] = {s: i for i, s in enumerate(self._strings)}
        # get(s, default=None): the id of ``s``, or ``default``; never adds.
        # The dict's own method saves a frame per symbol looked up.
        self.get = self._index.get

    def __reduce__(self):  # so a copy's ``get`` reads the copy's dict
        return Alphabet, (self._strings,)

    @classmethod
    def distinct(cls, strings, what: str) -> Alphabet:
        """``strings``' alphabet; a repeat, which would shift later ids, raises ``ValueError``."""
        alphabet = cls(strings)
        if len(alphabet) != len(strings):
            repeat = next(s for k, s in enumerate(strings) if alphabet.to_index(s) != k)
            raise ValueError(f"{what} has duplicate symbols: {repeat!r} repeats")
        return alphabet

    @property
    def size(self) -> int:
        return len(self._strings)

    def add(self, s: str) -> int:
        """The id of ``s``, which is added if new."""
        idx = self._index.get(s)
        if idx is None:
            idx = self._index[s] = len(self._strings)
            self._strings.append(s)
        return idx

    def to_index(self, s: str) -> int:
        try:
            return self._index[s]
        except KeyError:
            raise ValueError(f"{s!r} is not in the alphabet") from None

    def from_index(self, i: int) -> str:
        return self._strings[i]

    def strings(self) -> list[str]:
        """Every string in id order."""
        return list(self._strings)

    def __contains__(self, s):
        return s in self._index

    def __len__(self):
        return len(self._strings)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self._strings == other._strings


class SpanAnnotation(NamedTuple):
    """Half-open token span [start, end) of a given kind."""

    start: int
    end: int
    kind: str


# ---------------------------------------------------------------------------
# column corpus IO
# ---------------------------------------------------------------------------

# Every text input is read with this codec, which skips a leading UTF-8
# byte-order mark instead of reading it into the first token or key.
READ_ENCODING = "utf-8-sig"
_COLUMN_NAMES = frozenset(("token", "aux", "label"))
# Only ASCII space, tab, CR and LF end a line without being content; any
# other whitespace, such as the ideographic space U+3000, is a token.
_LINE_END = " \t\r\n"


@contextmanager
def open_text(path):
    """Open ``path`` to read as text with ``READ_ENCODING``, the one place every
    text input is decoded.  Bytes that are not UTF-8 raise a ``ValueError``
    naming the file and the first line that holds them, counted as the
    readers count lines."""
    with open(path, encoding=READ_ENCODING) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # the decoder reads ahead in blocks, so find the line in the bytes
            for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    raise ValueError(f"{path}: line {lineno}: not valid UTF-8") from None
            raise


def strip_line(raw: str) -> str:
    """One corpus line without its trailing ASCII space, tab, CR and LF."""
    return raw.rstrip(_LINE_END)


def _check_columns(columns):
    columns = tuple(columns)
    if "token" not in columns:
        raise ValueError("column spec must include 'token'")
    bad = set(columns) - _COLUMN_NAMES
    if bad:
        raise ValueError(f"unknown column names: {sorted(bad)}")
    if len(set(columns)) != len(columns):
        raise ValueError("duplicate column names in spec")
    return columns


def read_column_corpus(path, columns=("token", "label")) -> list[Sentence]:
    """Read a column-format corpus file.

    ``columns`` names each tab-separated column; it must include ``token``
    and may include ``aux`` and ``label``.  A leading byte-order mark,
    trailing ASCII whitespace and the presence of a final newline are
    ignored; other whitespace is content.  A line with the wrong column
    count or an empty field raises :class:`CorpusFormatError` naming the
    line number, and bytes that are not UTF-8 a ``ValueError`` naming it.
    An empty file yields an empty list.
    """
    columns = _check_columns(columns)
    sentences = []
    rows: list[list[str]] = []

    def flush():
        if not rows:
            return
        # one shared string per distinct value, however often it recurs
        fields = {name: tuple(map(sys.intern, column)) for name, column in zip(columns, zip(*rows))}
        sentences.append(
            Sentence(
                tokens=fields["token"],
                gold_labels=fields.get("label"),
                aux_tags=fields.get("aux"),
            )
        )
        rows.clear()

    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = strip_line(raw)
            if not line:
                flush()
                continue
            parts = line.split("\t")
            if len(parts) != len(columns):
                raise CorpusFormatError(
                    f"{path}: line {lineno}: expected {len(columns)} columns, got {len(parts)}"
                )
            if "" in parts:
                empty = columns[parts.index("")]
                raise CorpusFormatError(f"{path}: line {lineno}: empty {empty}")
            rows.append(parts)
    flush()
    return sentences


def write_column_corpus(path, sentences, columns=("token", "label")) -> None:
    """Write sentences in the column format read by :func:`read_column_corpus`.

    Sentences are separated by exactly one blank line; the file ends with a
    single newline after the last token line.  A value that would not read
    back as itself (empty, holding a tab, CR or LF, or ending the line with
    a space) is a ``ValueError`` naming the sentence and the column, and
    nothing is written.
    """
    columns = _check_columns(columns)
    blocks = []
    for k, sent in enumerate(sentences):
        fields = {
            "token": sent.tokens,
            "aux": sent.aux_tags,
            "label": sent.gold_labels,
        }
        for name in columns:
            if fields[name] is None:
                raise ValueError(f"sentence lacks required column {name!r}")
            ends_line = name == columns[-1]
            for value in fields[name]:
                breaks_line = "\t" in value or "\r" in value or "\n" in value
                if not value or breaks_line or (ends_line and value.endswith(" ")):
                    raise ValueError(f"sentence {k}: {name} {value!r} would not read back")
        lines = [
            "\t".join(fields[name][i] for name in columns)
            for i in range(len(sent))
        ]
        blocks.append("\n".join(lines))
    Path(path).write_text("\n\n".join(blocks) + ("\n" if blocks else ""), encoding="utf-8")


# ---------------------------------------------------------------------------
# segmentation <-> BIES
# ---------------------------------------------------------------------------


def segmentation_to_bies(words) -> tuple[list[str], list[str]]:
    """Turn a word list into (characters, B/I/E/S tags)."""
    tokens: list[str] = []
    labels: list[str] = []
    for word in words:
        if not word:
            raise ValueError("empty word in segmentation")
        chars = list(word)
        tokens.extend(chars)
        if len(chars) == 1:
            labels.append("S")
        else:
            labels.append("B")
            labels.extend("I" * (len(chars) - 2))
            labels.append("E")
    return tokens, labels


def bies_word_spans(labels) -> list[SpanAnnotation]:
    """Word boundaries of a BIES tag sequence as WORD spans.

    BIES is BIOES with one kind and no O, so the words are the spans the
    entity decoder's repair loop reads from the tags as heads of kind WORD.
    """
    for lab in labels:
        if lab not in BIES_TAGS:
            raise ValueError(f"not a BIES tag: {lab!r}")
    return _decode(zip(labels, repeat("WORD")))


# ---------------------------------------------------------------------------
# entity spans <-> position tags
# ---------------------------------------------------------------------------


def spans_to_position_tags(n: int, spans, scheme: str) -> list[str]:
    """Encode non-overlapping spans over ``n`` tokens as BIO or BIOES tags.

    A span that is empty, starts before 0, overlaps another or runs past
    ``n`` raises ``ValueError``.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    ordered = sorted(spans, key=lambda s: s.start)
    prev_end = 0
    for span in ordered:
        if not 0 <= span.start < span.end:
            raise ValueError(f"bad span bounds in {span}")
        if span.start < prev_end:
            raise ValueError(f"overlapping spans at token {span.start}")
        if span.end > n:
            raise ValueError(f"span ({span.start}, {span.end}) exceeds length {n}")
        prev_end = span.end
    tags = ["O"] * n
    for span in ordered:
        if scheme == "BIOES" and span.end - span.start == 1:
            tags[span.start] = f"S-{span.kind}"
            continue
        tags[span.start] = f"B-{span.kind}"
        for t in range(span.start + 1, span.end):
            tags[t] = f"I-{span.kind}"
        if scheme == "BIOES":
            tags[span.end - 1] = f"E-{span.kind}"
    return tags


def position_tags_to_spans(labels) -> list[SpanAnnotation]:
    """Decode BIO or BIOES position tags into spans; never fails on ill-formed
    input.  A tag is ``head-kind``; one whose head is not B, I, E or S, or
    whose kind is empty, reads as O.  The two schemes' tags may mix."""
    return _decode(label.partition("-")[::2] for label in labels)


def _decode(pairs) -> list[SpanAnnotation]:
    """The spans of ``(head, kind)`` tag pairs, by one repair rule.

    An I or E of the open segment's kind continues it, and the E closes it.
    Any other pair closes the open segment before its position; then a B or
    an I opens a segment there, an E or an S is a one-token span, and
    anything else (O) is outside.  A segment still open at the end closes
    there.
    """
    spans: list[SpanAnnotation] = []
    start, open_kind = 0, None
    for t, (head, kind) in enumerate(pairs):
        if kind == open_kind and (head == "I" or head == "E"):
            if head == "E":
                spans.append(SpanAnnotation(start, t + 1, kind))
                open_kind = None
            continue
        if open_kind is not None:
            spans.append(SpanAnnotation(start, t, open_kind))
            open_kind = None
        if not kind:
            continue
        if head == "B" or head == "I":
            start, open_kind = t, kind
        elif head == "E" or head == "S":
            spans.append(SpanAnnotation(t, t + 1, kind))
    if open_kind is not None:
        spans.append(SpanAnnotation(start, t + 1, open_kind))
    return spans
