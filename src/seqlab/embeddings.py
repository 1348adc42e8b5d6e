"""Dense embedding tables and the per-task input composition.

Tables are plain float64 matrices with a symbol vocabulary and a reserved
``<UNK>`` row, so lookups never fail.  The text file format is one vector
per line, ``symbol v1 ... vD`` separated by single spaces, with an optional
``count dim`` header line; saving mirrors loading at full float precision.

Composition per task (concatenation order is fixed):

* SEG: character embedding + character-bigram embedding (bigram of this and
  the next character, ``</S>``-padded at the end);
* POS: word embedding + mean of the word's character embeddings;
* NER: word embedding + character mean + embedding of the auxiliary POS tag.

``InputComposer.row_ids`` looks a sentence's symbols up once, into arrays
of table row ids; ``compose_all`` is then a few gathers and ``backward``
scatters through the same ids.  ``trainer.train`` computes every training
and dev sentence's row ids once per run, next to its template context ids,
and hands both to each ``crf.build_forward`` over the sentence.
"""

from __future__ import annotations

import logging

import numpy as np

from .corpus import Sentence
from .features import EOS

log = logging.getLogger(__name__)

UNK = "<UNK>"
INIT_SCALE = 0.01


class EmbeddingTable:
    def __init__(self, name, dim, symbols, matrix, fine_tune=True, lowercase=False):
        self.name = name
        self.dim = int(dim)
        self.symbols = list(symbols)
        self.vocab = {s: i for i, s in enumerate(self.symbols)}
        if len(self.vocab) != len(self.symbols):
            raise ValueError(f"table {name!r} has duplicate symbols")
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        self.fine_tune = bool(fine_tune)
        self.lowercase = bool(lowercase)
        if self.matrix.shape != (len(self.symbols), self.dim):
            raise ValueError(
                f"table {name!r}: matrix shape {self.matrix.shape} does not match "
                f"{len(self.symbols)} symbols of dim {self.dim}"
            )
        if UNK not in self.vocab:
            raise ValueError(f"table {name!r} lacks the {UNK} symbol")
        self.unk_index = self.vocab[UNK]

    def __len__(self):
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        if self.lowercase:
            symbol = symbol.lower()
        return self.vocab.get(symbol, self.unk_index)

    def vector(self, symbol: str) -> np.ndarray:
        return self.matrix[self.index(symbol)]


def init_random_table(vocab, dim, seed, *, name="table", fine_tune=True) -> EmbeddingTable:
    """Fresh table with entries uniform in [-0.01, 0.01]; deterministic in ``seed``."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    symbols = list(dict.fromkeys(vocab))
    if UNK not in symbols:
        symbols.append(UNK)
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(len(symbols), dim))
    return EmbeddingTable(name, dim, symbols, matrix, fine_tune=fine_tune)


def load_text_embeddings(
    path, dim_expected, *, name="table", fine_tune=True, lowercase=False
) -> EmbeddingTable:
    """Load a text-format embedding file.

    A first line consisting of exactly two integers is taken as a
    ``count dim`` header and skipped.  A vector of the wrong width raises
    with the offending line number, and so does a value that is not a finite
    number (``nan``, ``inf`` or text); a repeated symbol keeps the last
    vector and logs the replacement.  ``<UNK>`` is appended, drawn from
    seed 0, unless the file provides one.
    """
    symbols: list[str] = []
    rows: list[np.ndarray] = []
    index: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(" ")
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                except ValueError:
                    pass
                else:
                    if int(parts[1]) != dim_expected:
                        raise ValueError(
                            f"{path}: header declares dim {parts[1]}, expected {dim_expected}"
                        )
                    continue
            symbol, values = parts[0], parts[1:]
            if len(values) != dim_expected:
                raise ValueError(
                    f"{path}: line {lineno}: {len(values)} values for {symbol!r}, "
                    f"expected {dim_expected}"
                )
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                vec = None
            if vec is None or not np.all(np.isfinite(vec)):
                raise ValueError(
                    f"{path}: line {lineno}: the vector for {symbol!r} holds a value "
                    "that is not a finite number"
                )
            if symbol in index:
                log.info("%s: duplicate symbol %r at line %d; keeping the later vector", path, symbol, lineno)
                rows[index[symbol]] = vec
            else:
                index[symbol] = len(symbols)
                symbols.append(symbol)
                rows.append(vec)
    if UNK not in index:
        rng = np.random.default_rng(0)
        symbols.append(UNK)
        rows.append(rng.uniform(-INIT_SCALE, INIT_SCALE, size=dim_expected))
    matrix = np.vstack(rows) if rows else np.zeros((0, dim_expected))
    return EmbeddingTable(name, dim_expected, symbols, matrix, fine_tune=fine_tune, lowercase=lowercase)


def save_text_embeddings(path, table: EmbeddingTable) -> None:
    """Write the load format back out; float repr round-trips exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for symbol, row in zip(table.symbols, table.matrix):
            fh.write(symbol + " " + " ".join(repr(v) for v in row.tolist()) + "\n")


class InputComposer:
    """Builds the per-token dense input vector for one task.

    The table dict carries ``char``/``bigram`` for SEG, ``word``/``char``
    for POS, and additionally ``pos`` for NER.
    """

    REQUIRED = {
        "SEG": ("char", "bigram"),
        "POS": ("word", "char"),
        "NER": ("word", "char", "pos"),
    }

    def __init__(self, task: str, tables: dict[str, EmbeddingTable]):
        if task not in self.REQUIRED:
            raise ValueError(f"unknown task {task!r}")
        self.task = task
        self.tables = tables
        missing = [k for k in self.REQUIRED[task] if k not in tables]
        if missing:
            raise ValueError(f"task {task} needs embedding tables {missing}")
        self.dim = sum(tables[k].dim for k in self.REQUIRED[task])

    def table_order(self):
        return self.REQUIRED[self.task]

    def row_ids(self, sent: Sentence) -> dict:
        """The table rows ``sent`` reads, keyed like ``tables``.

        A table read once per token maps to its ``(n,)`` row ids.  The char
        table of POS and NER, whose mean each word reads, maps to a pair: an
        ``(n, m)`` matrix holding word i's char rows in its first ``counts[i]``
        columns and -1 after them, and the ``(n,)`` counts.
        """
        tokens = sent.tokens
        if self.task == "SEG":
            bigrams = [a + b for a, b in zip(tokens, [*tokens[1:], EOS])]
            return {"char": self._rows("char", tokens), "bigram": self._rows("bigram", bigrams)}
        rows = {"word": self._rows("word", tokens)}
        counts = np.array([len(word) for word in tokens], dtype=np.intp)
        chars = np.full((len(tokens), counts.max()), -1, dtype=np.intp)
        chars[np.arange(chars.shape[1]) < counts[:, None]] = self._rows("char", "".join(tokens))
        rows["char"] = (chars, counts)
        if self.task == "NER":
            if sent.aux_tags is None:
                raise ValueError("NER composition needs aux POS tags on the sentence")
            rows["pos"] = self._rows("pos", sent.aux_tags)
        return rows

    def _rows(self, key, symbols) -> np.ndarray:
        index = self.tables[key].index
        return np.array([index(symbol) for symbol in symbols], dtype=np.intp)

    def compose_all(self, sent: Sentence, rows=None) -> np.ndarray:
        """The ``(n, dim)`` input vectors; ``rows``: ``row_ids(sent)``, or None.

        A char mean sums the word's gathered rows in char order (the -1 slots
        read as -0.0, which adds exactly nothing) and divides by the count,
        bitwise what ``.mean(axis=0)`` over the word's rows gives.
        """
        if rows is None:
            rows = self.row_ids(sent)
        pieces = []
        for key in self.table_order():
            matrix, ids = self.tables[key].matrix, rows[key]
            if isinstance(ids, tuple):
                chars, counts = ids
                gathered = matrix[chars]
                gathered[chars < 0] = -0.0
                pieces.append(gathered.sum(axis=1) / counts[:, None])
            else:
                pieces.append(matrix[ids])
        return np.concatenate(pieces, axis=1)

    def backward(self, sent: Sentence, grads: np.ndarray, rows=None) -> dict:
        """Scatter d(composed input) back onto table rows; ``rows`` as in ``compose_all``.

        ``grads`` is (n, dim).  Returns per table key the ``(flat cell ids,
        values)`` of every cell ``row * dim + col`` of each row the sentence
        touches (sorted, distinct, zero sums included); repeated touches of a
        row sum in position order, a char mean's share going to each char.
        """
        if rows is None:
            rows = self.row_ids(sent)
        out = {}
        offset = 0
        for key in self.table_order():
            dim, ids = self.tables[key].dim, rows[key]
            piece = grads[:, offset : offset + dim]
            offset += dim
            if isinstance(ids, tuple):
                chars, counts = ids
                ids = chars[chars >= 0]
                piece = np.repeat(piece / counts[:, None], counts, axis=0)
            distinct, inverse = np.unique(ids, return_inverse=True)
            cols = np.arange(dim)
            # bincount adds each cell's values in input order, i.e. position order
            summed = np.bincount(
                (inverse[:, None] * dim + cols).reshape(-1), piece.reshape(-1), len(distinct) * dim
            )
            out[key] = ((distinct[:, None] * dim + cols).reshape(-1), summed)
        return out
