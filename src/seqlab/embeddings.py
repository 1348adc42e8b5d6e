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

    def _symbols(self, sent: Sentence, i: int):
        """(table key, symbol or char list) pairs for position ``i``."""
        if self.task == "SEG":
            nxt = sent.tokens[i + 1] if i + 1 < len(sent) else EOS
            return [("char", sent.tokens[i]), ("bigram", sent.tokens[i] + nxt)]
        word = sent.tokens[i]
        parts = [("word", word), ("char", list(word))]
        if self.task == "NER":
            if sent.aux_tags is None:
                raise ValueError("NER composition needs aux POS tags on the sentence")
            parts.append(("pos", sent.aux_tags[i]))
        return parts

    def compose(self, sent: Sentence, i: int) -> np.ndarray:
        pieces = []
        for key, symbol in self._symbols(sent, i):
            table = self.tables[key]
            if isinstance(symbol, list):
                rows = [table.index(c) for c in symbol]
                pieces.append(table.matrix[rows].mean(axis=0))
            else:
                pieces.append(table.matrix[table.index(symbol)])
        return np.concatenate(pieces)

    def compose_all(self, sent: Sentence) -> np.ndarray:
        return np.stack([self.compose(sent, i) for i in range(len(sent))])

    def backward(self, sent: Sentence, grads: np.ndarray) -> dict:
        """Scatter d(composed input) back onto table rows.

        ``grads`` is (n, dim).  Returns per table key the ``(flat cell ids,
        values)`` of every cell ``row * dim + col`` of each row the sentence
        touches (sorted, distinct, zero sums included); repeated touches of a
        row sum in position order.
        """
        touched: dict[str, tuple[list, list]] = {}
        for i in range(len(sent)):
            offset = 0
            for key, symbol in self._symbols(sent, i):
                table = self.tables[key]
                symbols = symbol if isinstance(symbol, list) else [symbol]
                piece = grads[i, offset : offset + table.dim] / len(symbols)  # exact for one
                offset += table.dim
                rows, pieces = touched.setdefault(key, ([], []))
                rows += [table.index(c) for c in symbols]
                pieces += [piece] * len(symbols)
        out = {}
        for key, (rows, pieces) in touched.items():
            dim = self.tables[key].dim
            distinct, inverse = np.unique(np.array(rows, dtype=np.int64), return_inverse=True)
            summed = np.zeros((len(distinct), dim))
            np.add.at(summed, inverse, np.array(pieces).reshape(-1, dim))
            out[key] = ((distinct[:, None] * dim + np.arange(dim)).reshape(-1), summed.reshape(-1))
        return out
