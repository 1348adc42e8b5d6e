"""Dense embedding tables and the per-task input composition.

Tables are plain float64 matrices with a symbol vocabulary and a reserved
``<UNK>`` row, so lookups never fail.  The text file format is one vector
per line, ``symbol v1 ... vD`` separated by single spaces, with an optional
``count dim`` header line that the vector lines must match; a leading
byte-order mark and trailing ASCII whitespace on a line are skipped, as in
the corpus readers.  A table's ``symbols`` is a ``corpus.Alphabet``:
symbol k owns row k.

Composition per task (concatenation order is fixed):

* SEG: character embedding + character-bigram embedding (bigram of this and
  the next character, ``</S>``-padded at the end);
* POS: word embedding + mean of the word's character embeddings;
* NER: word embedding + character mean + embedding of the auxiliary POS tag.

``table_symbols`` is the one rule for which symbols a sentence reads from
each table: the vocabulary build of random-init tables
(``trainer.default_tables``) and the lookup
(``InputComposer.row_ids``) both read it, so a training symbol never maps
to ``<UNK>``.  ``row_ids`` looks the symbols up once, into bags.

A bag ``(ids, counts)`` is the one id form of table reads, here and for
``crf``'s template contexts: an ``(n, m)`` matrix whose row i holds position
i's ``counts[i]`` rows in column order, with -1 anywhere among them (``pad``
packs them to the left; a template bag has a column per template group).  A
table read once per position is a bag of one: a single column, which
``row_ids`` leaves without -1.  ``bag_sum`` sums a matrix's rows over each bag
(the discrete emission, and ``compose_all`` as ``bag_sum / counts``), and
``members`` lists each id with its position (the discrete gradient, and
``backward``'s scatter).  ``bag_sum`` reads a bag of one as a plain gather,
bitwise its sum from -0.0 over one row, and ``compose_all`` leaves it
undivided, bitwise its division by a count of 1.
"""

from __future__ import annotations

import logging

import numpy as np

from .corpus import Alphabet, Sentence, open_text, strip_line
from .features import EOS

log = logging.getLogger(__name__)

UNK = "<UNK>"
INIT_SCALE = 0.01


def pad(flat, counts) -> tuple[np.ndarray, np.ndarray]:
    """The bag of ``flat``, which holds position 0's ``counts[0]`` ids, then
    position 1's ``counts[1]``, and so on; ``ids`` keeps ``flat``'s dtype."""
    counts = np.asarray(counts)
    ids = np.full((len(counts), counts.max(initial=0)), -1, dtype=flat.dtype)
    ids[np.arange(ids.shape[1]) < counts[:, None]] = flat
    return ids, counts


def bag_sum(matrix, bag) -> np.ndarray:
    """Row i sums ``matrix``'s rows over bag i in column order, from -0.0 and with
    the -1 slots read as -0.0: an empty bag is -0.0, a bag of one bitwise its
    row, and any other bitwise ``.sum(axis=0)`` over its rows unless every
    term is -0.0 (which that sum, starting at +0.0, makes +0.0)."""
    ids = bag[0]
    if ids.shape[1] == 1:  # a bag of one: its row
        ids = ids[:, 0]
    gathered = matrix[ids]
    gathered[ids < 0] = -0.0
    return gathered if ids.ndim == 1 else gathered.sum(axis=1, initial=-0.0)


def members(bag) -> tuple[np.ndarray, np.ndarray]:
    """Every id of ``bag`` and its position, in position then column order."""
    ids, counts = bag
    return ids[ids >= 0], np.arange(len(counts)).repeat(counts)


class EmbeddingTable:
    def __init__(self, name, dim, symbols, matrix, lowercase=False):
        self.name = name
        self.dim = int(dim)
        self.symbols = Alphabet.distinct(symbols, f"table {name!r}")
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        self.lowercase = bool(lowercase)
        if self.matrix.shape != (len(self.symbols), self.dim):
            raise ValueError(
                f"table {name!r}: matrix shape {self.matrix.shape} does not match "
                f"{len(self.symbols)} symbols of dim {self.dim}"
            )
        if UNK not in self.symbols:
            raise ValueError(f"table {name!r} lacks the {UNK} symbol")
        self.unk_index = self.symbols.get(UNK)

    def __len__(self):
        return len(self.symbols)


def init_random_table(vocab, dim, seed, *, name="table") -> EmbeddingTable:
    """Fresh table with entries uniform in [-0.01, 0.01]; deterministic in ``seed``."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    symbols = Alphabet(vocab)
    symbols.add(UNK)
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(len(symbols), dim))
    return EmbeddingTable(name, dim, symbols.strings(), matrix)


def load_text_embeddings(path, dim_expected, *, name="table", lowercase=False) -> EmbeddingTable:
    """Load a text-format embedding file.

    A first line consisting of exactly two integers is taken as a
    ``count dim`` header: ``dim`` must be ``dim_expected``, and exactly
    ``count`` vector lines must follow it.  A vector of the wrong width
    raises with the offending line number, and so do an empty symbol (a line
    that starts with a space) and a value that is not a finite number
    (``nan``, ``inf`` or text); a repeated symbol keeps the last vector and
    warns of the replacement, after ``lowercase`` has lowercased every
    symbol but ``<UNK>``.  ``<UNK>`` is appended, drawn from seed 0, unless
    the file provides one.
    """
    symbols = Alphabet()
    rows: list[np.ndarray] = []
    declared = None  # the header's count, when there is a header
    lines = 0
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = strip_line(raw)
            if not line:
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
                    declared = int(parts[0])
                    continue
            lines += 1
            symbol, values = parts[0], parts[1:]
            if not symbol:  # no token is empty, so no token would read its row
                raise ValueError(f"{path}: line {lineno}: empty symbol")
            if lowercase and symbol != UNK:
                symbol = symbol.lower()
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
            k = symbols.add(symbol)
            if k < len(rows):
                log.warning("%s: duplicate symbol %r at line %d; keeping the later vector", path, symbol, lineno)
                rows[k] = vec
            else:
                rows.append(vec)
    if declared is not None and declared != lines:
        raise ValueError(
            f"{path}: header declares {declared} vectors, but {lines} vector lines follow it"
        )
    if UNK not in symbols:
        symbols.add(UNK)
        rows.append(np.random.default_rng(0).uniform(-INIT_SCALE, INIT_SCALE, size=dim_expected))
    matrix = np.vstack(rows)
    return EmbeddingTable(name, dim_expected, symbols.strings(), matrix, lowercase=lowercase)


def table_symbols(task: str, sent: Sentence) -> dict:
    """The symbols ``sent`` reads from each of ``task``'s tables, as ``(symbols,
    counts)``: position i reads the next ``counts[i]`` symbols, in order.

    SEG reads each char and the bigram of it and the next char, ``</S>``-padded
    at the end; POS and NER read each word and every char of every word; NER
    also reads each auxiliary POS tag.
    """
    tokens = sent.tokens
    once = [1] * len(tokens)
    if task == "SEG":
        bigrams = [a + b for a, b in zip(tokens, [*tokens[1:], EOS])]
        return {"char": (tokens, once), "bigram": (bigrams, once)}
    symbols = {"word": (tokens, once), "char": ("".join(tokens), [len(w) for w in tokens])}
    if task == "NER":
        if sent.aux_tags is None:
            raise ValueError("NER composition needs aux POS tags on the sentence")
        symbols["pos"] = (sent.aux_tags, once)
    return symbols


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
        """The table rows ``sent`` reads, keyed like ``tables``: one bag per
        table, a bag of one except for the char mean of POS and NER."""
        rows = {}
        for key, (symbols, counts) in table_symbols(self.task, sent).items():
            table = self.tables[key]
            if table.lowercase:
                symbols = [symbol.lower() for symbol in symbols]
            get, unk = table.symbols.get, table.unk_index
            rows[key] = pad(np.array([get(symbol, unk) for symbol in symbols], dtype=np.intp), counts)
        return rows

    def compose_all(self, rows: dict) -> np.ndarray:
        """The ``(n, dim)`` input vectors of a sentence with ``row_ids`` ``rows``:
        each table's ``bag_sum / counts`` (a bag of one's undivided), so a char mean is bitwise
        ``.mean(axis=0)`` over the word's rows unless every term is -0.0."""
        pieces = []
        for key in self.table_order():
            bag = rows[key]
            summed = bag_sum(self.tables[key].matrix, bag)
            pieces.append(summed if bag[0].shape[1] == 1 else summed / bag[1][:, None])
        return np.concatenate(pieces, axis=1)

    def backward(self, grads: np.ndarray, rows: dict) -> dict:
        """Scatter d(composed input) back onto the table rows ``rows`` of ``row_ids``.

        ``grads`` is (n, dim).  Returns per table key the ``(flat cell ids,
        values)`` of every cell ``row * dim + col`` of each row the sentence
        touches (sorted, distinct, zero sums included); repeated touches of a
        row sum in position order, a char mean's share going to each char.
        """
        out = {}
        offset = 0
        for key in self.table_order():
            dim, bag = self.tables[key].dim, rows[key]
            ids, pos = members(bag)
            piece = (grads[:, offset : offset + dim] / bag[1][:, None])[pos]
            offset += dim
            distinct, inverse = np.unique(ids, return_inverse=True)
            cols = np.arange(dim)
            # bincount adds each cell's values in input order, i.e. position order
            summed = np.bincount(
                (inverse[:, None] * dim + cols).reshape(-1), piece.reshape(-1), len(distinct) * dim
            )
            out[key] = ((distinct[:, None] * dim + cols).reshape(-1), summed)
        return out
