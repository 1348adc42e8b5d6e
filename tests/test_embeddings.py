import logging

import numpy as np
import pytest
from hypothesis import given, settings

from fuzz_text import text_files
from seqlab.corpus import Sentence
from seqlab.features import EOS
from seqlab.embeddings import (
    UNK,
    EmbeddingTable,
    InputComposer,
    bag_sum,
    init_random_table,
    load_text_embeddings,
)


def index(table, symbol):
    """The row ``symbol`` looks up, lowercased first in a lowercase table;
    ``<UNK>``'s when it is not in the table."""
    return table.symbols.get(symbol.lower() if table.lowercase else symbol, table.unk_index)


def row(table, symbol):
    """The vector ``symbol`` looks up."""
    return table.matrix[index(table, symbol)]


def compose(composer, sent):
    return composer.compose_all(composer.row_ids(sent))


class TestLoading:
    @pytest.mark.parametrize("dim", [1, 2])
    @given(data=text_files(" 1", " 0.5", " -2", " nan", " 1e999", "2 1", UNK))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_read_verbatim_or_are_refused_naming_the_file(self, tmp_path_factory, dim, data):
        path = tmp_path_factory.getbasetemp() / "fuzzed_embeddings.txt"
        path.write_bytes(data)
        try:
            table = load_text_embeddings(path, dim)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        text = data.decode("utf-8-sig")
        symbols = table.symbols.strings()
        read = symbols[:-1] if symbols[-1] == UNK else symbols  # an appended <UNK> was not read
        assert all(symbol and f"{symbol} " in text for symbol in read)
        assert table.matrix.shape == (len(symbols), dim) and np.all(np.isfinite(table.matrix))

    def test_direct_read_back(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 0.1 0.2\nb 0.3 0.4\n", encoding="utf-8")
        table = load_text_embeddings(path, 2)
        assert len(table) == 3  # two symbols plus UNK
        assert row(table, "a").tolist() == [0.1, 0.2]
        assert row(table, "b").tolist() == [0.3, 0.4]

    def test_header_skipped(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("a 0.1 0.2\nb 0.3 0.4\n", encoding="utf-8")
        headed = tmp_path / "headed.txt"
        headed.write_text("2 2\na 0.1 0.2\nb 0.3 0.4\n", encoding="utf-8")
        t1 = load_text_embeddings(plain, 2)
        t2 = load_text_embeddings(headed, 2)
        assert t1.symbols == t2.symbols
        np.testing.assert_array_equal(t1.matrix, t2.matrix)

    @pytest.mark.parametrize(
        "text, dim, declared, read",
        [
            ("5 2\na 0.1 0.2\nb 0.3 0.4\n", 2, 5, 2),  # truncated
            ("7 1\n8 2\n", 1, 7, 1),  # a one-wide first vector that reads as a header
            ("1 2\na 0.1 0.2\nb 0.3 0.4\n", 2, 1, 2),
        ],
    )
    def test_header_count_must_match_the_vector_lines(self, tmp_path, text, dim, declared, read):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_text_embeddings(path, dim)
        assert str(info.value) == (
            f"{path}: header declares {declared} vectors, but {read} vector lines follow it"
        )

    def test_header_count_ignores_blank_lines(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\n\na 0.1 0.2\n\nb 0.3 0.4\n\n", encoding="utf-8")
        assert load_text_embeddings(path, 2).symbols.strings() == ["a", "b", UNK]

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 0.1 0.2\nb 0.3 0.4 0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_text_embeddings(path, 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.1x"])
    def test_bad_value_names_file_line_and_symbol(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"a 0.1 0.2\nwb0 {value} 0.4\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_text_embeddings(path, 2)
        message = str(info.value)
        assert str(path) in message and "line 2" in message and "'wb0'" in message

    def test_duplicate_last_wins(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 1.0\na 2.0 2.0\n", encoding="utf-8")
        # the CLI logs at WARNING: an info record would replace the vector unseen
        with caplog.at_level(logging.WARNING, logger="seqlab.embeddings"):
            table = load_text_embeddings(path, 2)
        assert row(table, "a").tolist() == [2.0, 2.0]
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, f"{path}: duplicate symbol 'a' at line 2; keeping the later vector")
        ]

    def test_unknown_symbol_maps_to_unk(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 0.1 0.2\n", encoding="utf-8")
        table = load_text_embeddings(path, 2)
        np.testing.assert_array_equal(row(table, "zzz"), table.matrix[table.unk_index])

    def test_lowercase_lookup(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("france 0.5 0.5\n", encoding="utf-8")
        table = load_text_embeddings(path, 2, lowercase=True)
        assert row(table, "France").tolist() == [0.5, 0.5]

    def test_lowercase_folds_symbols_and_the_later_vector_wins(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text(
            "France 0.5 0.5\nfrance 0.1 0.1\nParis 0.3 0.3\n<UNK> 0.7 0.7\n", encoding="utf-8"
        )
        with caplog.at_level(logging.INFO, logger="seqlab.embeddings"):
            table = load_text_embeddings(path, 2, lowercase=True)
        assert table.symbols.strings() == ["france", "paris", UNK]
        assert row(table, "Paris").tolist() == row(table, "paris").tolist() == [0.3, 0.3]
        assert row(table, "France").tolist() == [0.1, 0.1]
        assert row(table, "unseen").tolist() == [0.7, 0.7]
        assert any("duplicate symbol 'france' at line 2" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize("text,line", [(" 0.1 0.2\n", 1), ("a 0.1 0.2\n  0.3 0.4\n", 2)])
    def test_an_empty_symbol_names_the_file_and_line(self, tmp_path, text, line):
        # a line starting with a space read as the symbol "", which no token looks up
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"emb\.txt: line {line}: empty symbol$"):
            load_text_embeddings(path, 2)

    def test_invalid_utf8_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 0.1 0.2\n\xffb 0.3 0.4\n")
        with pytest.raises(ValueError, match=r"emb\.txt: line 2: not valid UTF-8"):
            load_text_embeddings(path, 2)

    def test_trailing_whitespace_and_crlf_load_like_the_plain_file(self, tmp_path):
        # the word2vec tool ends every vector line with a space
        plain = "2 2\nthe 0.1 0.2\nb 0.3 0.4\n"
        variants = [
            plain,
            "2 2 \nthe 0.1 0.2 \nb 0.3 0.4 \n",
            plain.replace("\n", "\r\n"),
            "2 2\t\r\nthe 0.1 0.2 \r\nb 0.3 0.4\t",
        ]
        tables = []
        for k, text in enumerate(variants):
            path = tmp_path / f"v{k}.txt"
            path.write_bytes(text.encode("utf-8"))
            tables.append(load_text_embeddings(path, 2))
        assert tables[0].symbols.strings() == ["the", "b", UNK]
        for table in tables[1:]:
            assert table.symbols == tables[0].symbols
            np.testing.assert_array_equal(table.matrix, tables[0].matrix)

    @pytest.mark.parametrize("header", ["", "2 2\n"])
    def test_leading_bom_loads_like_the_plain_file(self, tmp_path, header):
        text = header + "a 0.1 0.2\nb 0.3 0.4\n"
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        t1, t2 = load_text_embeddings(plain, 2), load_text_embeddings(bom, 2)
        assert t2.symbols == t1.symbols
        assert t1.symbols.strings() == ["a", "b", UNK]
        np.testing.assert_array_equal(t2.matrix, t1.matrix)

    def test_save_load_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        table = init_random_table(["a", "b", "c"], 4, seed=9)
        table.matrix[:] = rng.normal(size=table.matrix.shape)
        path = tmp_path / "emb.txt"
        # float repr round-trips exactly
        rows = zip(table.symbols.strings(), table.matrix.tolist())
        lines = [" ".join([symbol, *map(repr, row)]) for symbol, row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reloaded = load_text_embeddings(path, 4)
        assert reloaded.symbols == table.symbols
        np.testing.assert_array_equal(reloaded.matrix, table.matrix)


class TestRandomInit:
    def test_deterministic(self):
        t1 = init_random_table(["a", "b"], 30, seed=5)
        t2 = init_random_table(["a", "b"], 30, seed=5)
        np.testing.assert_array_equal(t1.matrix, t2.matrix)

    def test_row_width_and_range(self):
        table = init_random_table(["a"], 30, seed=5)
        assert table.matrix.shape[1] == 30
        assert np.all(np.abs(table.matrix) <= 0.01)

    def test_unk_added(self):
        table = init_random_table(["a"], 4, seed=1)
        assert UNK in table.symbols
        assert table.symbols.strings() == ["a", UNK]

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            init_random_table(["a"], 0, seed=1)


class TestTable:
    @pytest.mark.parametrize(
        "symbols,message",
        [(["a", "a", UNK], "duplicate symbols"), (["a", "b"], "lacks the <UNK> symbol")],
    )
    def test_symbols_checked(self, symbols, message):
        # checkpoint headers hand their symbol lists straight to the table
        with pytest.raises(ValueError, match=message):
            EmbeddingTable("t", 2, symbols, np.zeros((len(symbols), 2)))


def toy_tables():
    char = EmbeddingTable(
        "char", 2, ["a", "b", "中", "国", UNK],
        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [0.5, 0.5]]),
    )
    bigram = EmbeddingTable(
        "bigram", 2, ["中国", "国</S>", UNK],
        np.array([[9.0, 9.0], [8.0, 8.0], [0.1, 0.1]]),
    )
    word = EmbeddingTable(
        "word", 3, ["ab", UNK], np.array([[1.0, 1.0, 1.0], [0.2, 0.2, 0.2]])
    )
    pos = EmbeddingTable("pos", 1, ["NN", UNK], np.array([[4.0], [0.0]]))
    return char, bigram, word, pos


def reference_compose(composer, sent, i):
    """Position ``i``'s input vector by the composition rule, token by token."""
    tables, word = composer.tables, sent.tokens[i]
    if composer.task == "SEG":
        nxt = sent.tokens[i + 1] if i + 1 < len(sent) else EOS
        return np.concatenate([row(tables["char"], word), row(tables["bigram"], word + nxt)])
    chars = tables["char"].matrix[[index(tables["char"], c) for c in word]]
    pieces = [row(tables["word"], word), chars.mean(axis=0)]
    if composer.task == "NER":
        pieces.append(row(tables["pos"], sent.aux_tags[i]))
    return np.concatenate(pieces)


def random_composer(task, seed=0):
    """Tables at the benchmark widths; the word table is lowercased."""
    rng = np.random.default_rng(seed)

    def table(name, symbols, dim, lowercase=False):
        symbols = [*symbols, UNK]
        matrix = rng.uniform(-0.01, 0.01, (len(symbols), dim))
        return EmbeddingTable(name, dim, symbols, matrix, lowercase=lowercase)

    if task == "SEG":
        char, bigram = table("char", "中国人民大", 30), table("bigram", ["中国", "国人"], 30)
        return InputComposer("SEG", {"char": char, "bigram": bigram})
    tables = {
        "word": table("word", ["the", "cat", "a", "sat"], 50, lowercase=True),
        "char": table("char", "thecaisdogCT", 30),
    }
    if task == "NER":
        tables["pos"] = table("pos", ["DT", "NN"], 20)
    return InputComposer(task, tables)


COMPOSE_SENTENCES = {
    # multi-char, 1-char and unknown symbols, and a lowercased word match
    "SEG": Sentence(tokens=tuple("中国人民很大中")),
    "POS": Sentence(
        tokens=("The", "cat", "a", "zq", "I", "Ünïcode", "internationalization", "CAT")
    ),
    "NER": Sentence(
        tokens=("The", "cat", "a", "zq", "I", "internationalization"),
        aux_tags=("DT", "NN", "DT", "XX", "PRP", "NN"),
    ),
}


class TestComposer:
    def test_seg_composition_with_boundary_bigram(self):
        char, bigram, _, _ = toy_tables()
        composer = InputComposer("SEG", {"char": char, "bigram": bigram})
        s = Sentence(tokens=["中", "国"])
        np.testing.assert_array_equal(compose(composer, s)[0], [5.0, 6.0, 9.0, 9.0])
        np.testing.assert_array_equal(compose(composer, s)[1], [7.0, 8.0, 8.0, 8.0])

    def test_pos_mean_pooling(self):
        char, _, word, _ = toy_tables()
        composer = InputComposer("POS", {"word": word, "char": char})
        s = Sentence(tokens=["ab"])
        # word vector then mean of the two character vectors
        np.testing.assert_array_equal(compose(composer, s)[0], [1.0, 1.0, 1.0, 2.0, 3.0])

    def test_unknown_word_uses_unk_row(self):
        char, _, word, _ = toy_tables()
        composer = InputComposer("POS", {"word": word, "char": char})
        s = Sentence(tokens=["zq"])
        vec = compose(composer, s)[0]
        np.testing.assert_array_equal(vec[:3], [0.2, 0.2, 0.2])
        np.testing.assert_array_equal(vec[3:], [0.5, 0.5])  # both chars unknown

    def test_ner_needs_aux(self):
        char, _, word, pos = toy_tables()
        composer = InputComposer("NER", {"word": word, "char": char, "pos": pos})
        with pytest.raises(ValueError, match="aux POS tags"):
            composer.row_ids(Sentence(tokens=["ab"]))

    def test_dimension_constant(self):
        char, bigram, _, _ = toy_tables()
        composer = InputComposer("SEG", {"char": char, "bigram": bigram})
        assert composer.dim == 4
        s = Sentence(tokens=["中", "国", "a"])
        assert compose(composer, s).shape == (3, 4)

    def test_missing_table_rejected(self):
        char, _, _, _ = toy_tables()
        with pytest.raises(ValueError):
            InputComposer("SEG", {"char": char})

    @pytest.mark.parametrize("task", sorted(COMPOSE_SENTENCES))
    def test_compose_all_is_bitwise_the_reference(self, task):
        composer = random_composer(task)
        sent = COMPOSE_SENTENCES[task]
        expected = np.stack([reference_compose(composer, sent, i) for i in range(len(sent))])
        got = compose(composer, sent)
        np.testing.assert_array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()

    def test_lowercase_table_and_unknowns_read_their_rows(self):
        composer = random_composer("POS")
        rows = composer.row_ids(COMPOSE_SENTENCES["POS"])
        word, char = composer.tables["word"], composer.tables["char"]
        # "The" and "CAT" hit their lowercase rows; "zq", "I", "Ünïcode" and
        # "internationalization" read <UNK>
        words, once = rows["word"]
        assert words.shape == (8, 1) and once.tolist() == [1] * 8
        assert words[:, 0].tolist() == [0, 1, 2] + [word.unk_index] * 4 + [1]
        chars, counts = rows["char"]
        assert counts.tolist() == [3, 3, 1, 2, 1, 7, 20, 3]
        assert chars.shape == (8, 20)
        assert chars[2].tolist() == [index(char, "a")] + [-1] * 19
        assert chars[3, :2].tolist() == [index(char, "z")] * 2 == [char.unk_index] * 2
        assert chars[7, :3].tolist() == [index(char, c) for c in "CAT"]

    @pytest.mark.parametrize("task", sorted(COMPOSE_SENTENCES))
    def test_bag_of_one_is_bitwise_its_row(self, task):
        composer = random_composer(task)
        sent = COMPOSE_SENTENCES[task]
        rows, got = composer.row_ids(sent), compose(composer, sent)
        offset = 0
        for key in composer.table_order():
            table = composer.tables[key]
            ids, counts = rows[key]
            if key != "char" or task == "SEG":
                assert ids.shape == (len(sent), 1) and counts.tolist() == [1] * len(sent)
                expected = table.matrix[ids[:, 0]]
                assert got[:, offset : offset + table.dim].tobytes() == expected.tobytes()
            offset += table.dim

    def test_negative_zero_rows_compose_to_negative_zero(self):
        # a word row holding -0.0 keeps it; so does a char mean whose every
        # char reads -0.0 in a coordinate
        char, _, word, _ = toy_tables()
        word.matrix[0] = [-0.0, 1.0, -0.0]
        char.matrix[:2, 0] = -0.0
        composer = InputComposer("POS", {"word": word, "char": char})
        vec = compose(composer, Sentence(tokens=["ab"]))[0]
        assert vec.tolist() == [0.0, 1.0, 0.0, 0.0, 3.0]
        assert np.signbit(vec).tolist() == [True, False, True, True, False]


class TestBagOfOne:
    def test_bag_sum_is_bitwise_the_masked_sum(self):
        # a one-column bag, -1 holes and signed-zero rows included, reads as
        # the gather masked to -0.0 and summed from -0.0 over its one column
        rng = np.random.default_rng(5)
        matrix = rng.uniform(-1, 1, (8, 6))
        matrix[0] = -0.0
        matrix[1] = 0.0
        matrix[2, ::2] = -0.0
        ids = rng.integers(-1, 8, (40, 1))
        ids[:4, 0] = [-1, 0, 1, 2]
        gathered = matrix[ids]
        gathered[ids < 0] = -0.0
        expected = gathered.sum(axis=1, initial=-0.0)
        got = bag_sum(matrix, (ids, (ids >= 0).sum(1)))
        assert got.shape == (40, 6)
        assert got.tobytes() == expected.tobytes()
        assert np.signbit(got[0]).all() and np.signbit(got[1]).all() and not np.signbit(got[2]).any()


class TestCharMeanIdentity:
    def test_padded_sum_over_counts_is_bitwise_the_mean(self):
        # compose_all's char mean: the padded gather summed over axis 1, with
        # -0.0 in the padding, divided by the counts, for words of 1..20 chars
        rng = np.random.default_rng(3)
        matrix = rng.uniform(-0.01, 0.01, (60, 30))
        for _ in range(20):
            counts = rng.integers(1, 21, 25)
            chars = np.full((25, counts.max()), -1)
            real = np.arange(counts.max()) < counts[:, None]
            chars[real] = rng.integers(0, 60, counts.sum())
            gathered = matrix[chars]
            gathered[chars < 0] = -0.0
            got = gathered.sum(axis=1) / counts[:, None]
            expected = np.stack([matrix[row[row >= 0]].mean(axis=0) for row in chars])
            assert got.tobytes() == expected.tobytes()


def assert_pair(pair, cells, values):
    np.testing.assert_array_equal(pair[0], cells)
    np.testing.assert_array_equal(pair[1], values)


class TestComposerBackward:
    def test_scatter_splits_char_mean(self):
        char, _, word, _ = toy_tables()
        composer = InputComposer("POS", {"word": word, "char": char})
        s = Sentence(tokens=["ab"])
        grads = np.array([[1.0, 1.0, 1.0, 4.0, 6.0]])
        out = composer.backward(grads, composer.row_ids(s))
        assert_pair(out["word"], [0, 1, 2], [1.0, 1.0, 1.0])
        # half of the mean slice to each of rows 0 and 1
        assert_pair(out["char"], [0, 1, 2, 3], [2.0, 3.0, 2.0, 3.0])

    def test_untouched_rows_absent(self):
        char, bigram, _, _ = toy_tables()
        composer = InputComposer("SEG", {"char": char, "bigram": bigram})
        s = Sentence(tokens=["中"])
        out = composer.backward(np.ones((1, 4)), composer.row_ids(s))
        assert_pair(out["char"], [4, 5], [1.0, 1.0])  # row 2 only; row 0 ("a") untouched

    def test_repeated_rows_sum(self):
        char, bigram, _, _ = toy_tables()
        composer = InputComposer("SEG", {"char": char, "bigram": bigram})
        s = Sentence(tokens=["a", "a"])
        grads = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
        out = composer.backward(grads, composer.row_ids(s))
        assert_pair(out["char"], [0, 1], [3.0, 0.0])

    def test_touched_row_with_zero_gradient_listed(self):
        char, bigram, _, _ = toy_tables()
        composer = InputComposer("SEG", {"char": char, "bigram": bigram})
        s = Sentence(tokens=["a", "a"])
        grads = np.array([[1.0, -2.0, 0.0, 0.0], [-1.0, 2.0, 0.0, 0.0]])
        out = composer.backward(grads, composer.row_ids(s))
        assert_pair(out["char"], [0, 1], [0.0, 0.0])
        assert_pair(out["bigram"], [4, 5], [0.0, 0.0])  # both positions read the UNK row

    @pytest.mark.parametrize("task", sorted(COMPOSE_SENTENCES))
    def test_scatter_is_bitwise_the_per_position_reference(self, task):
        composer = random_composer(task)
        sent = COMPOSE_SENTENCES[task]
        grads = np.random.default_rng(4).normal(size=(len(sent), composer.dim))
        # each position's slice, split evenly over a word's chars, summed per
        # row in position order
        expected = {}
        for i in range(len(sent)):
            offset = 0
            for key in composer.table_order():
                table = composer.tables[key]
                piece = grads[i, offset : offset + table.dim]
                offset += table.dim
                if key == "char" and task != "SEG":
                    symbols = list(sent.tokens[i])
                    piece = piece / len(symbols)
                elif key == "bigram":
                    nxt = sent.tokens[i + 1] if i + 1 < len(sent) else EOS
                    symbols = [sent.tokens[i] + nxt]
                else:
                    symbols = [(sent.aux_tags if key == "pos" else sent.tokens)[i]]
                rows = expected.setdefault(key, {})
                for symbol in symbols:
                    row = index(table, symbol)
                    rows[row] = rows.get(row, np.zeros(table.dim)) + piece
        out = composer.backward(grads, composer.row_ids(sent))
        assert list(out) == list(composer.table_order())
        for key, by_row in expected.items():
            dim = composer.tables[key].dim
            order = sorted(by_row)
            cells = (np.array(order)[:, None] * dim + np.arange(dim)).reshape(-1)
            values = np.concatenate([by_row[r] for r in order])
            assert_pair(out[key], cells, values)
            assert out[key][1].tobytes() == values.tobytes()
