import numpy as np
import pytest

from seqlab.corpus import Sentence
from seqlab.features import EOS
from seqlab.embeddings import (
    UNK,
    EmbeddingTable,
    InputComposer,
    init_random_table,
    load_text_embeddings,
    save_text_embeddings,
)


class TestLoading:
    def test_direct_read_back(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 0.1 0.2\nb 0.3 0.4\n", encoding="utf-8")
        table = load_text_embeddings(path, 2)
        assert len(table) == 3  # two symbols plus UNK
        assert table.vector("a").tolist() == [0.1, 0.2]
        assert table.vector("b").tolist() == [0.3, 0.4]

    def test_header_skipped(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("a 0.1 0.2\nb 0.3 0.4\n", encoding="utf-8")
        headed = tmp_path / "headed.txt"
        headed.write_text("2 2\na 0.1 0.2\nb 0.3 0.4\n", encoding="utf-8")
        t1 = load_text_embeddings(plain, 2)
        t2 = load_text_embeddings(headed, 2)
        assert t1.symbols == t2.symbols
        np.testing.assert_array_equal(t1.matrix, t2.matrix)

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

    def test_duplicate_last_wins(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 1.0\na 2.0 2.0\n", encoding="utf-8")
        table = load_text_embeddings(path, 2)
        assert table.vector("a").tolist() == [2.0, 2.0]

    def test_unknown_symbol_maps_to_unk(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 0.1 0.2\n", encoding="utf-8")
        table = load_text_embeddings(path, 2)
        np.testing.assert_array_equal(table.vector("zzz"), table.matrix[table.unk_index])

    def test_lowercase_lookup(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("france 0.5 0.5\n", encoding="utf-8")
        table = load_text_embeddings(path, 2, lowercase=True)
        assert table.vector("France").tolist() == [0.5, 0.5]

    def test_save_load_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        table = init_random_table(["a", "b", "c"], 4, seed=9)
        table.matrix[:] = rng.normal(size=table.matrix.shape)
        path = tmp_path / "emb.txt"
        save_text_embeddings(path, table)
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
        assert UNK in table.vocab

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            init_random_table(["a"], 0, seed=1)


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
        return np.concatenate([tables["char"].vector(word), tables["bigram"].vector(word + nxt)])
    chars = tables["char"].matrix[[tables["char"].index(c) for c in word]]
    pieces = [tables["word"].vector(word), chars.mean(axis=0)]
    if composer.task == "NER":
        pieces.append(tables["pos"].vector(sent.aux_tags[i]))
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
        np.testing.assert_array_equal(composer.compose_all(s)[0], [5.0, 6.0, 9.0, 9.0])
        np.testing.assert_array_equal(composer.compose_all(s)[1], [7.0, 8.0, 8.0, 8.0])

    def test_pos_mean_pooling(self):
        char, _, word, _ = toy_tables()
        composer = InputComposer("POS", {"word": word, "char": char})
        s = Sentence(tokens=["ab"])
        # word vector then mean of the two character vectors
        np.testing.assert_array_equal(composer.compose_all(s)[0], [1.0, 1.0, 1.0, 2.0, 3.0])

    def test_unknown_word_uses_unk_row(self):
        char, _, word, _ = toy_tables()
        composer = InputComposer("POS", {"word": word, "char": char})
        s = Sentence(tokens=["zq"])
        vec = composer.compose_all(s)[0]
        np.testing.assert_array_equal(vec[:3], [0.2, 0.2, 0.2])
        np.testing.assert_array_equal(vec[3:], [0.5, 0.5])  # both chars unknown

    def test_ner_needs_aux(self):
        char, _, word, pos = toy_tables()
        composer = InputComposer("NER", {"word": word, "char": char, "pos": pos})
        with pytest.raises(ValueError):
            composer.compose_all(Sentence(tokens=["ab"]))

    def test_dimension_constant(self):
        char, bigram, _, _ = toy_tables()
        composer = InputComposer("SEG", {"char": char, "bigram": bigram})
        assert composer.dim == 4
        s = Sentence(tokens=["中", "国", "a"])
        assert composer.compose_all(s).shape == (3, 4)

    def test_missing_table_rejected(self):
        char, _, _, _ = toy_tables()
        with pytest.raises(ValueError):
            InputComposer("SEG", {"char": char})

    @pytest.mark.parametrize("task", sorted(COMPOSE_SENTENCES))
    def test_compose_all_is_bitwise_the_reference(self, task):
        composer = random_composer(task)
        sent = COMPOSE_SENTENCES[task]
        expected = np.stack([reference_compose(composer, sent, i) for i in range(len(sent))])
        got = composer.compose_all(sent)
        np.testing.assert_array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()
        cached = composer.compose_all(sent, composer.row_ids(sent))
        assert cached.tobytes() == expected.tobytes()

    def test_lowercase_table_and_unknowns_read_their_rows(self):
        composer = random_composer("POS")
        rows = composer.row_ids(COMPOSE_SENTENCES["POS"])
        word, char = composer.tables["word"], composer.tables["char"]
        # "The" and "CAT" hit their lowercase rows; "zq", "I", "Ünïcode" and
        # "internationalization" read <UNK>
        assert rows["word"].tolist() == [0, 1, 2] + [word.unk_index] * 4 + [1]
        chars, counts = rows["char"]
        assert counts.tolist() == [3, 3, 1, 2, 1, 7, 20, 3]
        assert chars.shape == (8, 20)
        assert chars[2].tolist() == [char.index("a")] + [-1] * 19
        assert chars[3, :2].tolist() == [char.unk_index] * 2
        assert chars[7, :3].tolist() == [char.index(c) for c in "CAT"]


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
        out = composer.backward(s, grads)
        assert_pair(out["word"], [0, 1, 2], [1.0, 1.0, 1.0])
        # half of the mean slice to each of rows 0 and 1
        assert_pair(out["char"], [0, 1, 2, 3], [2.0, 3.0, 2.0, 3.0])

    def test_untouched_rows_absent(self):
        char, bigram, _, _ = toy_tables()
        composer = InputComposer("SEG", {"char": char, "bigram": bigram})
        s = Sentence(tokens=["中"])
        out = composer.backward(s, np.ones((1, 4)))
        assert_pair(out["char"], [4, 5], [1.0, 1.0])  # row 2 only; row 0 ("a") untouched

    def test_repeated_rows_sum(self):
        char, bigram, _, _ = toy_tables()
        composer = InputComposer("SEG", {"char": char, "bigram": bigram})
        s = Sentence(tokens=["a", "a"])
        grads = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
        out = composer.backward(s, grads)
        assert_pair(out["char"], [0, 1], [3.0, 0.0])

    def test_touched_row_with_zero_gradient_listed(self):
        char, bigram, _, _ = toy_tables()
        composer = InputComposer("SEG", {"char": char, "bigram": bigram})
        s = Sentence(tokens=["a", "a"])
        grads = np.array([[1.0, -2.0, 0.0, 0.0], [-1.0, 2.0, 0.0, 0.0]])
        out = composer.backward(s, grads)
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
                    row = table.index(symbol)
                    rows[row] = rows.get(row, np.zeros(table.dim)) + piece
        for rows in (None, composer.row_ids(sent)):
            out = composer.backward(sent, grads, rows)
            assert list(out) == list(composer.table_order())
            for key, by_row in expected.items():
                dim = composer.tables[key].dim
                order = sorted(by_row)
                cells = (np.array(order)[:, None] * dim + np.arange(dim)).reshape(-1)
                values = np.concatenate([by_row[r] for r in order])
                assert_pair(out[key], cells, values)
                assert out[key][1].tobytes() == values.tobytes()
