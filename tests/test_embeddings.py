import numpy as np
import pytest

from seqlab.corpus import Sentence
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


class TestComposer:
    def test_seg_composition_with_boundary_bigram(self):
        char, bigram, _, _ = toy_tables()
        composer = InputComposer("SEG", {"char": char, "bigram": bigram})
        s = Sentence(tokens=["中", "国"])
        np.testing.assert_array_equal(composer.compose(s, 0), [5.0, 6.0, 9.0, 9.0])
        np.testing.assert_array_equal(composer.compose(s, 1), [7.0, 8.0, 8.0, 8.0])

    def test_pos_mean_pooling(self):
        char, _, word, _ = toy_tables()
        composer = InputComposer("POS", {"word": word, "char": char})
        s = Sentence(tokens=["ab"])
        # word vector then mean of the two character vectors
        np.testing.assert_array_equal(composer.compose(s, 0), [1.0, 1.0, 1.0, 2.0, 3.0])

    def test_unknown_word_uses_unk_row(self):
        char, _, word, _ = toy_tables()
        composer = InputComposer("POS", {"word": word, "char": char})
        s = Sentence(tokens=["zq"])
        vec = composer.compose(s, 0)
        np.testing.assert_array_equal(vec[:3], [0.2, 0.2, 0.2])
        np.testing.assert_array_equal(vec[3:], [0.5, 0.5])  # both chars unknown

    def test_ner_needs_aux(self):
        char, _, word, pos = toy_tables()
        composer = InputComposer("NER", {"word": word, "char": char, "pos": pos})
        with pytest.raises(ValueError):
            composer.compose(Sentence(tokens=["ab"]), 0)

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
