import copy
import hashlib
import itertools
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.corpus import (
    Alphabet,
    CorpusFormatError,
    Sentence,
    SpanAnnotation,
    bies_word_spans,
    position_tags_to_spans,
    read_column_corpus,
    segmentation_to_bies,
    spans_to_position_tags,
    write_column_corpus,
)


class TestSentence:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Sentence(tokens=["a", "b"], gold_labels=["X"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sentence(tokens=[])

    def test_fields_are_tuples(self):
        s = Sentence(tokens=["a"], gold_labels=["X"])
        assert s.tokens == ("a",) and s.gold_labels == ("X",)


class TestAlphabet:
    def test_dense_first_appearance_ids(self):
        alpha = Alphabet(["c", "a"])
        assert [alpha.add(s) for s in ("a", "b", "c", "b")] == [1, 2, 0, 2]
        assert alpha.strings() == ["c", "a", "b"]
        assert alpha.size == len(alpha) == 3
        assert [alpha.from_index(i) for i in range(3)] == ["c", "a", "b"]

    def test_strings_rebuild_an_equal_alphabet(self):
        alpha = Alphabet(["x", "y", "x", "z"])
        assert Alphabet(alpha.strings()) == alpha
        assert Alphabet(["y", "x", "z"]) != alpha
        # the list is a copy: changing it leaves the alphabet alone
        alpha.strings().append("w")
        assert alpha.size == 3

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))])
    def test_a_copy_looks_up_its_own_ids(self, clone):
        alpha = Alphabet(["x", "y"])
        other = clone(alpha)
        other.add("z")
        assert other.get("z") == 2 and other.get("y") == 1
        assert alpha.get("z") is None and alpha.size == 2

    def test_distinct_refuses_a_repeat_by_name(self):
        assert Alphabet.distinct(["x", "y"], "list") == Alphabet(["x", "y"])
        with pytest.raises(ValueError, match=r"^list has duplicate symbols: 'y' repeats$"):
            Alphabet.distinct(["x", "y", "z", "y", "x"], "list")


class TestLabelAlphabet:
    """The label alphabet of a model is an ``Alphabet`` over the gold labels."""

    def test_bijection(self):
        alpha = Alphabet(["B", "I", "E", "S", "B"])
        assert len(alpha) == 4
        for i in range(4):
            assert alpha.to_index(alpha.from_index(i)) == i

    def test_unknown_label(self):
        alpha = Alphabet(["B"])
        with pytest.raises(ValueError, match="'Q' is not in the alphabet"):
            alpha.to_index("Q")


class TestColumnCorpus:
    @pytest.mark.parametrize(
        "data,line",
        [
            (b"The\tDT\n\xffcat\tNN\n", 2),
            (b"\xef\xbb\xbfThe\tDT\r\n\r\ncat\tNN\rsat\tVB\xc3\n", 4),
            (b"The\tDT\n" * 5000 + b"\ncat\xed\xa0\x80\tNN\n", 5002),
        ],
        ids=["lf", "bom-cr-crlf", "past-the-first-block"],
    )
    def test_invalid_utf8_names_the_file_and_line(self, tmp_path, data, line):
        # lines count as the reader counts them, CR, LF and CRLF ending one;
        # the third case lies past the decoder's first block
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"bad\.txt: line {line}: not valid UTF-8"):
            read_column_corpus(path)

    def test_single_token_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("猫\tS\n", encoding="utf-8")
        sents = read_column_corpus(path)
        assert len(sents) == 1
        assert sents[0].tokens == ("猫",) and sents[0].gold_labels == ("S",)

    def test_two_blocks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a\tX\nb\tY\nc\tZ\n\nd\tX\ne\tY\n", encoding="utf-8")
        sents = read_column_corpus(path)
        assert [len(s) for s in sents] == [3, 2]

    def test_repeated_values_share_one_string(self, tmp_path):
        # a corpus holds one string per distinct value, not one per line
        path = tmp_path / "c.txt"
        path.write_text("the\tDT\ncat\tNN\n\nthe\tDT\n", encoding="utf-8")
        first, second = read_column_corpus(path)
        assert first.tokens[0] is second.tokens[0]
        assert first.gold_labels[0] is second.gold_labels[0]

    @pytest.mark.parametrize(
        "text,columns,line,name",
        [
            ("EU\t\tS-ORG\n", ("token", "aux", "label"), 1, "aux"),
            ("EU\tNNP\tS-ORG\n\n\tNNP\tO\n", ("token", "aux", "label"), 3, "token"),
            ("a\tX\n\tY\n", ("token", "label"), 2, "token"),
        ],
        ids=["aux", "token-ner", "token-seg"],
    )
    def test_empty_field_names_file_and_line(self, tmp_path, text, columns, line, name):
        # the writer refuses an empty field, so the reader does too
        path = tmp_path / "c.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=rf"c\.txt: line {line}: empty {name}$"):
            read_column_corpus(path, columns)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("EU\tB-ORG\textra\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 1"):
            read_column_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("", encoding="utf-8")
        assert read_column_corpus(path) == []

    def test_trailing_whitespace_and_final_newline_insensitive(self, tmp_path):
        variants = [
            "a\tX\nb\tY\n",
            "a\tX \nb\tY",
            "a\tX\nb\tY\n\n\n",
            "a\tX\r\nb\tY\r\n",
        ]
        results = []
        for k, text in enumerate(variants):
            path = tmp_path / f"v{k}.txt"
            path.write_text(text, encoding="utf-8")
            results.append(read_column_corpus(path))
        assert all(r == results[0] for r in results)

    def test_leading_bom_reads_like_the_plain_file(self, tmp_path):
        text = "The\tX\ncat\tY\n\nA\tX\n"
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert read_column_corpus(bom) == read_column_corpus(plain)
        assert read_column_corpus(bom)[0].tokens == ("The", "cat")

    def test_non_ascii_whitespace_is_a_token(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("中\n\u3000\n国\n", encoding="utf-8")
        assert read_column_corpus(path, ("token",)) == [Sentence(tokens=["中", "\u3000", "国"])]
        path.write_text("中\tS\n\u3000\tS\u3000\n", encoding="utf-8")
        sents = read_column_corpus(path)
        assert sents[0].tokens == ("中", "\u3000")
        assert sents[0].gold_labels == ("S", "S\u3000")

    @pytest.mark.parametrize("column", ["token", "aux", "label"])
    @pytest.mark.parametrize("value", ["a\tb", "a\nb", "a\rb", ""])
    def test_writer_rejects_unreadable_values(self, tmp_path, column, value):
        fields = {"token": ["x", "y"], "aux": ["N", "N"], "label": ["B", "E"]}
        fields[column] = ["x", value]
        sents = [
            Sentence(tokens=["w"], gold_labels=["S"], aux_tags=["N"]),
            Sentence(tokens=fields["token"], gold_labels=fields["label"], aux_tags=fields["aux"]),
        ]
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=f"sentence 1: {column}"):
            write_column_corpus(path, sents, ("token", "aux", "label"))
        assert not path.exists()

    def test_writer_rejects_space_ending_a_line(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match="sentence 0: label"):
            write_column_corpus(path, [Sentence(tokens=["a "], gold_labels=["X "])])
        with pytest.raises(ValueError, match="sentence 0: token"):
            write_column_corpus(path, [Sentence(tokens=["a "])], ("token",))
        sents = [Sentence(tokens=["a ", " "], gold_labels=["X", "Y"])]
        write_column_corpus(path, sents)
        assert read_column_corpus(path) == sents

    @given(
        st.lists(
            st.lists(
                st.text(
                    st.characters(whitelist_categories=("L", "M", "N", "P", "S")),
                    min_size=1,
                    max_size=4,
                ),
                min_size=1,
                max_size=4,
            ),
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_write_read_round_trip_property(self, tmp_path_factory, token_lists):
        sents = [Sentence(tokens=toks, gold_labels=toks[::-1]) for toks in token_lists]
        path = tmp_path_factory.mktemp("rt") / "out.txt"
        write_column_corpus(path, sents)
        assert read_column_corpus(path) == sents
        unlabeled = [Sentence(tokens=toks) for toks in token_lists]
        write_column_corpus(path, unlabeled, ("token",))
        assert read_column_corpus(path, ("token",)) == unlabeled

    def test_aux_column(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("EU\tNNP\tB-ORG\n", encoding="utf-8")
        sents = read_column_corpus(path, ("token", "aux", "label"))
        assert sents[0].aux_tags == ("NNP",)

    def test_writer_golden_bytes(self, tmp_path):
        sents = [
            Sentence(tokens=["a", "b"], gold_labels=["X", "Y"]),
            Sentence(tokens=["c"], gold_labels=["Z"]),
        ]
        path = tmp_path / "out.txt"
        write_column_corpus(path, sents)
        assert path.read_bytes() == b"a\tX\nb\tY\n\nc\tZ\n"

    def test_write_read_round_trip(self, tmp_path):
        sents = [
            Sentence(tokens=["猫", "狗"], gold_labels=["B", "E"], aux_tags=["N", "N"]),
            Sentence(tokens=["x"], gold_labels=["S"], aux_tags=["V"]),
        ]
        path = tmp_path / "out.txt"
        write_column_corpus(path, sents, ("token", "aux", "label"))
        assert read_column_corpus(path, ("token", "aux", "label")) == sents

# Every BIES sequence of length 1-8 with its repaired word bounds, hashed as
# in TestBies.test_repair_digest_every_sequence_up_to_length_8.  Fixed with
# the dedicated BIES repair walk that BIES-as-one-kind-BIOES decoding replaced.
BIES_REPAIR_DIGEST = "0d0fd7de4a6dfb13d86d9adfc9497ab5d97c73a4ffe8c13c72bb796e36751d55"
# Every BIO/BIOES sequence of length 1-5 over two kinds, O and a junk label,
# with its repaired spans, hashed as in
# TestPositionTags.test_repair_digest_every_sequence_up_to_length_5.  Fixed
# with the decoder that parsed each tag in its own function before the one
# repair loop for BIO, BIOES and BIES replaced it.
POSITION_REPAIR_DIGEST = "5978a01ec3d9fad4e35bc02d10fbec5244800c92fdcefd7f01031ea9df1b502e"


def bies_words(tokens, labels):
    """The words ``bies_word_spans`` cuts ``tokens`` into."""
    return ["".join(tokens[s.start : s.end]) for s in bies_word_spans(labels)]


class TestBies:
    def test_single_char_word(self):
        assert segmentation_to_bies(["猫"]) == (["猫"], ["S"])

    def test_mixed(self):
        assert segmentation_to_bies(["中国", "人"]) == (["中", "国", "人"], ["B", "E", "S"])

    def test_three_char_word(self):
        assert segmentation_to_bies(["ABC"]) == (["A", "B", "C"], ["B", "I", "E"])

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            segmentation_to_bies(["好", ""])

    def test_inverse(self):
        assert bies_words(["中", "国", "人"], ["B", "E", "S"]) == ["中国", "人"]

    def test_repair_dangling_b(self):
        assert bies_words(["A", "B"], ["B", "B"]) == ["A", "B"]

    def test_repair_orphan_i(self):
        assert bies_words(["A"], ["I"]) == ["A"]

    def test_repair_orphan_e(self):
        # an E with no open word closes as a one-character word
        assert bies_words(["A", "B"], ["S", "E"]) == ["A", "B"]
        assert bies_words(["A", "B"], ["E", "E"]) == ["A", "B"]

    def test_repair_i_after_s(self):
        # an I after a closed word opens the next one, closed by E or the end
        assert bies_words(["A", "B", "C"], ["S", "I", "E"]) == ["A", "BC"]
        assert bies_words(["A", "B", "C"], ["S", "I", "I"]) == ["A", "BC"]

    def test_non_bies_tag_rejected(self):
        with pytest.raises(ValueError, match="not a BIES tag"):
            bies_word_spans(["B", "O"])
        with pytest.raises(ValueError, match="not a BIES tag"):
            bies_word_spans(["B-WORD"])

    def test_repair_digest_every_sequence_up_to_length_8(self):
        # the word bounds of all 87,380 BIES sequences of length 1-8, pinned
        h = hashlib.sha256()
        count = 0
        for length in range(1, 9):
            for labels in itertools.product("BIES", repeat=length):
                bounds = " ".join(f"{s.start},{s.end}" for s in bies_word_spans(labels))
                h.update(f"{''.join(labels)}:{bounds}\n".encode())
                count += 1
        assert count == 87380
        assert h.hexdigest() == BIES_REPAIR_DIGEST

    def test_exhaustive_repair_totality(self):
        # every label string up to length 3 yields words covering all characters
        for length in (1, 2, 3):
            for labels in itertools.product("BIES", repeat=length):
                tokens = [chr(ord("a") + i) for i in range(length)]
                words = bies_words(tokens, list(labels))
                assert "".join(words) == "".join(tokens), labels

    @given(st.lists(st.text(alphabet="abc中国人", min_size=1, max_size=4), min_size=1, max_size=8))
    def test_round_trip(self, words):
        tokens, labels = segmentation_to_bies(words)
        assert bies_words(tokens, labels) == words
        assert "".join(tokens) == "".join(words)

    def test_word_spans_match_segmentation(self):
        labels = ["B", "E", "S", "B", "I", "E"]
        spans = bies_word_spans(labels)
        assert [(s.start, s.end) for s in spans] == [(0, 2), (2, 3), (3, 6)]
        assert all(s.kind == "WORD" for s in spans)


class TestPositionTags:
    def test_bio_encoding(self):
        spans = [SpanAnnotation(0, 2, "PER")]
        assert spans_to_position_tags(3, spans, "BIO") == ["B-PER", "I-PER", "O"]

    def test_bioes_encoding(self):
        spans = [SpanAnnotation(0, 2, "PER")]
        assert spans_to_position_tags(3, spans, "BIOES") == ["B-PER", "E-PER", "O"]

    def test_bioes_single(self):
        assert spans_to_position_tags(1, [SpanAnnotation(0, 1, "LOC")], "BIOES") == ["S-LOC"]

    def test_overlap_rejected(self):
        spans = [SpanAnnotation(0, 2, "PER"), SpanAnnotation(1, 3, "LOC")]
        with pytest.raises(ValueError):
            spans_to_position_tags(3, spans, "BIO")

    @pytest.mark.parametrize("span", [SpanAnnotation(2, 2, "X"), SpanAnnotation(-1, 1, "X")])
    def test_empty_or_negative_span_rejected_naming_it(self, span):
        with pytest.raises(ValueError, match=re.escape(repr(span))):
            spans_to_position_tags(3, [span], "BIOES")

    def test_spans_are_plain_tuples(self):
        spans = position_tags_to_spans(["B-PER", "E-PER", "S-LOC"])
        assert spans == [(0, 2, "PER"), (2, 3, "LOC")]
        assert spans[0].start == 0 and spans[0].end == 2 and spans[0].kind == "PER"

    def test_bio_decoding(self):
        assert position_tags_to_spans(["B-PER", "I-PER", "O"]) == [
            SpanAnnotation(0, 2, "PER")
        ]

    def test_no_spans(self):
        assert position_tags_to_spans(["O", "O"]) == []

    def test_repair_orphan_i_opens(self):
        assert position_tags_to_spans(["I-PER", "O"]) == [SpanAnnotation(0, 1, "PER")]

    def test_junk_label_treated_as_outside(self):
        assert position_tags_to_spans(["XYZ", "B-"]) == []

    def test_repair_digest_every_sequence_up_to_length_5(self):
        # the spans of all 111,110 sequences of length 1-5 over two kinds'
        # BIOES tags, O and a junk label, pinned
        tags = ["O", "B-A", "I-A", "E-A", "S-A", "B-B", "I-B", "E-B", "S-B", "X"]
        h = hashlib.sha256()
        count = 0
        for length in range(1, 6):
            for labels in itertools.product(tags, repeat=length):
                spans = " ".join(f"{s.start},{s.end},{s.kind}" for s in position_tags_to_spans(labels))
                h.update(f"{' '.join(labels)}:{spans}\n".encode())
                count += 1
        assert count == 111110
        assert h.hexdigest() == POSITION_REPAIR_DIGEST

    def test_exhaustive_idempotence(self):
        # re-encoding extracted spans and extracting again is a fixed point
        tags = ["O"] + [f"{h}-{k}" for h in "BIES" for k in ("PER", "LOC")]
        for scheme in ("BIO", "BIOES"):
            for length in (1, 2, 3):
                for labels in itertools.product(tags, repeat=length):
                    spans = position_tags_to_spans(list(labels))
                    encoded = spans_to_position_tags(length, spans, scheme)
                    assert position_tags_to_spans(encoded) == spans

    @given(
        st.lists(
            st.sampled_from(
                ["O"] + [f"{h}-{k}" for h in "BIES" for k in ("PER", "LOC", "ORG")]
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=200)
    def test_repair_totality(self, labels):
        spans = position_tags_to_spans(labels)
        prev_end = 0
        for span in spans:
            assert 0 <= span.start < span.end <= len(labels)
            assert span.start >= prev_end
            prev_end = span.end

    @given(st.data())
    @settings(max_examples=200)
    def test_span_round_trip(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        spans = []
        cursor = 0
        while cursor < n:
            start = data.draw(st.integers(min_value=cursor, max_value=n - 1))
            end = data.draw(st.integers(min_value=start + 1, max_value=n))
            if data.draw(st.booleans()):
                spans.append(SpanAnnotation(start, end, data.draw(st.sampled_from(["PER", "LOC"]))))
            cursor = end
        scheme = data.draw(st.sampled_from(["BIO", "BIOES"]))
        tags = spans_to_position_tags(n, spans, scheme)
        assert position_tags_to_spans(tags) == spans
