import logging
import unicodedata

import pytest

from seqlab.corpus import Sentence
from seqlab.features import (
    CharType,
    FeatureAlphabet,
    TemplateSet,
    char_type,
    connect_class,
    is_capitalized,
    load_lexicon,
    word_shape,
)

DATE_CHARS = "年月日时分秒"


class TestCharType:
    def test_punctuation(self):
        assert char_type("，") is CharType.PUNCT
        assert char_type(",") is CharType.PUNCT

    def test_digit_and_letter(self):
        assert char_type("7") is CharType.NUM
        assert char_type("A") is CharType.ALPHA

    def test_date_characters_by_table_lookup(self):
        for c in DATE_CHARS:
            assert char_type(c) is CharType.DATE

    def test_chinese_numeral(self):
        assert char_type("三") is CharType.NUM
        assert char_type("万") is CharType.NUM

    def test_other(self):
        assert char_type("中") is CharType.OTHER

    def test_fullwidth(self):
        assert char_type("Ａ") is CharType.ALPHA
        assert char_type("３") is CharType.NUM

    def test_total_over_code_points(self):
        for cp in list(range(0, 0x300)) + [0x4E00, 0x1F600]:
            assert char_type(chr(cp)) in CharType


class TestWordShape:
    def test_upper(self):
        assert word_shape("EU") == "UU"

    def test_mixed(self):
        assert word_shape("Gate5") == "ULLLD"

    def test_independent_character_oracle(self):
        def oracle_class(c):
            if unicodedata.category(c) == "Nd":
                return "D"
            if c.isupper():
                return "U"
            if c.islower():
                return "L"
            return "O"

        for word in ("mid-1990s", "O'Neil", "３Ｑ", "中国A1"):
            assert word_shape(word) == "".join(oracle_class(c) for c in word)
        assert word_shape("mid-1990s") == "LLLODDDDL"


class TestConnectAndCapital:
    def test_listed_words(self):
        assert connect_class("of") == "OF"
        assert connect_class("For") == "FOR"
        assert connect_class("AND") == "AND"

    def test_hyphen_exact(self):
        assert connect_class("-") == "HYPHEN"
        assert connect_class("--") == "OTHER"

    def test_other(self):
        assert connect_class("offer") == "OTHER"

    def test_capital(self):
        assert is_capitalized("Gate") and not is_capitalized("gate")
        assert not is_capitalized("3M")
        assert not is_capitalized("")


class TestFeatureAlphabet:
    def test_dense_ids(self):
        alpha = FeatureAlphabet()
        ids = [alpha.add(s) for s in ("a", "b", "a", "c")]
        assert ids == [0, 1, 0, 2]
        assert alpha.size == 3

    def test_freeze_blocks_growth(self):
        alpha = FeatureAlphabet()
        alpha.add("a")
        alpha.freeze()
        assert alpha.add("b") is None
        assert alpha.lookup("b") is None
        assert alpha.size == 1


class TestSegTemplates:
    def test_pinned_row1_strings(self):
        t = TemplateSet("SEG", "ZH")
        s = Sentence(tokens=list("中国人"))
        feats = t.instantiate(s, 1)
        for expected in (
            "T1[-1]=中",
            "T1[0]=国",
            "T1[1]=人",
            "T1[-2]=<S>",
            "T1[2]=</S>",
        ):
            assert expected in feats

    def test_equality_row_with_boundary(self):
        t = TemplateSet("SEG", "ZH")
        s = Sentence(tokens=list("AAB"))
        feats = [f for f in t.instantiate(s, 2) if f.startswith("T3")]
        assert feats == ["T3[0,-2]=F", "T3[0,1]=</S>"]

    def test_equality_row_true_case(self):
        t = TemplateSet("SEG", "ZH")
        s = Sentence(tokens=list("ABA"))
        feats = [f for f in t.instantiate(s, 2) if f.startswith("T3")]
        assert feats == ["T3[0,-2]=T", "T3[0,1]=</S>"]

    def test_reference_extractor_row1(self):
        # independent instantiation of the character-unigram row
        t = TemplateSet("SEG", "ZH")
        s = Sentence(tokens=list("中国人"))
        for i in range(3):
            expected = []
            for off in (-2, -1, 0, 1, 2):
                j = i + off
                if j < 0:
                    val = "<S>"
                elif j >= 3:
                    val = "</S>"
                else:
                    val = s.tokens[j]
                expected.append(f"T1[{off}]={val}")
            got = [f for f in t.instantiate(s, i) if f.startswith("T1[")]
            assert got == expected


class TestPosTemplates:
    def test_prefixes_of_running(self):
        t = TemplateSet("POS", "EN")
        s = Sentence(tokens=["running"])
        prefixes = [f for f in t.instantiate(s, 0) if f.startswith("T3")]
        assert prefixes == [
            "T3[0]=r",
            "T3[0]=ru",
            "T3[0]=run",
            "T3[0]=runn",
            "T3[0]=runni",
        ]

    def test_chinese_affix_length_three(self):
        t = TemplateSet("POS", "ZH")
        s = Sentence(tokens=["中国人民"])
        prefixes = [f for f in t.instantiate(s, 0) if f.startswith("T3")]
        assert prefixes == ["T3[0]=中", "T3[0]=中国", "T3[0]=中国人"]

    def test_length_capped_at_six(self):
        t = TemplateSet("POS", "ZH")
        for word, val in (("abc", "3"), ("abcdef", "6"), ("abcdefgh", "6")):
            feats = t.instantiate(Sentence(tokens=[word]), 0)
            assert f"T5[0]={val}" in feats

    def test_length_absent_for_english(self):
        t = TemplateSet("POS", "EN")
        assert not [f for f in t.instantiate(Sentence(tokens=["abc"]), 0) if f.startswith("T5")]


class TestNerTemplates:
    def test_cluster_miss_is_skipped(self):
        t = TemplateSet("NER", "EN", cluster_lexicon={"EU": "0110"})
        s = Sentence(tokens=["EU", "rejects"], aux_tags=["NNP", "VBZ"])
        feats_eu = t.instantiate(s, 0)
        assert "T9[0]=0110" in feats_eu
        assert not [f for f in t.instantiate(s, 1) if f.startswith("T9[0]")]

    def test_out_of_range_cluster_uses_sentinel(self):
        t = TemplateSet("NER", "EN", cluster_lexicon={"EU": "0110"})
        s = Sentence(tokens=["EU"], aux_tags=["NNP"])
        feats = t.instantiate(s, 0)
        assert "T9[-1]=<S>" in feats and "T9[1]=</S>" in feats

    def test_radical_positions(self):
        t = TemplateSet("NER", "ZH", radical_lexicon={"江": "氵", "河": "氵", "明": "日"})
        s = Sentence(tokens=["江河明月"], aux_tags=["NN"])
        feats = [f for f in t.instantiate(s, 0) if f.startswith("T10")]
        # lexicon miss at k=3 (月) emits nothing; word shorter than 5 stops early
        assert feats == ["T10[0,0]=氵", "T10[0,1]=氵", "T10[0,2]=日"]

    def test_aux_tags_required(self):
        t = TemplateSet("NER", "EN")
        with pytest.raises(ValueError):
            t.instantiate(Sentence(tokens=["EU"]), 0)


class TestExtraction:
    def test_determinism(self):
        t = TemplateSet("SEG", "ZH")
        s = Sentence(tokens=list("中国人民"))
        assert t.instantiate(s, 2) == t.instantiate(s, 2)

    def test_frozen_alphabet_never_grows(self):
        t = TemplateSet("SEG", "ZH")
        alpha = FeatureAlphabet()
        for s in t.instantiate(Sentence(tokens=list("中国")), 0):
            alpha.add(s)
        alpha.freeze()
        size = alpha.size
        for s in t.instantiate(Sentence(tokens=list("日本")), 0):
            alpha.add(s)
        assert alpha.size == size

    def test_contexts_deduped(self):
        # each context counts once per position in the emission and its gradient
        for task, language, tokens in (
            ("SEG", "ZH", list("中中国中")),
            ("POS", "EN", ["aa", "aa", "a", "aa"]),
            ("POS", "ZH", ["中中", "中", "中中"]),
        ):
            t = TemplateSet(task, language)
            s = Sentence(tokens=tokens)
            for i in range(len(s)):
                feats = t.instantiate(s, i)
                assert len(feats) == len(set(feats))


class TestLexiconLoading:
    def test_missing_file_warns_and_is_empty(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            lex = load_lexicon(tmp_path / "absent.txt", "cluster")
        assert lex == {}
        assert any("absent.txt" in rec.message for rec in caplog.records)

    def test_reads_pairs(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("中\t氵\n国\t口\n", encoding="utf-8")
        assert load_lexicon(path, "radical") == {"中": "氵", "国": "口"}

    def test_trailing_non_ascii_whitespace_kept(self, tmp_path):
        # as in corpora, only trailing ASCII space, tab, CR and LF are stripped
        path = tmp_path / "lex.txt"
        path.write_text("a\tX\u3000\nb\tY\u00a0 \r\n", encoding="utf-8")
        assert load_lexicon(path, "cluster") == {"a": "X\u3000", "b": "Y\u00a0"}

    def test_none_path_is_empty(self):
        assert load_lexicon(None, "cluster") == {}
