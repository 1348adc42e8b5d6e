import hashlib
import logging
import random
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_templates
from template_grid import contexts_at, grid, map_entries, string_ids
from seqlab import checkpoint, crf, features, trainer
from seqlab.corpus import Alphabet, Sentence
from seqlab.embeddings import bag_sum, members, pad
from seqlab.features import (
    LANGUAGES,
    TASKS,
    CharType,
    ContextAlphabet,
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
    """The context alphabet of a model is a ``ContextAlphabet`` over the
    template keys."""

    def test_dense_ids(self):
        t = TemplateSet("SEG", "ZH")
        sent = Sentence(tokens=list("中中国中"))
        alpha = ContextAlphabet(t)
        ids, _ = crf.index_contexts(t, alpha, sent, grow=True)
        assert sorted(set(ids.ravel().tolist())) == list(range(alpha.size))
        first_seen = dict.fromkeys(c for i in range(len(sent)) for c in contexts_at(t, sent, i))
        assert alpha.strings() == list(first_seen) and alpha.size == len(alpha) == len(first_seen)

    def test_get_never_grows(self):
        t = TemplateSet("SEG", "ZH")
        alpha = ContextAlphabet(t)
        crf.index_contexts(t, alpha, Sentence(tokens=list("中国")), grow=True)
        size, entries = alpha.size, map_entries(alpha)
        ids, counts = crf.index_contexts(t, alpha, Sentence(tokens=list("日本人")))
        assert (alpha.size, map_entries(alpha)) == (size, entries)
        assert np.any(ids == -1) and counts.tolist() == (ids >= 0).sum(1).tolist()


class TestSegTemplates:
    def test_pinned_row1_strings(self):
        t = TemplateSet("SEG", "ZH")
        s = Sentence(tokens=list("中国人"))
        feats = contexts_at(t, s, 1)
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
        feats = [f for f in contexts_at(t, s, 2) if f.startswith("T3")]
        assert feats == ["T3[0,-2]=F", "T3[0,1]=</S>"]

    def test_equality_row_true_case(self):
        t = TemplateSet("SEG", "ZH")
        s = Sentence(tokens=list("ABA"))
        feats = [f for f in contexts_at(t, s, 2) if f.startswith("T3")]
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
            got = [f for f in contexts_at(t, s, i) if f.startswith("T1[")]
            assert got == expected


class TestPosTemplates:
    def test_prefixes_of_running(self):
        t = TemplateSet("POS", "EN")
        s = Sentence(tokens=["running"])
        prefixes = [f for f in contexts_at(t, s, 0) if f.startswith("T3")]
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
        prefixes = [f for f in contexts_at(t, s, 0) if f.startswith("T3")]
        assert prefixes == ["T3[0]=中", "T3[0]=中国", "T3[0]=中国人"]

    def test_length_capped_at_six(self):
        t = TemplateSet("POS", "ZH")
        for word, val in (("abc", "3"), ("abcdef", "6"), ("abcdefgh", "6")):
            feats = contexts_at(t, Sentence(tokens=[word]), 0)
            assert f"T5[0]={val}" in feats

    def test_length_absent_for_english(self):
        t = TemplateSet("POS", "EN")
        assert not [f for f in contexts_at(t, Sentence(tokens=["abc"]), 0) if f.startswith("T5")]


class TestNerTemplates:
    def test_cluster_miss_is_skipped(self):
        t = TemplateSet("NER", "EN", cluster_lexicon={"EU": "0110"})
        s = Sentence(tokens=["EU", "rejects"], aux_tags=["NNP", "VBZ"])
        feats_eu = contexts_at(t, s, 0)
        assert "T9[0]=0110" in feats_eu
        assert not [f for f in contexts_at(t, s, 1) if f.startswith("T9[0]")]

    def test_out_of_range_cluster_uses_sentinel(self):
        t = TemplateSet("NER", "EN", cluster_lexicon={"EU": "0110"})
        s = Sentence(tokens=["EU"], aux_tags=["NNP"])
        feats = contexts_at(t, s, 0)
        assert "T9[-1]=<S>" in feats and "T9[1]=</S>" in feats

    def test_radical_positions(self):
        t = TemplateSet("NER", "ZH", radical_lexicon={"江": "氵", "河": "氵", "明": "日"})
        s = Sentence(tokens=["江河明月"], aux_tags=["NN"])
        feats = [f for f in contexts_at(t, s, 0) if f.startswith("T10")]
        # lexicon miss at k=3 (月) emits nothing; word shorter than 5 stops early
        assert feats == ["T10[0,0]=氵", "T10[0,1]=氵", "T10[0,2]=日"]

    def test_aux_tags_required(self):
        t = TemplateSet("NER", "EN")
        with pytest.raises(ValueError):
            t.token_values(Sentence(tokens=["EU"]))


class TestExtraction:
    def test_determinism(self):
        t = TemplateSet("SEG", "ZH")
        s = Sentence(tokens=list("中国人民"))
        assert t.instantiate(s) == t.instantiate(s)

    def test_frozen_alphabet_never_grows(self):
        t = TemplateSet("SEG", "ZH")
        alpha = ContextAlphabet(t, contexts_at(t, Sentence(tokens=list("中国")), 0))
        size = alpha.size
        crf.index_contexts(t, alpha, Sentence(tokens=list("日本")))
        assert alpha.size == size

    def test_contexts_deduped(self):
        # each context counts once per position in the emission and its gradient;
        # the strings are distinct by construction, repeated tokens included
        for task, language, tokens in (
            ("SEG", "ZH", list("中中国中")),
            ("POS", "EN", ["aa", "aa", "a", "aa"]),
            ("POS", "ZH", ["中中", "中", "中中"]),
            ("NER", "EN", ["of", "EU", "of", "EU", "-", "-"]),
            ("NER", "ZH", ["江江", "江", "江江", "河江江江江江"]),
        ):
            t = TemplateSet(task, language, cluster_lexicon=GOLDEN_CLUSTERS,
                            radical_lexicon=GOLDEN_RADICALS)
            s = Sentence(tokens=tokens, aux_tags=["NN"] * len(tokens) if task == "NER" else None)
            for row in grid(t, s):
                feats = [f for f in row if f is not None]
                assert len(feats) == len(set(feats))


# A seeded corpus per table: sentences of one token (both ends at once) and
# longer ones, cluster and radical hits and misses, connectives, hyphens,
# capitals, digits, date characters and punctuation.
GOLDEN_WORDS = ("EU", "rejects", "German", "call", "of", "And", "FOR", "for", "-", "re-elect",
                "U.S.", "1999", "NEW", "x", "running", "江泽民", "主席", "访问", "美国",
                "中国人民", "爱", "和平", "二〇〇八年", "江河明月日")
GOLDEN_CHARS = "中国人民江河明年月日一二〇12３ａZx，。-"
GOLDEN_TAGS = ("NNP", "VBZ", "JJ", "NN", "IN", "CC", ":", "CD", "NR", "VV")
GOLDEN_CLUSTERS = {"EU": "0110", "German": "1011", "of": "11", "江泽民": "0101", "美国": "0100"}
GOLDEN_RADICALS = {"江": "氵", "泽": "氵", "民": "氏", "河": "氵", "明": "日", "爱": "爫"}

# sha256 over every position's contexts, fixed from the row-by-row interpreter
# that preceded the compiled offset groups
CORPUS_DIGESTS = {
    ("SEG", "ZH"): "cb0842b5055c3ff7ae2bb00d698055a8b375e01927cf31c939263de0c1156555",
    ("SEG", "EN"): "a3f52b0eb6887de74a5e2169b89b8a433174f782462c4a3be882861fdd450354",
    ("POS", "EN"): "0f7c74e18c118ca8e388bdf5755b571497e12288f1c17aa9671866d95dba36b2",
    ("POS", "ZH"): "4448f3c8f1e9f63afbef1fb9dbdddd78960a2fd29a50cdb9f49717a05608ee10",
    ("NER", "EN"): "f100de3cd68df873a18c035f27941802a6d82404e6d0b493fadda8734000bb1c",
    ("NER", "ZH"): "2cf7e4073803d52052d453eca762cea4c8fd9e3cc3e0a1ff537a635883b0cea8",
}


def golden_corpus(task, language):
    rng = random.Random(f"{task}-{language}")
    vocab = GOLDEN_CHARS if task == "SEG" else GOLDEN_WORDS
    sents = []
    for n in (1, 1, 2, 3, 4, 5, 6, 7, 9, 12):
        tokens = [rng.choice(vocab) for _ in range(n)]
        tags = [rng.choice(GOLDEN_TAGS) for _ in range(n)] if task == "NER" else None
        sents.append(Sentence(tokens=tokens, aux_tags=tags))
    return sents


def corpus_contexts(task, language):
    t = TemplateSet(task, language, cluster_lexicon=GOLDEN_CLUSTERS,
                    radical_lexicon=GOLDEN_RADICALS)
    return [contexts_at(t, s, i) for s in golden_corpus(task, language) for i in range(len(s))]


class TestCorpusGoldens:
    @pytest.mark.parametrize("task,language", sorted(CORPUS_DIGESTS))
    def test_every_position_byte_exact(self, task, language):
        h = hashlib.sha256()
        for feats in corpus_contexts(task, language):
            h.update("\n".join(feats).encode("utf-8") + b"\n\n")
        assert h.hexdigest() == CORPUS_DIGESTS[(task, language)]

    def test_corpus_covers_ends_misses_and_word_classes(self):
        ner_en = [set(f) for f in corpus_contexts("NER", "EN")]
        ner_zh = [set(f) for f in corpus_contexts("NER", "ZH")]
        seen = set().union(*ner_en)
        for expected in ("T1[-1]=<S>", "T1[1]=</S>", "T7[0]=OF", "T7[0]=AND", "T7[0]=FOR",
                         "T7[0]=HYPHEN", "T5[0]=T", "T5[0]=F", "T9[0]=0110"):
            assert expected in seen
        assert any(not any(f.startswith("T9[0]=") for f in fs) for fs in ner_en)
        assert any(not any(f.startswith("T11[0]=") for f in fs) for fs in ner_zh)
        radicals = [sorted(f for f in fs if f.startswith("T10")) for fs in ner_zh]
        assert ["T10[0,3]=氏"] in radicals and [] in radicals  # misses before a hit, all misses
        seg = set().union(*map(set, corpus_contexts("SEG", "ZH")))
        assert {"T5[0]=0", "T5[0]=1", "T5[0]=2", "T5[0]=3", "T5[0]=4"} <= seg


# Tokens that read like sentinels, the join separator or a context prefix,
# beside capitalised, digit, CJK and fullwidth ones.  SEG tokens are single
# characters.
# An affix of "<S>ab", "ab<S>" or "</S>x" reads like an outside offset's
# sentinel.  Lexicon and tag values include the empty string and ``~``, whose
# join parts render alike: ("", "~") and ("~", "") are both "~~".
WORD_POOL = ("<S>", "</S>", "~", "a~b", "=", "T1[0]=", "<S>ab", "ab<S>", "</S>x", "EU", "German",
             "of", "And", "-", "1999", "U.S.", "x", "江泽民", "美国", "二〇〇八年", "Ｚｅｎ", "３月")
CHAR_POOL = tuple("~<>S/=中国人年一〇3３ａZx，-")
LEXICON_VALUES = ("0110", "11", "<S>", "</S>", "~", "", "x~y", "氵")


def draw_templates(data) -> tuple[TemplateSet, tuple]:
    """One of the six tables, with lexicons drawn over the pools, and its token pool."""
    task, language = data.draw(st.sampled_from([(t, l) for t in TASKS for l in LANGUAGES]))
    pool = CHAR_POOL if task == "SEG" else WORD_POOL
    t = TemplateSet(
        task, language,
        cluster_lexicon=data.draw(st.dictionaries(st.sampled_from(pool), st.sampled_from(LEXICON_VALUES))),
        radical_lexicon=data.draw(st.dictionaries(st.sampled_from(CHAR_POOL + tuple("江泽民美")),
                                                  st.sampled_from(LEXICON_VALUES))),
    )
    return t, pool


def draw_sentence(data, pool) -> Sentence:
    tokens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8), label="tokens")
    tags = data.draw(st.lists(st.sampled_from(GOLDEN_TAGS + LEXICON_VALUES),
                              min_size=len(tokens), max_size=len(tokens)), label="tags")
    return Sentence(tokens=tokens, aux_tags=tags)


class TestTokenValues:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_instantiate_equals_the_per_offset_oracle(self, data):
        # every position of the grid, one column per group
        t, pool = draw_templates(data)
        sent = draw_sentence(data, pool)
        rows = grid(t, sent)
        assert len(rows) == len(sent)
        for i, row in enumerate(rows):
            assert len(row) == len(t.groups)
            assert [c for c in row if c is not None] == reference_templates.instantiate(t, sent, i)

    @pytest.mark.parametrize(
        "task,language,kind,tokens",
        [("NER", "EN", "shape", ["EU", "rejects", "German", "call", "of"]),
         ("SEG", "ZH", "char_type", list("中国人民１月"))],
    )
    def test_each_token_value_is_computed_once(self, monkeypatch, task, language, kind, tokens):
        # one instantiate call per sentence; read per offset, word_shape ran up
        # to 7 times per NER-EN position and char_type 9 times per SEG position
        compute, seen = features._TOKEN_VALUE[kind], []
        monkeypatch.setitem(features._TOKEN_VALUE, kind, lambda tok: seen.append(tok) or compute(tok))
        t = TemplateSet(task, language)
        t.instantiate(Sentence(tokens=tokens, aux_tags=["NN"] * len(tokens)))
        assert seen == tokens

    def test_only_the_kinds_the_table_reads(self):
        assert TemplateSet("SEG", "ZH").kinds == ["char", ("char_eq", -2), ("char_eq", 1), "char_type"]
        pos_en = TemplateSet("POS", "EN")
        assert "postag" not in pos_en.kinds
        # no aux tag column: a postag list would raise
        assert len(pos_en.token_values(Sentence(tokens=["a"]))) == len(pos_en.kinds)


class TestContextBags:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_holes_anywhere_read_like_the_compacted_bag(self, data):
        # a group that skips, or a context the alphabet does not know, leaves
        # its -1 in place; the bag reads like the one ``pad`` compacts
        t, pool = draw_templates(data)
        sents = [draw_sentence(data, pool) for _ in range(data.draw(st.integers(2, 5), label="sentences"))]
        grown = data.draw(st.integers(1, len(sents) - 1), label="grown")
        seen, unseen = sents[:grown], sents[grown:]
        alpha = ContextAlphabet(t)
        bags = [crf.index_contexts(t, alpha, s, grow=True) for s in seen]
        bags += [crf.index_contexts(t, alpha, s) for s in unseen]
        index = string_ids(alpha)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        matrix = rng.normal(size=(alpha.size, 3))
        matrix[rng.random(alpha.size) < 0.3] = -0.0
        for sent, (ids, counts) in zip(seen + unseen, bags):
            assert ids.shape == (len(sent), len(t.groups))
            reference = [[k for k in map(index.get, reference_templates.instantiate(t, sent, i)) if k is not None]
                         for i in range(len(sent))]
            flat = np.array([k for row in reference for k in row], dtype=np.int32)
            in_members, at = members((ids, counts))
            assert in_members.tolist() == flat.tolist()
            assert at.tolist() == [i for i, row in enumerate(reference) for _ in row]
            compact = pad(flat, [len(row) for row in reference])
            assert bag_sum(matrix, (ids, counts)).tobytes() == bag_sum(matrix, compact).tobytes()


def oracle_bags(t, sents, index, grow):
    """Each sentence's ``(n, groups)`` int32 ids through the per-offset
    oracle: its context strings, holes included, looked up in the string
    dict ``index``, which ``grow`` adds to in order."""
    def lookup(c):
        if c is None:
            return -1
        return index.setdefault(c, len(index)) if grow else index.get(c, -1)

    return [np.array([[lookup(c) for c in reference_templates.instantiate(t, sent, i, holes=True)]
                      for i in range(len(sent))], dtype=np.int32).reshape(len(sent), len(t.groups))
            for sent in sents]


def assert_three_paths_agree(t, build, probes, path):
    """Build a context alphabet from ``build``, then index ``probes`` on the
    built model, on its checkpoint round trip and through the oracle with a
    string dict: the alphabets and every bag, holes included, are identical."""
    alpha, built_bags = trainer.build_output_alphabet(t, build)
    model = crf.ModelParams.create("discrete", Alphabet(["A"]), templates=t, out_alphabet=alpha)
    checkpoint.save_model(path, model, {})
    loaded, _ = checkpoint.load_model(path)
    index = {}
    assert alpha.strings() == loaded.out_alphabet.strings()
    for sent, oracle in zip(build, oracle_bags(t, build, index, grow=True)):
        ids, counts = built_bags[sent]
        assert ids.dtype == np.int32 and ids.tobytes() == oracle.tobytes()
        assert counts.tolist() == (oracle >= 0).sum(1).tolist()
    assert alpha.strings() == list(index)
    for sent, oracle in zip(probes, oracle_bags(t, probes, index, grow=False)):
        for m in (model, loaded):
            ids, counts = crf.sentence_ids(m, sent).contexts
            assert ids.dtype == np.int32 and ids.shape == oracle.shape
            assert ids.tobytes() == oracle.tobytes()
            assert counts.tolist() == (oracle >= 0).sum(1).tolist()


def sentences(task, token_lists, tags=None):
    return [Sentence(tokens=tokens, aux_tags=tags or ["NN"] * len(tokens) if task == "NER" else None)
            for tokens in token_lists]


class TestContextAlphabet:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_built_loaded_and_string_dict_paths_agree(self, tmp_path_factory, data):
        t, pool = draw_templates(data)
        build = [draw_sentence(data, pool) for _ in range(data.draw(st.integers(1, 4), label="built"))]
        probes = [draw_sentence(data, pool) for _ in range(data.draw(st.integers(1, 4), label="probes"))]
        assert_three_paths_agree(t, build, probes, tmp_path_factory.getbasetemp() / "contexts.bin")

    @pytest.mark.parametrize(
        "task,language,clusters,build,probes",
        [
            # ("", "~") and ("~", "") render one cluster and one tag bigram
            ("NER", "EN", {"p": "", "q": "~"}, [["p", "q"]], [["q", "p"], ["p", "p", "q"]]),
            # "<S>ab"'s 3-character prefix at offset -1 is the offset's head sentinel
            ("NER", "ZH", {}, [["<S>ab", "x"], ["y"]], [["z"], ["<S>ab", "w"]]),
            # "</S>x"'s 4-character prefix at offset 1 and "ab<S>"'s suffix at -1
            ("NER", "EN", {}, [["a", "</S>x"], ["ab<S>", "b"]], [["c"], ["</S>x"]]),
            # joined characters that hold the separator
            ("SEG", "ZH", {}, [list("~a~")], [list("a~~a"), list("~~")]),
        ],
    )
    def test_keys_that_render_alike_share_an_id(self, tmp_path, task, language, clusters, build, probes):
        t = TemplateSet(task, language, cluster_lexicon=clusters)
        build, probes = sentences(task, build), sentences(task, probes)
        if clusters:  # the tags collide like the clusters
            build = [Sentence(tokens=s.tokens, aux_tags=["", "~"][: len(s)]) for s in build]
            probes = [Sentence(tokens=s.tokens, aux_tags=(["~", ""] * 2)[: len(s)]) for s in probes]
        assert_three_paths_agree(t, build, probes, tmp_path / "contexts.bin")


class TestContextParse:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_strings_parse_back_or_are_refused(self, data):
        # a checkpoint's contexts either load as they are or raise: a repeat,
        # and a string no template renders, which no key would reach
        t, pool = draw_templates(data)
        groups = {prefix: (how, len(reads)) for how, prefix, reads in t.groups}
        heads = st.sampled_from([*groups, "", "T99[0]=", "T1[0]"])
        rests = st.lists(st.sampled_from(pool + LEXICON_VALUES), max_size=4).map("~".join)
        strings = data.draw(st.lists(st.tuples(heads, rests).map("".join), max_size=8), label="strings")

        def renders(s):
            head, sep, rest = s.partition("=")
            how, arity = groups.get(head + sep, (None, 0))
            return how == "one" or how == "join" and rest.count("~") >= arity - 1

        try:
            alpha = ContextAlphabet(t, strings)
        except ValueError:
            assert len(set(strings)) < len(strings) or not all(map(renders, strings))
        else:
            assert alpha.strings() == strings and alpha.size == len(strings)
            assert all(map(renders, strings))


class TestLexiconLoading:
    def test_repeated_key_keeps_the_later_value_and_warns(self, tmp_path, caplog):
        path = tmp_path / "lex.txt"
        path.write_text("a\tX\nb\tZ\na\tY\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert load_lexicon(path, "cluster") == {"a": "Y", "b": "Z"}
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: line 3: key 'a' repeats; keeping the later value"
        ]

    def test_missing_file_raises_naming_it(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="absent.txt"):
            load_lexicon(tmp_path / "absent.txt", "cluster")

    @pytest.mark.parametrize("what", ["cluster", "radical"])
    def test_line_without_one_tab_names_file_line_and_format(self, tmp_path, what):
        path = tmp_path / "lex.txt"
        path.write_text("a\tX\nb\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"lex\.txt: line 2: expected 'key<TAB>{what}'"):
            load_lexicon(path, what)

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

    def test_invalid_utf8_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes("中\t氵\n".encode("utf-8") + b"\xff\t1\n")
        with pytest.raises(ValueError, match=r"lex\.txt: line 2: not valid UTF-8"):
            load_lexicon(path, "radical")

    def test_leading_bom_reads_like_the_plain_file(self, tmp_path):
        text = "中\t氵\n国\t口\n"
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_lexicon(bom, "radical") == load_lexicon(plain, "radical") == {"中": "氵", "国": "口"}
