import json

import numpy as np
import pytest

from seqlab.corpus import Sentence, segmentation_to_bies
from seqlab.evaluator import (
    corpus_metric,
    eval_accuracy,
    eval_spans,
    export_comparison,
    metric_record,
    prf_from_counts,
    sentence_score,
)


def seg_labels(words):
    return segmentation_to_bies(words)[1]


class TestEvalSpans:
    def test_identity_is_perfect(self):
        gold = [seg_labels(["中国", "人"])]
        prf = eval_spans(gold, gold, "BIES")
        assert prf.precision == prf.recall == prf.f1 == 1.0

    def test_no_boundary_agreement(self):
        gold = [seg_labels(["AB", "C"])]
        pred = [seg_labels(["A", "BC"])]
        prf = eval_spans(gold, pred, "BIES")
        assert prf.tp == 0 and prf.f1 == 0.0

    def test_hand_counted_example(self):
        gold = [seg_labels(["AB", "C"])]
        pred = [seg_labels(["A", "B", "C"])]
        prf = eval_spans(gold, pred, "BIES")
        assert (prf.tp, prf.pred_count, prf.gold_count) == (1, 3, 2)
        assert prf.precision == pytest.approx(1 / 3)
        assert prf.recall == pytest.approx(1 / 2)
        assert prf.f1 == pytest.approx(0.4)

    def test_ner_bio(self):
        gold = [["B-PER", "I-PER", "O"]]
        pred = [["B-PER", "I-PER", "O"]]
        assert eval_spans(gold, pred, "BIO").f1 == 1.0
        pred = [["B-PER", "O", "O"]]
        prf = eval_spans(gold, pred, "BIO")
        assert prf.tp == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_spans([["B"]], [["B", "E"]], "BIES")
        with pytest.raises(ValueError):
            eval_spans([["B"]], [], "BIES")

    def test_micro_average_consistency(self):
        rng = np.random.default_rng(0)
        gold_corpus, pred_corpus = [], []
        total = np.zeros(3, dtype=int)
        for _ in range(30):
            gold_words = random_segmentation(rng)
            pred_words = random_segmentation(rng, chars="".join(gold_words))
            gold_corpus.append(seg_labels(gold_words))
            pred_corpus.append(seg_labels(pred_words))
            one = eval_spans([gold_corpus[-1]], [pred_corpus[-1]], "BIES")
            total += (one.tp, one.pred_count, one.gold_count)
        corpus = eval_spans(gold_corpus, pred_corpus, "BIES")
        assert (corpus.tp, corpus.pred_count, corpus.gold_count) == tuple(total)

    def test_zero_denominator_conventions(self):
        prf = prf_from_counts(0, 0, 5)
        assert prf.precision == 0.0 and prf.f1 == 0.0
        prf = prf_from_counts(0, 5, 0)
        assert prf.recall == 0.0 and prf.f1 == 0.0


def random_segmentation(rng, chars=None):
    if chars is None:
        length = int(rng.integers(1, 12))
        chars = "".join(rng.choice(list("abcdefg"), size=length))
    words = []
    i = 0
    while i < len(chars):
        step = int(rng.integers(1, min(4, len(chars) - i) + 1))
        words.append(chars[i : i + step])
        i += step
    return words


def boundary_matching_f1(gold_words_corpus, pred_words_corpus):
    """Independent segmentation F: word boundaries from cumulative lengths."""

    def intervals(words):
        out = set()
        pos = 0
        for w in words:
            out.add((pos, pos + len(w)))
            pos += len(w)
        return out

    tp = pred_n = gold_n = 0
    for gold_words, pred_words in zip(gold_words_corpus, pred_words_corpus):
        g = intervals(gold_words)
        p = intervals(pred_words)
        tp += len(g & p)
        pred_n += len(p)
        gold_n += len(g)
    precision = tp / pred_n if pred_n else 0.0
    recall = tp / gold_n if gold_n else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


class TestSchemeInvariance:
    def test_span_f_equals_boundary_matching(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            gold_words, pred_words = [], []
            for _ in range(10):
                g = random_segmentation(rng)
                gold_words.append(g)
                pred_words.append(random_segmentation(rng, chars="".join(g)))
            via_spans = eval_spans(
                [seg_labels(g) for g in gold_words],
                [seg_labels(p) for p in pred_words],
                "BIES",
            ).f1
            assert via_spans == pytest.approx(boundary_matching_f1(gold_words, pred_words), abs=1e-15)


class TestHarmonicIdentity:
    def test_f_times_sum_equals_twice_product(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            tp = int(rng.integers(0, 20))
            pred = tp + int(rng.integers(0, 20))
            gold = tp + int(rng.integers(0, 20))
            prf = prf_from_counts(tp, pred, gold)
            assert abs(prf.f1 * (prf.precision + prf.recall) - 2 * prf.precision * prf.recall) < 1e-12
            if prf.precision > 0 and prf.recall > 0:
                assert min(prf.precision, prf.recall) <= prf.f1 <= max(prf.precision, prf.recall)


class TestAccuracy:
    def test_all_equal(self):
        assert eval_accuracy([["A", "B"]], [["A", "B"]]) == 1.0

    def test_all_different(self):
        assert eval_accuracy([["A", "B"]], [["B", "A"]]) == 0.0

    def test_three_of_four(self):
        assert eval_accuracy([["A", "B", "C", "D"]], [["A", "B", "C", "X"]]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_accuracy([["A"]], [["A", "B"]])


class TestSentenceMetrics:
    def test_both_empty_is_perfect(self):
        assert sentence_score(["O", "O"], ["O", "O"], "BIO") == 1.0

    def test_hand_value(self):
        assert sentence_score(seg_labels(["AB", "C"]), seg_labels(["A", "B", "C"]), "BIES") == pytest.approx(0.4)

    def test_accuracy(self):
        assert sentence_score(["A", "B", "C", "D"], ["A", "B", "C", "X"], "accuracy") == 0.75

    @pytest.mark.parametrize("scheme", ["accuracy", "BIO", "BIES"])
    def test_length_mismatch(self, scheme):
        with pytest.raises(ValueError):
            sentence_score(["B"], ["B", "E"], scheme)


class TestExportComparison:
    def corpus(self):
        sents = [
            Sentence(tokens=list("ABC"), gold_labels=seg_labels(["AB", "C"])),
            Sentence(tokens=list("DE"), gold_labels=seg_labels(["DE"])),
        ]
        return sents

    def test_identical_predictions_on_diagonal(self, tmp_path):
        sents = self.corpus()
        preds = [list(s.gold_labels) for s in sents]
        out = tmp_path / "cmp.tsv"
        export_comparison(out, sents, preds, preds, "SEG")
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert all(a == b for _, a, b in rows)

    def test_extremes(self, tmp_path):
        sents = [Sentence(tokens=list("AB"), gold_labels=["B", "E"])]
        perfect = [["B", "E"]]
        wrong = [["S", "S"]]
        out = tmp_path / "cmp.tsv"
        export_comparison(out, sents, perfect, wrong, "SEG")
        sid, a, b = out.read_text().splitlines()[0].split("\t")
        assert (sid, float(a), float(b)) == ("0", 1.0, 0.0)

    def test_hand_value_row(self, tmp_path):
        sents = [Sentence(tokens=list("ABC"), gold_labels=seg_labels(["AB", "C"]))]
        out = tmp_path / "cmp.tsv"
        export_comparison(out, sents, [seg_labels(["A", "B", "C"])], [seg_labels(["AB", "C"])], "SEG")
        _, a, b = out.read_text().splitlines()[0].split("\t")
        assert float(a) == pytest.approx(0.4) and float(b) == 1.0

    def test_corpus_mismatch(self, tmp_path):
        sents = self.corpus()
        preds = [list(s.gold_labels) for s in sents]
        with pytest.raises(ValueError):
            export_comparison(tmp_path / "x.tsv", sents, preds[:1], preds, "SEG")


class TestMetricRecord:
    def test_span_record_keys(self):
        sents = [Sentence(tokens=list("AB"), gold_labels=["B", "E"])]
        record = metric_record("SEG", "BIO", sents, [["B", "E"]])
        assert record["metric"] == "span_f1"
        assert {"precision", "recall", "f1", "tp", "predicted", "gold"} <= set(record)
        assert "flags" not in record

    def test_accuracy_record(self):
        sents = [Sentence(tokens=["a", "b"], gold_labels=["X", "Y"])]
        record = metric_record("POS", "BIO", sents, [["X", "Z"]])
        assert record["metric"] == "accuracy"
        assert record["accuracy"] == 0.5

    def test_zero_prediction_flagged(self):
        sents = [Sentence(tokens=["a"], gold_labels=["B-PER"])]
        record = metric_record("NER", "BIO", sents, [["O"]])
        assert "no_predictions" in record["flags"]

    def test_json_round_trip(self):
        sents = [Sentence(tokens=["a"], gold_labels=["B-PER"])]
        record = metric_record("NER", "BIO", sents, [["B-PER"]])
        assert json.loads(json.dumps(record, sort_keys=True)) == record


def random_labeled_corpus(rng, task, scheme):
    """Gold sentences and independent predictions, both drawn per position."""
    tags = {
        "SEG": ["B", "I", "E", "S"],
        "POS": ["NN", "VB", "DT"],
        "NER": ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
        + (["E-PER", "S-PER", "E-LOC", "S-LOC"] if scheme == "BIOES" else []),
    }[task]
    sents, preds = [], []
    for _ in range(int(rng.integers(1, 12))):
        n = int(rng.integers(1, 9))
        sents.append(Sentence(tokens=["t"] * n, gold_labels=list(rng.choice(tags, size=n))))
        preds.append(list(rng.choice(tags, size=n)))
    return sents, preds


class TestOneCountRule:
    @pytest.mark.parametrize(
        "task,scheme,key",
        [("SEG", "BIO", "f1"), ("POS", "BIO", "accuracy"), ("NER", "BIO", "f1"), ("NER", "BIOES", "f1")],
    )
    def test_metric_record_and_comparison_agree(self, tmp_path, task, scheme, key):
        rng = np.random.default_rng(7)
        out = tmp_path / "cmp.tsv"
        counted = "accuracy" if task == "POS" else "BIES" if task == "SEG" else scheme
        for _ in range(40):
            sents, preds = random_labeled_corpus(rng, task, scheme)
            shuffled = [list(rng.permutation(p)) for p in preds]
            record = metric_record(task, scheme, sents, preds)
            assert corpus_metric(task, scheme, sents, preds) == record[key]
            export_comparison(out, sents, preds, shuffled, task, scheme)
            rows = [line.split("\t") for line in out.read_text().splitlines()]
            assert len(rows) == len(sents)
            for k, (sid, a, b) in enumerate(rows):
                assert sid == str(k)
                assert a == repr(sentence_score(sents[k].gold_labels, preds[k], counted))
                assert b == repr(sentence_score(sents[k].gold_labels, shuffled[k], counted))

    def test_unknown_task(self):
        sents = [Sentence(tokens=["a"], gold_labels=["X"])]
        with pytest.raises(ValueError, match="unknown task"):
            corpus_metric("CHUNK", "BIO", sents, [["X"]])
