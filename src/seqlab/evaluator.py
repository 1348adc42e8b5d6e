"""Task metrics and the per-sentence model comparison export.

Every metric reads one count rule, :func:`sentence_counts`: a sentence's
``(hits, predicted, gold)`` under the :func:`count_scheme` of its task.
Corpus scores sum those counts (micro-averaging).  A span hit is an exact
(start, end, kind) match between a gold and a predicted span.
Zero-denominator cases are total by convention (precision 0 with no
predictions, recall 0 with no gold) and flagged in the JSON record.  For
the per-sentence comparison, a sentence with neither gold nor predicted
spans counts as F=1.0 (perfect agreement); those sentences dominate
entity-task scatters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import bies_word_spans, position_tags_to_spans

# what a metric can count: tokens, or the spans of one tag scheme
METRIC_SCHEMES = ("accuracy", "BIO", "BIOES", "BIES")


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    tp: int
    pred_count: int
    gold_count: int


def prf_from_counts(tp: int, pred_count: int, gold_count: int) -> PRF:
    precision = tp / pred_count if pred_count else 0.0
    recall = tp / gold_count if gold_count else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PRF(precision, recall, f1, tp, pred_count, gold_count)


def count_scheme(task: str, scheme: str) -> str:
    """What a task's metric counts: ``"accuracy"`` (tokens) for POS, BIES word
    spans for SEG, and spans in the entity ``scheme`` for NER."""
    try:
        return {"POS": "accuracy", "SEG": "BIES", "NER": scheme}[task]
    except KeyError:
        raise ValueError(f"unknown task {task!r}") from None


def _spans(labels, scheme):
    spans = bies_word_spans(labels) if scheme == "BIES" else position_tags_to_spans(labels, scheme)
    return {(s.start, s.end, s.kind) for s in spans}


def sentence_counts(gold_labels, pred_labels, scheme: str) -> tuple[int, int, int]:
    """One sentence's ``(hits, predicted, gold)`` under a :func:`count_scheme`.

    For ``"accuracy"`` a hit is a correctly labeled token and both other
    counts are the sentence length; otherwise a hit is a predicted span
    matching a gold one exactly in (start, end, kind).
    """
    if len(gold_labels) != len(pred_labels):
        raise ValueError("gold and predicted sentence lengths differ")
    if scheme == "accuracy":
        hits = sum(g == p for g, p in zip(gold_labels, pred_labels))
        return hits, len(pred_labels), len(gold_labels)
    gold, pred = _spans(gold_labels, scheme), _spans(pred_labels, scheme)
    return len(gold & pred), len(pred), len(gold)


def corpus_counts(gold_label_seqs, pred_label_seqs, scheme: str) -> tuple[int, int, int]:
    """:func:`sentence_counts` summed over a corpus."""
    if scheme not in METRIC_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if len(gold_label_seqs) != len(pred_label_seqs):
        raise ValueError("gold and predicted corpora have different sizes")
    hits = predicted = gold = 0
    for gold_labels, pred_labels in zip(gold_label_seqs, pred_label_seqs):
        h, p, g = sentence_counts(gold_labels, pred_labels, scheme)
        hits += h
        predicted += p
        gold += g
    return hits, predicted, gold


def eval_spans(gold_label_seqs, pred_label_seqs, scheme: str) -> PRF:
    """Micro-averaged span precision/recall/F over a corpus.

    ``scheme`` is BIO or BIOES for entity tags, or BIES for segmentation
    (where the spans are the word boundaries).
    """
    return prf_from_counts(*corpus_counts(gold_label_seqs, pred_label_seqs, scheme))


def eval_accuracy(gold_label_seqs, pred_label_seqs) -> float:
    """Fraction of positions labeled correctly, micro-averaged."""
    correct, _, total = corpus_counts(gold_label_seqs, pred_label_seqs, "accuracy")
    return correct / total if total else 0.0


def sentence_score(gold_labels, pred_labels, scheme: str) -> float:
    """One sentence's metric under a :func:`count_scheme`: its accuracy, or its
    span F, which is 1.0 when both span sets are empty."""
    hits, predicted, gold = sentence_counts(gold_labels, pred_labels, scheme)
    if scheme == "accuracy":
        return hits / gold
    if predicted == 0 and gold == 0:
        return 1.0
    return prf_from_counts(hits, predicted, gold).f1


def corpus_metric(task: str, scheme: str, gold_sentences, pred_label_seqs) -> float:
    """The model-selection metric: word/entity F for SEG/NER, accuracy for POS."""
    record = metric_record(task, scheme, gold_sentences, pred_label_seqs)
    return record["f1"] if "f1" in record else record["accuracy"]


def metric_record(task: str, scheme: str, gold_sentences, pred_label_seqs) -> dict:
    """Corpus metrics as the JSON record printed by the CLI."""
    scheme = count_scheme(task, scheme)
    hits, predicted, gold = corpus_counts(
        [s.gold_labels for s in gold_sentences], pred_label_seqs, scheme
    )
    if scheme == "accuracy":
        return {
            "task": task,
            "metric": "accuracy",
            "accuracy": hits / gold if gold else 0.0,
            "correct": hits,
            "total": gold,
        }
    prf = prf_from_counts(hits, predicted, gold)
    record = {
        "task": task,
        "metric": "span_f1",
        "scheme": scheme,
        "precision": prf.precision,
        "recall": prf.recall,
        "f1": prf.f1,
        "tp": prf.tp,
        "predicted": prf.pred_count,
        "gold": prf.gold_count,
    }
    flags = []
    if prf.pred_count == 0:
        flags.append("no_predictions")
    if prf.gold_count == 0:
        flags.append("no_gold_spans")
    if flags:
        record["flags"] = flags
    return record


def export_comparison(
    path, gold_sentences, preds_a, preds_b, task: str, scheme: str = "BIO"
) -> None:
    """Write the per-sentence paired metric TSV for scatter plotting.

    Rows are ``sentence_id<TAB>metric_a<TAB>metric_b`` with each sentence's
    :func:`sentence_score`: span F (SEG/NER) or accuracy (POS).
    """
    if not (len(gold_sentences) == len(preds_a) == len(preds_b)):
        raise ValueError("both prediction sets must cover the same corpus")
    scheme = count_scheme(task, scheme)
    with open(path, "w", encoding="utf-8") as fh:
        for idx, sent in enumerate(gold_sentences):
            a = sentence_score(sent.gold_labels, preds_a[idx], scheme)
            b = sentence_score(sent.gold_labels, preds_b[idx], scheme)
            fh.write(f"{idx}\t{a!r}\t{b!r}\n")
