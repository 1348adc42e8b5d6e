"""Task metrics and the per-sentence model comparison export.

Span scores are micro-averaged: a true positive is an exact (start, end,
kind) match between a gold and a predicted span.  Zero-denominator cases
are total by convention (precision 0 with no predictions, recall 0 with no
gold) and flagged in the JSON record.  For the per-sentence comparison, a
sentence with neither gold nor predicted spans counts as F=1.0 (perfect
agreement); those sentences dominate entity-task scatters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .corpus import bies_word_spans, position_tags_to_spans

METRIC_SCHEMES = ("BIO", "BIOES", "BIES")


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


def _spans(labels, scheme):
    if scheme == "BIES":
        return {(s.start, s.end, s.kind) for s in bies_word_spans(labels)}
    return {(s.start, s.end, s.kind) for s in position_tags_to_spans(labels, scheme)}


def _span_counts(gold_labels, pred_labels, scheme):
    gold = _spans(gold_labels, scheme)
    pred = _spans(pred_labels, scheme)
    return len(gold & pred), len(pred), len(gold)


def eval_spans(gold_label_seqs, pred_label_seqs, scheme: str) -> PRF:
    """Micro-averaged span precision/recall/F over a corpus.

    ``scheme`` is BIO or BIOES for entity tags, or BIES for segmentation
    (where the spans are the word boundaries).
    """
    if scheme not in METRIC_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if len(gold_label_seqs) != len(pred_label_seqs):
        raise ValueError("gold and predicted corpora have different sizes")
    tp = pred_count = gold_count = 0
    for gold, pred in zip(gold_label_seqs, pred_label_seqs):
        if len(gold) != len(pred):
            raise ValueError("gold and predicted sentence lengths differ")
        t, p, g = _span_counts(gold, pred, scheme)
        tp += t
        pred_count += p
        gold_count += g
    return prf_from_counts(tp, pred_count, gold_count)


def _accuracy_counts(gold_label_seqs, pred_label_seqs) -> tuple[int, int]:
    if len(gold_label_seqs) != len(pred_label_seqs):
        raise ValueError("gold and predicted corpora have different sizes")
    correct = total = 0
    for gold, pred in zip(gold_label_seqs, pred_label_seqs):
        if len(gold) != len(pred):
            raise ValueError("gold and predicted sentence lengths differ")
        correct += sum(g == p for g, p in zip(gold, pred))
        total += len(gold)
    return correct, total


def eval_accuracy(gold_label_seqs, pred_label_seqs) -> float:
    """Fraction of positions labeled correctly, micro-averaged."""
    correct, total = _accuracy_counts(gold_label_seqs, pred_label_seqs)
    return correct / total if total else 0.0


def sentence_f1(gold_labels, pred_labels, scheme: str) -> float:
    """Sentence-local span F; 1.0 when both span sets are empty."""
    tp, pred_count, gold_count = _span_counts(gold_labels, pred_labels, scheme)
    if pred_count == 0 and gold_count == 0:
        return 1.0
    return prf_from_counts(tp, pred_count, gold_count).f1


def sentence_accuracy(gold_labels, pred_labels) -> float:
    return sum(g == p for g, p in zip(gold_labels, pred_labels)) / len(gold_labels)


def span_scheme(task: str, scheme: str) -> str:
    """The span scheme a task is scored in: BIES word spans for SEG, else ``scheme``."""
    return "BIES" if task == "SEG" else scheme


def corpus_metric(task: str, scheme: str, gold_sentences, pred_label_seqs) -> float:
    """The model-selection metric: word/entity F for SEG/NER, accuracy for POS."""
    gold_seqs = [s.gold_labels for s in gold_sentences]
    if task == "POS":
        return eval_accuracy(gold_seqs, pred_label_seqs)
    if task in ("SEG", "NER"):
        return eval_spans(gold_seqs, pred_label_seqs, span_scheme(task, scheme)).f1
    raise ValueError(f"unknown task {task!r}")


def metric_record(task: str, scheme: str, gold_sentences, pred_label_seqs) -> dict:
    """Corpus metrics as the JSON record printed by the CLI."""
    gold_seqs = [s.gold_labels for s in gold_sentences]
    if task == "POS":
        correct, total = _accuracy_counts(gold_seqs, pred_label_seqs)
        return {
            "task": task,
            "metric": "accuracy",
            "accuracy": correct / total if total else 0.0,
            "correct": correct,
            "total": total,
        }
    scheme = span_scheme(task, scheme)
    prf = eval_spans(gold_seqs, pred_label_seqs, scheme)
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


def format_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def export_comparison(
    path, gold_sentences, preds_a, preds_b, task: str, scheme: str = "BIO"
) -> None:
    """Write the per-sentence paired metric TSV for scatter plotting.

    Rows are ``sentence_id<TAB>metric_a<TAB>metric_b`` with the per-sentence
    span F (SEG/NER) or accuracy (POS).
    """
    if not (len(gold_sentences) == len(preds_a) == len(preds_b)):
        raise ValueError("both prediction sets must cover the same corpus")
    scheme = span_scheme(task, scheme)
    with open(path, "w", encoding="utf-8") as fh:
        for idx, sent in enumerate(gold_sentences):
            gold = sent.gold_labels
            if gold is None or len(preds_a[idx]) != len(gold) or len(preds_b[idx]) != len(gold):
                raise ValueError(f"sentence {idx}: prediction/gold length mismatch")
            if task == "POS":
                a = sentence_accuracy(gold, preds_a[idx])
                b = sentence_accuracy(gold, preds_b[idx])
            else:
                a = sentence_f1(gold, preds_a[idx], scheme)
                b = sentence_f1(gold, preds_b[idx], scheme)
            fh.write(f"{idx}\t{a!r}\t{b!r}\n")
