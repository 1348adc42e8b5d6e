"""The benchmark's workloads and the closed loop that one iteration runs.

One iteration is what a ``seqlab`` user does for one model, driven through
the library calls the CLI makes: write the corpora, read them and build the
model (setup), train, save and reload the checkpoint, predict the test set
one sentence at a time, write the predictions, read them back and score
them.  Single process, single thread, one client, no arrival schedule.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import corpora
from seqlab import checkpoint, corpus, crf, evaluator, features, trainer

TASK_COLUMNS = {
    "SEG": ("token", "label"),
    "POS": ("token", "label"),
    "NER": ("token", "aux", "label"),
}

EPOCHS = 2
# Viterbi is checked against enumeration on windows of the first test
# sentences' lattices; a window has at most this many label sequences, which
# keeps the check near a second while covering hundreds of windows.
BRUTE_FORCE_SENTENCES = 50
WINDOW_SEQUENCES = 50_000


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    language: str
    mode: str
    scheme: str
    make: Callable[[int], corpora.Corpora]


# Each workload stresses other layers (why each was chosen is recorded in
# BENCHMARK.json).  Split sizes keep one iteration to a few seconds on one
# core, so a run yields several iterations to take medians over; every test
# set has 200 sentences, so the per-sentence p95 latency has 10 samples
# beyond it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("seg_zh_discrete", "SEG", "ZH", "discrete", "BIES",
                 lambda seed: corpora.seg_zh(seed, 100, 30, 200)),
        Workload("pos_en_neural", "POS", "EN", "neural", "BIO",
                 lambda seed: corpora.pos_en(seed, 80, 30, 200)),
        Workload("ner_en_joint", "NER", "EN", "joint", "BIOES",
                 lambda seed: corpora.ner_en(seed, 80, 30, 200)),
    )
}


@dataclass
class Iteration:
    """Timings, outputs and work counts of one pass of the loop."""

    traced: bool = False
    setup_s: float = 0.0
    train_s: float = 0.0
    predict_s: float = 0.0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    train_tokens: int = 0  # training tokens x epochs
    test_tokens: int = 0
    failed_sentences: set[int] = field(default_factory=set)
    test_metric: float = float("nan")
    mean_losses: list[float] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    best_model: object = None
    loaded_model: object = None
    test: list = field(default_factory=list)
    predictions: list = field(default_factory=list)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _alphabet_size(model):
    """Output feature alphabet size; 0 without one, None if the field is gone."""
    if not hasattr(model, "out_alphabet"):
        return None
    return 0 if model.out_alphabet is None else model.out_alphabet.size


def _valid(labels, sent, model) -> bool:
    return len(labels) == len(sent) and all(label in model.labels for label in labels)


def run_iteration(wl: Workload, data: corpora.Corpora, workdir, tracer) -> Iteration:
    """One pass of the loop; spans go to ``tracer`` when it is enabled."""
    it = Iteration()
    hypers = trainer.HyperParams(epochs=EPOCHS, seed=1)
    columns = TASK_COLUMNS[wl.task]
    paths = {name: os.path.join(workdir, f"{name}.tsv") for name in ("train", "dev", "test", "pred")}
    lexicon_path = os.path.join(workdir, "clusters.tsv")
    ckpt_path = os.path.join(workdir, "model.bin")
    summary_path = os.path.join(workdir, "summary.tsv")
    tracer.reset()

    with tracer.span("setup"):
        for name in ("train", "dev", "test"):
            corpus.write_column_corpus(paths[name], getattr(data, name), columns)
        if data.cluster_lexicon:
            with open(lexicon_path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{w}\t{c}\n" for w, c in data.cluster_lexicon.items())
        started = perf_counter()
        train = corpus.read_column_corpus(paths["train"], columns)
        dev = corpus.read_column_corpus(paths["dev"], columns)
        test = corpus.read_column_corpus(paths["test"], columns)
        lexicon = features.load_lexicon(lexicon_path if data.cluster_lexicon else None, "cluster")
        model = trainer.build_model(
            wl.mode, wl.task, wl.language, train, hypers, cluster_lexicon=lexicon
        )
        it.setup_s = perf_counter() - started

    with tracer.span("train"):
        t0 = perf_counter()
        best, report = trainer.train(model, train, dev, hypers, wl.task, wl.scheme)
        it.train_s = perf_counter() - t0
        checkpoint.save_model(ckpt_path, best, {"task": wl.task, "language": wl.language})
        report.write_summary(summary_path)

    with tracer.span("predict"):
        loaded, _ = checkpoint.load_model(ckpt_path)
        predictions = []
        for idx, sent in enumerate(test):
            t0 = perf_counter()
            try:
                labels = trainer.predict_labels(loaded, [sent])[0]
            except Exception:  # a failed sentence is counted, not fatal
                traceback.print_exc()
                labels = None
            it.latencies_s.append(perf_counter() - t0)
            if labels is None or not _valid(labels, sent, loaded):
                it.failed_sentences.add(idx)
                labels = [loaded.labels.from_index(0)] * len(sent)
            predictions.append(list(labels))
        corpus.write_column_corpus(
            paths["pred"],
            [corpus.Sentence(s.tokens, p, s.aux_tags) for s, p in zip(test, predictions)],
            columns,
        )
        read_back = corpus.read_column_corpus(paths["pred"], columns)
        it.test_metric = evaluator.corpus_metric(
            wl.task, wl.scheme, test, [s.gold_labels for s in read_back]
        )
        it.wall_s = perf_counter() - started

    for idx, (pred, back) in enumerate(zip(predictions, read_back)):
        if list(back.gold_labels) != pred:
            it.failed_sentences.add(idx)
    it.predict_s = sum(it.latencies_s)
    train_tokens = sum(len(s) for s in train)
    it.train_tokens = train_tokens * hypers.epochs
    it.test_tokens = sum(len(s) for s in test)
    it.mean_losses = [rec.mean_loss for rec in report.records]
    it.best_model, it.loaded_model, it.test, it.predictions = best, loaded, test, predictions
    it.fingerprint = {
        "checkpoint_sha256": _sha256(ckpt_path),
        "checkpoint_bytes": os.path.getsize(ckpt_path),
        "report_summary_sha256": _sha256(summary_path),
        "predictions_sha256": _sha256(paths["pred"]),
        "test_metric": it.test_metric,
        "train_sentences": len(train),
        "train_tokens": train_tokens,
        "test_sentences": len(test),
        "test_tokens": it.test_tokens,
        "features.instantiate_calls": tracer.calls["features.instantiate"],
        "crf.violations": tracer.calls["crf.loss_gradients"],
        "trainer.alphabet_size": _alphabet_size(model),
    }
    return it


def first_iteration_gates(it: Iteration) -> list[str]:
    """Correctness checks that need the models; returns one message per failure.

    Marks failing test sentences in ``it.failed_sentences``.  Later
    iterations are held to the first one's fingerprint instead, which pins
    the same checkpoint bytes and predictions.
    """
    problems = []
    for idx, sent in enumerate(it.test):
        in_memory = trainer.predict_labels(it.best_model, [sent])[0]
        if list(in_memory) != it.predictions[idx]:
            it.failed_sentences.add(idx)
            problems.append(f"sentence {idx}: checkpoint-loaded prediction differs from in-memory model")
    model = it.loaded_model
    L = len(model.labels)
    k = 1
    while L ** (k + 1) <= min(WINDOW_SEQUENCES, crf.BRUTE_FORCE_LIMIT):
        k += 1
    for idx, sent in enumerate(it.test[:BRUTE_FORCE_SENTENCES]):
        lattice = crf.build_lattice(model, sent, train=False)
        for start in range(0, len(sent), k):
            window = crf.ScoreLattice(
                emission=lattice.emission[start : start + k], transition=lattice.transition
            )
            vit, brute = crf.viterbi(window), crf.brute_force_best(window)
            if not np.array_equal(vit.labels, brute.labels) or vit.score != brute.score:
                it.failed_sentences.add(idx)
                problems.append(f"sentence {idx}: viterbi differs from brute force at {start}")
    return problems


def iteration_gates(it: Iteration, reference: dict | None) -> list[str]:
    """Whole-iteration checks: finite losses, metric range, determinism."""
    problems = []
    if not all(np.isfinite(loss) and loss >= 0.0 for loss in it.mean_losses):
        problems.append(f"non-finite or negative training loss: {it.mean_losses}")
    if not 0.0 <= it.test_metric <= 1.0:
        problems.append(f"test_metric {it.test_metric} outside [0, 1]")
    if reference is not None and it.fingerprint != reference:
        diff = {k: (reference.get(k), v) for k, v in it.fingerprint.items() if reference.get(k) != v}
        problems.append(f"iteration differs from the first one: {diff}")
    return problems
