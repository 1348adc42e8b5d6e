"""Online max-margin training: cost-augmented decoding plus AdaGrad.

One update per sentence, in shuffled order, with the L2 term folded into
the gradient: ``g' = g + l2 * w``, ``G += g'^2``,
``w -= eta * g' / (sqrt(G) + 1e-8)``, written once in ``adagrad_step``.
AdaGrad updates each cell on its own, so sparse parameters (indicator
feature weights, embedding rows) gather the cells their flat ``(cell ids,
values)`` gradient lists, run that rule on the gathered copies and scatter
them back.  The list holds every cell of each embedding row the sentence
touches, so regularization reaches them lazily; dense parameters
regularize on every update step.  Sentences whose margin loss is zero
change nothing, not even the AdaGrad accumulators.  Every training and dev
sentence's ``crf.sentence_ids`` are computed once per run, before the first
epoch: its template context ids and its embedding row ids.  The training
sentences' context ids come from ``build_model``: the alphabet build makes
them in its one pass over the corpus, and ``train`` takes them from the
model.  Dev sentences, training sentences the build never saw, and every
sentence's row ids are indexed at the start of ``train``.  The random-init
tables' vocabularies are the symbols ``embeddings.table_symbols`` lists for
the training sentences, the same symbols the row ids look up.

All randomness descends from one run seed through fixed sub-streams
(parameter init, shuffling, dropout), which makes a full training run a
deterministic function of (data, hyperparameters, seed).
"""

from __future__ import annotations

import copy
import logging
import math
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import crf, evaluator
from .corpus import Alphabet, Sentence
from .embeddings import EmbeddingTable, InputComposer, init_random_table, table_symbols
from .features import ContextAlphabet, TemplateSet

log = logging.getLogger(__name__)

ADAGRAD_EPS = 1e-8

# sub-seed tags so components can be re-seeded independently
SEED_INIT = 3
SEED_SHUFFLE = 1
SEED_DROPOUT = 2
SEED_TABLE_BASE = 10


@dataclass
class HyperParams:
    dropout_p: float = 0.25
    word_hidden: int = 100
    char_emb: int = 30
    word_emb: int = 50
    pos_emb: int = 20
    eta: float = 0.01
    l2: float = 1e-8
    epochs: int = 30
    seed: int = 1

    def __post_init__(self):
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout_p}")
        for name in ("word_hidden", "char_emb", "word_emb", "pos_emb", "epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and non-negative, got {self.l2}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.word_hidden % 2:
            raise ValueError("word_hidden must be even (split across two directions)")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported by the check
def adagrad_step(param, grad, accum, eta, l2, name="the parameter"):
    """The AdaGrad rule, in place on ``param`` and ``accum``; raises
    ``FloatingPointError`` naming the array when the result is not finite
    (a non-finite gradient leaves it non-finite too)."""
    g = grad + l2 * param
    accum += g * g
    param -= eta * g / (np.sqrt(accum) + ADAGRAD_EPS)
    if not np.all(np.isfinite(param)):
        raise FloatingPointError(f"AdaGrad step made {name} non-finite")


def apply_bundle(model: crf.ModelParams, bundle: crf.GradientBundle, state: dict, eta, l2):
    """One AdaGrad step for every array that has a gradient.

    ``state`` maps a ``named_arrays`` name to its accumulator, made on first
    use.  A ``(cell ids, values)`` gradient steps the gathered cells and
    scatters them back, so a failed step writes nothing.
    """
    for name, param in model.named_arrays():
        grad = bundle.get(name)
        if grad is None:
            continue
        accum = state.get(name)
        if accum is None:
            accum = state[name] = np.zeros_like(param)
        if isinstance(grad, tuple):
            ids, values = grad
            flat_param, flat_accum = param.reshape(-1), accum.reshape(-1)
            if not (np.shares_memory(flat_param, param) and np.shares_memory(flat_accum, accum)):
                raise ValueError(f"{name}: cell updates need contiguous arrays")
            cells, cell_accum = flat_param[ids], flat_accum[ids]
            adagrad_step(cells, values, cell_accum, eta, l2, name)
            flat_param[ids], flat_accum[ids] = cells, cell_accum
        else:
            adagrad_step(param, grad, accum, eta, l2, name)


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


# Each embedding table's size field in HyperParams, for random-init and pretrained tables alike.
TABLE_FIELDS = {"char": "char_emb", "bigram": "char_emb", "word": "word_emb", "pos": "pos_emb"}


def model_inputs(mode: str, task: str, language: str) -> tuple[tuple, tuple, tuple]:
    """What a (mode, task, language) model reads: the embedding tables it composes,
    the lexicons its templates read and the ``HyperParams`` fields its ``train``
    reads.  ``build_model`` refuses other inputs, and the command line other keys."""
    tables = InputComposer.REQUIRED[task] if mode in crf.NEURAL_MODES else ()
    kinds = TemplateSet(task, language).kinds if mode in crf.DISCRETE_MODES else ()
    names = {kind if isinstance(kind, str) else kind[0] for kind in kinds}
    lexicons = tuple(name for name in ("cluster", "radical") if name in names)
    fields = ("eta", "l2", "epochs", "seed")
    if tables:
        fields += ("dropout_p", "word_hidden", *dict.fromkeys(TABLE_FIELDS[key] for key in tables))
    return tables, lexicons, fields


def default_tables(task, sentences, hypers: HyperParams, overrides=None) -> dict[str, EmbeddingTable]:
    """Embedding tables for a task: supplied ones win, the rest random-init over
    the ``embeddings.table_symbols`` of ``sentences`` in first-appearance order.
    Every sentence's symbols are listed, so NER refuses one without aux tags."""
    overrides = overrides or {}
    symbols = [table_symbols(task, sent) for sent in sentences]
    tables = {}
    for k, key in enumerate(InputComposer.REQUIRED[task]):
        if key in overrides:
            tables[key] = overrides[key]
        else:
            vocab = chain.from_iterable(s[key][0] for s in symbols)
            seed = [hypers.seed, SEED_TABLE_BASE + k]
            tables[key] = init_random_table(vocab, getattr(hypers, TABLE_FIELDS[key]), seed, name=key)
    return tables


def build_output_alphabet(templates: TemplateSet, sentences) -> tuple[ContextAlphabet, dict]:
    """The alphabet of template contexts seen in the training corpus, and
    each sentence's ``crf.index_contexts`` bag, keyed by sentence.

    Ids follow first appearance, position first and then template group;
    each id is one row of ``theta_out``, which holds a weight for that
    context under every label.  The bags are made in the same pass, so the
    templates run once per training sentence;
    every context is in the alphabet, so they equal the ``contexts`` of
    ``crf.sentence_ids`` on the finished model, which only reads it.
    """
    alpha = ContextAlphabet(templates)
    ids = {sent: crf.index_contexts(templates, alpha, sent, grow=True) for sent in sentences}
    return alpha, ids


def build_model(
    mode: str,
    task: str,
    language: str,
    train_sentences,
    hypers: HyperParams,
    *,
    tables=None,
    cluster_lexicon=None,
    radical_lexicon=None,
) -> crf.ModelParams:
    """Assemble a zero-initialized model with alphabets built from the corpus.

    A ``tables`` entry the model does not compose and a non-empty lexicon no
    template of it reads (``model_inputs``) raise a ``ValueError`` naming the
    input, the mode and the task.  Tables not given are random-init.
    """
    if not train_sentences:
        raise ValueError("training corpus is empty")
    if any(sent.gold_labels is None for sent in train_sentences):
        raise ValueError("training sentences must carry gold labels")
    composed, lexicons, _ = model_inputs(mode, task, language)
    labels = Alphabet(chain.from_iterable(sent.gold_labels for sent in train_sentences))
    for name, lexicon in (("cluster", cluster_lexicon), ("radical", radical_lexicon)):
        if lexicon and name not in lexicons:
            raise ValueError(f"{name}_lexicon: no template of a {mode} {task}-{language} model reads it")
    for key in tables or {}:
        if key not in composed:
            raise ValueError(f"{key}_embeddings: a {mode} {task} model composes no {key} embedding table")
    templates = out_alpha = train_ids = composer = None
    if mode in crf.DISCRETE_MODES:
        templates = TemplateSet(
            task,
            language,
            cluster_lexicon=dict(cluster_lexicon or {}),
            radical_lexicon=dict(radical_lexicon or {}),
        )
        out_alpha, train_ids = build_output_alphabet(templates, train_sentences)
    if composed:
        composer = InputComposer(task, default_tables(task, train_sentences, hypers, tables))
    model = crf.ModelParams.create(
        mode,
        labels,
        templates=templates,
        out_alphabet=out_alpha,
        composer=composer,
        hidden=hypers.word_hidden // 2,
        rng=np.random.default_rng([hypers.seed, SEED_INIT]),
        dropout_p=hypers.dropout_p,
    )
    model._train_ids = train_ids
    return model


def clone_model(model: crf.ModelParams) -> crf.ModelParams:
    """Deep copy with a fresh copy of every array in ``named_arrays()``.

    Labels, templates and the context alphabet, which training never
    changes, are shared; the training ids ``build_model`` left are not
    copied.
    """
    shared = (model.labels, model.templates, model.out_alphabet)
    memo = {id(obj): obj for obj in shared if obj is not None}
    memo[id(model._train_ids)] = None
    return copy.deepcopy(model, memo)


def parameter_norm(model: crf.ModelParams) -> float:
    total = 0.0
    for _, arr in model.named_arrays():
        total += float(np.sum(arr * arr))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    dev_metric: float
    param_norm: float


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    wall_clock_sec: float = 0.0

    def write_summary(self, path):
        """Machine-readable epoch records: ``epoch<TAB>mean_loss<TAB>dev_metric``."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(f"{rec.epoch}\t{rec.mean_loss!r}\t{rec.dev_metric!r}\n")

    def write_log(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(
                    f"epoch {rec.epoch}: mean_loss={rec.mean_loss:.6f} "
                    f"dev_metric={rec.dev_metric:.6f} param_norm={rec.param_norm:.6f}\n"
                )
            fh.write(f"best epoch: {self.best_epoch}\n")
            fh.write(f"wall clock: {self.wall_clock_sec:.2f}s\n")


def predict_labels(model: crf.ModelParams, sentences, ids=None) -> list[list[str]]:
    """Viterbi decode each sentence (no dropout); ``ids``: their ``crf.sentence_ids``, or None."""
    out = []
    for k, sent in enumerate(sentences):
        sent_ids = None if ids is None else ids[k]
        lattice = crf.build_forward(model, sent, train=False, ids=sent_ids).lattice
        result = crf.viterbi(lattice)
        out.append([model.labels.from_index(int(y)) for y in result.labels])
    return out


def dev_metric(model: crf.ModelParams, sentences, task: str, scheme: str, ids=None) -> float:
    predictions = predict_labels(model, sentences, ids)
    return evaluator.corpus_metric(task, scheme, sentences, predictions)


def train(
    model: crf.ModelParams,
    train_sentences,
    dev_sentences,
    hypers: HyperParams,
    task: str,
    scheme: str = "BIO",
) -> tuple[crf.ModelParams, TrainReport]:
    """Run the online margin trainer; returns the best-dev snapshot.

    Reads only ``eta``, ``l2``, ``epochs`` and ``seed`` from ``hypers``:
    ``build_model`` fixed the dropout and the sizes, so a different
    ``dropout_p`` here is ignored.  Takes the training ids
    ``build_model`` left on ``model``, if any.  ``task`` must be the one
    the model was built for.
    """
    handoff, model._train_ids = model._train_ids or {}, None
    if not train_sentences or not dev_sentences:
        raise ValueError("train and dev corpora must be non-empty")
    model.validate()
    if task != model.task:
        raise ValueError(f"task {task} does not match the model, which was built for {model.task}")
    gold_indices, train_ids = [], []
    for sent in train_sentences:
        if sent.gold_labels is None:
            raise ValueError("training sentences must carry gold labels")
        gold_indices.append(np.array([model.labels.to_index(l) for l in sent.gold_labels]))
        train_ids.append(crf.sentence_ids(model, sent, handoff.get(sent)))
    dev_ids, unseen = [], []
    for k, sent in enumerate(dev_sentences):
        if sent.gold_labels is None:
            raise ValueError(f"dev sentence {k} carries no gold labels")
        unseen += [l for l in sent.gold_labels if l not in model.labels]
        dev_ids.append(crf.sentence_ids(model, sent))
    if unseen:
        log.warning(
            "%d dev tokens have labels unseen in training: %s", len(unseen), sorted(set(unseen))
        )

    shuffle_rng = np.random.default_rng([hypers.seed, SEED_SHUFFLE])
    dropout_rng = np.random.default_rng([hypers.seed, SEED_DROPOUT])
    state = {}
    report = TrainReport()
    best_metric = -np.inf  # a dev metric is a ratio, so epoch 0 beats it
    started = time.perf_counter()

    for epoch in range(hypers.epochs):
        total_loss = 0.0
        for k in shuffle_rng.permutation(len(train_sentences)):
            sent = train_sentences[k]
            gold = gold_indices[k]
            fp = crf.build_forward(model, sent, train=True, rng=dropout_rng, ids=train_ids[k])
            loss, result = crf.margin_loss(fp.lattice, gold)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite loss at epoch {epoch}")
            total_loss += loss
            if loss > 0.0:
                bundle = crf.loss_gradients(model, fp, result.labels, gold)
                apply_bundle(model, bundle, state, hypers.eta, hypers.l2)
        metric = dev_metric(model, dev_sentences, task, scheme, dev_ids)
        record = EpochRecord(
            epoch=epoch,
            mean_loss=total_loss / len(train_sentences),
            dev_metric=metric,
            param_norm=parameter_norm(model),
        )
        report.records.append(record)
        log.info(
            "epoch %d: mean_loss=%.4f dev=%.4f norm=%.2f",
            epoch, record.mean_loss, record.dev_metric, record.param_norm,
        )
        if metric > best_metric:
            best_metric = metric
            report.best_epoch = epoch
            best_model = clone_model(model)
    report.wall_clock_sec = time.perf_counter() - started
    return best_model, report


def make_gradcheck_instance(mode: str = "joint", seed: int = 1) -> tuple[crf.ModelParams, Sentence]:
    """A small randomized model plus a 3-token sentence for gradient checks.

    Arrays still at their zero init are drawn uniform in [-0.5, 0.5] so
    gradient flows through every class, and the sub-seed is advanced until
    the check sentence has a positive margin loss with a comfortable argmax
    gap.
    """
    sents = [
        Sentence(tokens=("alpha", "beta", "gamma"), gold_labels=("A", "B", "C")),
        Sentence(tokens=("beta", "gamma", "delta"), gold_labels=("B", "C", "A")),
    ]
    hypers = HyperParams(word_hidden=8, char_emb=3, word_emb=5, pos_emb=2, seed=seed)
    for attempt in range(16):
        rng = np.random.default_rng([seed, 7, attempt])
        model = build_model(mode, "POS", "EN", sents, hypers)
        for _, arr in model.named_arrays():
            if not np.any(arr):  # still at its zero init
                arr[:] = rng.uniform(-0.5, 0.5, arr.shape)
        gold = np.array([model.labels.to_index(l) for l in sents[0].gold_labels])
        # evaluate under the same fixed dropout masks the gradient check uses
        lattice = crf.build_lattice(model, sents[0], train=True, rng=_gradcheck_rng())
        loss, _ = crf.margin_loss(lattice, gold)
        if loss > 0.05 and _score_gap(lattice, gold) > 1e-3:
            return model, sents[0]
    raise RuntimeError("could not construct a non-degenerate gradcheck instance")


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


GRADCHECK_MASK_SEED = 0
GRADCHECK_EPS = GRADCHECK_TOLERANCE = 1e-4  # central-difference step; pooled relative error bound
TIE_GAP = 1e-6


def _gradcheck_rng() -> np.random.Generator:
    """A fresh dropout stream for one gradient-check forward pass: every pass draws the same masks."""
    return np.random.default_rng([GRADCHECK_MASK_SEED, SEED_DROPOUT])


def _score_gap(lattice: crf.ScoreLattice, gold) -> float:
    """The best minus the second-best cost-augmented sequence score (inf with one sequence)."""
    _, scores = crf.enumerate_sequence_scores(crf._augment(lattice, gold))
    top2 = np.sort(scores)[-2:]
    return float(top2[1] - top2[0]) if len(scores) > 1 else float("inf")


@dataclass
class GradientCheckReport:
    tolerance: float
    max_rel_err: dict[str, float] = field(default_factory=dict)
    skipped: bool = False
    score_gap: float = float("inf")

    @property
    def passed(self) -> bool:
        return self.skipped or all(v < self.tolerance for v in self.max_rel_err.values())


class _ClassError:
    """Pools one parameter class into an L2 norm-ratio relative error.

    Per-coordinate ratios are meaningless for coordinates whose true
    gradient sits at the finite-difference noise floor, so classes are
    scored as ||analytic - numeric|| / max(||analytic||, ||numeric||).
    """

    def __init__(self):
        self.diff_sq = 0.0
        self.analytic_sq = 0.0
        self.numeric_sq = 0.0

    def add(self, analytic, numeric):
        self.diff_sq += (analytic - numeric) ** 2
        self.analytic_sq += analytic * analytic
        self.numeric_sq += numeric * numeric

    def value(self) -> float:
        scale = max(np.sqrt(self.analytic_sq), np.sqrt(self.numeric_sq), 1e-8)
        return float(np.sqrt(self.diff_sq) / scale)


def _gradcheck_class(name: str) -> str:
    """The report key that pools a registry array's error."""
    if name.startswith("lstm.b_"):
        return "lstm_biases"
    if name.startswith("lstm."):
        return "lstm_weights"
    if name.startswith("emb."):
        return "embeddings"
    return name


def gradient_check(model: crf.ModelParams, sentence: Sentence) -> GradientCheckReport:
    """Compare analytic subgradients with central finite differences of step
    ``GRADCHECK_EPS``; a class passes below ``GRADCHECK_TOLERANCE``.

    Runs with a fixed dropout mask so the loss is a deterministic function
    of the parameters.  Points where the cost-augmented argmax is not unique
    (best-vs-second score gap below ``TIE_GAP``) are reported as skipped:
    the loss is non-differentiable there.  Each perturbed entry is put back,
    even when a forward pass raises.
    """
    model.validate()
    if sentence.gold_labels is None:
        raise ValueError("gradient check needs a labeled sentence")
    if len(sentence) > 5:
        raise ValueError("gradient check instances must have n <= 5")
    gold = np.array([model.labels.to_index(l) for l in sentence.gold_labels])

    ids = crf.sentence_ids(model, sentence)

    def forward():
        fp = crf.build_forward(model, sentence, train=True, rng=_gradcheck_rng(), ids=ids)
        loss, result = crf.margin_loss(fp.lattice, gold)
        return loss, fp, result

    loss0, fp0, result0 = forward()
    report = GradientCheckReport(tolerance=GRADCHECK_TOLERANCE)

    report.score_gap = _score_gap(fp0.lattice, gold)
    if report.score_gap < TIE_GAP:
        report.skipped = True
        return report

    analytic = crf.loss_gradients(model, fp0, result0.labels, gold)

    def fd_for(array, index):
        orig = array[index]
        try:
            array[index] = orig + GRADCHECK_EPS
            lp, _, _ = forward()
            array[index] = orig - GRADCHECK_EPS
            lm, _, _ = forward()
        finally:
            array[index] = orig
        return (lp - lm) / (2 * GRADCHECK_EPS)

    pooled: dict[str, _ClassError] = {}
    for name, array in model.named_arrays():
        grad = analytic.get(name, ([], []))  # absent: no gradient
        if isinstance(grad, tuple):  # (flat cell ids, values)
            dense = np.zeros(array.size)
            dense[grad[0]] = grad[1]
            grad = dense.reshape(array.shape)
        err = pooled.setdefault(_gradcheck_class(name), _ClassError())
        it = np.nditer(array, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            err.add(float(grad[idx]), fd_for(array, idx))

    report.max_rel_err = {cls: err.value() for cls, err in pooled.items()}
    return report
