"""The shared structured layer: score lattices, decoding, and margin loss.

Every model variant reduces to the same lattice shape: an (n, L) emission
matrix plus an (L+1, L) transition matrix whose last row holds the scores
out of the distinguished start state.  Scores are unnormalized log-scores
throughout; training needs only argmax decoding, so the partition function
exists as a diagnostic and as a test oracle, never on the training path.

Modes
-----
discrete
    emission[i][y] = sum of theta_out[c][y] over the template contexts c
    instantiated at position i (``theta_out`` is a (contexts, L) matrix
    over ``out_alphabet``); the transition is ``theta_edge``, an (L+1, L)
    matrix laid out like the lattice's, with the start row last.
neural
    emission[i][y] = theta_dense[y] . h_i; transitions are the learned
    matrix tau.
joint
    emission[i][y] = theta_dense[y] . h_i + the discrete emission;
    transition = tau_weight * tau[y'][y] + theta_edge[y'][y], i.e. tau
    enters the edge clique as one real-valued feature with its own learned
    weight.

Every decode goes through ``_viterbi_path``, a numpy loop over positions:
each adds alpha into an (L, L) score buffer, writes the row-wise ``argmax``
into its backpointers, ``take``s the winners from the buffer's flat view
and adds its emission to them in place.  ``log_partition`` is the forward
recursion.  Decoding breaks ties toward the lowest label index at every
backpointer decision (``argmax`` returns the first maximum), so results are
deterministic.  ``sequence_score`` fixes the summation order (start
transition, emission 0, then transition/emission per position): it gathers
those 2n terms in that order and sums them left to right with
``np.add.accumulate``.  The Viterbi recursion and the brute-force oracles
sum in the same order, so a decode's score is its labels' ``sequence_score``
and agreement checks can be exact rather than approximate.  A lattice has
at least one position and one label.

``sentence_ids`` is the one indexer: it maps a sentence to its template
context ids and its embedding row ids (``SentenceIds``), all ``embeddings``
bags, and ``build_forward`` reads the symbols only through them, making
them itself when none are handed in; the discrete emission is their
``bag_sum`` over ``theta_out``.  ``trainer.train`` makes them once per run
for every training and dev sentence.

``ModelParams.named_arrays`` is the one enumeration of the parameters:
checkpoints, cloning, the parameter norm, the AdaGrad update and the
gradient check all walk it, and ``GradientBundle`` keys its gradients by
the same names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Alphabet, Sentence
from .embeddings import InputComposer, bag_sum, members
from .encoder import BiLSTMParams, backward as encoder_backward, encode
from .features import ContextAlphabet, TemplateSet

MODES = ("discrete", "neural", "joint")
# the modes whose models score template features, and those whose models run the BiLSTM
DISCRETE_MODES = ("discrete", "joint")
NEURAL_MODES = ("neural", "joint")

BRUTE_FORCE_LIMIT = 1_000_000


@dataclass
class ScoreLattice:
    """Emission (n, L) and transition (L+1, L) log-scores; row L is START."""

    emission: np.ndarray
    transition: np.ndarray

    def __post_init__(self):
        self.emission = np.ascontiguousarray(self.emission, dtype=np.float64)
        self.transition = np.ascontiguousarray(self.transition, dtype=np.float64)
        n, L = self.emission.shape
        if n == 0 or L == 0:
            raise ValueError(f"emission shape {(n, L)}: a lattice needs a position and a label")
        if self.transition.shape != (L + 1, L):
            raise ValueError(
                f"transition shape {self.transition.shape} does not match {L} labels"
            )
        if not (np.isfinite(self.emission).all() and np.isfinite(self.transition).all()):
            raise ValueError("lattice scores must be finite")


@dataclass
class DecodeResult:
    labels: np.ndarray
    score: float


def _viterbi_path(emission, transition) -> tuple[np.ndarray, float]:
    """The best labels and their score, summed in ``sequence_score``'s order."""
    n, L = emission.shape
    # scores[y, y'] = alpha[y'] + transition[y', y]: one contiguous row per label
    into, rows = np.ascontiguousarray(transition[:L].T), np.arange(0, L * L, L)
    scores = np.empty((L, L))
    flat = scores.reshape(-1)
    alpha = transition[L] + emission[0]
    back = np.zeros((n, L), dtype=np.int64)
    for i in range(1, n):
        np.add(into, alpha, scores)
        alpha = flat.take(rows + scores.argmax(1, back[i]))  # scores[y, best_prev[y]]
        alpha += emission[i]
    labels = np.zeros(n, dtype=np.int64)
    y = labels[n - 1] = alpha.argmax()
    score = float(alpha[y])
    for i in range(n - 1, 0, -1):
        y = labels[i - 1] = back[i, y]
    return labels, score


def sequence_score(lattice: ScoreLattice, labels) -> float:
    """Total log-score of one label sequence, in the pinned summation order."""
    labels = np.asarray(labels, dtype=np.int64)
    emission, transition = lattice.emission, lattice.transition
    n, L = emission.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= L:
        raise ValueError("label index out of range")
    # position i's transition into it, then its emission: summed left to right
    terms = np.empty((n, 2))
    terms[0, 0] = transition[L, labels[0]]
    terms[1:, 0] = transition[labels[:-1], labels[1:]]
    terms[:, 1] = emission[np.arange(n), labels]
    return float(np.add.accumulate(terms.reshape(-1))[-1])


def viterbi(lattice: ScoreLattice) -> DecodeResult:
    """Exact argmax decoding; ties resolve to the lowest label index."""
    return DecodeResult(*_viterbi_path(lattice.emission, lattice.transition))


def _augmented_emission(lattice: ScoreLattice, gold) -> np.ndarray:
    """The emission plus 1.0 wherever the label disagrees with gold."""
    gold = np.asarray(gold, dtype=np.int64)
    n, L = lattice.emission.shape
    if gold.shape != (n,):
        raise ValueError(f"expected {n} gold labels, got shape {gold.shape}")
    cost = np.ones((n, L))
    cost[np.arange(n), gold] = 0.0
    return lattice.emission + cost


def _augment(lattice: ScoreLattice, gold) -> ScoreLattice:
    """The cost-augmented lattice, for the brute-force oracles."""
    return ScoreLattice(emission=_augmented_emission(lattice, gold), transition=lattice.transition)


def cost_augmented_viterbi(lattice: ScoreLattice, gold) -> DecodeResult:
    """Argmax of sequence score plus hamming distance to ``gold``.

    The returned score includes the cost term.
    """
    return DecodeResult(*_viterbi_path(_augmented_emission(lattice, gold), lattice.transition))


def margin_loss(lattice: ScoreLattice, gold) -> tuple[float, DecodeResult]:
    """Structured hinge: max over y of (score + hamming) minus the gold score.

    Non-negative by construction; zero exactly when gold attains the
    cost-augmented maximum.
    """
    result = cost_augmented_viterbi(lattice, gold)
    loss = result.score - sequence_score(lattice, gold)
    return loss, result


def log_partition(lattice: ScoreLattice) -> float:
    """Forward-algorithm log of the summed exponentiated sequence scores."""
    emission, transition = lattice.emission, lattice.transition
    n, L = emission.shape
    alpha = transition[L] + emission[0]
    for i in range(1, n):
        scores = alpha[:, None] + transition[:L]
        shift = scores.max(axis=0)
        alpha = shift + np.log(np.exp(scores - shift).sum(axis=0)) + emission[i]
    shift = alpha.max()
    return float(shift + np.log(np.exp(alpha - shift).sum()))


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def enumerate_sequence_scores(lattice: ScoreLattice) -> tuple[np.ndarray, np.ndarray]:
    """All L^n label sequences in lexicographic order with their scores.

    Scores are accumulated per position exactly as ``sequence_score`` does,
    so each entry is bitwise equal to scoring that sequence directly.
    """
    n, L = lattice.emission.shape
    if L**n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"{L}^{n} sequences exceed the enumeration limit")
    grids = np.meshgrid(*([np.arange(L)] * n), indexing="ij")
    seqs = np.stack(grids, axis=-1).reshape(-1, n)
    scores = lattice.transition[L, seqs[:, 0]] + lattice.emission[0, seqs[:, 0]]
    for i in range(1, n):
        scores = scores + lattice.transition[seqs[:, i - 1], seqs[:, i]]
        scores = scores + lattice.emission[i, seqs[:, i]]
    return seqs, scores


def brute_force_best(lattice: ScoreLattice) -> DecodeResult:
    seqs, scores = enumerate_sequence_scores(lattice)
    best = int(np.argmax(scores))
    return DecodeResult(labels=seqs[best].astype(np.int64), score=float(scores[best]))


def brute_force_log_partition(lattice: ScoreLattice) -> float:
    _, scores = enumerate_sequence_scores(lattice)
    shift = scores.max()
    return float(shift + np.log(np.exp(scores - shift).sum()))


# ---------------------------------------------------------------------------
# model parameters and lattice construction
# ---------------------------------------------------------------------------


@dataclass
class ModelParams:
    """Everything trainable, plus the alphabets that give the weights meaning."""

    mode: str
    labels: Alphabet
    dropout_p: float = 0.25
    templates: TemplateSet | None = None
    out_alphabet: ContextAlphabet | None = None
    theta_out: np.ndarray | None = None
    theta_edge: np.ndarray | None = None
    composer: InputComposer | None = None
    lstm: BiLSTMParams | None = None
    theta_dense: np.ndarray | None = None
    tau: np.ndarray | None = None
    tau_weight: np.ndarray | None = None
    # The training sentences' ``index_contexts`` bags, keyed by sentence, that
    # ``trainer.build_model`` leaves for the next ``trainer.train`` to take.
    # Unannotated, so not a field: no constructor, comparison, checkpoint or
    # clone sees it.
    _train_ids = None

    @property
    def uses_discrete(self):
        return self.mode in DISCRETE_MODES

    @property
    def uses_neural(self):
        return self.mode in NEURAL_MODES

    @property
    def task(self) -> str:  # the task of its templates, else of its composer
        return (self.templates or self.composer).task

    def validate(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        L = len(self.labels)
        if L == 0:
            raise ValueError("empty label alphabet")
        if self.uses_discrete:
            for name in ("templates", "out_alphabet", "theta_out", "theta_edge"):
                if getattr(self, name) is None:
                    raise ValueError(f"{self.mode} mode requires {name}")
            if self.theta_out.shape != (self.out_alphabet.size, L):
                raise ValueError(f"theta_out must be ({self.out_alphabet.size}, {L})")
            if self.theta_edge.shape != (L + 1, L):
                raise ValueError(f"theta_edge must be ({L + 1}, {L})")
        if self.uses_neural:
            for name in ("composer", "lstm", "theta_dense", "tau"):
                if getattr(self, name) is None:
                    raise ValueError(f"{self.mode} mode requires {name}")
            self.lstm.check()
            two_h = 2 * self.lstm.hidden
            if self.theta_dense.shape != (L, two_h):
                raise ValueError(f"theta_dense must be ({L}, {two_h})")
            if self.tau.shape != (L + 1, L):
                raise ValueError(f"tau must be ({L + 1}, {L})")
        if self.mode == "joint" and (self.tau_weight is None or self.tau_weight.shape != (1,)):
            raise ValueError("joint mode requires a (1,) tau_weight")
        if self.mode == "joint" and self.templates.task != self.composer.task:
            tasks = f"{self.templates.task} and {self.composer.task}"
            raise ValueError(f"joint mode requires templates and a composer of one task, got {tasks}")

    @classmethod
    def create(
        cls,
        mode: str,
        labels: Alphabet,
        *,
        templates: TemplateSet | None = None,
        out_alphabet: ContextAlphabet | None = None,
        composer: InputComposer | None = None,
        hidden: int = 50,
        rng=None,
        dropout_p: float = 0.25,
    ) -> "ModelParams":
        """Zero-initialized model of the given mode.

        ``rng`` draws the BiLSTM's initial weights; without one they start
        at zero too, which is the skeleton a checkpoint load fills in.  The
        joint tau-slot weight starts at 1.0 so that tau receives gradient
        from the first update on (at 0.0 both tau and its weight would sit
        at a dead saddle).
        """
        L = len(labels)
        params = cls(mode=mode, labels=labels, dropout_p=dropout_p)
        if params.uses_discrete:
            if templates is None or out_alphabet is None:
                raise ValueError(f"{mode} mode needs templates and an output alphabet")
            params.templates = templates
            params.out_alphabet = out_alphabet
            params.theta_out = np.zeros((out_alphabet.size, L))
            params.theta_edge = np.zeros((L + 1, L))
        if params.uses_neural:
            if composer is None:
                raise ValueError(f"{mode} mode needs an input composer")
            params.composer = composer
            if rng is None:
                params.lstm = BiLSTMParams.zeros(composer.dim, hidden)
            else:
                params.lstm = BiLSTMParams.init(composer.dim, hidden, rng)
            params.theta_dense = np.zeros((L, 2 * hidden))
            params.tau = np.zeros((L + 1, L))
        if mode == "joint":
            params.tau_weight = np.ones(1)
        params.validate()
        return params

    def named_arrays(self, trainable_only: bool = False):
        """Yield ``(name, array)`` for every stored parameter array.

        This order is the checkpoint's manifest order.  ``trainable_only``
        leaves out embedding tables whose fine-tuning is off: they are
        saved, but neither updated nor counted in the parameter norm.
        """
        if self.uses_discrete:
            yield "theta_out", self.theta_out
            yield "theta_edge", self.theta_edge
        if self.uses_neural:
            for name, arr in self.lstm.arrays().items():
                yield f"lstm.{name}", arr
            yield "theta_dense", self.theta_dense
            yield "tau", self.tau
            for key in self.composer.table_order():
                table = self.composer.tables[key]
                if table.fine_tune or not trainable_only:
                    yield f"emb.{key}", table.matrix
        if self.mode == "joint":
            yield "tau_weight", self.tau_weight


class SentenceIds(NamedTuple):
    """A sentence's table indices for every scorer of a model, each None
    without its scorer: the ``index_contexts`` bag over ``out_alphabet`` and
    the ``composer.row_ids()`` bags."""

    contexts: tuple[np.ndarray, np.ndarray] | None
    rows: dict | None


@dataclass
class ForwardPass:
    """Per-sentence artifacts needed to route gradients after decoding."""

    lattice: ScoreLattice
    ids: SentenceIds
    encoder_output: object | None = None


def index_contexts(
    templates: TemplateSet, contexts: ContextAlphabet, sent: Sentence, *, grow: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The bag of ``sent``'s context ids: an ``(n, groups)`` int32 matrix, one
    column per template group, -1 where the group skips or its context is
    not in ``contexts``, which only ``grow`` adds to (position first, then
    group).  The templates run once per sentence."""
    columns = templates.instantiate(sent)
    ids = (contexts.grow if grow else contexts.find)(columns, len(sent))
    return ids, (ids >= 0).sum(1)


def sentence_ids(params: ModelParams, sent: Sentence, contexts=None) -> SentenceIds:
    """``sent``'s ids for every scorer of ``params``, made once and handed to
    every ``build_forward`` over it.  A context outside ``out_alphabet``, which
    never grows, is a -1; ``contexts``, when given, is the bag made elsewhere
    (by ``trainer.build_output_alphabet`` for the training sentences)."""
    if contexts is None and params.uses_discrete:
        contexts = index_contexts(params.templates, params.out_alphabet, sent)
    rows = params.composer.row_ids(sent) if params.uses_neural else None
    return SentenceIds(contexts, rows)


def build_forward(
    params: ModelParams, sent: Sentence, *, train: bool = False, rng=None, ids=None
) -> ForwardPass:
    """Score lattice plus gradient-routing caches; ``ids``: ``sentence_ids()``, or None
    to make them here."""
    n = len(sent)
    L = len(params.labels)
    emission = np.zeros((n, L))
    transition = np.zeros((L + 1, L))
    if ids is None:
        ids = sentence_ids(params, sent)
    enc = None

    if params.uses_discrete:
        emission += bag_sum(params.theta_out, ids.contexts)
        transition += params.theta_edge

    if params.uses_neural:
        composed = params.composer.compose_all(ids.rows)
        enc = encode(params.lstm, composed, train=train, rng=rng, dropout_p=params.dropout_p)
        emission += enc.h @ params.theta_dense.T
        transition += params.tau if params.mode == "neural" else params.tau_weight[0] * params.tau

    return ForwardPass(ScoreLattice(emission=emission, transition=transition), ids, enc)


def build_lattice(params: ModelParams, sent: Sentence, *, train: bool = False, rng=None) -> ScoreLattice:
    return build_forward(params, sent, train=train, rng=rng).lattice


# ---------------------------------------------------------------------------
# subgradients
# ---------------------------------------------------------------------------


class GradientBundle(dict):
    """d(loss)/d(parameters) for one sentence, keyed by ``named_arrays`` name.

    ``theta_out``, ``theta_edge`` and ``emb.<key>`` are ``(flat cell ids,
    values)`` pairs over the flattened parameter (distinct, sorted) and update
    only the cells listed: discrete cells ``row * L + label`` with nonzero
    counts, and every cell ``row * dim + col`` of each embedding row the
    sentence touches.  Every other entry is an array shaped like its parameter.
    """


def _cell_counts(plus, minus) -> tuple[np.ndarray, np.ndarray]:
    """Distinct cells with their counts, +1 per ``plus`` and -1 per ``minus``
    entry; cancelled cells are dropped.  Small integer sums are exact."""
    # one sort: cell c is key 2c for a +1 and 2c + 1 for a -1
    keys = np.concatenate([plus * 2, minus * 2 + 1])
    if not len(keys):
        return keys, np.zeros(0)
    keys.sort()
    cells = keys >> 1
    starts = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
    counts = np.add.reduceat(np.where(keys & 1, -1.0, 1.0), starts)
    kept = counts != 0.0
    return cells[starts[kept]], counts[kept]


def loss_gradients(
    params: ModelParams, fp: ForwardPass, predicted, gold
) -> GradientBundle:
    """Subgradient of the margin loss: d score(predicted) - d score(gold).

    ``predicted`` is the cost-augmented decode; the cost term is constant in
    the parameters so it contributes nothing.  Returns an empty bundle when
    the two sequences coincide.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    bundle = GradientBundle()
    if np.array_equal(predicted, gold):
        return bundle
    L = len(params.labels)
    # each sequence's transitions: the start row L, then its labels
    prev_pred, prev_gold = (np.concatenate(([L], seq[:-1])) for seq in (predicted, gold))

    if params.uses_discrete:
        ids, pos = members(fp.ids.contexts)
        wrong = predicted[pos] != gold[pos]
        rows, pos = ids[wrong].astype(np.int64) * L, pos[wrong]
        bundle["theta_out"] = _cell_counts(rows + predicted[pos], rows + gold[pos])
        bundle["theta_edge"] = _cell_counts(prev_pred * L + predicted, prev_gold * L + gold)

    if params.uses_neural:
        enc = fp.encoder_output
        h, wrong = enc.h, np.flatnonzero(predicted != gold)
        # ufunc.at adds in index order: +h_i at predicted[i], -h_i at gold[i], i ascending
        d_dense = np.zeros_like(params.theta_dense)
        labels = np.stack([predicted[wrong], gold[wrong]], axis=1).reshape(-1)
        np.add.at(d_dense, labels, np.stack([h[wrong], -h[wrong]], axis=1).reshape(-1, h.shape[1]))
        d_h = params.theta_dense[predicted] - params.theta_dense[gold]  # +0.0 where they agree
        # every transition of predicted (+1), then of gold (-1), in position order
        prev, to = np.concatenate([prev_pred, prev_gold]), np.concatenate([predicted, gold])
        sign = np.repeat([1.0, -1.0], len(predicted))
        d_tau = np.zeros_like(params.tau)
        np.add.at(d_tau, (prev, to), sign * (params.tau_weight[0] if params.mode == "joint" else 1.0))
        bundle["theta_dense"] = d_dense
        bundle["tau"] = d_tau
        if params.mode == "joint":  # the running sum from 0.0, in the same order
            bundle["tau_weight"] = np.cumsum(np.concatenate(([0.0], sign * params.tau[prev, to])))[-1:]
        lstm_grads, d_inputs = encoder_backward(params.lstm, enc, d_h)
        bundle.update((f"lstm.{name}", grad) for name, grad in lstm_grads.items())
        cells = params.composer.backward(d_inputs, fp.ids.rows)
        bundle.update((f"emb.{key}", pair) for key, pair in cells.items())

    return bundle
