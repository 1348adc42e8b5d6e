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

Viterbi and the forward recursion are the numpy loops ``_viterbi_path``
and ``_logz`` below; every decode and ``log_partition`` goes through them.
Decoding breaks ties toward the lowest label index at every backpointer
decision, so results are deterministic.  ``sequence_score`` fixes the
summation order (start transition, emission 0, then transition/emission per
position); the brute-force oracles score sequences with the same order, so
agreement checks can be exact rather than approximate.

``ModelParams.named_arrays`` is the one enumeration of the parameters:
checkpoints, cloning, the parameter norm, the AdaGrad update and the
gradient check all walk it, and ``GradientBundle`` keys its gradients by
the same names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import LabelAlphabet, Sentence
from .embeddings import InputComposer
from .encoder import BiLSTMParams, backward as encoder_backward, encode
from .features import FeatureAlphabet, TemplateSet

MODES = ("discrete", "neural", "joint")

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
        if self.transition.shape != (L + 1, L):
            raise ValueError(
                f"transition shape {self.transition.shape} does not match {L} labels"
            )
        if not (np.all(np.isfinite(self.emission)) and np.all(np.isfinite(self.transition))):
            raise ValueError("lattice scores must be finite")

    @property
    def n(self):
        return self.emission.shape[0]

    @property
    def num_labels(self):
        return self.emission.shape[1]


@dataclass
class DecodeResult:
    labels: np.ndarray
    score: float


def _viterbi_path(emission, transition):
    n, L = emission.shape
    # scores[y, y'] = alpha[y'] + transition[y', y]: one contiguous row per label
    into, labels = np.ascontiguousarray(transition[:L].T), np.arange(L)
    scores = np.empty((L, L))
    alpha = transition[L] + emission[0]
    back = np.zeros((n, L), dtype=np.int64)
    for i in range(1, n):
        np.add(into, alpha, scores)
        best_prev = np.argmax(scores, axis=1, out=back[i])
        alpha = scores[labels, best_prev] + emission[i]
    labels = np.zeros(n, dtype=np.int64)
    labels[n - 1] = int(np.argmax(alpha))
    for i in range(n - 1, 0, -1):
        labels[i - 1] = back[i, labels[i]]
    return labels


def _logz(emission, transition):
    n, L = emission.shape
    alpha = transition[L] + emission[0]
    for i in range(1, n):
        scores = alpha[:, None] + transition[:L]
        shift = scores.max(axis=0)
        alpha = shift + np.log(np.exp(scores - shift).sum(axis=0)) + emission[i]
    shift = alpha.max()
    return float(shift + np.log(np.exp(alpha - shift).sum()))


def _path_score(emission, transition, labels) -> float:
    L = emission.shape[1]
    score = transition[L, labels[0]] + emission[0, labels[0]]
    for i in range(1, len(labels)):
        score = score + transition[labels[i - 1], labels[i]]
        score = score + emission[i, labels[i]]
    return float(score)


def sequence_score(lattice: ScoreLattice, labels) -> float:
    """Total log-score of one label sequence, in the pinned summation order."""
    labels = np.asarray(labels, dtype=np.int64)
    n, L = lattice.emission.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= L:
        raise ValueError("label index out of range")
    return _path_score(lattice.emission, lattice.transition, labels)


def viterbi(lattice: ScoreLattice) -> DecodeResult:
    """Exact argmax decoding; ties resolve to the lowest label index."""
    emission, transition = lattice.emission, lattice.transition
    labels = _viterbi_path(emission, transition)
    return DecodeResult(labels=labels, score=_path_score(emission, transition, labels))


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
    emission = _augmented_emission(lattice, gold)
    labels = _viterbi_path(emission, lattice.transition)
    return DecodeResult(labels=labels, score=_path_score(emission, lattice.transition, labels))


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
    return _logz(lattice.emission, lattice.transition)


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
    labels: LabelAlphabet
    dropout_p: float = 0.25
    templates: TemplateSet | None = None
    out_alphabet: FeatureAlphabet | None = None
    theta_out: np.ndarray | None = None
    theta_edge: np.ndarray | None = None
    composer: InputComposer | None = None
    lstm: BiLSTMParams | None = None
    theta_dense: np.ndarray | None = None
    tau: np.ndarray | None = None
    tau_weight: np.ndarray | None = None
    # The training sentences' ``context_ids`` pairs, keyed by sentence, that
    # ``trainer.build_model`` leaves for the next ``trainer.train`` to take.
    # Unannotated, so not a field: no constructor, comparison, checkpoint or
    # clone sees it.
    _train_ids = None

    @property
    def uses_discrete(self):
        return self.mode in ("discrete", "joint")

    @property
    def uses_neural(self):
        return self.mode in ("neural", "joint")

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

    @classmethod
    def create(
        cls,
        mode: str,
        labels: LabelAlphabet,
        *,
        templates: TemplateSet | None = None,
        out_alphabet: FeatureAlphabet | None = None,
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
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode in ("discrete", "joint"):
            if templates is None or out_alphabet is None:
                raise ValueError(f"{mode} mode needs templates and an output alphabet")
            params.templates = templates
            params.out_alphabet = out_alphabet
            params.theta_out = np.zeros((out_alphabet.size, L))
            params.theta_edge = np.zeros((L + 1, L))
        if mode in ("neural", "joint"):
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


@dataclass
class ForwardPass:
    """Per-sentence artifacts needed to route gradients after decoding;
    ``context_ids`` is the sentence's ``context_ids()`` pair and ``row_ids``
    its ``composer.row_ids()`` when they were handed in."""

    sentence: Sentence
    lattice: ScoreLattice
    context_ids: tuple[np.ndarray, np.ndarray] | None = None
    row_ids: dict | None = None
    composed: np.ndarray | None = None
    encoder_output: object | None = None


class SentenceIds(NamedTuple):
    """A sentence's table indices, made once and handed to every ``build_forward``
    over it: the ``context_ids()`` pair and the ``composer.row_ids()``, each None
    without its scorer."""

    contexts: tuple[np.ndarray, np.ndarray] | None
    rows: dict | None


def index_contexts(templates: TemplateSet, index, sent: Sentence) -> tuple[np.ndarray, np.ndarray]:
    """``(flat, offsets)``: position i's context ids, in instantiation order, are
    ``flat[offsets[i]:offsets[i + 1]]`` (int32).  ``index`` maps a context string
    to its id, or to None to leave it out."""
    flat, offsets = [], [0]
    for i in range(len(sent)):
        flat += [c for c in map(index, templates.instantiate(sent, i)) if c is not None]
        offsets.append(len(flat))
    return np.array(flat, dtype=np.int32), np.array(offsets, dtype=np.int32)


def context_ids(params: ModelParams, sent: Sentence) -> tuple[np.ndarray, np.ndarray] | None:
    """``index_contexts`` over the frozen alphabet, so unseen contexts are left
    out; None without a discrete scorer.  The training sentences' pairs are
    made by ``trainer.build_output_alphabet`` while it grows the alphabet."""
    if not params.uses_discrete:
        return None
    return index_contexts(params.templates, params.out_alphabet.lookup, sent)


def sentence_ids(params: ModelParams, sent: Sentence, contexts=None) -> SentenceIds:
    """``sent``'s ids for every scorer of ``params``; ``contexts``, when given,
    is its ``context_ids()`` pair made elsewhere."""
    if contexts is None:
        contexts = context_ids(params, sent)
    rows = params.composer.row_ids(sent) if params.uses_neural else None
    return SentenceIds(contexts, rows)


def build_forward(
    params: ModelParams, sent: Sentence, *, train: bool = False, rng=None, masks=None, ids=None
) -> ForwardPass:
    """Score lattice plus gradient-routing caches; ``ids``: ``sentence_ids()`` or None."""
    n = len(sent)
    L = len(params.labels)
    emission = np.zeros((n, L))
    transition = np.zeros((L + 1, L))
    contexts, rows = (None, None) if ids is None else ids
    fp = ForwardPass(sentence=sent, lattice=None, row_ids=rows)  # type: ignore[arg-type]

    if params.uses_discrete:
        flat, offsets = fp.context_ids = context_ids(params, sent) if contexts is None else contexts
        weights = params.theta_out[flat]
        for i in range(n):
            emission[i] += weights[offsets[i] : offsets[i + 1]].sum(axis=0)
        transition += params.theta_edge

    if params.uses_neural:
        composed = params.composer.compose_all(sent, rows)
        enc = encode(
            params.lstm, composed, train=train, rng=rng, masks=masks, dropout_p=params.dropout_p
        )
        fp.composed = composed
        fp.encoder_output = enc
        emission += enc.h @ params.theta_dense.T
        if params.mode == "neural":
            transition += params.tau
        else:
            transition += params.tau_weight[0] * params.tau

    fp.lattice = ScoreLattice(emission=emission, transition=transition)
    return fp


def build_lattice(
    params: ModelParams, sent: Sentence, *, train: bool = False, rng=None, masks=None
) -> ScoreLattice:
    return build_forward(params, sent, train=train, rng=rng, masks=masks).lattice


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
    cells, inverse = np.unique(np.concatenate([plus, minus]), return_inverse=True)
    counts = np.bincount(inverse, np.repeat([1.0, -1.0], [len(plus), len(minus)]), len(cells))
    return cells[counts != 0.0], counts[counts != 0.0]


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
    n = len(fp.sentence)
    L = len(params.labels)

    if params.uses_discrete:
        flat, offsets = fp.context_ids
        pos = np.repeat(np.arange(n), np.diff(offsets))  # the position of each context id
        wrong = predicted[pos] != gold[pos]
        rows, pos = flat[wrong].astype(np.int64) * L, pos[wrong]
        bundle["theta_out"] = _cell_counts(rows + predicted[pos], rows + gold[pos])
        prev_pred, prev_gold = (np.concatenate(([L], seq[:-1])) for seq in (predicted, gold))
        bundle["theta_edge"] = _cell_counts(prev_pred * L + predicted, prev_gold * L + gold)

    if params.uses_neural:
        enc = fp.encoder_output
        h = enc.h
        d_dense = np.zeros_like(params.theta_dense)
        d_h = np.zeros_like(h)
        for i in range(n):
            if predicted[i] == gold[i]:
                continue
            d_dense[predicted[i]] += h[i]
            d_dense[gold[i]] -= h[i]
            d_h[i] = params.theta_dense[predicted[i]] - params.theta_dense[gold[i]]
        d_tau = np.zeros_like(params.tau)
        tau_scale = params.tau_weight[0] if params.mode == "joint" else 1.0
        d_tau_weight = 0.0
        for seq, delta in ((predicted, +1.0), (gold, -1.0)):
            prev = L  # start row
            for i in range(n):
                d_tau[prev, seq[i]] += delta * tau_scale
                d_tau_weight += delta * params.tau[prev, seq[i]]
                prev = seq[i]
        bundle["theta_dense"] = d_dense
        bundle["tau"] = d_tau
        if params.mode == "joint":
            bundle["tau_weight"] = np.array([d_tau_weight])
        lstm_grads, d_inputs = encoder_backward(params.lstm, enc, d_h)
        bundle.update((f"lstm.{name}", grad) for name, grad in lstm_grads.items())
        cells = params.composer.backward(fp.sentence, d_inputs, fp.row_ids)
        bundle.update((f"emb.{key}", pair) for key, pair in cells.items())

    return bundle
