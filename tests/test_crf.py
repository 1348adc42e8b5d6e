import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_crf
import synthetic
from template_grid import contexts_at, string_ids
from seqlab import crf, trainer
from seqlab.corpus import Alphabet, Sentence
from seqlab.embeddings import EmbeddingTable, InputComposer, UNK
from seqlab.encoder import backward as encoder_backward
from seqlab.features import ContextAlphabet, TemplateSet


def random_lattice(rng, n=None, L=None):
    n = n or int(rng.integers(1, 7))
    L = L or int(rng.integers(2, 5))
    return crf.ScoreLattice(
        emission=rng.uniform(-2, 2, (n, L)),
        transition=rng.uniform(-2, 2, (L + 1, L)),
    )


class TestSequenceScore:
    def test_single_position(self):
        lat = crf.ScoreLattice(np.array([[1.0, 3.0]]), np.zeros((3, 2)))
        assert crf.sequence_score(lat, [1]) == 3.0

    def test_hand_sum_n2(self):
        emission = np.array([[1.0, 2.0], [3.0, 4.0]])
        transition = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        lat = crf.ScoreLattice(emission, transition)
        # start->0 (0.5) + em 1.0 + trans 0->1 (0.2) + em 4.0
        assert crf.sequence_score(lat, [0, 1]) == 0.5 + 1.0 + 0.2 + 4.0

    def test_emission_shift_adds_constant(self):
        rng = np.random.default_rng(0)
        lat = random_lattice(rng, n=4, L=3)
        shifted = crf.ScoreLattice(lat.emission.copy(), lat.transition)
        shifted.emission[2] += 5.0
        for labels in ([0, 1, 2, 0], [2, 2, 2, 2]):
            assert crf.sequence_score(shifted, labels) == pytest.approx(
                crf.sequence_score(lat, labels) + 5.0
            )

    def test_label_out_of_range(self):
        lat = crf.ScoreLattice(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            crf.sequence_score(lat, [0, 2])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            crf.ScoreLattice(np.array([[np.nan, 0.0]]), np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["no_position", "no_label"])
    def test_empty_lattice_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"emission shape {shape}")):
            crf.ScoreLattice(np.zeros(shape), np.zeros((shape[1] + 1, shape[1])))


class TestViterbi:
    def test_single_position_argmax(self):
        lat = crf.ScoreLattice(np.array([[1.0, 3.0]]), np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]))
        # start transitions tip the argmax to label 0
        res = crf.viterbi(lat)
        assert res.labels.tolist() == [0]
        assert res.score == 6.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            lat = random_lattice(rng)
            vit = crf.viterbi(lat)
            brute = crf.brute_force_best(lat)
            assert np.array_equal(vit.labels, brute.labels)
            assert vit.score == brute.score

    def test_all_equal_scores_tie_rule(self):
        lat = crf.ScoreLattice(np.ones((4, 3)), np.ones((4, 3)))
        assert crf.viterbi(lat).labels.tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.5])
    def test_45_label_all_ties_match_brute_force(self, value):
        # the pos label count; 45^3 sequences is the longest enumerable window
        for n in (1, 2, 3):
            lat = crf.ScoreLattice(np.full((n, 45), value), np.full((46, 45), value))
            vit, brute = crf.viterbi(lat), crf.brute_force_best(lat)
            assert vit.labels.tolist() == brute.labels.tolist() == [0] * n
            assert vit.score == brute.score

    def test_45_labels_with_tied_emissions_match_brute_force(self):
        # constant transitions and 0/1 emissions: ties at every position, and
        # the lowest-index rule must still pick the enumeration's first best
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            lat = crf.ScoreLattice(
                rng.integers(0, 2, (n, 45)).astype(np.float64), np.full((46, 45), 0.25)
            )
            vit, brute = crf.viterbi(lat), crf.brute_force_best(lat)
            assert vit.labels.tolist() == brute.labels.tolist()
            assert vit.score == brute.score

    def test_score_equals_sequence_score(self):
        rng = np.random.default_rng(2)
        lat = random_lattice(rng, n=5, L=3)
        res = crf.viterbi(lat)
        assert res.score == crf.sequence_score(lat, res.labels)


class TestCostAugmented:
    def test_zero_lattice_pure_cost(self):
        n, L = 3, 3
        lat = crf.ScoreLattice(np.zeros((n, L)), np.zeros((L + 1, L)))
        gold = np.array([0, 2, 1])
        res = crf.cost_augmented_viterbi(lat, gold)
        assert res.score == float(n)
        # lowest-index non-gold label at each position
        assert res.labels.tolist() == [1, 0, 0]

    def test_matches_brute_force_with_cost(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lat = random_lattice(rng)
            n, L = lat.emission.shape
            gold = rng.integers(0, L, n)
            aug = crf.ScoreLattice(lat.emission + (1.0 - np.eye(L)[gold]), lat.transition)
            res = crf.cost_augmented_viterbi(lat, gold)
            brute = crf.brute_force_best(aug)
            assert np.array_equal(res.labels, brute.labels)
            assert res.score == brute.score

    def test_inflated_gold_wins(self):
        rng = np.random.default_rng(5)
        lat = random_lattice(rng, n=4, L=3)
        gold = rng.integers(0, 3, 4)
        inflated = lat.emission.copy()
        inflated[np.arange(4), gold] += len(lat.emission) + 1.0 + np.abs(lat.emission).max() * 4
        boosted = crf.ScoreLattice(inflated, lat.transition)
        res = crf.cost_augmented_viterbi(boosted, gold)
        assert np.array_equal(res.labels, gold)


class TestMarginLoss:
    def test_inflated_gold_gives_zero(self):
        rng = np.random.default_rng(6)
        lat = random_lattice(rng, n=4, L=3)
        gold = rng.integers(0, 3, 4)
        inflated = lat.emission.copy()
        inflated[np.arange(4), gold] += len(lat.emission) + 1.0 + np.abs(lat.emission).max() * 4
        boosted = crf.ScoreLattice(inflated, lat.transition)
        loss, res = crf.margin_loss(boosted, gold)
        assert loss == 0.0
        assert np.array_equal(res.labels, gold)

    def test_zero_lattice_loss_is_n(self):
        lat = crf.ScoreLattice(np.zeros((3, 2)), np.zeros((3, 2)))
        loss, _ = crf.margin_loss(lat, np.array([0, 0, 1]))
        assert loss == 3.0

    def test_exact_against_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lat = random_lattice(rng)
            n, L = lat.emission.shape
            gold = rng.integers(0, L, n)
            loss, _ = crf.margin_loss(lat, gold)
            _, scores = crf.enumerate_sequence_scores(crf._augment(lat, gold))
            assert loss == float(scores.max()) - crf.sequence_score(lat, gold)
            assert loss >= 0.0


class TestPartition:
    def test_two_equal_paths(self):
        lat = crf.ScoreLattice(np.zeros((1, 2)), np.zeros((3, 2)))
        assert crf.log_partition(lat) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_forward_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            lat = random_lattice(rng)
            assert crf.log_partition(lat) == pytest.approx(
                crf.brute_force_log_partition(lat), abs=1e-10
            )

    def test_max_at_most_logsumexp(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            lat = random_lattice(rng)
            assert crf.viterbi(lat).score <= crf.brute_force_log_partition(lat)

    def test_enumeration_limit(self):
        lat = crf.ScoreLattice(np.zeros((30, 4)), np.zeros((5, 4)))
        with pytest.raises(ValueError):
            crf.brute_force_best(lat)


def reference_lattice(data):
    """A lattice of L in {1, 2, 4, 17, 45} labels and 1 to 60 positions, its
    entries random, integer-valued (ties at every step) or signed zeros."""
    L = data.draw(st.sampled_from([1, 2, 4, 17, 45]), label="L")
    n = data.draw(st.integers(1, 60), label="n")
    kind = data.draw(st.sampled_from(["random", "integer", "signed_zero"]), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shapes = ((n, L), (L + 1, L))
    if kind == "random":
        emission, transition = (rng.uniform(-2, 2, shape) for shape in shapes)
    elif kind == "integer":
        emission, transition = (rng.integers(-1, 2, shape).astype(np.float64) for shape in shapes)
    else:
        emission, transition = (np.where(rng.random(shape) < 0.5, -0.0, 0.0) for shape in shapes)
    return crf.ScoreLattice(emission, transition), rng


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestAgainstReference:
    """The decode, the gold score and the cell counts are bitwise the
    straight-line ones of ``reference_crf``."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_viterbi_path_is_bitwise_the_reference(self, data):
        lat, rng = reference_lattice(data)
        n, L = lat.emission.shape
        gold = rng.integers(0, L, n)
        for emission in (lat.emission, crf._augmented_emission(lat, gold)):
            labels, score = crf._viterbi_path(emission, lat.transition)
            expected_labels, expected_score = reference_crf.viterbi_path(emission, lat.transition)
            assert labels.dtype == expected_labels.dtype
            assert labels.tolist() == expected_labels.tolist()
            assert same_float(score, expected_score)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_sequence_score_is_bitwise_the_reference(self, data):
        lat, rng = reference_lattice(data)
        n, L = lat.emission.shape
        for labels in (rng.integers(0, L, n), crf.viterbi(lat).labels, [L - 1] * n):
            expected = reference_crf.sequence_score(lat.emission, lat.transition, np.asarray(labels))
            assert same_float(crf.sequence_score(lat, labels), expected)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_cell_counts_are_bitwise_the_reference(self, data):
        # few distinct cells, so repeats and full cancellations are common;
        # ids reach past 2**31, and the keys (2 * cell + 1) still fit int64
        pool = data.draw(st.lists(st.integers(0, 2**61), min_size=1, max_size=6), label="pool")
        cells = st.lists(st.sampled_from(pool), max_size=40)
        plus = np.array(data.draw(cells, label="plus"), dtype=np.int64)
        minus = data.draw(st.one_of(cells, st.permutations(plus.tolist())), label="minus")
        minus = np.array(minus, dtype=np.int64)
        got, expected = crf._cell_counts(plus, minus), reference_crf.cell_counts(plus, minus)
        assert got[0].dtype == expected[0].dtype == np.int64
        assert got[1].dtype == np.float64
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize(
        "plus, minus, cells, counts",
        [
            ([], [], [], []),
            ([7, 3], [3, 7], [], []),
            ([5, 5, 2, 5], [2, 9], [5, 9], [3.0, -1.0]),
            ([2**40, 3], [2**40 + 1, 2**40 + 1], [3, 2**40, 2**40 + 1], [1.0, 1.0, -2.0]),
        ],
        ids=["empty", "cancel_fully", "repeated", "above_2_31"],
    )
    def test_cell_counts_cases(self, plus, minus, cells, counts):
        plus, minus = np.array(plus, dtype=np.int64), np.array(minus, dtype=np.int64)
        got = crf._cell_counts(plus, minus)
        assert got[0].dtype == np.int64 and got[1].dtype == np.float64
        assert got[0].tolist() == cells and got[1].tolist() == counts
        expected = reference_crf.cell_counts(plus, minus)
        assert got[0].tolist() == expected[0].tolist() and got[1].tolist() == expected[1].tolist()


# ---------------------------------------------------------------------------
# model parameter plumbing
# ---------------------------------------------------------------------------


def tiny_discrete_model():
    labels = Alphabet(["B", "E", "S"])
    templates = TemplateSet("SEG", "ZH")
    sents = [
        Sentence(tokens=list("中国人"), gold_labels=["B", "E", "S"]),
        Sentence(tokens=list("人民"), gold_labels=["B", "E"]),
    ]
    alpha, _ = trainer.build_output_alphabet(templates, sents)
    model = crf.ModelParams.create("discrete", labels, templates=templates, out_alphabet=alpha)
    return model, sents


def tiny_joint_model(seed=0):
    model, sents = tiny_discrete_model()
    rng = np.random.default_rng(seed)
    char = EmbeddingTable(
        "char", 3, [*"中国人民", UNK], rng.uniform(-0.01, 0.01, (5, 3))
    )
    bigram_symbols = ["中国", "国人", "人</S>", "人民", "民</S>", UNK]
    bigram = EmbeddingTable(
        "bigram", 3, bigram_symbols, rng.uniform(-0.01, 0.01, (6, 3))
    )
    composer = InputComposer("SEG", {"char": char, "bigram": bigram})
    joint = crf.ModelParams.create(
        "joint",
        model.labels,
        templates=model.templates,
        out_alphabet=model.out_alphabet,
        composer=composer,
        hidden=4,
        rng=rng,
    )
    return joint, sents


class TestBuildLattice:
    def test_zero_weights_give_zero_lattice(self):
        model, sents = tiny_discrete_model()
        lat = crf.build_lattice(model, sents[0])
        assert not np.any(lat.emission)
        assert not np.any(lat.transition)

    def test_neural_emission_hand_dot(self):
        joint, sents = tiny_joint_model()
        rng = np.random.default_rng(1)
        joint.theta_dense[:] = rng.normal(size=joint.theta_dense.shape)
        fp = crf.build_forward(joint, sents[0])
        h = fp.encoder_output.h
        np.testing.assert_allclose(fp.lattice.emission, h @ joint.theta_dense.T, atol=0)

    def test_joint_reduces_to_discrete_when_dense_zeroed(self):
        joint, sents = tiny_joint_model()
        discrete, _ = tiny_discrete_model()
        rng = np.random.default_rng(2)
        weights = rng.normal(size=joint.theta_out.shape)
        edge_weights = rng.normal(size=joint.theta_edge.shape)
        joint.theta_out[:] = weights
        joint.theta_edge[:] = edge_weights
        joint.theta_dense[:] = 0.0
        joint.tau[:] = 0.0
        discrete.theta_out[:] = weights
        discrete.theta_edge[:] = edge_weights
        for sent in sents:
            lat_j = crf.build_lattice(joint, sent)
            lat_d = crf.build_lattice(discrete, sent)
            np.testing.assert_array_equal(lat_j.emission, lat_d.emission)
            np.testing.assert_array_equal(lat_j.transition, lat_d.transition)
            assert np.array_equal(crf.viterbi(lat_j).labels, crf.viterbi(lat_d).labels)

    def test_mode_params_mismatch(self):
        labels = Alphabet(["A"])
        with pytest.raises(ValueError):
            crf.ModelParams(mode="neural", labels=labels).validate()
        with pytest.raises(ValueError):
            crf.ModelParams.create("discrete", labels)


class TestDiscreteLayout:
    def test_one_weight_per_context_label_pair(self):
        # "T1[0]=a|B" x "C" and "T1[0]=a" x "B|C" must not share a weight
        sents = [
            Sentence(tokens=["a|B"], gold_labels=["C"]),
            Sentence(tokens=["a"], gold_labels=["B|C"]),
        ]
        model = trainer.build_model("discrete", "POS", "EN", sents, trainer.HyperParams())
        t = model.templates
        contexts = {s for sent in sents for s in contexts_at(t, sent, 0)}
        assert model.theta_out.shape == (len(contexts), 2)
        c = string_ids(model.out_alphabet)["T1[0]=a|B"]
        model.theta_out[c, model.labels.to_index("C")] = 1.0
        assert crf.build_lattice(model, sents[0]).emission[0, 0] == 1.0
        assert not np.any(crf.build_lattice(model, sents[1]).emission)

    def test_label_named_start_keeps_its_own_row(self):
        sents = [Sentence(tokens=["x", "y"], gold_labels=["<START>", "X"])]
        model = trainer.build_model("discrete", "POS", "EN", sents, trainer.HyperParams())
        L = len(model.labels)
        assert model.theta_edge.shape == (L + 1, L)
        model.theta_edge[model.labels.to_index("<START>")] = 1.0
        transition = crf.build_lattice(model, sents[0]).transition
        assert not np.any(transition[L])  # the start state's row
        assert np.all(transition[model.labels.to_index("<START>")] == 1.0)


class TestLossGradients:
    def test_equal_sequences_zero_bundle(self):
        model, sents = tiny_discrete_model()
        fp = crf.build_forward(model, sents[0])
        gold = np.array([0, 1, 2])
        bundle = crf.loss_gradients(model, fp, gold, gold)
        assert bundle == {}

    def test_discrete_counts_by_hand(self):
        model, sents = tiny_discrete_model()
        sent = sents[0]
        fp = crf.build_forward(model, sent)
        gold = np.array([model.labels.to_index(l) for l in sent.gold_labels])
        pred = gold.copy()
        pred[1] = model.labels.to_index("S")  # one position flipped E -> S
        bundle = crf.loss_gradients(model, fp, pred, gold)
        B, E, S = (model.labels.to_index(l) for l in "BES")
        out_cells = cell_dict(model, bundle["theta_out"])
        edge_cells = cell_dict(model, bundle["theta_edge"])
        index = string_ids(model.out_alphabet)
        for s in contexts_at(model.templates, sent, 1):
            c = index[s]
            assert out_cells[(c, S)] == 1.0
            assert out_cells[(c, E)] == -1.0
        # positions 0 and 2 agree, so none of their features appear
        for s in contexts_at(model.templates, sent, 0):
            assert (index[s], B) not in out_cells
        assert len(out_cells) == 2 * len(contexts_at(model.templates, sent, 1))
        # predicted START-B-S-S against gold START-B-E-S; the shared START->B cancels
        assert edge_cells == {(B, S): 1.0, (S, S): 1.0, (B, E): -1.0, (E, S): -1.0}

    def test_count_range_bounded(self):
        model, sents = tiny_discrete_model()
        fp = crf.build_forward(model, sents[0])
        gold = np.array([0, 1, 2])
        pred = np.array([2, 0, 1])
        bundle = crf.loss_gradients(model, fp, pred, gold)
        n = len(sents[0])
        assert bundle["theta_out"][0].size > 0
        assert all(-n <= v <= n for v in cell_dict(model, bundle["theta_out"]).values())

    @pytest.mark.parametrize("mode", ["neural", "joint"])
    def test_neural_terms_are_bitwise_the_per_position_loops(self, mode):
        model, _ = trainer.make_gradcheck_instance(mode, seed=1)
        rng = np.random.default_rng(8)
        model.tau[:] = rng.normal(size=model.tau.shape)
        if mode == "joint":
            model.tau_weight[:] = 0.1  # repeated additions of 0.1 round
        sent = Sentence(tokens=("beta", "unseen", "alpha", "gamma", "beta", "alpha", "delta"))
        fp = crf.build_forward(model, sent, train=True, rng=rng)
        L, h = len(model.labels), fp.encoder_output.h
        for _ in range(20):
            gold, pred = rng.integers(0, L, (2, len(sent)))
            bundle = crf.loss_gradients(model, fp, pred, gold)
            d_dense, d_h = np.zeros_like(model.theta_dense), np.zeros_like(h)
            d_tau, d_tau_weight = np.zeros_like(model.tau), 0.0
            scale = model.tau_weight[0] if mode == "joint" else 1.0
            for i in range(len(sent)):
                if pred[i] != gold[i]:
                    d_dense[pred[i]] += h[i]
                    d_dense[gold[i]] -= h[i]
                    d_h[i] = model.theta_dense[pred[i]] - model.theta_dense[gold[i]]
            for seq, delta in ((pred, 1.0), (gold, -1.0)):
                prev = L
                for y in seq:
                    d_tau[prev, y] += delta * scale
                    d_tau_weight += delta * model.tau[prev, y]
                    prev = y
            if np.array_equal(pred, gold):
                assert bundle == {}
                continue
            assert bundle["theta_dense"].tobytes() == d_dense.tobytes()
            assert bundle["tau"].tobytes() == d_tau.tobytes()
            if mode == "joint":
                assert bundle["tau_weight"].tobytes() == np.array([d_tau_weight]).tobytes()
            lstm_grads, _ = encoder_backward(model.lstm, fp.encoder_output, d_h)
            for name, grad in lstm_grads.items():
                assert bundle[f"lstm.{name}"].tobytes() == grad.tobytes()

    def test_cells_are_distinct_sorted_and_nonzero(self):
        model, sents = tiny_discrete_model()
        fp = crf.build_forward(model, sents[1])
        gold = np.array([model.labels.to_index(l) for l in sents[1].gold_labels])
        pred = (gold + 1) % len(model.labels)
        bundle = crf.loss_gradients(model, fp, pred, gold)
        for name in ("theta_out", "theta_edge"):
            cells, counts = bundle[name]
            assert np.all(np.diff(cells) > 0)
            assert np.all(counts != 0.0)
            assert cells.max() < getattr(model, name).size


def cell_dict(model, pair):
    """A ``(flat cell ids, counts)`` gradient as ``{(row, label): count}``."""
    L = len(model.labels)
    return {divmod(int(cell), L): float(count) for cell, count in zip(*pair)}


class TestContextIds:
    # a bag row holds a position's known ids in instantiation order, with -1
    # anywhere among them
    def test_bag_rows_follow_instantiation(self):
        model, sents = tiny_discrete_model()
        sent = sents[0]
        ids, counts = crf.sentence_ids(model, sent).contexts
        assert ids.dtype == np.int32
        assert ids.shape == (len(sent), len(model.templates.groups))
        for i in range(len(sent)):
            expected = [string_ids(model.out_alphabet)[s] for s in contexts_at(model.templates, sent, i)]
            assert counts[i] == len(expected)
            assert ids[i][ids[i] != -1].tolist() == expected

    def test_unseen_contexts_left_out(self):
        model, _ = tiny_discrete_model()
        sent = Sentence(tokens=list("国外"))
        ids, counts = crf.sentence_ids(model, sent).contexts
        for i in range(len(sent)):
            contexts = contexts_at(model.templates, sent, i)
            known = [c for c in map(string_ids(model.out_alphabet).get, contexts) if c is not None]
            assert 0 < len(known) < len(contexts)
            assert counts[i] == len(known)
            assert ids[i][ids[i] != -1].tolist() == known
            assert np.count_nonzero(ids[i] == -1) == ids.shape[1] - len(known)

    def test_neural_model_has_no_ids(self):
        model, sent = trainer.make_gradcheck_instance("neural", seed=1)
        assert crf.sentence_ids(model, sent).contexts is None
        assert crf.build_forward(model, sent).ids.contexts is None

    @pytest.mark.parametrize("mode", crf.MODES)
    @pytest.mark.parametrize("train", [False, True])
    def test_cached_ids_give_a_bitwise_equal_lattice(self, mode, train):
        model, sent = trainer.make_gradcheck_instance(mode, seed=1)
        for other in (sent, Sentence(tokens=("beta", "unseen", "alpha", "gamma"))):
            ids = crf.sentence_ids(model, other)
            assert (ids.contexts is None) == (mode == "neural")
            assert (ids.rows is None) == (mode == "discrete")
            fresh = crf.build_forward(model, other, train=train, rng=np.random.default_rng(4))
            cached = crf.build_forward(
                model, other, train=train, rng=np.random.default_rng(4), ids=ids
            )
            np.testing.assert_array_equal(cached.lattice.emission, fresh.lattice.emission)
            np.testing.assert_array_equal(cached.lattice.transition, fresh.lattice.transition)
            assert cached.lattice.emission.tobytes() == fresh.lattice.emission.tobytes()
            assert cached.ids is ids
            if ids.contexts is not None:
                np.testing.assert_array_equal(fresh.ids.contexts[0], ids.contexts[0])


UNSEEN_POS_EN = Sentence(tokens=("qqqq", "zzzz", "xxxx", "wwww", "vvvv"))
EMISSION_CORPORA = {
    # (training sentences, probes the model has not seen)
    ("SEG", "ZH"): (
        [Sentence(tokens=list("中国人民很大"), gold_labels=list("BEBESS")),
         Sentence(tokens=list("人民"), gold_labels=list("BE"))],
        [Sentence(tokens=list("中国好大人")), Sentence(tokens=["外"])],
    ),
    ("POS", "EN"): (synthetic.separable_corpus(6, seed=1), [UNSEEN_POS_EN]),
    ("NER", "EN"): (
        [Sentence(tokens=("EU", "rejects", "German", "call"), aux_tags=("NNP", "VBZ", "JJ", "NN"),
                  gold_labels=("S-ORG", "O", "S-MISC", "O")),
         Sentence(tokens=("Peter", "Blackburn"), aux_tags=("NNP", "NNP"),
                  gold_labels=("B-PER", "E-PER"))],
        [Sentence(tokens=("Paris", "rejects", "x-ray"), aux_tags=("NNP", "VBZ", "NN"))],
    ),
}


def loop_emission(model, sent):
    """The discrete emission by a per-position loop over the known contexts."""
    emission = np.zeros((len(sent), len(model.labels)))
    for i in range(len(sent)):
        found = map(string_ids(model.out_alphabet).get, contexts_at(model.templates, sent, i))
        emission[i] += model.theta_out[[c for c in found if c is not None]].sum(axis=0)
    return emission


class TestDiscreteEmission:
    @pytest.mark.parametrize("task,language", sorted(EMISSION_CORPORA))
    def test_bitwise_the_per_position_loop(self, task, language):
        train, probes = EMISSION_CORPORA[(task, language)]
        model = trainer.build_model("discrete", task, language, train, trainer.HyperParams())
        model.theta_out[:] = np.random.default_rng(5).normal(size=model.theta_out.shape)
        for sent in train + probes:
            emission = crf.build_lattice(model, sent).emission
            assert emission.tobytes() == loop_emission(model, sent).tobytes()

    def test_position_without_known_context_is_exactly_zero(self):
        train, _ = EMISSION_CORPORA[("POS", "EN")]
        model = trainer.build_model("discrete", "POS", "EN", train, trainer.HyperParams())
        model.theta_out[:] = np.random.default_rng(6).normal(size=model.theta_out.shape)
        _, counts = crf.sentence_ids(model, UNSEEN_POS_EN).contexts
        assert counts.tolist() == [2, 1, 0, 2, 2]
        emission = crf.build_lattice(model, UNSEEN_POS_EN).emission
        assert emission[2].tobytes() == np.zeros(len(model.labels)).tobytes()
        assert np.all(emission[[0, 1, 3, 4]] != 0.0)

    def test_alphabet_that_knows_no_context(self):
        model, sents = tiny_discrete_model()
        alpha = ContextAlphabet(model.templates, ["T1[0]=never"])  # a context no sentence renders
        model = crf.ModelParams.create(
            "discrete", model.labels, templates=model.templates, out_alphabet=alpha
        )
        model.theta_out[:] = 1.0
        ids, counts = crf.sentence_ids(model, sents[0]).contexts
        assert ids.shape[0] == len(sents[0]) and np.all(ids == -1) and not np.any(counts)
        emission = crf.build_lattice(model, sents[0]).emission
        assert emission.tobytes() == np.zeros(emission.shape).tobytes()
