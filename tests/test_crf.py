import numpy as np
import pytest

from seqlab import crf, trainer
from seqlab.corpus import LabelAlphabet, Sentence
from seqlab.embeddings import EmbeddingTable, InputComposer, UNK
from seqlab.features import TemplateSet


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
            gold = rng.integers(0, lat.num_labels, lat.n)
            aug = crf.ScoreLattice(
                lat.emission + (1.0 - np.eye(lat.num_labels)[gold]), lat.transition
            )
            res = crf.cost_augmented_viterbi(lat, gold)
            brute = crf.brute_force_best(aug)
            assert np.array_equal(res.labels, brute.labels)
            assert res.score == brute.score

    def test_inflated_gold_wins(self):
        rng = np.random.default_rng(5)
        lat = random_lattice(rng, n=4, L=3)
        gold = rng.integers(0, 3, 4)
        inflated = lat.emission.copy()
        inflated[np.arange(4), gold] += lat.n + 1.0 + np.abs(lat.emission).max() * 4
        boosted = crf.ScoreLattice(inflated, lat.transition)
        res = crf.cost_augmented_viterbi(boosted, gold)
        assert np.array_equal(res.labels, gold)


class TestMarginLoss:
    def test_inflated_gold_gives_zero(self):
        rng = np.random.default_rng(6)
        lat = random_lattice(rng, n=4, L=3)
        gold = rng.integers(0, 3, 4)
        inflated = lat.emission.copy()
        inflated[np.arange(4), gold] += lat.n + 1.0 + np.abs(lat.emission).max() * 4
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
            gold = rng.integers(0, lat.num_labels, lat.n)
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


# ---------------------------------------------------------------------------
# model parameter plumbing
# ---------------------------------------------------------------------------


def tiny_discrete_model():
    labels = LabelAlphabet(["B", "E", "S"])
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
        labels = LabelAlphabet(["A"])
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
        templates = model.templates
        contexts = {s for sent in sents for s in templates.instantiate(sent, 0)}
        assert model.theta_out.shape == (len(contexts), 2)
        c = model.out_alphabet.lookup("T1[0]=a|B")
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
        for s in model.templates.instantiate(sent, 1):
            c = model.out_alphabet.lookup(s)
            assert out_cells[(c, S)] == 1.0
            assert out_cells[(c, E)] == -1.0
        # positions 0 and 2 agree, so none of their features appear
        for s in model.templates.instantiate(sent, 0):
            assert (model.out_alphabet.lookup(s), B) not in out_cells
        assert len(out_cells) == 2 * len(model.templates.instantiate(sent, 1))
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
    def test_flat_ids_and_offsets_follow_instantiation(self):
        model, sents = tiny_discrete_model()
        sent = sents[0]
        flat, offsets = crf.context_ids(model, sent)
        assert flat.dtype == np.int32 and offsets.dtype == np.int32
        assert offsets.tolist()[0] == 0 and len(offsets) == len(sent) + 1
        for i in range(len(sent)):
            expected = [model.out_alphabet.lookup(s) for s in model.templates.instantiate(sent, i)]
            assert flat[offsets[i] : offsets[i + 1]].tolist() == expected

    def test_unseen_contexts_left_out(self):
        model, _ = tiny_discrete_model()
        sent = Sentence(tokens=list("国外"))
        flat, offsets = crf.context_ids(model, sent)
        for i in range(len(sent)):
            found = map(model.out_alphabet.lookup, model.templates.instantiate(sent, i))
            known = [c for c in found if c is not None]
            assert 0 < len(known) < len(model.templates.instantiate(sent, i))
            assert flat[offsets[i] : offsets[i + 1]].tolist() == known

    def test_neural_model_has_no_ids(self):
        model, sent = trainer.make_gradcheck_instance("neural", seed=1)
        assert crf.context_ids(model, sent) is None
        assert crf.build_forward(model, sent).context_ids is None

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
            assert cached.row_ids is ids.rows and fresh.row_ids is None
            if ids.contexts is not None:
                assert cached.context_ids is ids.contexts
                np.testing.assert_array_equal(fresh.context_ids[0], ids.contexts[0])
