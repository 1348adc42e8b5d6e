import dataclasses
import functools
import inspect
import logging
import math

import numpy as np
import pytest

import synthetic
from template_grid import map_entries
from seqlab import checkpoint, crf, trainer
from seqlab.corpus import Sentence
from seqlab.embeddings import init_random_table
from seqlab.features import TemplateSet
from seqlab.trainer import ADAGRAD_EPS, HyperParams, adagrad_step


SMALL = HyperParams(word_hidden=8, char_emb=3, word_emb=4)


TABLE_CORPORA = {
    "SEG": [
        Sentence(tokens=tuple("中国人民"), gold_labels=tuple("BEBE")),
        Sentence(tokens=tuple("大中国"), gold_labels=tuple("SBE")),
    ],
    "POS": [
        Sentence(tokens=("The", "cat", "sat"), gold_labels=("DT", "NN", "VB")),
        Sentence(tokens=("Ünïcode", "the", "a"), gold_labels=("NN", "DT", "DT")),
    ],
    "NER": [
        Sentence(tokens=("Paris", "is", "big"), gold_labels=("S-LOC", "O", "O"),
                 aux_tags=("NNP", "VBZ", "JJ")),
        Sentence(tokens=("in", "Ünïcode"), gold_labels=("O", "S-MISC"), aux_tags=("IN", "NNP")),
    ],
}


def pretrained(keys) -> dict:
    """A one-symbol table per key, as wide as ``SMALL`` makes it."""
    dims = {key: getattr(SMALL, size) for key, size in trainer.TABLE_FIELDS.items()}
    return {key: init_random_table(["Paris"], dims[key], 0, name=key) for key in keys}


def checkpoint_bytes(model, tmp_path) -> bytes:
    path = tmp_path / "model.bin"
    checkpoint.save_model(path, model, {"task": "POS"})
    return path.read_bytes()


class TestAdagradStep:
    def test_one_step_hand_computation(self):
        param = np.zeros(1)
        accum = np.zeros(1)
        adagrad_step(param, np.ones(1), accum, eta=0.01, l2=0.0)
        assert accum[0] == 1.0
        assert param[0] == pytest.approx(-0.01 / (1.0 + ADAGRAD_EPS), abs=1e-15)

    def test_two_step_hand_computation(self):
        param = np.zeros(1)
        accum = np.zeros(1)
        adagrad_step(param, np.ones(1), accum, eta=0.01, l2=0.0)
        adagrad_step(param, np.ones(1), accum, eta=0.01, l2=0.0)
        expected = -0.01 / (1.0 + ADAGRAD_EPS) - 0.01 / (np.sqrt(2.0) + ADAGRAD_EPS)
        assert param[0] == pytest.approx(expected, abs=1e-15)
        assert param[0] == pytest.approx(-0.017071, abs=1e-6)

    def test_zero_grad_zero_l2_is_noop(self):
        param = np.array([0.5, -0.25])
        accum = np.array([2.0, 3.0])
        adagrad_step(param, np.zeros(2), accum, eta=0.01, l2=0.0)
        np.testing.assert_array_equal(param, [0.5, -0.25])
        np.testing.assert_array_equal(accum, [2.0, 3.0])

    def test_nonfinite_grad_fails_fast(self):
        with pytest.raises(FloatingPointError):
            adagrad_step(np.zeros(1), np.array([np.inf]), np.zeros(1), 0.01, 0.0)

    def test_sparse_updates_touch_only_listed_ids(self):
        model = discrete_model()
        state = {}
        bundle = crf.GradientBundle(theta_out=(np.array([1, 3]), np.array([1.0, -2.0])))
        trainer.apply_bundle(model, bundle, state, eta=0.1, l2=0.0)
        param, accum = model.theta_out.reshape(-1), state["theta_out"].reshape(-1)
        assert not np.any(np.delete(param, [1, 3])) and not np.any(np.delete(accum, [1, 3]))
        assert param[0] == param[2] == param[4] == 0.0
        assert accum[0] == accum[2] == accum[4] == 0.0
        assert param[1] < 0 < param[3]

    def test_step_size_monotonically_non_increasing(self):
        rng = np.random.default_rng(0)
        accum = np.zeros(1)
        param = np.zeros(1)
        last = np.inf
        for _ in range(50):
            g = float(rng.uniform(0.1, 2.0))
            adagrad_step(param, np.array([g]), accum, eta=0.01, l2=0.0)
            step = 0.01 / (np.sqrt(accum[0]) + ADAGRAD_EPS)
            assert step <= last
            last = step

    def test_l2_pull_drives_weights_to_zero(self):
        # zero task gradient, l2 on: the dense rule decays the norm each step
        param = np.array([1.0, -1.0, 0.7])
        accum = np.zeros(3)
        norms = [np.linalg.norm(param)]
        for _ in range(50):
            adagrad_step(param, np.zeros(3), accum, eta=0.01, l2=0.01)
            norms.append(np.linalg.norm(param))
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < norms[0]


def discrete_model():
    return trainer.build_model("discrete", "POS", "EN", synthetic.separable_corpus(5, seed=1),
                               HyperParams())


def row_cells(matrix, row):
    """The flat cell ids of one row of a C-contiguous matrix."""
    return row * matrix.shape[1] + np.arange(matrix.shape[1])


class TestEmbeddingUpdates:
    def model(self):
        model = trainer.build_model("neural", "POS", "EN", synthetic.separable_corpus(5, seed=1),
                                    SMALL)
        return model, model.composer.tables["word"].matrix

    def test_untouched_rows_bitwise_unchanged(self):
        model, words = self.model()
        before = words.copy()
        bundle = crf.GradientBundle({"emb.word": (row_cells(words, 0), np.linspace(1.0, -1.0, 4))})
        trainer.apply_bundle(model, bundle, {}, 0.1, 0.0)
        np.testing.assert_array_equal(words[1:], before[1:])
        assert np.all(words[0] != before[0])


    def test_accumulated_row_matches_dense_oracle(self):
        # two touches of one row summed before the step == dense update with
        # the summed gradient matrix, on the row's cells; with l2 > 0 the
        # dense step also decays the other rows, which the cell step leaves
        g1 = np.array([0.5, -0.5, 0.0, 2.0])
        g2 = np.array([0.25, 1.0, -0.75, 0.0])
        for l2 in (0.0, 0.5):
            model, words = self.model()
            before = words.copy()
            accum0 = np.random.default_rng(0).uniform(0.0, 2.0, words.shape)
            state = {"emb.word": accum0.copy()}
            bundle = crf.GradientBundle({"emb.word": (row_cells(words, 1), g1 + g2)})
            trainer.apply_bundle(model, bundle, state, 0.05, l2)

            dense, dense_accum = before.copy(), accum0.copy()
            grad = np.zeros_like(dense)
            grad[1] = g1 + g2
            adagrad_step(dense, grad, dense_accum, 0.05, l2)
            np.testing.assert_array_equal(words[1], dense[1])
            np.testing.assert_array_equal(state["emb.word"][1], dense_accum[1])
            if l2 == 0.0:
                np.testing.assert_array_equal(words, dense)

            # the rule one cell at a time, in Python floats
            for col, g_cell in enumerate(g1 + g2):
                w, acc = float(before[1, col]), float(accum0[1, col])
                g = float(g_cell) + l2 * w
                acc += g * g
                w -= 0.05 * g / (math.sqrt(acc) + ADAGRAD_EPS)
                assert (words[1, col], state["emb.word"][1, col]) == (w, acc)
            rest = np.delete(np.arange(words.size), row_cells(words, 1))
            np.testing.assert_array_equal(words.reshape(-1)[rest], before.reshape(-1)[rest])
            np.testing.assert_array_equal(state["emb.word"].reshape(-1)[rest],
                                          accum0.reshape(-1)[rest])


class TestCellUpdates:
    def test_flat_cells_update_only_their_cells(self):
        sents = synthetic.separable_corpus(5, seed=1)
        model = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
        L = len(model.labels)
        state = {}
        bundle = crf.GradientBundle(
            theta_out=(np.array([1 * L + 2, 4 * L]), np.array([1.0, -2.0])),
            theta_edge=(np.array([L * L + 1]), np.array([1.0])),
        )
        trainer.apply_bundle(model, bundle, state, 0.1, 0.0)
        touched = {(1, 2): -1.0, (4, 0): 1.0}
        for (row, col), sign in touched.items():
            assert np.sign(model.theta_out[row, col]) == sign
        assert np.count_nonzero(model.theta_out) == 2
        assert np.count_nonzero(model.theta_edge) == 1 and model.theta_edge[L, 1] < 0
        assert np.count_nonzero(state["theta_out"]) == 2

    def test_embedding_cells_update_only_their_cells(self):
        sents = synthetic.separable_corpus(5, seed=1)
        model = trainer.build_model("neural", "POS", "EN", sents, SMALL)
        before = {name: arr.copy() for name, arr in model.named_arrays()}
        dim = model.composer.tables["word"].dim
        cells = 2 * dim + np.arange(dim)  # all of row 2
        state = {}
        bundle = crf.GradientBundle({"emb.word": (cells, np.linspace(-1.0, 1.0, dim))})
        trainer.apply_bundle(model, bundle, state, 0.1, 0.0)
        for name, arr in model.named_arrays():
            if name != "emb.word":
                np.testing.assert_array_equal(arr, before[name])
        words = model.composer.tables["word"].matrix
        rest = np.delete(np.arange(words.size), cells)
        np.testing.assert_array_equal(words.reshape(-1)[rest], before["emb.word"].reshape(-1)[rest])
        assert np.all(words[2] != before["emb.word"][2])
        assert set(np.flatnonzero(state["emb.word"])) <= set(cells)

    def test_zero_gradient_row_decays_lazily(self):
        sents = synthetic.separable_corpus(5, seed=1)
        model = trainer.build_model("neural", "POS", "EN", sents, SMALL)
        words = model.composer.tables["word"].matrix
        before = words.copy()
        dim = words.shape[1]
        bundle = crf.GradientBundle({"emb.word": (dim + np.arange(dim), np.zeros(dim))})
        trainer.apply_bundle(model, bundle, {}, 0.1, 0.5)
        # the L2 term alone moves every cell of row 1 toward zero
        np.testing.assert_array_equal(np.sign(words[1] - before[1]), -np.sign(before[1]))
        np.testing.assert_array_equal(np.delete(words, 1, axis=0), np.delete(before, 1, axis=0))

    def test_non_finite_cell_step_writes_nothing(self):
        model = discrete_model()
        model.theta_out[:] = 0.5
        before = model.theta_out.copy()
        accum = np.full_like(before, 2.0)
        state = {"theta_out": accum}
        bundle = crf.GradientBundle(theta_out=(np.array([1, 3]), np.array([1.0, np.inf])))
        with pytest.raises(FloatingPointError, match="theta_out"):
            trainer.apply_bundle(model, bundle, state, 0.1, 0.0)
        np.testing.assert_array_equal(model.theta_out, before)
        assert state["theta_out"] is accum and np.all(accum == 2.0)

    def test_non_contiguous_parameter_refused(self):
        sents = synthetic.separable_corpus(5, seed=1)
        model = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
        model.theta_out = np.asfortranarray(model.theta_out + 1.0)
        bundle = crf.GradientBundle(theta_out=(np.array([1]), np.array([1.0])))
        with pytest.raises(ValueError):
            trainer.apply_bundle(model, bundle, {}, 0.1, 0.0)


class TestHyperParams:
    def test_defaults(self):
        h = HyperParams()
        assert h.dropout_p == 0.25
        assert h.word_hidden == 100
        assert h.char_emb == 30
        assert h.word_emb == 50
        assert h.eta == 0.01
        assert h.l2 == 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(dropout_p=1.5)
        with pytest.raises(ValueError):
            HyperParams(word_hidden=7)
        with pytest.raises(ValueError):
            HyperParams(eta=0.0)


class TestTrainLoop:
    def test_deterministic_replay(self):
        sents = synthetic.separable_corpus(12, seed=3)
        h = HyperParams(word_hidden=8, char_emb=3, word_emb=5, epochs=3, seed=9)
        curves = []
        for _ in range(2):
            model = trainer.build_model("neural", "POS", "EN", sents, h)
            _, report = trainer.train(model, sents, sents, h, "POS")
            curves.append([(r.mean_loss, r.dev_metric, r.param_norm) for r in report.records])
        assert curves[0] == curves[1]

    def test_discrete_toy_reaches_perfect_accuracy(self):
        sents = synthetic.separable_corpus(50, seed=42)
        h = HyperParams(epochs=10, seed=5)
        model = trainer.build_model("discrete", "POS", "EN", sents, h)
        best, report = trainer.train(model, sents, sents, h, "POS")
        assert max(r.dev_metric for r in report.records) == 1.0
        preds = trainer.predict_labels(best, sents)
        from seqlab.evaluator import corpus_counts, prf_from_counts

        counts = corpus_counts([s.gold_labels for s in sents], preds, "accuracy")
        assert prf_from_counts(*counts).recall == 1.0

    def test_toy_loss_non_increasing_after_epoch_three(self):
        sents = synthetic.separable_corpus(50, seed=42)
        h = HyperParams(epochs=8, seed=5)
        model = trainer.build_model("discrete", "POS", "EN", sents, h)
        _, report = trainer.train(model, sents, sents, h, "POS")
        losses = [r.mean_loss for r in report.records]
        assert all(b <= a for a, b in zip(losses[3:], losses[4:]))

    def test_zero_loss_sentences_touch_nothing(self):
        sents = synthetic.separable_corpus(30, seed=7)
        h = HyperParams(epochs=8, seed=5)
        model = trainer.build_model("discrete", "POS", "EN", sents, h)
        _, report = trainer.train(model, sents, sents, h, "POS")
        assert report.records[-1].mean_loss == 0.0
        frozen = model.theta_out.copy()
        frozen_edge = model.theta_edge.copy()
        again = HyperParams(epochs=2, seed=11)
        trainer.train(model, sents, sents, again, "POS")
        np.testing.assert_array_equal(model.theta_out, frozen)
        np.testing.assert_array_equal(model.theta_edge, frozen_edge)

    def test_empty_corpora_rejected(self):
        sents = synthetic.separable_corpus(4, seed=1)
        h = HyperParams(epochs=1)
        model = trainer.build_model("discrete", "POS", "EN", sents, h)
        with pytest.raises(ValueError):
            trainer.train(model, [], sents, h, "POS")
        with pytest.raises(ValueError):
            trainer.train(model, sents, [], h, "POS")

    def test_best_epoch_is_dev_argmax(self):
        sents = synthetic.separable_corpus(20, seed=13)
        h = HyperParams(epochs=5, seed=2)
        model = trainer.build_model("discrete", "POS", "EN", sents, h)
        _, report = trainer.train(model, sents, sents, h, "POS")
        metrics = [r.dev_metric for r in report.records]
        assert report.best_epoch == int(np.argmax(metrics))

    def test_clones_once_per_improving_epoch(self, monkeypatch):
        sents = synthetic.separable_corpus(20, seed=13)
        h = HyperParams(epochs=6, seed=2)
        model = trainer.build_model("discrete", "POS", "EN", sents, h)
        clones = []
        clone = trainer.clone_model
        monkeypatch.setattr(trainer, "clone_model", lambda m: clones.append(m) or clone(m))
        _, report = trainer.train(model, sents, sents, h, "POS")
        metrics = [r.dev_metric for r in report.records]
        improving = [k for k, m in enumerate(metrics) if m > max(metrics[:k], default=-math.inf)]
        assert 0 < len(improving) < h.epochs
        assert len(clones) == len(improving)
        assert report.best_epoch == improving[-1]

    def test_instantiates_each_train_and_dev_position_once(self, monkeypatch):
        train = synthetic.separable_corpus(6, seed=1)
        dev = synthetic.separable_corpus(4, seed=2)
        # one call instantiates every position of a sentence
        original = TemplateSet.instantiate
        for mode in ("discrete", "joint"):
            calls = []

            def counting(self, sent):
                calls.append(id(sent))
                return original(self, sent)

            monkeypatch.setattr(TemplateSet, "instantiate", counting)
            model = trainer.build_model(mode, "POS", "EN", train, SMALL)
            trainer.train(model, train, dev, HyperParams(epochs=2, seed=3), "POS")
            monkeypatch.setattr(TemplateSet, "instantiate", original)
            assert sorted(calls) == sorted(id(s) for s in train + dev), mode

    @pytest.mark.parametrize("mode", ["discrete", "joint"])
    def test_later_and_unseen_trains_ignore_the_build_ids(self, mode, tmp_path):
        seen = synthetic.separable_corpus(8, seed=1)
        unseen = synthetic.separable_corpus(8, seed=4)
        assert not set(seen) & set(unseen)
        h = HyperParams(word_hidden=8, char_emb=3, word_emb=4, epochs=2, seed=3)

        def checkpoints(clear, corpora):
            model = trainer.build_model(mode, "POS", "EN", seen, h)
            if clear:
                model._train_ids = None
            blobs = []
            for sents in corpora:
                best, _ = trainer.train(model, sents, seen, h, "POS")
                blobs.append(checkpoint_bytes(best, tmp_path))
            return blobs

        for corpora in ((seen, seen), (unseen,)):
            assert checkpoints(False, corpora) == checkpoints(True, corpora)

    def test_unlabeled_dev_sentence_named(self):
        sents = synthetic.separable_corpus(5, seed=1)
        h = HyperParams(epochs=1)
        for mode in crf.MODES:
            model = trainer.build_model(mode, "POS", "EN", sents, HyperParams(word_hidden=8))
            dev = [sents[0], Sentence(tokens=["wa0"])]
            with pytest.raises(ValueError, match="dev sentence 1"):
                trainer.train(model, sents, dev, h, "POS")

    def test_unseen_dev_labels_counted_in_one_warning(self, caplog):
        sents = synthetic.separable_corpus(5, seed=1)
        h = HyperParams(epochs=2)
        model = trainer.build_model("discrete", "POS", "EN", sents, h)
        dev = [
            Sentence(tokens=["wa0", "wb1"], gold_labels=["A", "NEW"]),
            Sentence(tokens=["wa0", "wb1", "wc2"], gold_labels=["ODD", "NEW", "C"]),
        ]
        with caplog.at_level(logging.WARNING, logger="seqlab.trainer"):
            trainer.train(model, sents, dev, h, "POS")
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert message.startswith("3 dev tokens") and "['NEW', 'ODD']" in message

    @pytest.mark.parametrize("mode", crf.MODES)
    def test_a_task_other_than_the_models_is_refused(self, mode):
        sents = synthetic.separable_corpus(5, seed=1)
        h = HyperParams(word_hidden=8, char_emb=3, word_emb=4, epochs=1)
        model = trainer.build_model(mode, "POS", "EN", sents, h)
        with pytest.raises(ValueError, match="task NER does not match the model, which was built for POS"):
            trainer.train(model, sents, sents, h, "NER")

    def test_unknown_gold_label_rejected(self):
        sents = synthetic.separable_corpus(5, seed=1)
        h = HyperParams(epochs=1)
        model = trainer.build_model("discrete", "POS", "EN", sents, h)
        alien = [Sentence(tokens=["x"], gold_labels=["ALIEN"])]
        with pytest.raises(ValueError):
            trainer.train(model, alien, sents, h, "POS")


class TestGradientCheck:
    def test_tied_lattice_is_skipped(self):
        model, _ = trainer.make_gradcheck_instance("discrete", seed=1)
        model.theta_out[:] = 0.0
        model.theta_edge[:] = 0.0
        sent = Sentence(tokens=("alpha", "beta"), gold_labels=("A", "B"))
        report = trainer.gradient_check(model, sent)
        assert report.skipped
        assert report.passed  # skipped points report as non-differentiable, not failing

    def test_discrete_mode_counts_are_exact(self):
        model, sent = trainer.make_gradcheck_instance("discrete", seed=1)
        report = trainer.gradient_check(model, sent)
        assert not report.skipped
        assert report.max_rel_err["theta_out"] < 1e-10
        assert report.max_rel_err["theta_edge"] < 1e-10

    @pytest.mark.parametrize("mode", crf.MODES)
    def test_every_trainable_array_gets_a_gradient(self, mode):
        model, sent = trainer.make_gradcheck_instance(mode, seed=1)
        gold = np.array([model.labels.to_index(l) for l in sent.gold_labels])
        fp = crf.build_forward(model, sent, train=True, rng=np.random.default_rng([0, trainer.SEED_DROPOUT]))
        loss, result = crf.margin_loss(fp.lattice, gold)
        assert loss > 0.0
        bundle = crf.loss_gradients(model, fp, result.labels, gold)
        assert set(bundle) == {name for name, _ in model.named_arrays()}

    def test_step_and_tolerance_are_fixed(self):
        assert list(inspect.signature(trainer.gradient_check).parameters) == ["model", "sentence"]
        assert trainer.GRADCHECK_EPS == trainer.GRADCHECK_TOLERANCE == 1e-4
        model, sent = trainer.make_gradcheck_instance("neural", seed=1)
        report = trainer.gradient_check(model, sent)
        assert report.tolerance == 1e-4 and report.passed

    def test_a_failed_forward_pass_puts_the_perturbed_entry_back(self, monkeypatch):
        model, sent = trainer.make_gradcheck_instance("discrete", seed=1)
        before = [arr.copy() for _, arr in model.named_arrays()]
        calls, build_forward = [], crf.build_forward

        def failing_third(*args, **kwargs):  # the unperturbed pass, then +eps, then -eps
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("forward pass failed")
            return build_forward(*args, **kwargs)

        monkeypatch.setattr(crf, "build_forward", failing_third)
        with pytest.raises(FloatingPointError, match="forward pass failed"):
            trainer.gradient_check(model, sent)
        for (name, arr), old in zip(model.named_arrays(), before):
            np.testing.assert_array_equal(arr, old, err_msg=name)

    def test_instance_size_guard(self):
        model, _ = trainer.make_gradcheck_instance("discrete", seed=1)
        big = Sentence(tokens=["a"] * 6, gold_labels=["A"] * 6)
        with pytest.raises(ValueError):
            trainer.gradient_check(model, big)


class TestBuildModel:
    @pytest.mark.parametrize("mode", crf.MODES)
    def test_build_ids_equal_context_ids(self, mode):
        sents = synthetic.separable_corpus(6, seed=1)
        model = trainer.build_model(mode, "POS", "EN", sents, SMALL)
        if mode == "neural":
            assert model._train_ids is None
            return
        assert list(model._train_ids) == sents
        for sent in sents:
            got, expected = model._train_ids[sent], crf.sentence_ids(model, sent).contexts
            assert got[0].dtype == expected[0].dtype == np.int32
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])

    @pytest.mark.parametrize("mode", crf.MODES)
    def test_build_ids_reach_no_checkpoint_or_clone(self, mode, tmp_path):
        sents = synthetic.separable_corpus(5, seed=1)
        kept, cleared = (trainer.build_model(mode, "POS", "EN", sents, SMALL) for _ in range(2))
        cleared._train_ids = None
        assert (kept._train_ids is None) == (mode == "neural")
        blobs = set()
        for model in (kept, cleared):
            clone = trainer.clone_model(model)
            assert clone._train_ids is None
            blobs |= {checkpoint_bytes(model, tmp_path), checkpoint_bytes(clone, tmp_path)}
        assert len(blobs) == 1
        assert (kept._train_ids is None) == (mode == "neural")

    @pytest.mark.parametrize("task", ["SEG", "POS", "NER"])
    def test_no_training_symbol_reads_unk(self, task):
        # the vocabulary build and the lookup agree on every random-init table
        sents = TABLE_CORPORA[task]
        model = trainer.build_model("neural", task, "EN", sents, SMALL)
        assert not any(table.lowercase for table in model.composer.tables.values())
        for sent in sents:
            for key, (ids, _) in model.composer.row_ids(sent).items():
                assert model.composer.tables[key].unk_index not in ids, key

    def test_ner_neural_without_aux_tags_is_refused(self):
        sents = synthetic.separable_corpus(3, seed=1)
        # also when no table is random-init, so no vocabulary is built
        for supplied in ((), ("word", "char", "pos")):
            with pytest.raises(ValueError, match="NER composition needs aux POS tags"):
                trainer.build_model("neural", "NER", "EN", sents, SMALL, tables=pretrained(supplied))

    @pytest.mark.parametrize(
        "mode,task,inputs,message",
        [
            ("neural", "POS", {"tables": ["bigram"]},
             "bigram_embeddings: a neural POS model composes no bigram embedding table"),
            ("joint", "SEG", {"tables": ["char", "word"]},
             "word_embeddings: a joint SEG model composes no word embedding table"),
            ("discrete", "POS", {"tables": ["word"]},
             "word_embeddings: a discrete POS model composes no word embedding table"),
            ("discrete", "POS", {"radical_lexicon": {"a": "x"}},
             "radical_lexicon: no template of a discrete POS-EN model reads it"),
            ("joint", "NER", {"radical_lexicon": {"a": "x"}},
             "radical_lexicon: no template of a joint NER-EN model reads it"),
            ("discrete", "SEG", {"cluster_lexicon": {"a": "0"}},
             "cluster_lexicon: no template of a discrete SEG-EN model reads it"),
            ("neural", "NER", {"cluster_lexicon": {"EU": "0110"}},
             "cluster_lexicon: no template of a neural NER-EN model reads it"),
        ],
        ids=["neural_pos_bigram", "joint_seg_word", "discrete_pos_word", "discrete_pos_radicals",
             "joint_ner_en_radicals", "discrete_seg_clusters", "neural_ner_clusters"],
    )
    def test_an_input_the_model_would_drop_is_refused(self, mode, task, inputs, message):
        inputs = {**inputs, "tables": pretrained(inputs.get("tables", ()))}
        with pytest.raises(ValueError, match=f"^{message}$"):
            trainer.build_model(mode, task, "EN", TABLE_CORPORA[task], SMALL, **inputs)

    @pytest.mark.parametrize(
        "mode,language,inputs",
        [
            ("neural", "EN", {"cluster_lexicon": {}, "radical_lexicon": {}}),
            ("neural", "EN", {"tables": ["word", "pos"]}),
            ("joint", "EN", {"cluster_lexicon": {"Paris": "01"}, "tables": ["char"]}),
            ("discrete", "ZH", {"cluster_lexicon": {"Paris": "01"}, "radical_lexicon": {"P": "x"}}),
        ],
        ids=["neural_empty_lexicons", "neural_tables", "joint_clusters_and_table", "discrete_zh_lexicons"],
    )
    def test_the_inputs_a_model_reads_are_taken(self, mode, language, inputs):
        inputs = {**inputs, "tables": pretrained(inputs.get("tables", ()))}
        model = trainer.build_model(mode, "NER", language, TABLE_CORPORA["NER"], SMALL, **inputs)
        for key, table in inputs["tables"].items():
            assert model.composer.tables[key] is table
        if model.templates is not None:
            assert model.templates.cluster_lexicon == inputs.get("cluster_lexicon", {})
            assert model.templates.radical_lexicon == inputs.get("radical_lexicon", {})

    @pytest.mark.parametrize("mode", crf.MODES)
    @pytest.mark.parametrize("task", ["SEG", "POS", "NER"])
    def test_a_model_knows_its_task(self, mode, task):
        assert trainer.build_model(mode, task, "EN", TABLE_CORPORA[task], SMALL).task == task

    def test_joint_templates_and_composer_of_two_tasks_rejected(self):
        model = trainer.build_model("joint", "NER", "EN", TABLE_CORPORA["NER"], SMALL)
        model.templates = TemplateSet("POS", "EN")
        with pytest.raises(ValueError, match="a composer of one task, got POS and NER"):
            model.validate()

    def test_alphabet_frozen_after_build(self):
        sents = synthetic.separable_corpus(5, seed=1)
        model = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
        size = model.out_alphabet.size
        unseen = Sentence(tokens=["brandnew"], gold_labels=["A"])
        crf.build_lattice(model, unseen)
        assert model.out_alphabet.size == size

    def test_lookups_never_grow_the_built_or_loaded_map(self, tmp_path):
        sents = synthetic.separable_corpus(5, seed=1)
        model = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
        checkpoint.save_model(tmp_path / "m.bin", model, {})
        loaded, _ = checkpoint.load_model(tmp_path / "m.bin")
        assert map_entries(loaded.out_alphabet) == map_entries(model.out_alphabet) == model.out_alphabet.size
        unseen = synthetic.separable_corpus(6, seed=9) + [
            Sentence(tokens=["~", "a~b", "<S>ab", "brandnew", "</S>"]),
            Sentence(tokens=["zzzzzz"] * 7),
        ]
        for m in (model, loaded):
            size, entries = m.out_alphabet.size, map_entries(m.out_alphabet)
            for sent in unseen:
                crf.sentence_ids(m, sent)
            trainer.predict_labels(m, unseen)
            assert (m.out_alphabet.size, map_entries(m.out_alphabet)) == (size, entries)

    def test_clone_shares_the_map_and_nothing_else_sees_it(self, tmp_path):
        sents = synthetic.separable_corpus(5, seed=1)
        model = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
        assert trainer.clone_model(model).out_alphabet is model.out_alphabet
        assert [name for name, _ in model.named_arrays()] == ["theta_out", "theta_edge"]
        checkpoint.save_model(tmp_path / "built.bin", model, {})
        loaded, _ = checkpoint.load_model(tmp_path / "built.bin")
        # the loaded map holds other key objects than the built one
        assert loaded.out_alphabet is not model.out_alphabet
        assert loaded.out_alphabet == model.out_alphabet
        checkpoint.save_model(tmp_path / "loaded.bin", loaded, {})
        assert (tmp_path / "loaded.bin").read_bytes() == (tmp_path / "built.bin").read_bytes()

    @pytest.mark.parametrize("mode", crf.MODES)
    def test_models_compare_by_identity(self, mode):
        # the generated __eq__ compared arrays inside a tuple and raised
        sents = synthetic.separable_corpus(5, seed=1)
        h = HyperParams(word_hidden=8, char_emb=3, word_emb=4)
        model = trainer.build_model(mode, "POS", "EN", sents, h)
        assert (model == trainer.build_model(mode, "POS", "EN", sents, h)) is False
        assert (model == model) is True

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            trainer.build_model("discrete", "POS", "EN", [], HyperParams())

    def test_unlabeled_training_sentence_rejected(self):
        sents = synthetic.separable_corpus(3, seed=1) + [Sentence(tokens=["bare"])]
        with pytest.raises(ValueError, match="training sentences must carry gold labels"):
            trainer.build_model("discrete", "POS", "EN", sents, HyperParams())

    def test_clone_is_independent(self):
        sents = synthetic.separable_corpus(5, seed=1)
        h = HyperParams(word_hidden=8, char_emb=3, word_emb=4)
        for mode in crf.MODES:
            model = trainer.build_model(mode, "POS", "EN", sents, h)
            clone = trainer.clone_model(model)
            before = {name: arr.copy() for name, arr in clone.named_arrays()}
            assert list(before) == [name for name, _ in model.named_arrays()]
            for _, arr in model.named_arrays():
                arr += 7.0
            # the step went into the model's stored arrays, not into copies
            for name, arr in model.named_arrays():
                np.testing.assert_array_equal(arr, before[name] + 7.0, err_msg=f"{mode} {name}")
            for name, arr in clone.named_arrays():
                np.testing.assert_array_equal(arr, before[name], err_msg=f"{mode} {name}")


LOOP_FIELDS = ("eta", "l2", "epochs", "seed")
NEURAL_FIELDS = LOOP_FIELDS + ("dropout_p", "word_hidden")
CHAR_FIELDS = ("char_emb",)
WORD_FIELDS = ("word_emb",)


class TestModelInputs:
    @pytest.mark.parametrize(
        "mode,task,language,expected",
        [
            ("discrete", "SEG", "ZH", ((), (), LOOP_FIELDS)),
            ("discrete", "NER", "EN", ((), ("cluster",), LOOP_FIELDS)),
            ("neural", "NER", "ZH",
             (("word", "char", "pos"), (), NEURAL_FIELDS + WORD_FIELDS + CHAR_FIELDS + ("pos_emb",))),
            ("joint", "SEG", "EN", (("char", "bigram"), (), NEURAL_FIELDS + CHAR_FIELDS)),
            ("joint", "POS", "ZH", (("word", "char"), (), NEURAL_FIELDS + WORD_FIELDS + CHAR_FIELDS)),
            ("joint", "NER", "ZH",
             (("word", "char", "pos"), ("cluster", "radical"),
              NEURAL_FIELDS + WORD_FIELDS + CHAR_FIELDS + ("pos_emb",))),
        ],
    )
    def test_pinned(self, mode, task, language, expected):
        assert trainer.model_inputs(mode, task, language) == expected

    @pytest.mark.parametrize("mode", crf.MODES)
    @pytest.mark.parametrize("task", ["SEG", "POS", "NER"])
    @pytest.mark.parametrize("language", ["EN", "ZH"])
    def test_build_model_takes_exactly_the_inputs_listed(self, mode, task, language):
        tables, lexicons, fields = trainer.model_inputs(mode, task, language)
        assert set(fields) <= {f.name for f in dataclasses.fields(HyperParams)}
        build = functools.partial(trainer.build_model, mode, task, language, TABLE_CORPORA[task], SMALL)
        for key in trainer.TABLE_FIELDS:
            if key in tables:
                model = build(tables=pretrained([key]))
                assert model.composer.tables[key].symbols.strings() == ["Paris", "<UNK>"]
            else:
                with pytest.raises(ValueError, match=f"^{key}_embeddings: "):
                    build(tables=pretrained([key]))
        for name in ("cluster", "radical"):
            lexicon = {f"{name}_lexicon": {"中": "x"}}
            if name in lexicons:
                assert getattr(build(**lexicon).templates, f"{name}_lexicon") == {"中": "x"}
            else:
                with pytest.raises(ValueError, match=f"^{name}_lexicon: "):
                    build(**lexicon)

    def test_table_fields_follow_the_declaration(self):
        h = HyperParams(char_emb=3, word_emb=4, pos_emb=2)
        dims = {task: {key: table.dim for key, table in trainer.default_tables(task, sents, h).items()}
                for task, sents in TABLE_CORPORA.items()}
        assert dims == {"SEG": {"char": 3, "bigram": 3}, "POS": {"word": 4, "char": 3},
                        "NER": {"word": 4, "char": 3, "pos": 2}}
