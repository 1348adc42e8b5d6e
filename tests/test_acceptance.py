"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

import synthetic
from template_grid import contexts_at
from seqlab import cli, crf, evaluator, trainer
from seqlab.corpus import Sentence, write_column_corpus
from seqlab.features import TemplateSet
from seqlab.trainer import ADAGRAD_EPS, HyperParams


def _random_lattice(rng):
    n = int(rng.integers(1, 7))
    L = int(rng.integers(2, 5))
    return crf.ScoreLattice(
        emission=rng.uniform(-2.0, 2.0, (n, L)),
        transition=rng.uniform(-2.0, 2.0, (L + 1, L)),
    )


def test_criterion_1_decoder_exactness():
    rng = np.random.default_rng(12345)
    started = time.perf_counter()
    for _ in range(1000):
        lattice = _random_lattice(rng)
        n, L = lattice.emission.shape
        gold = rng.integers(0, L, n)

        vit = crf.viterbi(lattice)
        brute = crf.brute_force_best(lattice)
        assert np.array_equal(vit.labels, brute.labels)
        assert vit.score == brute.score

        aug = crf.ScoreLattice(
            lattice.emission + (1.0 - np.eye(L)[gold]),
            lattice.transition,
        )
        cav = crf.cost_augmented_viterbi(lattice, gold)
        brute_aug = crf.brute_force_best(aug)
        assert np.array_equal(cav.labels, brute_aug.labels)
        assert cav.score == brute_aug.score
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"decoder exactness took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS decoder exactness on 1000 lattices ({elapsed:.1f}s)")


def test_criterion_2_partition_oracle():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        lattice = _random_lattice(rng)
        diff = abs(crf.log_partition(lattice) - crf.brute_force_log_partition(lattice))
        worst = max(worst, diff)
    assert worst < 1e-10, worst
    print(f"\n[criterion 2] PASS forward logZ vs enumeration, worst |diff| {worst:.2e}")


def test_criterion_3_gradient_fidelity():
    started = time.perf_counter()
    model, sentence = trainer.make_gradcheck_instance("joint", seed=1)
    assert model.lstm.hidden == 4 and len(model.labels) == 3 and len(sentence) == 3
    report = trainer.gradient_check(model, sentence)
    elapsed = time.perf_counter() - started
    assert report.tolerance == 1e-4 and not report.skipped
    expected_classes = {
        "theta_out", "theta_edge", "theta_dense", "tau", "tau_weight",
        "lstm_weights", "lstm_biases", "embeddings",
    }
    assert set(report.max_rel_err) == expected_classes
    for cls, err in report.max_rel_err.items():
        assert err < 1e-4, (cls, err)
    assert elapsed < 5.0, f"gradient check took {elapsed:.1f}s"
    worst = max(report.max_rel_err.values())
    print(f"\n[criterion 3] PASS joint gradcheck, worst class error {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_4_margin_loss_properties():
    rng = np.random.default_rng(777)
    zero_cases = 0
    for trial in range(1000):
        lattice = _random_lattice(rng)
        n, L = lattice.emission.shape
        gold = rng.integers(0, L, n)
        if trial % 20 == 0:
            # inflate gold so the margin is satisfied and loss must be zero
            emission = lattice.emission.copy()
            emission[np.arange(n), gold] += n + 1.0 + 4.0 * np.abs(lattice.emission).max()
            lattice = crf.ScoreLattice(emission, lattice.transition)
        loss, _ = crf.margin_loss(lattice, gold)
        _, scores = crf.enumerate_sequence_scores(crf._augment(lattice, gold))
        gold_score = crf.sequence_score(lattice, gold)
        assert loss == float(scores.max()) - gold_score
        assert loss >= 0.0
        gold_attains_max = gold_score == scores.max()
        assert (loss == 0.0) == gold_attains_max
        zero_cases += loss == 0.0
    assert zero_cases >= 50
    print(f"\n[criterion 4] PASS margin-loss identities on 1000 instances ({zero_cases} zero-loss)")


def test_criterion_5_learnability():
    started = time.perf_counter()
    sents = synthetic.separable_corpus(50, seed=42)
    gold = [s.gold_labels for s in sents]

    def train_accuracy(mode, epochs):
        hypers = HyperParams(epochs=epochs, seed=5)
        model = trainer.build_model(mode, "POS", "EN", sents, hypers)
        best, _ = trainer.train(model, sents, sents, hypers, "POS")
        preds = trainer.predict_labels(best, sents)
        return evaluator.prf_from_counts(*evaluator.corpus_counts(gold, preds, "accuracy")).recall

    discrete = train_accuracy("discrete", 10)
    neural = train_accuracy("neural", 30)
    joint = train_accuracy("joint", 30)
    elapsed = time.perf_counter() - started
    assert discrete == 1.0, discrete
    assert neural >= 0.95, neural
    assert joint >= discrete and joint >= neural, (joint, discrete, neural)
    assert elapsed < 120.0, f"learnability took {elapsed:.1f}s"
    print(
        f"\n[criterion 5] PASS learnability: discrete {discrete:.3f}, "
        f"neural {neural:.3f}, joint {joint:.3f} ({elapsed:.1f}s)"
    )


def test_criterion_6_combination_effect():
    started = time.perf_counter()
    means = {}
    per_seed = {mode: [] for mode in ("discrete", "neural", "joint")}
    for seed in range(1, 6):
        for mode in per_seed:
            train_sents, dev_sents, word_table = synthetic.combination_data(seed)
            hypers = HyperParams(
                word_hidden=16, word_emb=synthetic.COMBO_WORD_DIM, char_emb=6,
                pos_emb=4, epochs=8, eta=0.1, seed=seed,
            )
            tables = {"word": word_table} if mode != "discrete" else None
            model = trainer.build_model(mode, "NER", "EN", train_sents, hypers, tables=tables)
            _, report = trainer.train(model, train_sents, dev_sents, hypers, "NER", "BIO")
            per_seed[mode].append(max(r.dev_metric for r in report.records))
    for mode, values in per_seed.items():
        means[mode] = float(np.mean(values))
    elapsed = time.perf_counter() - started
    assert means["joint"] > means["discrete"], means
    assert means["joint"] > means["neural"], means
    print(
        f"\n[criterion 6] PASS combination effect over 5 seeds: joint {means['joint']:.3f} > "
        f"discrete {means['discrete']:.3f}, neural {means['neural']:.3f} ({elapsed:.0f}s)"
    )


SEG_GOLDEN = [
    "T1[-2]=<S>", "T1[-1]=中", "T1[0]=国", "T1[1]=人", "T1[2]=</S>",
    "T2[-2,-1]=<S>~中", "T2[-1,0]=中~国", "T2[0,1]=国~人", "T2[1,2]=人~</S>",
    "T2[-1,1]=中~人", "T2[0,2]=国~</S>",
    "T3[0,-2]=<S>", "T3[0,1]=F",
    "T4[-1,0,1]=中~国~人",
    "T5[0]=4",
    "T6[-1,0,1]=4~4~4",
    "T7[-2,-1,0,1,2]=<S>~4~4~4~</S>",
]

POS_EN_GOLDEN = [
    "T1[-2]=<S>", "T1[-1]=<S>", "T1[0]=Unions", "T1[1]=that", "T1[2]=represent",
    "T2[-1,0]=<S>~Unions", "T2[0,1]=Unions~that", "T2[-1,1]=<S>~that",
    "T3[0]=U", "T3[0]=Un", "T3[0]=Uni", "T3[0]=Unio", "T3[0]=Union",
    "T4[0]=s", "T4[0]=ns", "T4[0]=ons", "T4[0]=ions", "T4[0]=nions",
]

POS_ZH_GOLDEN = [
    "T1[-2]=<S>", "T1[-1]=<S>", "T1[0]=中国人民", "T1[1]=爱", "T1[2]=和平",
    "T2[-1,0]=<S>~中国人民", "T2[0,1]=中国人民~爱", "T2[-1,1]=<S>~爱",
    "T3[0]=中", "T3[0]=中国", "T3[0]=中国人",
    "T4[0]=民", "T4[0]=人民", "T4[0]=国人民",
    "T5[0]=4",
]

NER_EN_GOLDEN = [
    "T1[-1]=<S>", "T1[0]=EU", "T1[1]=rejects",
    "T2[-2,-1]=<S>~<S>", "T2[-1,0]=<S>~EU", "T2[0,1]=EU~rejects", "T2[1,2]=rejects~German",
    "T3[-1]=<S>", "T3[0]=UU", "T3[1]=LLLLLLL",
    "T4[-1,0]=<S>~UU", "T4[0,1]=UU~LLLLLLL",
    "T5[-1]=<S>", "T5[0]=T", "T5[1]=F",
    "T6[-1,-1]=<S>~<S>", "T6[-1,0]=<S>~EU", "T6[-1,1]=<S>~rejects",
    "T6[0,-1]=T~<S>", "T6[0,0]=T~EU", "T6[0,1]=T~rejects",
    "T6[1,-1]=F~<S>", "T6[1,0]=F~EU", "T6[1,1]=F~rejects",
    "T7[-1]=<S>", "T7[0]=OTHER", "T7[1]=OTHER",
    "T8[-1,0]=<S>~OTHER", "T8[0,0]=T~OTHER", "T8[1,0]=F~OTHER",
    "T9[-1]=<S>", "T9[0]=0110",
    "T10[-1,0]=<S>~0110",
    "T11[0]=E", "T11[0]=EU", "T11[1]=r", "T11[1]=re", "T11[1]=rej", "T11[1]=reje",
    "T12[-1]=<S>", "T12[0]=U", "T12[0]=EU",
    "T13[0]=NNP",
    "T14[-1,0]=<S>~NNP", "T14[0,1]=NNP~VBZ",
    "T15[-1,0,1]=<S>~NNP~VBZ",
    "T16[0,0]=NNP~EU",
]

NER_ZH_GOLDEN = [
    "T1[0]=NR",
    "T2[-1,0]=<S>~NR", "T2[0,1]=NR~NN",
    "T3[-1,0,1]=<S>~NR~NN",
    "T4[0,0]=NR~江泽民",
    "T6[-1]=<S>", "T6[0]=江泽民", "T6[1]=主席",
    "T7[-1,0]=<S>~江泽民", "T7[0,1]=江泽民~主席",
    "T8[-1]=<S>", "T8[0]=江", "T8[0]=江泽", "T8[0]=江泽民",
    "T9[-1]=<S>", "T9[0]=民", "T9[0]=泽民", "T9[0]=江泽民",
    "T10[0,0]=氵", "T10[0,1]=氵", "T10[0,2]=氏",
    "T11[0]=0101",
]


def test_criterion_7_template_goldens():
    seg = TemplateSet("SEG", "ZH")
    assert contexts_at(seg, Sentence(tokens=list("中国人")), 1) == SEG_GOLDEN

    pos_en = TemplateSet("POS", "EN")
    sent = Sentence(tokens=["Unions", "that", "represent"])
    assert contexts_at(pos_en, sent, 0) == POS_EN_GOLDEN

    pos_zh = TemplateSet("POS", "ZH")
    sent = Sentence(tokens=["中国人民", "爱", "和平"])
    assert contexts_at(pos_zh, sent, 0) == POS_ZH_GOLDEN

    ner_en = TemplateSet(
        "NER", "EN", cluster_lexicon={"EU": "0110", "German": "1011"}
    )
    sent = Sentence(
        tokens=["EU", "rejects", "German", "call"],
        aux_tags=["NNP", "VBZ", "JJ", "NN"],
    )
    assert contexts_at(ner_en, sent, 0) == NER_EN_GOLDEN

    ner_zh = TemplateSet(
        "NER", "ZH",
        cluster_lexicon={"江泽民": "0101"},
        radical_lexicon={"江": "氵", "泽": "氵", "民": "氏"},
    )
    sent = Sentence(
        tokens=["江泽民", "主席", "访问", "美国"],
        aux_tags=["NR", "NN", "VV", "NR"],
    )
    assert contexts_at(ner_zh, sent, 0) == NER_ZH_GOLDEN

    rows_covered = {s.split("[")[0] for s in SEG_GOLDEN} | {
        s.split("[")[0] for s in NER_EN_GOLDEN
    }
    assert {f"T{k}" for k in range(1, 17)} <= rows_covered
    print("\n[criterion 7] PASS template goldens for all four tables, byte-exact")


def test_criterion_8_metric_identities():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(300):
        tp = int(rng.integers(0, 30))
        pred = tp + int(rng.integers(0, 30))
        gold = tp + int(rng.integers(0, 30))
        prf = evaluator.prf_from_counts(tp, pred, gold)
        assert abs(prf.f1 * (prf.precision + prf.recall) - 2.0 * prf.precision * prf.recall) < 1e-12
        checked += 1

    from test_evaluator import boundary_matching_f1, random_segmentation, seg_labels

    for _ in range(30):
        gold_words, pred_words = [], []
        for _ in range(8):
            g = random_segmentation(rng)
            gold_words.append(g)
            pred_words.append(random_segmentation(rng, chars="".join(g)))
        via_spans = evaluator.prf_from_counts(
            *evaluator.corpus_counts(
                [seg_labels(g) for g in gold_words],
                [seg_labels(p) for p in pred_words],
                "BIES",
            )
        ).f1
        independent = boundary_matching_f1(gold_words, pred_words)
        assert abs(via_spans - independent) < 1e-15
    print(f"\n[criterion 8] PASS metric identities ({checked} count triples, 30 corpora)")


def test_criterion_9_determinism(tmp_path):
    sents = synthetic.separable_corpus(16, seed=8)
    train = tmp_path / "train.col"
    dev = tmp_path / "dev.col"
    write_column_corpus(train, sents[:12], ("token", "label"))
    write_column_corpus(dev, sents[12:], ("token", "label"))
    blobs = []
    for tag in ("a", "b"):
        model_out = tmp_path / f"model_{tag}.bin"
        summary = tmp_path / f"summary_{tag}.tsv"
        status = cli.main(
            [
                "train",
                "--set", "task=POS", "--set", "language=EN", "--set", "mode=joint",
                "--set", "epochs=3", "--set", "seed=17",
                "--set", "word_hidden=8", "--set", "char_emb=3", "--set", "word_emb=5",
                "--set", f"train={train}", "--set", f"dev={dev}",
                "--set", f"model_out={model_out}", "--set", f"report_summary={summary}",
            ]
        )
        assert status == 0
        blobs.append((model_out.read_bytes(), summary.read_bytes()))
    assert blobs[0][0] == blobs[1][0], "checkpoints differ between identical runs"
    assert blobs[0][1] == blobs[1][1], "train reports differ between identical runs"
    print(f"\n[criterion 9] PASS byte-identical checkpoint ({len(blobs[0][0])} bytes) and report")


def test_criterion_10_adagrad_unit_math():
    param = np.zeros(1)
    accum = np.zeros(1)
    trainer.adagrad_step(param, np.ones(1), accum, eta=0.01, l2=0.0)
    trainer.adagrad_step(param, np.ones(1), accum, eta=0.01, l2=0.0)
    expected = -0.01 / (1.0 + ADAGRAD_EPS) - 0.01 / (np.sqrt(2.0) + ADAGRAD_EPS)
    assert abs(param[0] - expected) < 1e-9
    assert abs(param[0] - (-0.0170710678)) < 1e-9
    print(f"\n[criterion 10] PASS two-step update math, param {param[0]:.12f}")
