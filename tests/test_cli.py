import dataclasses
import functools
import hashlib
import json
import logging
import math
import re
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic
from fuzz_text import text_files
from seqlab import checkpoint, cli, crf, trainer
from seqlab.corpus import Sentence, read_column_corpus, write_column_corpus
from seqlab.features import ContextAlphabet
from seqlab.trainer import HyperParams


def write_pos_corpus(path, sentences):
    write_column_corpus(path, sentences, ("token", "label"))


@pytest.fixture
def pos_setup(tmp_path):
    sents = synthetic.separable_corpus(20, seed=21)
    train = tmp_path / "train.col"
    dev = tmp_path / "dev.col"
    write_pos_corpus(train, sents[:15])
    write_pos_corpus(dev, sents[15:])
    return tmp_path, train, dev, sents


def run_cli(args):
    return cli.main(args)


SEG_SENTS = [
    Sentence(tokens=list("中国人"), gold_labels=["B", "E", "S"]),
    Sentence(tokens=list("人民"), gold_labels=["B", "E"]),
]
MODELS = [(mode, task, lang) for mode in crf.MODES for task in ("SEG", "POS", "NER") for lang in ("EN", "ZH")]
# the train keys that name the run rather than an input of its model
RUN_KEYS = {"task", "language", "mode", "train", "dev", "model_out", "report_summary", "report_log"}


def readme_model_keys(mode, task, language) -> set:
    """The train keys README's "What a run reads" table lists for a model."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    header = "\n| Model | Every mode | Discrete and joint | Neural and joint |\n"
    table = readme.partition(header)[2].partition("\n\n")[0]
    rows = [line.split("|")[1:-1] for line in table.splitlines()[1:]]
    assert [row[0].strip() for row in rows] == ["every model", "SEG", "POS", "NER-EN", "NER-ZH"]
    columns = (True, mode in ("discrete", "joint"), mode in ("neural", "joint"))
    keys = set()
    for label, *cells in rows:
        if label.strip() in ("every model", task, f"{task}-{language}"):
            read = [cell for cell, wanted in zip(cells, columns) if wanted]
            keys |= {key for cell in read for key in re.findall(r"`([^`]+)`", cell)}
    return keys


TRAIN_ARGS = [
    "--set", "task=POS", "--set", "language=EN", "--set", "mode=discrete",
    "--set", "epochs=4", "--set", "seed=3",
]


class TestConfig:
    @given(data=text_files("=", "#", "key", " = "))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_read_verbatim_or_are_refused_naming_the_file(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzzed.conf"
        path.write_bytes(data)
        try:
            raw = cli.parse_config_file(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: line ")
            return
        text = data.decode("utf-8-sig")
        assert all(key and key in text and value in text for key, value in raw.items())

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = POS\nmode = discrete\n# comment\nepochs=7\n", encoding="utf-8")
        config = cli.RunConfig.load("train", cfg, ["epochs=9", "seed=4"])
        assert config.task == "POS"
        assert config.values["epochs"] == 9
        assert config.values["seed"] == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.load("train", None, ["no_such_key=1"])

    def test_bad_value_types(self):
        with pytest.raises(cli.ConfigError, match="^epochs must be int, got 'three'$"):
            cli.RunConfig.load("train", None, ["epochs=three"])
        with pytest.raises(cli.ConfigError, match="^embeddings_lowercase must be a boolean, got 'maybe'$"):
            cli.RunConfig.load("train", None, ["mode=neural", "task=POS", "word_embeddings=w.txt",
                                               "embeddings_lowercase=maybe"])

    @pytest.mark.parametrize("item,key", [("seed=x", "seed"), ("eta=fast", "eta")])
    def test_bad_number_names_its_key(self, item, key, capsys):
        assert run_cli(["train", "--set", item]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and "invalid literal" not in err

    def test_repeated_key_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task=NER\nepochs=2\ntask=POS\n", encoding="utf-8")
        assert run_cli(["train", "--config", str(cfg)]) == 2
        assert f"error: {cfg}: line 3: key 'task' is set twice" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["=POS", " = ", "\u3000=1"])
    def test_config_line_with_an_empty_key_exits_2_naming_the_line(self, tmp_path, capsys, line):
        # it read as the key "", which the key check refused without naming the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"task=POS\n{line}\n", encoding="utf-8")
        assert run_cli(["train", "--config", str(cfg)]) == 2
        assert f"error: {cfg}: line 2: expected key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c"])
    def test_only_cr_and_lf_end_a_config_line(self, tmp_path, separator):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"task=POS{separator}seed=1\nbadline\n", encoding="utf-8")
        with pytest.raises(cli.ConfigError, match=r"run\.cfg: line 2: expected key=value"):
            cli.parse_config_file(cfg)

    def test_config_file_with_leading_bom_reads_like_the_plain_file(self, tmp_path):
        text = "task = POS\n# comment\nepochs=7\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert cli.parse_config_file(bom) == cli.parse_config_file(plain)
        assert cli.RunConfig.load("train", bom).task == "POS"

    def test_hypers_override(self):
        config = cli.RunConfig.load("train", None, ["mode=neural", "eta=0.1", "dropout=0.5", "l2=0.0"])
        h = config.hypers()
        assert (h.eta, h.dropout_p, h.l2) == (0.1, 0.5, 0.0)

    def test_every_hyperparameter_key_reaches_hypers(self):
        overrides = ["dropout=0.5", "word_hidden=8", "char_emb=3", "word_emb=4", "pos_emb=2",
                     "eta=0.5", "l2=0.25", "epochs=7", "seed=11"]
        h = cli.RunConfig.load("train", None, ["mode=joint", "task=NER", *overrides]).hypers()
        assert h == HyperParams(dropout_p=0.5, word_hidden=8, char_emb=3, word_emb=4, pos_emb=2,
                                eta=0.5, l2=0.25, epochs=7, seed=11)
        assert len(overrides) == len(dataclasses.fields(HyperParams)) == 9

    def test_shuffle_is_an_unknown_key(self):
        # training always visits the corpus in a fresh shuffled order each epoch
        with pytest.raises(cli.ConfigError, match=r"^unknown config keys: \['shuffle'\]$"):
            cli.RunConfig.load("train", None, ["shuffle=false"])

    @pytest.mark.parametrize("key", ["fine_tune_words", "fine_tune_chars"])
    def test_fine_tuning_keys_are_unknown(self, key):
        # every embedding table is fine-tuned
        with pytest.raises(cli.ConfigError, match=rf"^unknown config keys: \['{key}'\]$"):
            cli.RunConfig.load("train", None, [f"{key}=false"])
        assert len(cli.KNOWN_KEYS) == 32

    def test_char_hidden_is_an_unknown_key(self):
        with pytest.raises(cli.ConfigError, match="unknown config keys"):
            cli.RunConfig.load("train", None, ["char_hidden=60"])

    def test_config_file_with_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"task=POS\nlanguage=\xffEN\n")
        with pytest.raises(ValueError, match=r"run\.cfg: line 2: not valid UTF-8"):
            cli.parse_config_file(path)

    def test_diagnostics_is_an_unknown_key(self):
        with pytest.raises(cli.ConfigError, match="unknown config keys"):
            cli.RunConfig.load("train", None, ["diagnostics=1"])

    def test_readme_key_table_names_exactly_the_known_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.partition("\n| Key | Meaning | Read by |\n")[2].partition("\n\n")[0]
        rows = [line.split("|") for line in table.splitlines() if line.startswith("| `")]
        named = [key for row in rows for key in re.findall(r"`([^`]+)`", row[1])]
        assert len(named) == len(set(named))
        assert set(named) == cli.KNOWN_KEYS
        for row in rows:
            for key in re.findall(r"`([^`]+)`", row[1]):
                read_by = [command for command, keys in cli.COMMAND_KEYS.items() if key in keys]
                assert re.findall(r"`([^`]+)`", row[3]) == read_by, key

    @pytest.mark.parametrize("mode,task,language", MODELS)
    def test_readme_model_table_is_model_inputs(self, mode, task, language):
        # the README's keys of a model against what trainer.model_inputs says it reads
        tables, lexicons, fields = trainer.model_inputs(mode, task, language)
        hyper = {"dropout_p": "dropout"}
        expected = RUN_KEYS | {f"{key}_embeddings" for key in tables} & cli.KNOWN_KEYS
        expected |= {f"{name}_lexicon" for name in lexicons}
        expected |= {hyper.get(name, name) for name in fields}
        expected |= {"embeddings_lowercase"} if "word" in tables else set()
        expected |= {"scheme"} if task == "NER" else set()
        assert readme_model_keys(mode, task, language) == expected

    @pytest.mark.parametrize("mode,task,language", MODELS)
    def test_train_accepts_exactly_the_readme_keys_of_its_model(self, mode, task, language):
        model = {"mode": mode, "task": task, "language": language}
        reads = readme_model_keys(mode, task, language)
        given = {key: {"scheme": "BIOES", **model}.get(key, "1") for key in reads}
        config = cli.RunConfig.load("train", None, [f"{key}={value}" for key, value in given.items()])
        assert set(config.values) == reads - {"mode", "task", "language", "scheme"}
        assert reads >= RUN_KEYS
        model = [f"{key}={value}" for key, value in model.items()]
        for key in sorted(set(cli.COMMAND_KEYS["train"]) - reads):
            message = rf"^train of a {mode} {task}-{language} model does not read config keys \['{key}'\]$"
            with pytest.raises(cli.ConfigError, match=message):
                cli.RunConfig.load("train", None, [*model, f"{key}=1"])
        for key in sorted(cli.KNOWN_KEYS - set(cli.COMMAND_KEYS["train"])):
            with pytest.raises(cli.ConfigError, match=rf"^train does not read config keys \['{key}'\]$"):
                cli.RunConfig.load("train", None, [*model, f"{key}=1"])

    @pytest.mark.parametrize("command", sorted(cli.COMMAND_KEYS))
    def test_each_command_accepts_every_key_it_reads(self, command):
        # a joint NER-ZH train reads every train key but bigram_embeddings, which only SEG composes
        fixed = {"task": "NER", "language": "ZH", "mode": "joint", "scheme": "BIO"}
        keys = [key for key in cli.COMMAND_KEYS[command] if key != "bigram_embeddings"]
        config = cli.RunConfig.load(command, None, [f"{key}={fixed.get(key, '1')}" for key in keys])
        assert set(config.values) == set(keys) - set(fixed)

    @pytest.mark.parametrize("command", sorted(cli.COMMAND_KEYS))
    def test_each_command_refuses_every_key_it_does_not_read(self, command):
        unread = cli.KNOWN_KEYS - set(cli.COMMAND_KEYS[command])
        assert unread
        for key in sorted(unread):
            with pytest.raises(cli.ConfigError, match=rf"^{command} does not read config keys \['{key}'\]$"):
                cli.RunConfig.load(command, None, [f"{key}=1"])

    @pytest.mark.parametrize("mode", [None, "discrete"])
    def test_a_discrete_train_refuses_the_neural_keys(self, mode):
        chosen = [] if mode is None else [f"mode={mode}"]  # discrete is the default mode
        neural = readme_model_keys("neural", "NER", "EN") - readme_model_keys("discrete", "NER", "EN")
        assert len(neural) == 8
        for key in sorted(neural):
            message = rf"^train of a discrete NER-EN model does not read config keys \['{key}'\]$"
            with pytest.raises(cli.ConfigError, match=message):
                cli.RunConfig.load("train", None, [*chosen, "task=NER", "language=EN", f"{key}=1"])

    @pytest.mark.parametrize(
        "args,named",
        [
            (["predict", "--set", "task=POS", "--set", "model_in=m", "--set", "input=i",
              "--set", "output=o", "--set", "cluster_lexicon=/nonexistent", "--set", "epochs=9"],
             "predict does not read config keys ['cluster_lexicon', 'epochs']"),
            (["predict", "--set", "task=POS", "--set", "model_in=m", "--set", "input=i",
              "--set", "output=o", "--set", "cluster_lexicon=/nonexistent"],
             "predict does not read config keys ['cluster_lexicon']"),
            (["gradcheck", "--set", "train=/nonexistent", "--set", "task=NER"],
             "gradcheck does not read config keys ['task', 'train']"),
            (["train", "--set", "mode=discrete", "--set", "word_hidden=6", "--set", "char_emb=5"],
             "train of a discrete SEG-ZH model does not read config keys ['char_emb', 'word_hidden']"),
            (["train", "--set", "mode=neural", "--set", "embeddings_lowercase=true"],
             "train of a neural SEG-ZH model does not read config keys ['embeddings_lowercase']"),
            (["train", "--set", "task=POS", "--set", "mode=neural", "--set", "embeddings_lowercase=true"],
             "embeddings_lowercase: no word_embeddings file to lowercase"),
            (["train", "--set", "task=POS", "--set", "mode=neural", "--set", "pos_emb=7"],
             "train of a neural POS-ZH model does not read config keys ['pos_emb']"),
            (["train", "--set", "task=SEG", "--set", "mode=joint", "--set", "word_emb=9",
              "--set", "pos_emb=3"],
             "train of a joint SEG-ZH model does not read config keys ['pos_emb', 'word_emb']"),
            (["eval", "--set", "task=POS", "--set", "scheme=BIOES"],
             "eval of task POS does not read config keys ['scheme']"),
            (["compare", "--set", "task=SEG", "--set", "scheme=BIO"],
             "compare of task SEG does not read config keys ['scheme']"),
            (["train", "--set", "task=POS", "--set", "language=EN", "--set", "mode=discrete",
              "--set", "scheme=BIO", "--set", "cluster_lexicon=c.txt", "--set", "char_embeddings=e.txt"],
             "train of a discrete POS-EN model does not read config keys "
             "['char_embeddings', 'cluster_lexicon', 'scheme']"),
        ],
        ids=["predict_lexicon_epochs", "predict_lexicon", "gradcheck_train_task",
             "discrete_train_sizes", "lowercase_without_words", "lowercase_without_word_file",
             "neural_pos_pos_emb", "joint_seg_word_sizes", "eval_pos_scheme", "compare_seg_scheme",
             "discrete_pos_files_and_scheme"],
    )
    def test_a_key_the_command_does_not_read_exits_2(self, args, named, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the relative paths name no file
        assert run_cli(args) == 2
        out = capsys.readouterr()
        assert out.err == f"error: {named}\n" and out.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command,overrides",
        [
            ("train", ["task=POS"]),  # no train/dev/model_out at all
            ("train", ["task=POS", "train=/nonexistent", "dev=/nonexistent", "model_out=/tmp/x"]),
            ("predict", ["task=POS"]),
            ("eval", ["task=POS"]),
            ("compare", ["task=POS"]),
        ],
    )
    def test_missing_inputs_fail_before_work(self, command, overrides, capsys):
        args = [command]
        for item in overrides:
            args += ["--set", item]
        assert run_cli(args) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,message",
        [
            (["train", "--set", "epochs"], "override 'epochs' is not of the form key=value"),
            (["train", "--set", "task=CHUNK"], "task must be one of ['NER', 'POS', 'SEG']"),
            (["train", "--set", "language=FR"], "language must be EN or ZH"),
            (["gradcheck", "--set", "mode=crf"], "mode must be one of ('discrete', 'neural', 'joint')"),
            (["eval", "--set", "task=NER", "--set", "scheme=IOB"], "scheme must be BIO or BIOES"),
            (["train", "--config", "missing.cfg"], "config file missing.cfg does not exist"),
        ],
        ids=["override_without_equals", "task", "language", "mode", "scheme", "missing_config"],
    )
    def test_a_bad_setting_exits_2_naming_it(self, args, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(args) == 2
        out = capsys.readouterr()
        assert out.err == f"error: {message}\n" and out.out == ""
        assert not list(tmp_path.iterdir())


class TestTrainCommand:
    def test_invalid_utf8_corpus_exits_2_naming_file_and_line(self, pos_setup, capsys):
        tmp_path, train, dev, _ = pos_setup
        lines = train.read_bytes().split(b"\n")
        train.write_bytes(b"\n".join([lines[0], b"\xff" + lines[1], *lines[2:]]))
        status = run_cli(
            ["train", *TRAIN_ARGS, "--set", f"train={train}", "--set", f"dev={dev}",
             "--set", f"model_out={tmp_path / 'm.bin'}"]
        )
        assert status == 2
        assert f"error: {train}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_smoke_writes_checkpoint_and_report(self, pos_setup, capsys):
        tmp_path, train, dev, _ = pos_setup
        model_out = tmp_path / "m.bin"
        summary = tmp_path / "summary.tsv"
        status = run_cli(
            ["train", *TRAIN_ARGS,
             "--set", f"train={train}", "--set", f"dev={dev}",
             "--set", f"model_out={model_out}", "--set", f"report_summary={summary}"]
        )
        assert status == 0
        assert model_out.exists()
        lines = summary.read_text().splitlines()
        assert len(lines) == 4
        assert all(len(line.split("\t")) == 3 for line in lines)
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "train"
        assert 0.0 <= record["dev_metric"] <= 1.0

    def test_missing_dev_fails_before_training(self, pos_setup, capsys):
        tmp_path, train, _, _ = pos_setup
        model_out = tmp_path / "m.bin"
        status = run_cli(
            ["train", *TRAIN_ARGS,
             "--set", f"train={train}", "--set", f"dev={tmp_path/'missing.col'}",
             "--set", f"model_out={model_out}"]
        )
        assert status == 2
        assert not model_out.exists()

    @pytest.mark.parametrize("empty", ["train", "dev"])
    def test_an_empty_corpus_exits_2(self, pos_setup, capsys, empty):
        tmp_path, *paths, _ = pos_setup
        corpora = dict(zip(["train", "dev"], paths))
        corpora[empty] = tmp_path / "empty.col"
        corpora[empty].write_text("", encoding="utf-8")
        model_out = tmp_path / "m.bin"
        args = [f"{key}={path}" for key, path in corpora.items()] + [f"model_out={model_out}"]
        assert run_cli(["train", *TRAIN_ARGS, *chain.from_iterable(("--set", a) for a in args)]) == 2
        assert capsys.readouterr().err == "error: train and dev corpora must be non-empty\n"
        assert not model_out.exists()

    def test_report_log_has_a_line_per_epoch_and_the_best_one(self, pos_setup):
        tmp_path, train, dev, _ = pos_setup
        summary, log_path = tmp_path / "summary.tsv", tmp_path / "train.log"
        assert run_cli(
            ["train", *TRAIN_ARGS, "--set", f"train={train}", "--set", f"dev={dev}",
             "--set", f"model_out={tmp_path / 'm.bin'}", "--set", f"report_summary={summary}",
             "--set", f"report_log={log_path}"]
        ) == 0
        metrics = [float(line.split("\t")[2]) for line in summary.read_text().splitlines()]
        *epochs, best, wall = log_path.read_text(encoding="utf-8").splitlines()
        assert len(epochs) == len(metrics) == 4
        for k, (line, metric) in enumerate(zip(epochs, metrics)):
            assert re.fullmatch(rf"epoch {k}: mean_loss=\S+ dev_metric={metric:.6f} param_norm=\S+", line)
        assert best == f"best epoch: {metrics.index(max(metrics))}"
        assert re.fullmatch(r"wall clock: \d+\.\d\ds", wall)

    @pytest.mark.parametrize(
        "task,mode,key,content",
        [
            ("POS", "neural", "bigram_embeddings", "ab 0.5 0.25 0.125\n"),
            ("POS", "discrete", "word_embeddings", "wa0" + " 0.5" * 50 + "\n"),  # word_emb's default
            ("POS", "discrete", "radical_lexicon", "中\t氵\n"),
            ("NER", "neural", "cluster_lexicon", "EU\t0110\n"),
        ],
        ids=["a_neural_pos_bigrams", "b_discrete_pos_words", "c_discrete_pos_radicals", "d_neural_ner_clusters"],
    )
    def test_an_input_the_model_would_drop_exits_2(self, tmp_path, capsys, task, mode, key, content):
        corpus = tmp_path / "corpus.col"
        sents = NER_SENTS if task == "NER" else synthetic.separable_corpus(5, seed=1)
        write_column_corpus(corpus, sents, cli.TASK_COLUMNS[task])
        source = tmp_path / "input.txt"
        source.write_text(content, encoding="utf-8")
        model_out = tmp_path / "m.bin"
        sizes = ["--set", "char_emb=3", "--set", "word_emb=4"] if mode == "neural" else []
        status = run_cli(
            ["train", "--set", f"task={task}", "--set", f"mode={mode}", *sizes,
             "--set", f"{key}={source}", "--set", f"train={corpus}",
             "--set", f"dev={corpus}", "--set", f"model_out={model_out}"]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err == f"error: train of a {mode} {task}-ZH model does not read config keys ['{key}']\n"
        assert not model_out.exists()

    def test_missing_lexicon_file_exits_2_naming_it(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.col"
        write_column_corpus(corpus, NER_SENTS, cli.TASK_COLUMNS["NER"])
        absent = tmp_path / "absent.txt"
        status = run_cli(
            ["train", "--set", "task=NER", "--set", "language=ZH", "--set", f"radical_lexicon={absent}",
             "--set", f"train={corpus}", "--set", f"dev={corpus}", "--set", f"model_out={tmp_path / 'm.bin'}"]
        )
        assert status == 2
        assert str(absent) in capsys.readouterr().err

    def test_embeddings_lowercase_reads_the_lowercased_row(self, tmp_path, caplog):
        corpus = tmp_path / "corpus.col"
        write_pos_corpus(corpus, [Sentence(tokens=["Apple", "eats"], gold_labels=["NN", "VB"]),
                                  Sentence(tokens=["apple", "falls"], gold_labels=["NN", "VB"])])
        emb = tmp_path / "words.txt"
        emb.write_text("apple 1 1 1\nAPPLE 2 2 2\neats 3 3 3\n", encoding="utf-8")
        model_out = tmp_path / "m.bin"
        with caplog.at_level(logging.WARNING):
            status = run_cli(
                ["train", "--set", "task=POS", "--set", "mode=neural", "--set", "epochs=1",
                 "--set", "word_emb=3", "--set", "char_emb=2", "--set", "word_hidden=4",
                 "--set", "embeddings_lowercase=true",
                 "--set", f"word_embeddings={emb}", "--set", f"train={corpus}",
                 "--set", f"dev={corpus}", "--set", f"model_out={model_out}"]
            )
        assert status == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"{emb}: duplicate symbol 'apple' at line 2; keeping the later vector"]
        model, _ = checkpoint.load_model(model_out)
        table = model.composer.tables["word"]
        apple = table.symbols.get("apple")
        ids, _ = model.composer.row_ids(Sentence(tokens=["Apple", "EATS", "falls"]))["word"]
        assert ids[:, 0].tolist() == [apple, table.symbols.get("eats"), table.unk_index]
        # one epoch of two AdaGrad steps moves a cell by at most 2 * eta
        np.testing.assert_allclose(table.matrix[apple], [2.0, 2.0, 2.0], atol=0.05)

    def test_non_finite_embedding_file_rejected(self, pos_setup, capsys):
        tmp_path, train, dev, sents = pos_setup
        word = sents[0].tokens[0]
        emb = tmp_path / "words.txt"
        emb.write_text(f"{word} nan 0 0 0 0\n", encoding="utf-8")
        status = run_cli(
            ["train", *TRAIN_ARGS, "--set", "mode=neural", "--set", "word_emb=5",
             "--set", f"word_embeddings={emb}",
             "--set", f"train={train}", "--set", f"dev={dev}",
             "--set", f"model_out={tmp_path/'m.bin'}"]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert str(emb) in err and "line 1" in err and repr(word) in err

    def test_embedding_header_count_mismatch_exits_2(self, pos_setup, capsys):
        tmp_path, train, dev, sents = pos_setup
        emb = tmp_path / "words.txt"
        emb.write_text(f"3 5\n{sents[0].tokens[0]} 0 0 0 0 0\n", encoding="utf-8")
        status = run_cli(
            ["train", *TRAIN_ARGS, "--set", "mode=neural", "--set", "word_emb=5",
             "--set", f"word_embeddings={emb}",
             "--set", f"train={train}", "--set", f"dev={dev}",
             "--set", f"model_out={tmp_path/'m.bin'}"]
        )
        assert status == 2
        assert f"{emb}: header declares 3 vectors, but 1 vector lines follow it" in capsys.readouterr().err

    def test_embedding_line_with_an_empty_symbol_exits_2(self, pos_setup, capsys):
        # a line starting with a space read as the symbol "", which no token looks up
        tmp_path, train, dev, sents = pos_setup
        emb = tmp_path / "words.txt"
        emb.write_text(f"{sents[0].tokens[0]} 0 0 0 0 0\n 1 0 0 0 0\n", encoding="utf-8")
        status = run_cli(
            ["train", *TRAIN_ARGS, "--set", "mode=neural", "--set", "word_emb=5",
             "--set", f"word_embeddings={emb}",
             "--set", f"train={train}", "--set", f"dev={dev}",
             "--set", f"model_out={tmp_path/'m.bin'}"]
        )
        assert status == 2
        assert f"error: {emb}: line 2: empty symbol" in capsys.readouterr().err

    @pytest.mark.parametrize("item", ["eta=nan", "eta=inf", "l2=nan", "l2=inf"])
    def test_non_finite_step_size_or_l2_exits_2(self, pos_setup, capsys, item):
        tmp_path, train, dev, _ = pos_setup
        model_out = tmp_path / "m.bin"
        status = run_cli(
            ["train", *TRAIN_ARGS, "--set", item,
             "--set", f"train={train}", "--set", f"dev={dev}", "--set", f"model_out={model_out}"]
        )
        assert status == 2
        assert f"error: {item.partition('=')[0]} must be finite" in capsys.readouterr().err
        assert not model_out.exists()

    def test_dropout_out_of_range_names_the_key(self, pos_setup, capsys):
        tmp_path, train, dev, _ = pos_setup
        status = run_cli(
            ["train", *TRAIN_ARGS, "--set", "mode=neural", "--set", "dropout=1.5",
             "--set", f"train={train}", "--set", f"dev={dev}", "--set", f"model_out={tmp_path/'m.bin'}"]
        )
        assert status == 2
        assert "error: dropout must lie in [0, 1), got 1.5" in capsys.readouterr().err

    def test_impossible_allocation_exits_2(self, pos_setup, capsys):
        # petabytes: beyond the address space, so the allocation fails at once
        tmp_path, train, dev, _ = pos_setup
        model_out = tmp_path / "m.bin"
        status = run_cli(
            ["train", *TRAIN_ARGS, "--set", "mode=neural", "--set", "word_emb=100000000000000",
             "--set", f"train={train}", "--set", f"dev={dev}", "--set", f"model_out={model_out}"]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error: memory could not be allocated: ")
        assert "PiB" in err and ", 100000000000000)" in err
        assert not model_out.exists()

    def test_diverging_run_reports_an_error(self, pos_setup, capsys):
        # finite settings whose first updates overflow the weights; the
        # AdaGrad step names the array, with no numpy warning on the way
        tmp_path, train, dev, _ = pos_setup
        model_out = tmp_path / "m.bin"
        for mode, array in (("neural", "tau"), ("discrete", "theta_out")):
            status = run_cli(
                ["train", *TRAIN_ARGS, "--set", f"mode={mode}", "--set", "eta=1e308",
                 "--set", f"train={train}", "--set", f"dev={dev}", "--set", f"model_out={model_out}"]
            )
            assert status == 2
            assert f"error: AdaGrad step made {array} non-finite" in capsys.readouterr().err
            assert not model_out.exists()

    def test_negative_seed_exits_2(self, pos_setup, capsys):
        tmp_path, train, dev, _ = pos_setup
        model_out = tmp_path / "m.bin"
        status = run_cli(
            ["train", *TRAIN_ARGS, "--set", "seed=-1",
             "--set", f"train={train}", "--set", f"dev={dev}", "--set", f"model_out={model_out}"]
        )
        assert status == 2
        assert "error: seed must be non-negative" in capsys.readouterr().err
        assert not model_out.exists()

    def test_same_seed_same_bytes(self, pos_setup):
        tmp_path, train, dev, _ = pos_setup
        blobs = []
        for tag in ("a", "b"):
            model_out = tmp_path / f"m{tag}.bin"
            summary = tmp_path / f"s{tag}.tsv"
            assert run_cli(
                ["train", *TRAIN_ARGS,
                 "--set", f"train={train}", "--set", f"dev={dev}",
                 "--set", f"model_out={model_out}", "--set", f"report_summary={summary}"]
            ) == 0
            blobs.append((model_out.read_bytes(), summary.read_bytes()))
        assert blobs[0] == blobs[1]


class TestReadTaskCorpus:
    def test_invalid_utf8_in_the_peek_names_the_file_and_line(self, tmp_path):
        # the column peek's decoder reads the whole short file at once
        path = tmp_path / "in.txt"
        path.write_bytes(b"The\n\xffcat\n")
        with pytest.raises(ValueError, match=r"in\.txt: line 2: not valid UTF-8"):
            cli.read_task_corpus(path, "POS", require_labels=False)

    @pytest.mark.parametrize("text", ["The\nCat\n\nA\n", "The\tX\nCat\tY\n", ""])
    def test_leading_bom_reads_like_the_plain_file(self, tmp_path, text):
        # the column count is peeked from the first line, where a BOM sits
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        got = cli.read_task_corpus(bom, "POS", require_labels=False)
        assert got == cli.read_task_corpus(plain, "POS", require_labels=False)
        assert [s.tokens[0] for s in got[:1]] == (["The"] if text else [])


class TestSegTokens:
    """Every SEG read goes through ``read_task_corpus``, which refuses a token of
    more than one character; the templates and the bigram table read characters."""

    def write_corpora(self, tmp_path):
        good, bad = tmp_path / "good.col", tmp_path / "bad.col"
        write_column_corpus(good, SEG_SENTS, ("token", "label"))
        bad.write_text("人\tS\n\n中国\tB\n民\tE\n", encoding="utf-8")
        return good, bad, f"error: {bad}: sentence 1: SEG token '中国' is not one character\n"

    @pytest.mark.parametrize("mode", crf.MODES)
    @pytest.mark.parametrize("corpus", ["train", "dev"])
    def test_train_exits_2_naming_file_sentence_and_token(self, tmp_path, capsys, mode, corpus):
        good, bad, message = self.write_corpora(tmp_path)
        paths = {"train": good, "dev": good, corpus: bad}
        status = run_cli(
            ["train", "--set", "task=SEG", "--set", f"mode={mode}", "--set", f"train={paths['train']}",
             "--set", f"dev={paths['dev']}", "--set", f"model_out={tmp_path / 'm.bin'}"]
        )
        assert status == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("labeled", [True, False])
    def test_predict_with_a_discrete_model_exits_2(self, tmp_path, capsys, labeled):
        good, bad, message = self.write_corpora(tmp_path)
        if not labeled:
            bad.write_text("人\n\n中国\n民\n", encoding="utf-8")
        model = trainer.build_model("discrete", "SEG", "ZH", SEG_SENTS, HyperParams())
        checkpoint.save_model(tmp_path / "m.bin", model, {"task": "SEG"})
        status = run_cli(
            ["predict", "--set", "task=SEG", "--set", f"model_in={tmp_path / 'm.bin'}",
             "--set", f"input={bad}", "--set", f"output={tmp_path / 'p.col'}"]
        )
        assert status == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "p.col").exists()

    def test_eval_exits_2(self, tmp_path, capsys):
        _, bad, message = self.write_corpora(tmp_path)
        status = run_cli(["eval", "--set", "task=SEG", "--set", f"gold={bad}", "--set", f"predictions={bad}"])
        assert status == 2
        assert capsys.readouterr().err == message

    def test_other_tasks_read_longer_tokens(self, tmp_path):
        _, bad, _ = self.write_corpora(tmp_path)
        sentences = cli.read_task_corpus(bad, "POS", require_labels=True)
        assert [s.tokens for s in sentences] == [("人",), ("中国", "民")]


class TestPredictCommand:
    def train_once(self, pos_setup):
        tmp_path, train, dev, sents = pos_setup
        model_out = tmp_path / "m.bin"
        assert run_cli(
            ["train", *TRAIN_ARGS, "--set", "epochs=8",
             "--set", f"train={train}", "--set", f"dev={dev}",
             "--set", f"model_out={model_out}"]
        ) == 0
        return tmp_path, train, model_out, sents

    def test_reproduces_gold_on_training_data(self, pos_setup):
        tmp_path, train, model_out, sents = self.train_once(pos_setup)
        out = tmp_path / "pred.col"
        assert run_cli(
            ["predict", "--set", "task=POS",
             "--set", f"model_in={model_out}", "--set", f"input={train}",
             "--set", f"output={out}"]
        ) == 0
        predicted = read_column_corpus(out)
        assert [p.gold_labels for p in predicted] == [s.gold_labels for s in sents[:15]]

    def test_unlabeled_input(self, pos_setup, tmp_path):
        _, train, model_out, sents = self.train_once(pos_setup)
        bare = tmp_path / "bare.col"
        write_column_corpus(bare, [Sentence(tokens=s.tokens) for s in sents[:3]], ("token",))
        out = tmp_path / "pred.col"
        assert run_cli(
            ["predict", "--set", "task=POS",
             "--set", f"model_in={model_out}", "--set", f"input={bare}",
             "--set", f"output={out}"]
        ) == 0
        assert len(read_column_corpus(out)) == 3

    def test_empty_input_empty_output(self, pos_setup, tmp_path):
        _, _, model_out, _ = self.train_once(pos_setup)
        empty = tmp_path / "empty.col"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "pred.col"
        assert run_cli(
            ["predict", "--set", "task=POS",
             "--set", f"model_in={model_out}", "--set", f"input={empty}",
             "--set", f"output={out}"]
        ) == 0
        assert out.read_text() == ""

    def test_input_of_another_column_count_exits_2(self, pos_setup, tmp_path, capsys):
        _, _, _, sents = pos_setup
        model_in = tmp_path / "m.bin"
        checkpoint.save_model(model_in, trainer.build_model("discrete", "POS", "EN", sents, HyperParams()), {})
        wide = tmp_path / "wide.col"
        write_column_corpus(wide, NER_SENTS, ("token", "aux", "label"))
        out = tmp_path / "pred.col"
        assert run_cli(
            ["predict", "--set", "task=POS", "--set", f"model_in={model_in}",
             "--set", f"input={wide}", "--set", f"output={out}"]
        ) == 2
        assert capsys.readouterr().err == f"error: {wide}: cannot map 3 columns onto task POS\n"
        assert not out.exists()

    def test_task_mismatch_rejected(self, pos_setup, capsys):
        tmp_path, train, model_out, _ = self.train_once(pos_setup)
        out = tmp_path / "pred.col"
        status = run_cli(
            ["predict", "--set", "task=SEG",
             "--set", f"model_in={model_out}", "--set", f"input={train}",
             "--set", f"output={out}"]
        )
        assert status == 2

    def test_corrupted_checkpoint_diagnostics(self, pos_setup, tmp_path, capsys):
        _, train, model_out, _ = self.train_once(pos_setup)
        blob = model_out.read_bytes()
        v1 = blob[:4] + (1).to_bytes(4, "little") + blob[8:]
        cases = ((b"XXXX" + blob[4:], "magic"), (blob[:6], "prefix"), (v1, "format version 1"))
        for contents, message in cases:
            corrupt = tmp_path / "bad.bin"
            corrupt.write_bytes(contents)
            status = run_cli(
                ["predict", "--set", "task=POS",
                 "--set", f"model_in={corrupt}", "--set", f"input={train}",
                 "--set", f"output={tmp_path/'p.col'}"]
            )
            assert status == 2
            assert message in capsys.readouterr().err


class TestEvalCommand:
    def test_identical_files_perfect(self, pos_setup, capsys):
        tmp_path, train, _, _ = pos_setup
        assert run_cli(
            ["eval", "--set", "task=POS",
             "--set", f"gold={train}", "--set", f"predictions={train}"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["accuracy"] == 1.0

    def test_misaligned_rejected(self, pos_setup, tmp_path, capsys):
        _, train, _, sents = pos_setup
        other = tmp_path / "other.col"
        write_pos_corpus(other, sents[:3])
        assert run_cli(
            ["eval", "--set", "task=POS",
             "--set", f"gold={train}", "--set", f"predictions={other}"]
        ) == 2
        err = capsys.readouterr().err
        assert f"gold {train} and predictions {other} do not align" in err
        assert "15 sentences against 3" in err

    def test_different_tokens_name_the_sentence(self, tmp_path, capsys):
        gold = [Sentence(["a", "b"], ["X", "Y"]), Sentence(["c"], ["X"]), Sentence(["d"], ["Y"])]
        pred = [gold[0], Sentence(["e"], ["X"]), Sentence(["f"], ["Y"])]
        gold_path, pred_path = tmp_path / "gold.col", tmp_path / "pred.col"
        write_pos_corpus(gold_path, gold)
        write_pos_corpus(pred_path, pred)
        assert run_cli(
            ["eval", "--set", "task=POS",
             "--set", f"gold={gold_path}", "--set", f"predictions={pred_path}"]
        ) == 2
        err = capsys.readouterr().err
        assert f"gold {gold_path} and predictions {pred_path} do not align" in err
        assert "the tokens of sentence 1 differ" in err

    # Hand-counted spans.  SEG: gold AB|C|DE FG H|IJ against AB|CDE F|G H|IJ,
    # the last repaired from S I I.  NER: gold PER John Smith, LOC New York;
    # ORG Acme, PER Mary.  Predicted: the PER, New and York as two LOC; ORG Acme
    # from an orphan I, and Mary as LOC from a B left open at the end.
    @pytest.mark.parametrize(
        "task, settings, counted, gold, pred, counts",
        [
            (
                "SEG", [], "BIES",
                [Sentence("ABCDE", "BESBE"), Sentence("FG", "BE"), Sentence("HIJ", "SBE")],
                [Sentence("ABCDE", "BEBIE"), Sentence("FG", "SS"), Sentence("HIJ", "SII")],
                (3, 6, 6),
            ),
            (
                "NER", ["--set", "scheme=BIOES"], "BIOES",
                [
                    Sentence(
                        ["John", "Smith", "lives", "in", "New", "York"],
                        ["B-PER", "E-PER", "O", "O", "B-LOC", "E-LOC"],
                        ["NNP", "NNP", "VBZ", "IN", "NNP", "NNP"],
                    ),
                    Sentence(["Acme", "hired", "Mary"], ["S-ORG", "O", "S-PER"], ["NNP", "VBD", "NNP"]),
                ],
                [
                    Sentence(
                        ["John", "Smith", "lives", "in", "New", "York"],
                        ["B-PER", "E-PER", "O", "O", "S-LOC", "S-LOC"],
                        ["NNP", "NNP", "VBZ", "IN", "NNP", "NNP"],
                    ),
                    Sentence(["Acme", "hired", "Mary"], ["I-ORG", "O", "B-LOC"], ["NNP", "VBD", "NNP"]),
                ],
                (2, 5, 4),
            ),
        ],
    )
    def test_span_counts(self, tmp_path, capsys, task, settings, counted, gold, pred, counts):
        columns = cli.TASK_COLUMNS[task]
        gold_path, pred_path = tmp_path / "gold.col", tmp_path / "pred.col"
        write_column_corpus(gold_path, gold, columns)
        write_column_corpus(pred_path, pred, columns)
        assert run_cli(
            ["eval", "--set", f"task={task}", *settings,
             "--set", f"gold={gold_path}", "--set", f"predictions={pred_path}"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        tp, predicted, gold_count = counts
        assert (record["metric"], record["scheme"]) == ("span_f1", counted)
        assert (record["tp"], record["predicted"], record["gold"]) == counts
        assert record["precision"] == tp / predicted and record["recall"] == tp / gold_count


class TestCompareCommand:
    def test_self_comparison_is_diagonal(self, pos_setup, tmp_path):
        tmp, train, dev, _ = pos_setup
        model_out = tmp / "m.bin"
        assert run_cli(
            ["train", *TRAIN_ARGS,
             "--set", f"train={train}", "--set", f"dev={dev}",
             "--set", f"model_out={model_out}"]
        ) == 0
        out = tmp_path / "cmp.tsv"
        assert run_cli(
            ["compare", "--set", "task=POS",
             "--set", f"model_a={model_out}", "--set", f"model_b={model_out}",
             "--set", f"input={dev}", "--set", f"compare_out={out}"]
        ) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert rows and all(a == b for _, a, b in rows)


class TestCheckpointMeta:
    @pytest.mark.parametrize("command", ["predict", "compare"])
    @pytest.mark.parametrize(
        "meta,message",
        [({"task": "POS"}, "was trained for task SEG, not POS"), (5, "meta is not a JSON object")],
        ids=["mismatched_task", "int"],
    )
    def test_bad_meta_exits_2(self, pos_setup, tmp_path, capsys, command, meta, message):
        # a SEG model: the task comes from the model, never from the meta
        _, train, _, _ = pos_setup
        model = trainer.build_model("discrete", "SEG", "ZH", SEG_SENTS, HyperParams())
        path = tmp_path / "m.bin"
        checkpoint.save_model(path, model, {})
        blob = path.read_bytes()
        header, data = split_checkpoint(blob)
        header["meta"] = meta  # save_model refuses a meta that is not an object
        path.write_bytes(join_checkpoint(header, data, blob))
        if command == "predict":
            paths = [f"model_in={path}", f"output={tmp_path / 'p.col'}"]
        else:
            paths = [f"model_a={path}", f"model_b={path}", f"compare_out={tmp_path / 'c.tsv'}"]
        args = [command, "--set", "task=POS", "--set", f"input={train}"]
        for item in paths:
            args += ["--set", item]
        assert run_cli(args) == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize(
        "task,settings,scheme",
        [("SEG", [], None), ("POS", [], None), ("NER", [], "BIO"), ("NER", ["--set", "scheme=BIOES"], "BIOES")],
        ids=["SEG", "POS", "NER", "NER-BIOES"],
    )
    def test_train_writes_the_scheme_for_NER_only(self, tmp_path, task, settings, scheme):
        path = tmp_path / "data.col"
        write_column_corpus(path, NER_SENTS if task == "NER" else SEG_SENTS, cli.TASK_COLUMNS[task])
        model_out = tmp_path / "m.bin"
        assert run_cli(
            ["train", "--set", f"task={task}", "--set", "epochs=1", *settings,
             "--set", f"train={path}", "--set", f"dev={path}", "--set", f"model_out={model_out}"]
        ) == 0
        _, meta = checkpoint.load_model(model_out)
        assert meta.get("scheme") == scheme
        assert set(meta) == {"task", "language", "hypers"} | ({"scheme"} if scheme else set())
        assert meta["hypers"] == dataclasses.asdict(HyperParams(epochs=1))

    @pytest.mark.parametrize("mode", crf.MODES)
    def test_a_meta_without_task_loads_by_the_models_task(self, tmp_path, mode):
        model = untrained_ner(mode)
        path = tmp_path / "m.bin"
        checkpoint.save_model(path, model, {})
        write_column_corpus(tmp_path / "in.col", NER_SENTS, ("token", "aux", "label"))
        assert run_cli(
            ["predict", "--set", "task=NER", "--set", f"model_in={path}",
             "--set", f"input={tmp_path / 'in.col'}", "--set", f"output={tmp_path / 'p.col'}"]
        ) == 0
        assert len(read_column_corpus(tmp_path / "p.col", ("token", "aux", "label"))) == len(NER_SENTS)

    @pytest.mark.parametrize("meta", [5, None, ["task", "POS"], "POS"])
    def test_save_refuses_meta_that_is_not_an_object(self, pos_setup, tmp_path, meta):
        _, _, _, sents = pos_setup
        model = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
        path = tmp_path / "m.bin"
        with pytest.raises(ValueError, match="meta"):
            checkpoint.save_model(path, model, meta)
        assert not path.exists()


GRADCHECK_CLASSES = {
    "discrete": {"theta_out", "theta_edge"},
    "neural": {"theta_dense", "tau", "lstm_weights", "lstm_biases", "embeddings"},
}
GRADCHECK_CLASSES["joint"] = GRADCHECK_CLASSES["discrete"] | GRADCHECK_CLASSES["neural"]


class TestGradcheckCommand:
    @pytest.mark.parametrize("mode", crf.MODES)
    def test_passes_and_reports(self, mode, capsys):
        assert run_cli(["gradcheck", "--set", f"mode={mode}", "--set", "seed=1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["passed"] is True
        assert set(record["max_rel_err"]) >= GRADCHECK_CLASSES[mode]
        assert all(v < record["tolerance"] for v in record["max_rel_err"].values())

    @pytest.mark.parametrize(
        "item",
        ["gc_eps=0", "gc_eps=-1e-4", "gc_eps=nan", "gc_eps=inf",
         "gc_tolerance=-1", "gc_tolerance=nan", "gc_tolerance=inf"],
    )
    def test_bad_step_or_tolerance_exits_2(self, item, capsys):
        # the step and the tolerance are fixed at 1e-4: no value of either key is read
        assert run_cli(["gradcheck", "--set", "mode=neural", "--set", item]) == 2
        out = capsys.readouterr()
        assert out.err == f"error: unknown config keys: ['{item.partition('=')[0]}']\n"
        assert out.out == ""


    def test_negative_seed_exits_2(self, capsys):
        assert run_cli(["gradcheck", "--set", "mode=neural", "--set", "seed=-1"]) == 2
        out = capsys.readouterr()
        assert "error: seed must be non-negative" in out.err
        assert out.out == ""


def split_checkpoint(blob):
    """(header dict, array bytes) of a saved checkpoint; the prefix is 16 bytes."""
    end = 16 + int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16:end]), blob[end:]


def join_checkpoint(header, data, prefix):
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return prefix[:8] + len(text).to_bytes(8, "little") + text + data


def drop_theta_edge(blob):
    header, data = split_checkpoint(blob)
    out_entry, edge_entry = header["arrays"][:2]
    assert (out_entry["name"], edge_entry["name"]) == ("theta_out", "theta_edge")
    start = 8 * math.prod(out_entry["shape"])
    end = start + 8 * math.prod(edge_entry["shape"])
    del header["arrays"][1]
    return join_checkpoint(header, data[:start] + data[end:], blob)


def nan_in_array(blob, name):
    """The checkpoint with the first value of array ``name`` set to NaN."""
    header, data = split_checkpoint(blob)
    start = 0
    for entry in header["arrays"]:
        if entry["name"] == name:
            break
        start += 8 * math.prod(entry["shape"])
    else:
        raise KeyError(name)
    nan = np.array([np.nan], dtype="<f8").tobytes()
    return blob[: len(blob) - len(data)] + data[:start] + nan + data[start + 8 :]


def drop_labels(blob):
    header, data = split_checkpoint(blob)
    del header["labels"]
    return join_checkpoint(header, data, blob)


def huge_table_dim(blob):
    header, data = split_checkpoint(blob)
    header["tables"][0]["dim"] = 10**12
    return join_checkpoint(header, data, blob)


def overlong_header(blob):
    return blob[:8] + len(blob).to_bytes(8, "little") + blob[16:]


MANIFESTS = {
    "discrete": ["theta_out", "theta_edge"],
    "neural": [
        "lstm.w_fwd", "lstm.u_fwd", "lstm.b_fwd", "lstm.w_bwd", "lstm.u_bwd", "lstm.b_bwd",
        "theta_dense", "tau", "emb.word", "emb.char",
    ],
    "joint": [
        "theta_out", "theta_edge",
        "lstm.w_fwd", "lstm.u_fwd", "lstm.b_fwd", "lstm.w_bwd", "lstm.u_bwd", "lstm.b_bwd",
        "theta_dense", "tau", "emb.word", "emb.char", "tau_weight",
    ],
}


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("mode", sorted(MANIFESTS))
    def test_manifest_order_pinned(self, tmp_path, mode):
        sents = synthetic.separable_corpus(5, seed=1)
        h = HyperParams(word_hidden=8, char_emb=3, word_emb=4)
        model = trainer.build_model(mode, "POS", "EN", sents, h)
        assert [name for name, _ in model.named_arrays()] == MANIFESTS[mode]
        path = tmp_path / "m.bin"
        checkpoint.save_model(path, model, {})
        header, _ = split_checkpoint(path.read_bytes())
        assert [entry["name"] for entry in header["arrays"]] == MANIFESTS[mode]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda blob: blob[:6],
            lambda blob: blob + b"\0",
            drop_theta_edge,
            drop_labels,
            huge_table_dim,
            overlong_header,
            lambda blob: nan_in_array(blob, "emb.word"),
        ],
        ids=["six_bytes", "trailing_byte", "manifest_without_theta_edge", "header_without_labels",
             "huge_table_dim", "header_past_end", "nan_in_array_data"],
    )
    def test_malformed_file_rejected(self, tmp_path, mutate):
        sents = synthetic.separable_corpus(5, seed=1)
        h = HyperParams(word_hidden=8, char_emb=3, word_emb=4)
        model = trainer.build_model("joint", "POS", "EN", sents, h)
        path = tmp_path / "m.bin"
        checkpoint.save_model(path, model, {"task": "POS"})
        bad = tmp_path / "bad.bin"
        bad.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load_model(bad)

    def test_decode_identical_after_reload(self, tmp_path):
        sents = synthetic.separable_corpus(10, seed=33)
        h = HyperParams(word_hidden=8, char_emb=3, word_emb=5, epochs=2, seed=2)
        model = trainer.build_model("joint", "POS", "EN", sents, h)
        best, _ = trainer.train(model, sents, sents, h, "POS")
        path = tmp_path / "m.bin"
        checkpoint.save_model(path, best, {"task": "POS"})
        reloaded, meta = checkpoint.load_model(path)
        assert meta == {"task": "POS"}
        rng = np.random.default_rng(5)
        vocab = [t for s in sents for t in s.tokens]
        for _ in range(30):
            toks = list(rng.choice(vocab, size=int(rng.integers(1, 9))))
            sent = Sentence(tokens=toks)
            a = crf.viterbi(crf.build_lattice(best, sent))
            b = crf.viterbi(crf.build_lattice(reloaded, sent))
            assert np.array_equal(a.labels, b.labels)
            assert a.score == b.score

    @pytest.mark.parametrize("mode,array", [("neural", "emb.word"), ("discrete", "theta_out")])
    def test_predict_rejects_non_finite_array(self, pos_setup, tmp_path, capsys, mode, array):
        _, train, _, sents = pos_setup
        h = HyperParams(word_hidden=8, char_emb=3, word_emb=4)
        model = trainer.build_model(mode, "POS", "EN", sents, h)
        path = tmp_path / "m.bin"
        checkpoint.save_model(path, model, {"task": "POS"})
        bad = tmp_path / "bad.bin"
        bad.write_bytes(nan_in_array(path.read_bytes(), array))
        status = run_cli(
            ["predict", "--set", "task=POS",
             "--set", f"model_in={bad}", "--set", f"input={train}",
             "--set", f"output={tmp_path/'p.col'}"]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert array in err and "non-finite" in err

    def test_truncated_file_rejected(self, tmp_path):
        sents = synthetic.separable_corpus(5, seed=1)
        model = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
        path = tmp_path / "m.bin"
        checkpoint.save_model(path, model, {"task": "POS"})
        blob = path.read_bytes()
        (tmp_path / "t.bin").write_bytes(blob[: len(blob) - 16])
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load_model(tmp_path / "t.bin")

    def test_version_diagnostics(self, tmp_path):
        sents = synthetic.separable_corpus(5, seed=1)
        model = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
        path = tmp_path / "m.bin"
        checkpoint.save_model(path, model, {"task": "POS"})
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # bump the version field
        (tmp_path / "v.bin").write_bytes(bytes(blob))
        with pytest.raises(checkpoint.CheckpointError, match="version"):
            checkpoint.load_model(tmp_path / "v.bin")


NER_SENTS = [
    Sentence(tokens=["EU", "rejects", "German", "call"], aux_tags=["NNP", "VBZ", "JJ", "NN"],
             gold_labels=["B-ORG", "O", "B-MISC", "O"]),
    Sentence(tokens=["Peter", "Blackburn"], aux_tags=["NNP", "NNP"],
             gold_labels=["B-PER", "I-PER"]),
]
NER_PROBES = NER_SENTS + [Sentence(tokens=["Unseen", "words"], aux_tags=["NNP", "XX"])]


def untrained_ner(mode):
    """A small NER model; the discrete and joint ones read a cluster lexicon."""
    h = HyperParams(word_hidden=4, char_emb=2, word_emb=3, pos_emb=2)
    clusters = None if mode == "neural" else {"EU": "0110", "German": "1011"}
    return trainer.build_model(mode, "NER", "EN", NER_SENTS, h, cluster_lexicon=clusters)


@functools.lru_cache(maxsize=None)
def ner_checkpoint(mode, directory):
    """The bytes of a small saved NER model whose weights are all nonzero."""
    model = untrained_ner(mode)
    rng = np.random.default_rng(1)
    for _, arr in model.named_arrays():
        arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    path = directory / f"{mode}.bin"
    checkpoint.save_model(path, model, {"task": "NER"})
    return path.read_bytes()


# sha256 of the untrained NER model's checkpoint, per mode: pins the id order
# of the labels, the contexts and every table's symbols.  Fixed before those
# maps became one ``corpus.Alphabet``; no BLAS call is involved.  The neural
# and joint files were re-pinned when the tables lost their ``fine_tune``
# entry, and all three when the header lost ``"dropout_p":0.25,``; their
# arrays and the rest of their headers are unchanged.
UNTRAINED_NER_SHA256 = {
    "discrete": "6164d0f00d6c2c9f6d79324f283d33456045f6b6953d2d7890daa20a7e186b03",
    "joint": "b34d0edbaad97bab8c22ecc683ddfbf0762d6f4adc86c1ec0743defc769fa19b",
    "neural": "cea9729d10d97e9de4b5187895440a6901f047f2f7813efba8b743b02f16e66a",
}


class TestCheckpointBytes:
    @pytest.mark.parametrize("mode", crf.MODES)
    def test_untrained_model_bytes_pinned(self, tmp_path, mode):
        path = tmp_path / "m.bin"
        checkpoint.save_model(path, untrained_ner(mode), {"task": "NER"})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == UNTRAINED_NER_SHA256[mode]

    def test_predict_on_an_empty_aux_field_names_the_input_line(self, tmp_path, capsys):
        model = tmp_path / "m.bin"
        model.write_bytes(ner_checkpoint("discrete", tmp_path))
        source = tmp_path / "in.col"
        source.write_text(
            "EU\tNNP\tS-ORG\n\nPeter\tNNP\tB-PER\nBlackburn\t\tE-PER\n", encoding="utf-8"
        )
        status = run_cli(
            ["predict", "--set", "task=NER", "--set", f"model_in={model}",
             "--set", f"input={source}", "--set", f"output={tmp_path/'p.col'}"]
        )
        assert status == 2
        assert f"error: {source}: line 4: empty aux" in capsys.readouterr().err
        assert not (tmp_path / "p.col").exists()


def header_end(blob):
    return 16 + int.from_bytes(blob[8:16], "little")


class TestCheckpointFuzz:
    @given(mode=st.sampled_from(crf.MODES), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncation_at_any_offset_rejected(self, tmp_path_factory, mode, data):
        blob = ner_checkpoint(mode, tmp_path_factory.getbasetemp())
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
        path.write_bytes(blob[:cut])
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load_model(path)

    @given(mode=st.sampled_from(crf.MODES), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_header_byte_replaced_rejected_or_usable(self, tmp_path_factory, mode, data):
        blob = ner_checkpoint(mode, tmp_path_factory.getbasetemp())
        at = data.draw(st.integers(0, header_end(blob) - 1), label="offset")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[at]), label="value")
        path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
        path.write_bytes(blob[:at] + bytes([value]) + blob[at + 1 :])
        try:
            model, _ = checkpoint.load_model(path)
        except checkpoint.CheckpointError:
            return
        model.validate()
        for labels, sent in zip(trainer.predict_labels(model, NER_PROBES), NER_PROBES):
            assert len(labels) == len(sent) and all(l in model.labels for l in labels)


def header_paths(value, path=()):
    """Paths into a JSON value, through the first and the last entry of each list."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = sorted({0, len(value) - 1}) if value else []
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from header_paths(value[key], path + (key,))


def with_header(blob, header):
    """``blob`` with its JSON header replaced by ``header``."""
    raw = json.dumps(header).encode("utf-8")
    return blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[header_end(blob) :]


def json_kind(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.floats(), st.text(max_size=3)
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=3),
)


class TestCheckpointHeaderRepeats:
    """A repeated label or context would shift every later id; the alphabet
    would drop it and still match the manifest, so the load refuses it."""

    @staticmethod
    def repeated(tmp_path, key):
        sents = synthetic.separable_corpus(5, seed=1)
        model = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
        path = tmp_path / "m.bin"
        checkpoint.save_model(path, model, {"task": "POS"})
        blob = path.read_bytes()
        header = json.loads(blob[16 : header_end(blob)])
        header[key].insert(0, header[key][0])
        bad = tmp_path / "bad.bin"
        bad.write_bytes(with_header(blob, header))
        return bad, header[key][0]

    @pytest.mark.parametrize("key", ["labels", "contexts"])
    def test_load_names_the_key_and_the_string(self, tmp_path, key):
        bad, repeat = self.repeated(tmp_path, key)
        with pytest.raises(checkpoint.CheckpointError) as err:
            checkpoint.load_model(bad)
        assert f"header {key} has duplicate symbols: {repeat!r} repeats" in str(err.value)

    @pytest.mark.parametrize("key", ["labels", "contexts"])
    def test_predict_exits_2(self, pos_setup, tmp_path, capsys, key):
        _, train, _, _ = pos_setup
        bad, repeat = self.repeated(tmp_path, key)
        status = run_cli(
            ["predict", "--set", "task=POS", "--set", f"model_in={bad}",
             "--set", f"input={train}", "--set", f"output={tmp_path/'p.col'}"]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert "bad.bin" in err and f"header {key} has duplicate symbols: {repeat!r} repeats" in err


# a POS-EN word bigram context, renderable from ("a~b", "c") and ("a", "b~c")
EXTRA_SEPARATOR = "T2[-1,0]=a~b~c"
# contexts no POS-EN template renders: no ``=``, an unknown prefix, too few ``~``
FOREIGN = ["no equals sign", "T99[0]=x", "T2[-1,0]=a"]


class TestCheckpointForeignContexts:
    """Header contexts that no template renders (no ``=``, an unknown prefix,
    too few ``~`` for the join) would hold rows no key reaches, so the load
    refuses them; one with more ``~`` than the join has parts loads and is
    reached only by the values that render it."""

    ADDED = [(9, EXTRA_SEPARATOR)]

    @classmethod
    def saved(cls, path):
        sents = synthetic.separable_corpus(5, seed=1)
        built = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
        strings = built.out_alphabet.strings()
        for k, s in cls.ADDED:
            strings.insert(k, s)
        model = crf.ModelParams.create(
            "discrete", built.labels, out_alphabet=ContextAlphabet(built.out_alphabet.templates, strings)
        )
        rng = np.random.default_rng(3)
        for _, arr in model.named_arrays():
            arr[...] = rng.normal(size=arr.shape)
        checkpoint.save_model(path, model, {"task": "POS"})
        return model

    def test_load_keeps_ids_and_rows_and_saves_the_same_bytes(self, tmp_path):
        model = self.saved(tmp_path / "a.bin")
        loaded, _ = checkpoint.load_model(tmp_path / "a.bin")
        strings = loaded.out_alphabet.strings()
        assert strings == model.out_alphabet.strings()
        assert [strings[k] for k, _ in self.ADDED] == [s for _, s in self.ADDED]
        assert loaded.theta_out.tobytes() == model.theta_out.tobytes()
        checkpoint.save_model(tmp_path / "b.bin", loaded, {"task": "POS"})
        assert (tmp_path / "b.bin").read_bytes() == (tmp_path / "a.bin").read_bytes()

    def test_foreign_contexts_match_nothing(self, tmp_path):
        # values spelled like the refused strings reach no context
        model = self.saved(tmp_path / "a.bin")
        loaded, _ = checkpoint.load_model(tmp_path / "a.bin")
        column = [prefix for _, prefix, _ in model.out_alphabet.templates.groups].index("T2[-1,0]=")
        probes = {
            ("a~b", "c"): 9, ("a", "b~c"): 9, ("a", "b"): -1, ("a~b~c", "x"): -1,
            ("no", "equals", "sign"): -1, ("x", "a"): -1, ("T99[0]=x", "a"): -1,
        }
        for m in (model, loaded):
            for tokens, extra in probes.items():
                ids, _ = crf.sentence_ids(m, Sentence(tokens=tokens)).contexts
                assert ids[1, column] == extra, tokens

    @classmethod
    def with_context(cls, tmp_path, s):
        """The saved model, and its file with ``s`` inserted at context id 12
        and a ``theta_out`` row for it."""
        model = cls.saved(tmp_path / "a.bin")
        blob = (tmp_path / "a.bin").read_bytes()
        header = json.loads(blob[16 : header_end(blob)])
        header["contexts"].insert(12, s)
        header["arrays"][0]["shape"][0] += 1
        row, at = 8 * len(model.labels), header_end(blob) + 12 * 8 * len(model.labels)
        path = tmp_path / "bad.bin"
        path.write_bytes(with_header(blob[:at] + bytes(row) + blob[at:], header))
        return model, path

    @pytest.mark.parametrize("foreign", FOREIGN)
    def test_a_context_no_template_renders_is_refused(self, pos_setup, tmp_path, capsys, foreign):
        model, bad = self.with_context(tmp_path, foreign)
        with pytest.raises(ValueError, match=f"^contexts: no template renders {re.escape(repr(foreign))}$"):
            ContextAlphabet(model.out_alphabet.templates, [*model.out_alphabet.strings(), foreign])
        message = f"header contexts: no template renders {foreign!r}"
        with pytest.raises(checkpoint.CheckpointError) as err:
            checkpoint.load_model(bad)
        assert str(bad) in str(err.value) and message in str(err.value)
        _, corpus, _, _ = pos_setup
        status = run_cli(
            ["predict", "--set", "task=POS", "--set", f"model_in={bad}",
             "--set", f"input={corpus}", "--set", f"output={tmp_path/'p.col'}"]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert str(bad) in err and message in err
        assert not (tmp_path / "p.col").exists()

    def test_the_same_file_with_a_context_the_templates_render_loads(self, tmp_path):
        _, path = self.with_context(tmp_path, "T2[-1,0]=x~y~z")
        loaded, _ = checkpoint.load_model(path)
        assert loaded.out_alphabet.strings()[12] == "T2[-1,0]=x~y~z"
        assert not loaded.theta_out[12].any()

    @pytest.mark.parametrize("repeat", [*FOREIGN, EXTRA_SEPARATOR])
    def test_a_repeat_is_refused(self, tmp_path, repeat):
        # a repeated string no template renders is refused for that first
        self.saved(tmp_path / "a.bin")
        blob = (tmp_path / "a.bin").read_bytes()
        header = json.loads(blob[16 : header_end(blob)])
        header["contexts"][12:12] = [repeat, repeat]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(with_header(blob, header))
        with pytest.raises(checkpoint.CheckpointError) as err:
            checkpoint.load_model(bad)
        if repeat in FOREIGN:
            assert f"header contexts: no template renders {repeat!r}" in str(err.value)
        else:
            assert f"header contexts has duplicate symbols: {repeat!r} repeats" in str(err.value)


class TestCheckpointFineTuneEntry:
    """Files written before every table was fine-tuned carry a ``fine_tune``
    entry per table; the load ignores it."""

    @pytest.mark.parametrize("mode", ["neural", "joint"])
    @pytest.mark.parametrize("value", [True, False])
    def test_an_old_entry_is_ignored(self, tmp_path, mode, value):
        blob = ner_checkpoint(mode, tmp_path)
        header = json.loads(blob[16 : header_end(blob)])
        for spec in header["tables"]:
            spec["fine_tune"] = value
        old = tmp_path / "old.bin"
        old.write_bytes(with_header(blob, header))
        model, _ = checkpoint.load_model(tmp_path / f"{mode}.bin")
        loaded, _ = checkpoint.load_model(old)
        assert [a.tobytes() for _, a in loaded.named_arrays()] == [a.tobytes() for _, a in model.named_arrays()]
        assert trainer.predict_labels(loaded, NER_PROBES) == trainer.predict_labels(model, NER_PROBES)


class TestCheckpointDropoutEntry:
    """Dropout is a setting of the training pass: a header carries no rate,
    and the load ignores the ``dropout_p`` entry of files written before."""

    @pytest.mark.parametrize("mode", crf.MODES)
    @pytest.mark.parametrize("value", [None, 0.25, 0.5])  # None: no entry
    def test_loads_with_or_without_an_entry(self, tmp_path, mode, value):
        blob = ner_checkpoint(mode, tmp_path)
        header = json.loads(blob[16 : header_end(blob)])
        header.pop("dropout_p", None)
        if value is not None:
            header["dropout_p"] = value
        edited = tmp_path / "edited.bin"
        edited.write_bytes(with_header(blob, header))
        model, _ = checkpoint.load_model(tmp_path / f"{mode}.bin")
        loaded, _ = checkpoint.load_model(edited)
        assert [a.tobytes() for _, a in loaded.named_arrays()] == [a.tobytes() for _, a in model.named_arrays()]
        assert trainer.predict_labels(loaded, NER_PROBES) == trainer.predict_labels(model, NER_PROBES)


class TestCheckpointHeaderTypes:
    @given(mode=st.sampled_from(crf.MODES), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_value_of_another_type_rejected_or_usable(self, tmp_path_factory, mode, data):
        base = tmp_path_factory.getbasetemp()
        blob = ner_checkpoint(mode, base)
        header = json.loads(blob[16 : header_end(blob)])
        path = data.draw(st.sampled_from(list(header_paths(header))), label="path")
        node = header
        for key in path[:-1]:
            node = node[key]
        kind = json_kind(node[path[-1]])
        node[path[-1]] = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) != kind), label="value")
        fuzzed = base / "fuzzed.bin"
        fuzzed.write_bytes(with_header(blob, header))
        try:
            model, _ = checkpoint.load_model(fuzzed)
        except checkpoint.CheckpointError:
            return
        predictions = trainer.predict_labels(model, NER_PROBES)
        assert all(l in model.labels for labels in predictions for l in labels)
        labeled = [
            Sentence(tokens=s.tokens, gold_labels=labels, aux_tags=s.aux_tags)
            for s, labels in zip(NER_PROBES, predictions)
        ]
        write_column_corpus(base / "fuzzed.col", labeled, ("token", "aux", "label"))

    @pytest.mark.parametrize(
        "key,edit",
        [
            ("labels", lambda h: h.update(labels=[1, 2] + h["labels"][2:])),
            ("templates.cluster_lexicon", lambda h: h["templates"].update(cluster_lexicon=["Ann"])),
            ("contexts", lambda h: h.update(contexts=list(range(len(h["contexts"]))))),
            ("tables[0].lowercase", lambda h: h["tables"][0].update(lowercase="no")),
            ("composer_task", lambda h: h.update(composer_task=["NER"])),
        ],
    )
    def test_predict_names_the_key(self, tmp_path, capsys, key, edit):
        blob = ner_checkpoint("joint", tmp_path)
        header = json.loads(blob[16 : header_end(blob)])
        edit(header)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(with_header(blob, header))
        write_column_corpus(tmp_path / "in.col", NER_SENTS, ("token", "aux", "label"))
        status = run_cli(
            ["predict", "--set", "task=NER", "--set", f"model_in={bad}",
             "--set", f"input={tmp_path/'in.col'}", "--set", f"output={tmp_path/'p.col'}"]
        )
        assert status == 2
        assert f"header {key} must be" in capsys.readouterr().err


class TestCheckpointTables:
    """A header's ``tables`` keys are exactly its composer task's tables, in order."""

    @pytest.mark.parametrize("mode", ["neural", "joint"])
    @pytest.mark.parametrize(
        "edit,keys",
        [
            (lambda t: t.append({**t[0], "key": "bigram"}), ["word", "char", "pos", "bigram"]),
            (lambda t: t.append(dict(t[0])), ["word", "char", "pos", "word"]),
            (lambda t: t.reverse(), ["pos", "char", "word"]),
            (lambda t: t.pop(), ["word", "char"]),
        ],
        ids=["extra_bigram", "repeated_word", "reordered", "missing_pos"],
    )
    def test_load_names_both_key_lists(self, tmp_path, capsys, mode, edit, keys):
        blob = ner_checkpoint(mode, tmp_path)
        header = json.loads(blob[16 : header_end(blob)])
        edit(header["tables"])
        bad = tmp_path / "bad.bin"
        bad.write_bytes(with_header(blob, header))
        message = f"header tables keys must be the NER tables ['word', 'char', 'pos'], not {keys}"
        with pytest.raises(checkpoint.CheckpointError, match=re.escape(f"{bad}: {message}")):
            checkpoint.load_model(bad)
        write_column_corpus(tmp_path / "in.col", NER_SENTS, ("token", "aux", "label"))
        status = run_cli(
            ["predict", "--set", "task=NER", "--set", f"model_in={bad}",
             "--set", f"input={tmp_path/'in.col'}", "--set", f"output={tmp_path/'p.col'}"]
        )
        assert status == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_joint_templates_and_composer_of_two_tasks_rejected(self, tmp_path):
        blob = ner_checkpoint("joint", tmp_path)
        header = json.loads(blob[16 : header_end(blob)])
        header["templates"]["task"] = "POS"
        header["contexts"] = []  # no POS template renders the NER contexts
        bad = tmp_path / "bad.bin"
        bad.write_bytes(with_header(blob, header))
        with pytest.raises(checkpoint.CheckpointError, match="one task, got POS and NER"):
            checkpoint.load_model(bad)
