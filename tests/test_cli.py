import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic
from seqlab import checkpoint, cli, crf, trainer
from seqlab.corpus import Sentence, read_column_corpus, write_column_corpus
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


TRAIN_ARGS = [
    "--set", "task=POS", "--set", "language=EN", "--set", "mode=discrete",
    "--set", "epochs=4", "--set", "seed=3",
]


class TestConfig:
    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task = POS\nmode = discrete\n# comment\nepochs=7\n", encoding="utf-8")
        config = cli.RunConfig.load(cfg, ["epochs=9", "seed=4"])
        assert config.task == "POS"
        assert config.values["epochs"] == 9
        assert config.values["seed"] == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.load(None, ["no_such_key=1"])

    def test_bad_value_types(self):
        with pytest.raises(ValueError):
            cli.RunConfig.load(None, ["epochs=three"])
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.load(None, ["shuffle=maybe"])

    @pytest.mark.parametrize("item,key", [("epochs=x", "epochs"), ("eta=fast", "eta")])
    def test_bad_number_names_its_key(self, item, key, capsys):
        assert run_cli(["gradcheck", "--set", item]) == 2
        err = capsys.readouterr().err
        assert key in err and "invalid literal" not in err

    def test_repeated_key_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task=NER\nepochs=2\ntask=POS\n", encoding="utf-8")
        assert run_cli(["train", "--config", str(cfg)]) == 2
        assert f"error: {cfg}: line 3: key 'task' is set twice" in capsys.readouterr().err

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
        assert cli.RunConfig.load(bom).task == "POS"

    def test_hypers_override(self):
        config = cli.RunConfig.load(None, ["eta=0.1", "dropout=0.5", "l2=0.0"])
        h = config.hypers()
        assert (h.eta, h.dropout_p, h.l2) == (0.1, 0.5, 0.0)

    def test_every_hyperparameter_key_reaches_hypers(self):
        overrides = ["dropout=0.5", "word_hidden=8", "char_emb=3", "word_emb=4", "pos_emb=2",
                     "fine_tune_words=false", "fine_tune_chars=false", "eta=0.5", "l2=0.25",
                     "epochs=7", "seed=11", "shuffle=false"]
        h = cli.RunConfig.load(None, overrides).hypers()
        assert h == HyperParams(dropout_p=0.5, word_hidden=8, char_emb=3, word_emb=4, pos_emb=2,
                                fine_tune_words=False, fine_tune_chars=False, eta=0.5, l2=0.25,
                                epochs=7, seed=11, shuffle=False)

    def test_char_hidden_is_an_unknown_key(self):
        with pytest.raises(cli.ConfigError, match="unknown config keys"):
            cli.RunConfig.load(None, ["char_hidden=60"])

    def test_config_file_with_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"task=POS\nlanguage=\xffEN\n")
        with pytest.raises(ValueError, match=r"run\.cfg: line 2: not valid UTF-8"):
            cli.parse_config_file(path)

    def test_diagnostics_is_an_unknown_key(self):
        with pytest.raises(cli.ConfigError, match="unknown config keys"):
            cli.RunConfig.load(None, ["diagnostics=1"])

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
            ["train", *TRAIN_ARGS, "--set", "dropout=1.5",
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

    def test_misaligned_rejected(self, pos_setup, tmp_path):
        _, train, _, sents = pos_setup
        other = tmp_path / "other.col"
        write_pos_corpus(other, sents[:3])
        assert run_cli(
            ["eval", "--set", "task=POS",
             "--set", f"gold={train}", "--set", f"predictions={other}"]
        ) == 2


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
        [({}, "lacks 'task'"), (5, "meta is not a JSON object")],
        ids=["no_task", "int"],
    )
    def test_bad_meta_exits_2(self, pos_setup, tmp_path, capsys, command, meta, message):
        _, train, _, sents = pos_setup
        model = trainer.build_model("discrete", "POS", "EN", sents, HyperParams())
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
        assert run_cli(["gradcheck", "--set", "mode=neural", "--set", item]) == 2
        out = capsys.readouterr()
        assert f"error: {item.partition('=')[0]} must be finite" in out.err
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


@functools.lru_cache(maxsize=None)
def ner_checkpoint(mode, directory):
    """The bytes of a small saved NER model whose weights are all nonzero."""
    h = HyperParams(word_hidden=4, char_emb=2, word_emb=3, pos_emb=2)
    model = trainer.build_model(
        mode, "NER", "EN", NER_SENTS, h, cluster_lexicon={"EU": "0110", "German": "1011"}
    )
    rng = np.random.default_rng(1)
    for _, arr in model.named_arrays():
        arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    path = directory / f"{mode}.bin"
    checkpoint.save_model(path, model, {"task": "NER"})
    return path.read_bytes()


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
            ("dropout_p", lambda h: h.update(dropout_p=1.0)),
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
