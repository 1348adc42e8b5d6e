"""Command-line entry points: train, predict, eval, compare, gradcheck.

Runs are described by a key=value config file plus ``--set key=value``
overrides; each command accepts only the keys it reads (``COMMAND_KEYS``), and a
train only those its model reads (``trainer.model_inputs``).  All validation
happens before any work starts, and every command exits nonzero with a message
on bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from . import checkpoint, crf, evaluator, trainer
from .corpus import SCHEMES, Sentence, open_text, read_column_corpus, strip_line, write_column_corpus
from .embeddings import load_text_embeddings
from .features import LANGUAGES, load_lexicon


TASK_COLUMNS = {
    "SEG": ("token", "label"),
    "POS": ("token", "label"),
    "NER": ("token", "aux", "label"),
}

# A hyperparameter key sets the HyperParams field of its name (``dropout``:
# ``dropout_p``) and has its default's type; a key not in _KEY_TYPES is a string.
_HYPER_FIELDS = {f.name.removesuffix("_p"): f for f in dataclasses.fields(trainer.HyperParams)}
_KEY_TYPES = {key: type(f.default) for key, f in _HYPER_FIELDS.items()}
_KEY_TYPES["embeddings_lowercase"] = bool
# The keys each command reads; a train of one model reads fewer (``RunConfig.load``).
COMMAND_KEYS = {
    "train": (
        "task", "language", "mode", "scheme", "train", "dev", "model_out", "report_summary",
        "report_log", "word_embeddings", "char_embeddings", "bigram_embeddings", "cluster_lexicon",
        "radical_lexicon", "embeddings_lowercase", *_HYPER_FIELDS,
    ),
    "predict": ("task", "model_in", "input", "output"),
    "eval": ("task", "scheme", "gold", "predictions"),
    "compare": ("task", "scheme", "model_a", "model_b", "input", "compare_out"),
    "gradcheck": ("mode", "seed"),
}
KNOWN_KEYS = frozenset(chain.from_iterable(COMMAND_KEYS.values()))


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    task: str = "SEG"
    language: str = "ZH"
    mode: str = "discrete"
    scheme: str = "BIO"
    values: dict = field(default_factory=dict)

    @classmethod
    def load(cls, command, config_path=None, overrides=()) -> "RunConfig":
        """The config of one command, which must read every key given."""
        raw: dict[str, str] = {}
        if config_path is not None:
            raw.update(parse_config_file(config_path))
        for item in overrides:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"override {item!r} is not of the form key=value")
            raw[key.strip()] = value.strip()
        unknown = set(raw) - KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        unread = set(raw) - set(COMMAND_KEYS[command])
        if unread:
            raise ConfigError(f"{command} does not read config keys {sorted(unread)}")
        config = cls()
        config.task = raw.pop("task", config.task).upper()
        config.language = raw.pop("language", config.language).upper()
        config.mode = raw.pop("mode", config.mode).lower()
        if config.task not in TASK_COLUMNS:
            raise ConfigError(f"task must be one of {sorted(TASK_COLUMNS)}")
        if config.language not in LANGUAGES:
            raise ConfigError(f"language must be {' or '.join(LANGUAGES)}")
        if config.mode not in crf.MODES:
            raise ConfigError(f"mode must be one of {crf.MODES}")
        # a train reads the tables, lexicons and sizes of its model
        unread = set() if config.reads_scheme else {"scheme"}
        what = f"task {config.task}"
        if command == "train":
            tables, lexicons, fields = trainer.model_inputs(config.mode, config.task, config.language)
            unread |= {f"{key}_embeddings" for key in trainer.TABLE_FIELDS if key not in tables}
            unread |= {f"{name}_lexicon" for name in ("cluster", "radical") if name not in lexicons}
            unread |= {key for key, f in _HYPER_FIELDS.items() if f.name not in fields}
            unread |= set() if "word" in tables else {"embeddings_lowercase"}
            what = f"a {config.mode} {config.task}-{config.language} model"
        unread = sorted(unread & set(raw))
        if unread:
            raise ConfigError(f"{command} of {what} does not read config keys {unread}")
        config.scheme = raw.pop("scheme", config.scheme).upper()
        if config.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be {' or '.join(SCHEMES)}")
        if "embeddings_lowercase" in raw and "word_embeddings" not in raw:
            raise ConfigError("embeddings_lowercase: no word_embeddings file to lowercase")
        for key, text in raw.items():
            kind = _KEY_TYPES.get(key, str)
            if kind is bool:
                if text.lower() not in ("true", "false", "1", "0"):
                    raise ConfigError(f"{key} must be a boolean, got {text!r}")
                config.values[key] = text.lower() in ("true", "1")
            else:
                try:
                    config.values[key] = kind(text)
                except ValueError:
                    raise ConfigError(f"{key} must be {kind.__name__}, got {text!r}") from None
        return config

    @property
    def reads_scheme(self) -> bool:
        """Only NER reads a tag scheme: SEG counts BIES words, POS tokens."""
        return self.task == "NER"

    def get(self, key, default=None):
        return self.values.get(key, default)

    def path(self, key) -> Path | None:
        value = self.values.get(key)
        return None if value is None else Path(value)

    def require_paths(self, *keys, exist=True):
        for key in keys:
            p = self.path(key)
            if p is None:
                raise ConfigError(f"missing required config key {key!r}")
            if exist and not p.exists():
                raise ConfigError(f"{key}: file {p} does not exist")

    def hypers(self) -> trainer.HyperParams:
        """Every ``HyperParams`` field the config sets; the rest keep their defaults."""
        updates = {_HYPER_FIELDS[k].name: v for k, v in self.values.items() if k in _HYPER_FIELDS}
        return dataclasses.replace(trainer.HyperParams(), **updates)


def parse_config_file(path) -> dict[str, str]:
    """``key=value`` lines with a non-empty key; CR, LF and CRLF end a line, as
    in every reader."""
    raw = {}
    try:
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise ConfigError(f"{path}: line {lineno}: expected key=value")
                if key in raw:
                    raise ConfigError(f"{path}: line {lineno}: key {key!r} is set twice")
                raw[key] = value.strip()
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    return raw


def read_task_corpus(path, task, *, require_labels) -> list[Sentence]:
    """Read a corpus with the task's column layout; a SEG token must be one character.

    The label column may be absent on prediction inputs; the layout is
    inferred from the first non-blank line's column count.
    """
    columns = TASK_COLUMNS[task]
    if not require_labels:
        with open_text(path) as fh:
            first = next((line for line in map(strip_line, fh) if line), None)
        if first is None:
            return []
        ncols = len(first.split("\t"))
        if ncols == len(columns) - 1:
            columns = columns[:-1]
        elif ncols != len(columns):
            raise ConfigError(f"{path}: cannot map {ncols} columns onto task {task}")
    sentences = read_column_corpus(path, columns)
    for k, sent in enumerate(sentences if task == "SEG" else ()):
        for token in sent.tokens:
            if len(token) != 1:
                raise ConfigError(f"{path}: sentence {k}: SEG token {token!r} is not one character")
    return sentences


def _load_tables(config: RunConfig, hypers: trainer.HyperParams):
    """Every pretrained table the config names by ``<key>_embeddings``, each
    one the model composes (``RunConfig.load`` refused any other)."""
    tables = {}
    for key, size in trainer.TABLE_FIELDS.items():
        p = config.path(f"{key}_embeddings")
        if p is not None:
            lowercase = key == "word" and config.get("embeddings_lowercase", False)
            tables[key] = load_text_embeddings(p, getattr(hypers, size), name=key, lowercase=lowercase)
    return tables


def cmd_train(config: RunConfig) -> int:
    config.require_paths("train", "dev")
    config.require_paths("model_out", exist=False)
    hypers = config.hypers()
    train_sents = read_task_corpus(config.path("train"), config.task, require_labels=True)
    dev_sents = read_task_corpus(config.path("dev"), config.task, require_labels=True)
    if not train_sents or not dev_sents:
        raise ConfigError("train and dev corpora must be non-empty")
    model = trainer.build_model(
        config.mode,
        config.task,
        config.language,
        train_sents,
        hypers,
        tables=_load_tables(config, hypers),
        cluster_lexicon=load_lexicon(config.path("cluster_lexicon"), "cluster"),
        radical_lexicon=load_lexicon(config.path("radical_lexicon"), "radical"),
    )
    best, report = trainer.train(
        model, train_sents, dev_sents, hypers, config.task, config.scheme
    )
    meta = {"task": config.task, "language": config.language, "hypers": dataclasses.asdict(hypers)}
    if config.reads_scheme:
        meta["scheme"] = config.scheme
    checkpoint.save_model(config.path("model_out"), best, meta)
    if config.path("report_summary") is not None:
        report.write_summary(config.path("report_summary"))
    if config.path("report_log") is not None:
        report.write_log(config.path("report_log"))
    best_rec = report.records[report.best_epoch]
    print(
        json.dumps(
            {
                "command": "train",
                "best_epoch": report.best_epoch,
                "dev_metric": best_rec.dev_metric,
                "model_out": str(config.path("model_out")),
            },
            sort_keys=True,
        )
    )
    return 0


def _load_task_model(config: RunConfig, key) -> crf.ModelParams:
    model, _ = checkpoint.load_model(config.path(key))
    if model.task != config.task:
        raise ConfigError(f"{key} was trained for task {model.task}, not {config.task}")
    return model


def cmd_predict(config: RunConfig) -> int:
    config.require_paths("model_in", "input")
    config.require_paths("output", exist=False)
    model = _load_task_model(config, "model_in")
    sentences = read_task_corpus(config.path("input"), config.task, require_labels=False)
    predictions = trainer.predict_labels(model, sentences)
    labeled = [
        Sentence(tokens=s.tokens, gold_labels=pred, aux_tags=s.aux_tags)
        for s, pred in zip(sentences, predictions)
    ]
    write_column_corpus(config.path("output"), labeled, TASK_COLUMNS[config.task])
    return 0


def cmd_eval(config: RunConfig) -> int:
    config.require_paths("gold", "predictions")
    gold_path, pred_path = config.path("gold"), config.path("predictions")
    gold = read_task_corpus(gold_path, config.task, require_labels=True)
    pred = read_task_corpus(pred_path, config.task, require_labels=True)
    if len(gold) != len(pred):
        why = f"{len(gold)} sentences against {len(pred)}"
    else:
        differ = (k for k, (g, p) in enumerate(zip(gold, pred)) if g.tokens != p.tokens)
        why = next((f"the tokens of sentence {k} differ" for k in differ), None)
    if why:
        raise ConfigError(f"gold {gold_path} and predictions {pred_path} do not align: {why}")
    record = evaluator.metric_record(
        config.task, config.scheme, gold, [p.gold_labels for p in pred]
    )
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_compare(config: RunConfig) -> int:
    config.require_paths("model_a", "model_b", "input")
    config.require_paths("compare_out", exist=False)
    sentences = read_task_corpus(config.path("input"), config.task, require_labels=True)
    preds = [
        trainer.predict_labels(_load_task_model(config, key), sentences)
        for key in ("model_a", "model_b")
    ]
    evaluator.export_comparison(
        config.path("compare_out"), sentences, preds[0], preds[1], config.task, config.scheme
    )
    return 0


def cmd_gradcheck(config: RunConfig) -> int:
    model, sentence = trainer.make_gradcheck_instance(config.mode, seed=config.get("seed", 1))
    report = trainer.gradient_check(model, sentence)
    record = {
        "command": "gradcheck",
        "mode": config.mode,
        "tolerance": report.tolerance,
        "skipped": report.skipped,
        "score_gap": report.score_gap,
        "max_rel_err": {k: v for k, v in sorted(report.max_rel_err.items())},
        "passed": report.passed,
    }
    print(json.dumps(record, sort_keys=True))
    return 0 if report.passed else 1


COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqlab",
        description="Sequence labeling with discrete, neural, and joint CRF models.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="key=value run configuration file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = RunConfig.load(args.command, args.config, args.overrides)
        return COMMANDS[args.command](config)
    except (
        ConfigError, checkpoint.CheckpointError, ValueError, OSError, FloatingPointError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message holds the size and shape asked for
        print(f"error: memory could not be allocated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
