"""Command-line entry points: train, predict, eval, compare, gradcheck.

Runs are described by a key=value config file plus ``--set key=value``
overrides; the full key set is documented in the README.  All validation
happens before any work starts, and every command exits nonzero with a
message on bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import checkpoint, crf, evaluator, trainer
from .corpus import Sentence, open_text, read_column_corpus, strip_line, write_column_corpus
from .embeddings import InputComposer, load_text_embeddings
from .features import load_lexicon


TASK_COLUMNS = {
    "SEG": ("token", "label"),
    "POS": ("token", "label"),
    "NER": ("token", "aux", "label"),
}

_BOOL_KEYS = ("shuffle", "fine_tune_words", "fine_tune_chars", "embeddings_lowercase")
_INT_KEYS = ("epochs", "seed", "word_hidden", "char_emb", "word_emb", "pos_emb")
_FLOAT_KEYS = ("eta", "l2", "dropout", "gc_tolerance", "gc_eps")
_PATH_KEYS = (
    "train",
    "dev",
    "input",
    "output",
    "gold",
    "predictions",
    "model_in",
    "model_out",
    "model_a",
    "model_b",
    "compare_out",
    "report_summary",
    "report_log",
    "word_embeddings",
    "char_embeddings",
    "bigram_embeddings",
    "cluster_lexicon",
    "radical_lexicon",
)
_STR_KEYS = ("task", "language", "mode", "scheme")

KNOWN_KEYS = frozenset(_BOOL_KEYS + _INT_KEYS + _FLOAT_KEYS + _PATH_KEYS + _STR_KEYS)


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
    def load(cls, config_path=None, overrides=()) -> "RunConfig":
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
        values: dict = {}
        for key, text in raw.items():
            if key in _BOOL_KEYS:
                if text.lower() not in ("true", "false", "1", "0"):
                    raise ConfigError(f"{key} must be a boolean, got {text!r}")
                values[key] = text.lower() in ("true", "1")
            elif key in _INT_KEYS or key in _FLOAT_KEYS:
                kind = int if key in _INT_KEYS else float
                try:
                    values[key] = kind(text)
                except ValueError:
                    raise ConfigError(f"{key} must be {kind.__name__}, got {text!r}") from None
            else:
                values[key] = text
        config = cls(values=values)
        config.task = values.pop("task", config.task).upper()
        config.language = values.pop("language", config.language).upper()
        config.mode = values.pop("mode", config.mode).lower()
        config.scheme = values.pop("scheme", config.scheme).upper()
        if config.task not in TASK_COLUMNS:
            raise ConfigError(f"task must be one of {sorted(TASK_COLUMNS)}")
        if config.language not in ("EN", "ZH"):
            raise ConfigError("language must be EN or ZH")
        if config.mode not in crf.MODES:
            raise ConfigError(f"mode must be one of {crf.MODES}")
        if config.scheme not in ("BIO", "BIOES"):
            raise ConfigError("scheme must be BIO or BIOES")
        return config

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
        """A key named like a ``HyperParams`` field sets it; ``dropout`` sets ``dropout_p``."""
        names = {f.name for f in dataclasses.fields(trainer.HyperParams)} | {"dropout"}
        updates = {
            "dropout_p" if key == "dropout" else key: value
            for key, value in self.values.items()
            if key in names
        }
        return dataclasses.replace(trainer.HyperParams(), **updates)


def parse_config_file(path) -> dict[str, str]:
    """``key=value`` lines; CR, LF and CRLF end a line, as in every reader."""
    raw = {}
    try:
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}: line {lineno}: expected key=value")
                key = key.strip()
                if key in raw:
                    raise ConfigError(f"{path}: line {lineno}: key {key!r} is set twice")
                raw[key] = value.strip()
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    return raw


def read_task_corpus(path, task, *, require_labels) -> list[Sentence]:
    """Read a corpus with the task's column layout.

    The label column may be absent on prediction inputs; the layout is
    inferred from the first non-blank line's column count.
    """
    columns = TASK_COLUMNS[task]
    if require_labels:
        return read_column_corpus(path, columns)
    ncols = None
    with open_text(path) as fh:
        for line in fh:
            line = strip_line(line)
            if line:
                ncols = len(line.split("\t"))
                break
    if ncols is None:
        return []
    if ncols == len(columns):
        return read_column_corpus(path, columns)
    if ncols == len(columns) - 1:
        return read_column_corpus(path, columns[:-1])
    raise ConfigError(f"{path}: cannot map {ncols} columns onto task {task}")


def _load_tables(config: RunConfig, hypers: trainer.HyperParams):
    """Pretrained tables named by ``<key>_embeddings``; the rest are random-initialized."""
    overrides = {}
    specs = trainer.table_specs(hypers)
    for key in InputComposer.REQUIRED[config.task]:
        p = config.path(f"{key}_embeddings")
        if p is not None:
            dim, fine_tune = specs[key]
            lowercase = key == "word" and bool(config.get("embeddings_lowercase", False))
            overrides[key] = load_text_embeddings(
                p, dim, name=key, fine_tune=fine_tune, lowercase=lowercase
            )
    return overrides


def _checkpoint_meta(config: RunConfig, hypers: trainer.HyperParams) -> dict:
    return {
        "task": config.task,
        "language": config.language,
        "scheme": config.scheme,
        "hypers": dataclasses.asdict(hypers),
    }


def cmd_train(config: RunConfig) -> int:
    config.require_paths("train", "dev")
    config.require_paths("model_out", exist=False)
    for key in ("word_embeddings", "char_embeddings", "bigram_embeddings",
                "cluster_lexicon", "radical_lexicon"):
        if config.get(key) is not None:
            config.require_paths(key)
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
        tables=_load_tables(config, hypers) if config.mode != "discrete" else None,
        cluster_lexicon=load_lexicon(config.path("cluster_lexicon"), "cluster"),
        radical_lexicon=load_lexicon(config.path("radical_lexicon"), "radical"),
    )
    best, report = trainer.train(
        model, train_sents, dev_sents, hypers, config.task, config.scheme
    )
    checkpoint.save_model(config.path("model_out"), best, _checkpoint_meta(config, hypers))
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
    model, meta = checkpoint.load_model(config.path(key))
    if "task" not in meta:
        raise ConfigError(f"{key}: checkpoint meta lacks 'task'")
    if meta["task"] != config.task:
        raise ConfigError(f"{key} was trained for task {meta['task']}, not {config.task}")
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
    gold = read_task_corpus(config.path("gold"), config.task, require_labels=True)
    pred = read_task_corpus(config.path("predictions"), config.task, require_labels=True)
    if len(gold) != len(pred) or any(g.tokens != p.tokens for g, p in zip(gold, pred)):
        raise ConfigError("gold and prediction corpora do not align")
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
    tolerance = config.get("gc_tolerance", 1e-4)
    eps = config.get("gc_eps", 1e-4)
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"gc_eps must be finite and positive, got {eps}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ConfigError(f"gc_tolerance must be finite and non-negative, got {tolerance}")
    seed = config.get("seed", 1)
    model, sentence = trainer.make_gradcheck_instance(config.mode, seed=seed)
    report = trainer.gradient_check(model, sentence, tolerance=tolerance, eps=eps)
    record = {
        "command": "gradcheck",
        "mode": config.mode,
        "tolerance": tolerance,
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
        config = RunConfig.load(args.config, args.overrides)
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
