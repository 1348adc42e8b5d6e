"""Self-describing binary model container.

Layout: magic ``SQLB``, a uint32 format version, a uint64 header length,
a JSON header (sorted keys, compact), then the raw bytes of every parameter
array in manifest order as C-contiguous little-endian float64.  The
manifest is ``ModelParams.named_arrays()``: loading rebuilds the model from
the header and fills those arrays in place.  A discrete or joint header
lists the template contexts in id order: context k owns row k of the
``(contexts, L)`` ``theta_out``; loading parses them once, with the
header's ``templates``, into the ``features.ContextAlphabet`` that
prediction indexes sentences with, and refuses a string no template
renders.  Loading a saved model
reproduces decoding behavior bitwise, and saving the same model twice
produces identical bytes, which is what the reproducibility tests compare.
Anything else, down to a stray trailing byte or a NaN weight, is a
``CheckpointError``; loading is where weights are checked for non-finite
values, so the per-sentence forward pass does not re-check them.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .corpus import Alphabet
from .crf import DISCRETE_MODES, MODES, NEURAL_MODES, ModelParams
from .embeddings import EmbeddingTable, InputComposer
from .features import ContextAlphabet, TemplateSet

MAGIC = b"SQLB"
FORMAT_VERSION = 2
PREFIX = struct.Struct("<4sIQ")  # magic, format version, header length

HEADER_KEYS = ("arrays", "labels", "meta", "mode")
DISCRETE_KEYS = ("contexts", "templates")
NEURAL_KEYS = ("composer_task", "hidden", "tables")


class CheckpointError(ValueError):
    """The file is not a loadable model checkpoint."""


def save_model(path, model: ModelParams, meta: dict) -> None:
    """Write the model and run metadata; ``meta`` must be a JSON-serializable dict.

    A ``meta`` that is not a dict raises before anything is written, since
    ``load_model`` refuses such a file.
    """
    if not isinstance(meta, dict):
        raise ValueError(f"meta must be a dict (a JSON object), not {type(meta).__name__}")
    model.validate()
    arrays = dict(model.named_arrays())
    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta,
        "mode": model.mode,
        "labels": model.labels.strings(),
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
    }
    if model.uses_discrete:
        templates = model.out_alphabet.templates
        header["templates"] = {
            "task": templates.task,
            "language": templates.language,
            "cluster_lexicon": templates.cluster_lexicon,
            "radical_lexicon": templates.radical_lexicon,
        }
        header["contexts"] = model.out_alphabet.strings()
    if model.uses_neural:
        header["hidden"] = model.lstm.hidden
        header["composer_task"] = model.composer.task
        header["tables"] = [
            {
                "key": key,
                "name": t.name,
                "dim": t.dim,
                "lowercase": t.lowercase,
                "symbols": t.symbols.strings(),
            }
            for key, t in ((k, model.composer.tables[k]) for k in model.composer.table_order())
        ]
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode(
        "utf-8"
    )
    with open(path, "wb") as fh:
        fh.write(PREFIX.pack(MAGIC, FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path) -> tuple[ModelParams, dict]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(PREFIX.size)
        if len(prefix) < PREFIX.size:
            raise CheckpointError(
                f"{path}: {size} bytes is shorter than the {PREFIX.size}-byte prefix"
            )
        magic, version, header_len = PREFIX.unpack(prefix)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}; not a model checkpoint")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version} unsupported (this build reads {FORMAT_VERSION})"
            )
        if header_len > size - PREFIX.size:
            raise CheckpointError(
                f"{path}: header length {header_len} runs past the end of the {size}-byte file"
            )
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupted header: {exc}") from exc
        model = _model_from_header(path, header)

        arrays = list(model.named_arrays())
        expected = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
        if header["arrays"] != expected:
            raise CheckpointError(
                f"{path}: array manifest {header['arrays']} does not match "
                f"the {model.mode} model's {expected}"
            )
        data_len = size - PREFIX.size - header_len
        need = sum(arr.nbytes for _, arr in arrays)
        if data_len != need:
            raise CheckpointError(f"{path}: {data_len} bytes of array data, expected {need}")
        for name, arr in arrays:
            arr[...] = np.frombuffer(fh.read(arr.nbytes), dtype="<f8").reshape(arr.shape)
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"{path}: array {name} holds non-finite values")
    return model, header["meta"]


def _model_from_header(path, header) -> ModelParams:
    """The zero-weight model the header describes, ready to be filled."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    mode = header.get("mode")
    if mode not in MODES:
        raise CheckpointError(f"{path}: unknown mode {mode!r}")
    discrete, neural = mode in DISCRETE_MODES, mode in NEURAL_MODES
    required = HEADER_KEYS + (DISCRETE_KEYS if discrete else ()) + (NEURAL_KEYS if neural else ())
    missing = [key for key in required if key not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {missing}")
    if not isinstance(header["meta"], dict):
        raise CheckpointError(f"{path}: meta is not a JSON object")
    _check_value_types(path, header, discrete, neural)
    try:
        out_alphabet = composer = None
        if discrete:
            t = header["templates"]
            templates = TemplateSet(
                t["task"],
                t["language"],
                cluster_lexicon=t["cluster_lexicon"],
                radical_lexicon=t["radical_lexicon"],
            )
            out_alphabet = ContextAlphabet(templates, header["contexts"], "header contexts")
        if neural:
            tables = {
                spec["key"]: EmbeddingTable(
                    spec["name"],
                    spec["dim"],
                    spec["symbols"],
                    np.zeros((len(spec["symbols"]), spec["dim"])),
                    lowercase=spec["lowercase"],
                )
                for spec in header["tables"]
            }
            composer = InputComposer(header["composer_task"], tables)
        model = ModelParams.create(
            mode,
            Alphabet.distinct(header["labels"], "header labels"),
            out_alphabet=out_alphabet,
            composer=composer,
            hidden=header.get("hidden", 0),
        )
    except (KeyError, TypeError, ValueError, MemoryError) as exc:
        raise CheckpointError(f"{path}: invalid header: {exc!r}") from exc
    return model


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_lexicon(value) -> bool:
    return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())


def _check_value_types(path, header, discrete, neural) -> None:
    """Raise a ``CheckpointError`` naming the first header value whose JSON
    type the model would misread instead of rejecting."""

    def need(ok, key, what):
        if not ok:
            raise CheckpointError(f"{path}: header {key} must be {what}")

    need(_is_strings(header["labels"]), "labels", "a list of strings")
    if discrete:
        need(_is_strings(header["contexts"]), "contexts", "a list of strings")
        templates = header["templates"]
        need(isinstance(templates, dict), "templates", "an object")
        for key in ("cluster_lexicon", "radical_lexicon"):
            need(
                _is_lexicon(templates.get(key)),
                f"templates.{key}",
                "an object mapping strings to strings",
            )
    if neural:
        tables = header["tables"]
        need(isinstance(tables, list), "tables", "a list")
        for k, spec in enumerate(tables):
            need(isinstance(spec, dict), f"tables[{k}]", "an object")
            need(_is_strings(spec.get("symbols")), f"tables[{k}].symbols", "a list of strings")
            need(isinstance(spec.get("lowercase"), bool), f"tables[{k}].lowercase", "a boolean")
        task, tasks = header["composer_task"], sorted(InputComposer.REQUIRED)
        need(task in tasks, "composer_task", f"one of {tasks}")
        keys, required = [spec.get("key") for spec in tables], list(InputComposer.REQUIRED[task])
        need(keys == required, "tables keys", f"the {task} tables {required}, not {keys}")
