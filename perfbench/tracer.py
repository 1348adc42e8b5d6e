"""Per-layer spans recorded by wrapping seqlab's public entry points.

Nothing inside ``src/`` knows about tracing.  :meth:`Tracer.install`
replaces each entry point with a wrapper in every seqlab module that binds
it, so a function imported by name (``crf`` does
``from .encoder import encode``) is traced where it is looked up, not only
where it is defined.  An entry point that no longer exists is listed in
:attr:`Tracer.absent` and its metrics are reported as absent; it never
crashes the benchmark.

Wrappers always count calls (cheap enough for untraced runs, which report
the counts in their fingerprint).  Spans are recorded only while
:attr:`Tracer.enabled` is set.  Spans are kept in memory as
``(name, start, end, parent index)`` and reduced to per-phase totals once an
iteration ends; the phase of a span is the root span it descends from.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute path); several functions may share a span name
ENTRY_POINTS = (
    ("corpus.read", "seqlab.corpus", "read_column_corpus"),
    ("corpus.write", "seqlab.corpus", "write_column_corpus"),
    ("features.instantiate", "seqlab.features", "TemplateSet.instantiate"),
    ("embeddings.compose", "seqlab.embeddings", "InputComposer.compose_all"),
    ("embeddings.backward", "seqlab.embeddings", "InputComposer.backward"),
    ("encoder.encode", "seqlab.encoder", "encode"),
    ("encoder.backward", "seqlab.encoder", "backward"),
    ("crf.build_forward", "seqlab.crf", "build_forward"),
    ("crf.decode", "seqlab.crf", "viterbi"),
    ("crf.decode", "seqlab.crf", "cost_augmented_viterbi"),
    ("crf.loss_gradients", "seqlab.crf", "loss_gradients"),
    ("trainer.alphabet_build", "seqlab.trainer", "build_output_alphabet"),
    ("trainer.apply_bundle", "seqlab.trainer", "apply_bundle"),
    ("trainer.dev_eval", "seqlab.trainer", "dev_metric"),
    ("trainer.clone_model", "seqlab.trainer", "clone_model"),
    ("evaluator.metric", "seqlab.evaluator", "corpus_metric"),
    ("checkpoint.save", "seqlab.checkpoint", "save_model"),
    ("checkpoint.load", "seqlab.checkpoint", "load_model"),
)



class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.calls: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        # every seqlab module, since any of them may bind an entry point by name
        package = importlib.import_module("seqlab")
        modules = [
            importlib.import_module(f"seqlab.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        for span_name, module_name, path in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, span_name)
            if parents:  # a method: one binding, on its class
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def is_absent(self, span_name: str) -> bool:
        """True when some entry point feeding ``span_name`` was not found."""
        return any(
            f"{module}.{path}" in self.absent
            for name, module, path in ENTRY_POINTS
            if name == span_name
        )

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a span nested in one of the same name (one entry point calling
            # another of its layer) is part of the outer span's work
            if tracer._open[name]:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            tracer._open[name] += 1
            try:
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                with tracer.span(name):
                    return fn(*args, **kwargs)
            finally:
                tracer._open[name] -= 1

        return wrapper

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name):
        """Record one span; a no-op while tracing is disabled."""
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()

    def summarize(self):
        """Per-(phase, span name) totals of the spans recorded since the last reset.

        Returns ``(total_s, self_s, calls)``, three dicts keyed by
        ``(phase, name)``.  A root span is a phase; its own key is
        ``(phase, phase)`` and its self time is the phase time that no
        layer span covers.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        phase_of = [""] * len(spans)
        for idx, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                phase_of[idx] = phase_of[parent]
            else:
                phase_of[idx] = name
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(spans):
            key = (phase_of[idx], name)
            total[key] += end - start
            self_time[key] += end - start - child_time[idx]
            calls[key] += 1
        return total, self_time, calls
