"""Straight-line template instantiation, the oracle for ``TemplateSet``.

It interprets the raw template table rows at each position, reading each
per-token value where it is needed, once per offset that reads it.
``TemplateSet`` instead compiles the rows into offset groups and reads the
values ``TemplateSet.token_values`` computed once per sentence; this oracle
shares neither the compiled groups nor the per-sentence values with it.
"""

from seqlab.features import (
    _AFFIX_LEN,
    _TABLES,
    BOS,
    EOS,
    LENGTH_CAP,
    RADICAL_POSITIONS,
    char_type,
    connect_class,
    is_capitalized,
    word_shape,
)


def value(templates, kind, sent, j):
    """Per-token value of ``kind`` at position ``j``: the boundary sentinel
    outside the sentence, None for a cluster miss (its template is skipped)."""
    if j < 0:
        return BOS
    if j >= len(sent.tokens):
        return EOS
    tok = sent.tokens[j]
    if kind in ("char", "word"):
        return tok
    if kind == "char_type":
        # token is one character for the segmentation task
        return str(int(char_type(tok)))
    if kind == "shape":
        return word_shape(tok)
    if kind == "capital":
        return "T" if is_capitalized(tok) else "F"
    if kind == "connect":
        return connect_class(tok)
    if kind == "cluster":
        return templates.cluster_lexicon.get(tok)
    if kind == "postag":
        if sent.aux_tags is None:
            raise ValueError("templates need an aux tag column but the sentence has none")
        return sent.aux_tags[j]
    if kind == "length":
        return str(min(len(tok), LENGTH_CAP))
    raise AssertionError(kind)


def instantiate(templates, sent, i, holes=False):
    """Unlabeled context strings at position ``i``, in table order; with
    ``holes``, a None stands in for each one a template skips, one per
    affix length of an affix template."""
    tokens = sent.tokens
    n = len(tokens)
    if not 0 <= i < n:
        raise IndexError(f"position {i} outside sentence of length {n}")
    affix_len = _AFFIX_LEN.get((templates.task, templates.language), 0)
    out = []

    def emit(row, offsets, values):
        if None not in values:
            out.append(f"T{row}[{','.join(map(str, offsets))}]=" + "~".join(values))
        elif holes:
            out.append(None)

    for row, kind, args in _TABLES[(templates.task, templates.language)]:
        if kind == "char_eq":
            for a, b in args:
                j, k = i + a, i + b
                if not 0 <= j < n:
                    emit(row, (a, b), [value(templates, "char", sent, j)])
                elif not 0 <= k < n:
                    emit(row, (a, b), [value(templates, "char", sent, k)])
                else:
                    emit(row, (a, b), ["T" if tokens[j] == tokens[k] else "F"])
        elif kind in ("prefix", "suffix"):
            for off in args:
                j = i + off
                if not 0 <= j < n:  # one sentinel, at the first length
                    emit(row, (off,), [value(templates, "word", sent, j)])
                    for _ in range(affix_len - 1):
                        emit(row, (off,), [None])
                    continue
                tok = tokens[j]
                for length in range(1, affix_len + 1):
                    affix = tok[:length] if kind == "prefix" else tok[-length:]
                    emit(row, (off,), [affix if length <= len(tok) else None])
        elif kind == "radical":
            tok = tokens[i]
            for k in range(RADICAL_POSITIONS):
                emit(row, (0, k), [templates.radical_lexicon.get(tok[k]) if k < len(tok) else None])
        elif kind == "capital_connect":
            for off in args:
                capital = value(templates, "capital", sent, i + off)
                emit(row, (off, 0), [capital, value(templates, "connect", sent, i)])
        elif kind in ("capital_word", "postag_word"):
            first = kind.partition("_")[0]
            for a, b in args:
                emit(row, (a, b), [value(templates, first, sent, i + a),
                                   value(templates, "word", sent, i + b)])
        elif kind.endswith("_ngram"):
            base = kind.removesuffix("_ngram")
            for offsets in args:
                emit(row, offsets, [value(templates, base, sent, i + off) for off in offsets])
        else:
            for off in args:
                emit(row, (off,), [value(templates, kind, sent, i + off)])
    return out
