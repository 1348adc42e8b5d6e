"""Straight-line template instantiation, the oracle for ``TemplateSet``.

It reads each per-token value at the position it is needed, once per offset
that reads it, where ``TemplateSet.instantiate`` reads the values
``TemplateSet.token_values`` computed once per sentence.  Both walk the same
compiled groups, whose strings the goldens pin.
"""

from seqlab.features import BOS, EOS, LENGTH_CAP, char_type, connect_class, is_capitalized, word_shape


def value(templates, kind, sent, j):
    """Per-token value of ``kind`` at position ``j``: the boundary sentinel
    outside the sentence, None for a cluster miss (its group is skipped)."""
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


def instantiate(templates, sent, i):
    """Unlabeled context strings at position ``i``, in table order."""
    tokens = sent.tokens
    n = len(tokens)
    if not 0 <= i < n:
        raise IndexError(f"position {i} outside sentence of length {n}")
    out = []
    for how, prefix, arg in templates.groups:
        if how in ("one", "join"):
            values = [value(templates, kind, sent, i + off) for kind, off in arg]
            if None not in values:
                out.append(prefix + "~".join(values))
        elif how == "char_eq":
            j, k = i + arg[0], i + arg[1]
            if not 0 <= j < n:
                out.append(prefix + value(templates, "char", sent, j))
            elif not 0 <= k < n:
                out.append(prefix + value(templates, "char", sent, k))
            else:
                out.append(prefix + ("T" if tokens[j] == tokens[k] else "F"))
        elif how == "radical":
            tok = tokens[i]
            radical = templates.radical_lexicon.get(tok[arg]) if arg < len(tok) else None
            if radical is not None:
                out.append(prefix + radical)
        else:  # prefix or suffix
            j = i + arg
            if 0 <= j < n:
                tok = tokens[j]
                for length in range(1, min(templates.affix_len, len(tok)) + 1):
                    out.append(prefix + (tok[:length] if how == "prefix" else tok[-length:]))
            else:
                out.append(prefix + value(templates, "word", sent, j))
    return out
