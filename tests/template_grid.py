"""Context strings rendered from ``TemplateSet.instantiate``'s keys, for
tests that read the contexts a position at a time, and string lookups into
a ``ContextAlphabet``."""


def grid(templates, sent):
    """Each position's context strings, one per group in table order, None
    where the group skips."""
    columns = []
    for (how, prefix, _), keys in zip(templates.groups, templates.instantiate(sent)):
        if how == "one":
            columns.append([None if k is None else prefix + k for k in keys])
        else:
            columns.append([None if None in k else prefix + "~".join(k) for k in keys])
    return list(zip(*columns))


def contexts_at(templates, sent, i):
    """The context strings at position ``i`` of ``sent``, in table order,
    without the Nones of the groups that skip there."""
    return [c for c in grid(templates, sent)[i] if c is not None]


def string_ids(alphabet) -> dict:
    """Each of ``alphabet``'s strings to its id."""
    return {s: k for k, s in enumerate(alphabet.strings())}


def map_entries(alphabet) -> int:
    """The entries of ``alphabet``'s key-to-id dicts, each shared dict once."""
    tables = {id(t): t for p in alphabet._groups for t in (p.known, p.fallback)}
    return sum(map(len, tables.values()))
