"""One position of ``TemplateSet.instantiate``'s grid, for tests that read
the contexts a position at a time."""


def contexts_at(templates, sent, i):
    """The context strings at position ``i`` of ``sent``, in table order,
    without the Nones of the groups that skip there."""
    return [c for c in templates.instantiate(sent)[i] if c is not None]
