"""Byte strings the text readers are fuzzed with: raw bytes, and files
joined from fragments that hold the separators, every line ending, a BOM,
whitespace that is content, and bytes that are not UTF-8 or only the start
of a character."""

from hypothesis import strategies as st

FRAGMENTS = tuple(
    part.encode("utf-8") if isinstance(part, str) else part
    for part in ("a", "X", "中", "氵", "\t", "\n", "\r", "\r\n", " ", "\u3000", "\u00a0", "\u2028",
                 "\x85", "\x0b", "\x0c", "\x1c", "\x00", "\ufeff", "~", b"\xff", b"\xe4\xb8", b"\xef\xbb")
)


def text_files(*extra: str):
    """Raw bytes, or ``FRAGMENTS`` and the reader's own ``extra`` fragments joined."""
    parts = FRAGMENTS + tuple(part.encode("utf-8") for part in extra)
    return st.one_of(st.binary(max_size=40), st.lists(st.sampled_from(parts), max_size=16).map(b"".join))
