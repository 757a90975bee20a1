"""The text layout shared by every polyseg model file.

A model file is UTF-8 text.  Its first line is the header
``<family> v1 <field> ...`` with space-separated fields.  Every later line
is a row of TAB-separated fields, except a line ``<name>:`` that opens
section ``name``; rows before the first such line belong to the family's
first section.  Every error names the file and line as ``path:line``.
"""

from __future__ import annotations

import math

from .corpus import read_lines
from .errors import ParseError

VERSION = "v1"


def field(path, lineno: int, conv, text: str):
    """``conv(text)``, with a ValueError or KeyError turned into a
    ParseError that names ``path:lineno``."""
    try:
        return conv(text)
    except (ValueError, KeyError):
        raise ParseError("%s:%d: bad field %r" % (path, lineno, text)) from None


def finite(text: str) -> float:
    """A field converter: the float ``text``, which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def unique(path, rows, width: int, what: str) -> None:
    """Raise a ParseError naming ``path:line`` of the first of ``rows``
    (``(line number, row)`` pairs) whose first ``width`` fields repeat an
    earlier row's."""
    first: dict = {}
    for lineno, row in rows:
        key = tuple(row[:width])
        if key in first:
            raise ParseError("%s:%d: repeated %s (first at line %d)"
                             % (path, lineno, what, first[key]))
        first[key] = lineno


def family(path) -> str:
    """The family name that opens the header of the model file at ``path``;
    only the header line is read, as bytes, so an undecodable file reaches
    its loader, which names it."""
    with open(path, "rb") as f:
        head = f.readline()
    if not head:
        raise ParseError("%s:1: empty model file" % (path,))
    return head.rstrip(b"\r\n").split(b" ", 1)[0].decode("utf-8", "replace")


def read(path, family: str, header, sections: dict, optional: int = 0):
    """Parse the model file at ``path`` as ``<family> v1``.

    ``header`` holds one converter per header field after the version; the
    last ``optional`` fields may be left out and read as None.
    ``sections`` maps each section name to one converter per row field,
    the first section being the one rows start in.  Returns the converted
    header fields and ``{section: [(line number, converted row), ...]}``,
    so a loader's own checks can name ``path:line`` too.
    """
    lines = read_lines(path)
    if not lines:
        raise ParseError("%s:1: empty model file" % (path,))
    head = lines[0].split(" ")
    n = len(head) - 2
    if (head[:2] != [family, VERSION] or not len(header) - optional <= n <= len(header)
            or "" in head):
        raise ParseError("%s:1: bad %s header %r" % (path, family, lines[0]))
    values = [field(path, 1, conv, text) for conv, text in zip(header, head[2:])]
    values += [None] * (len(header) - n)

    rows = {name: [] for name in sections}
    section = next(iter(sections))
    for lineno, line in enumerate(lines[1:], start=2):
        if line.endswith(":") and line[:-1] in sections:
            section = line[:-1]
            continue
        convs = sections[section]
        parts = line.split("\t")
        if len(parts) != len(convs):
            raise ParseError("%s:%d: expected %d TAB-separated fields in %s, got %d"
                             % (path, lineno, len(convs), section, len(parts)))
        rows[section].append((lineno, [field(path, lineno, conv, text)
                                       for conv, text in zip(convs, parts)]))
    return values, rows
