"""The text layout shared by every polyseg model file.

A model file is UTF-8 text.  Its first line is the header
``<family> v1 <field> ...`` with space-separated fields.  Every later line
is a row of TAB-separated fields, except a line ``<name>:`` that opens
section ``name``; rows before the first such line belong to the family's
first section.  Every error names the file and line as ``path:line``.

Rows are read by column: each section's lines are split into fields once
and each column is converted in one pass.  Only a file that fails a check
is scanned line by line, so that the error names its first bad line: a
wrong field count before bad values, and values left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

from .corpus import read_lines
from .errors import ParseError

VERSION = "v1"


def _bad_field(path, lineno: int, text: str) -> ParseError:
    return ParseError("%s:%d: bad field %r" % (path, lineno, text))


def field(path, lineno: int, conv, text: str):
    """``conv(text)``, with a ValueError or KeyError turned into a
    ParseError that names ``path:lineno``."""
    try:
        return conv(text)
    except (ValueError, KeyError):
        raise _bad_field(path, lineno, text) from None


def finite(text: str) -> float:
    """A field converter: the float ``text``, which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


# A column converter maps the list of one column's texts to the list of its
# values, and raises ValueError or KeyError if any one text is bad.


def text(texts: list) -> list:
    """The column converter that keeps each text as it is."""
    return texts


def each(conv):
    """The column converter that applies the field converter ``conv`` to
    every text."""
    return lambda texts: list(map(conv, texts))


def once(conv):
    """Like ``each(conv)``, but ``conv`` runs once per distinct text."""
    def column(texts):
        parsed = {t: conv(t) for t in dict.fromkeys(texts)}
        return list(map(parsed.__getitem__, texts))
    return column


def finites(texts: list) -> list:
    """The column converter of :func:`finite`."""
    values = list(map(float, texts))
    if not all(map(math.isfinite, values)):
        raise ValueError("not a finite number")
    return values


def unique(path, lines, keys, what: str) -> None:
    """Raise a ParseError naming ``path:line`` of the first row whose key
    repeats an earlier row's; row ``k`` has key ``keys[k]`` and sits on
    line ``lines[k]``."""
    if len(set(keys)) == len(keys):
        return
    first: dict = {}
    for lineno, key in zip(lines, keys):
        if key in first:
            raise ParseError("%s:%d: repeated %s (first at line %d)"
                             % (path, lineno, what, first[key]))
        first[key] = lineno


def family(path) -> str:
    """The family name that opens the header of the model file at ``path``;
    only the header line is read, as bytes, so an undecodable file reaches
    its loader, which names it.  A leading byte-order mark is dropped, as
    :func:`~polyseg.corpus.read_lines` drops it."""
    with open(path, "rb") as f:
        head = f.readline().removeprefix(b"\xef\xbb\xbf")
    if not head:
        raise ParseError("%s:1: empty model file" % (path,))
    return head.rstrip(b"\r\n").split(b" ", 1)[0].decode("utf-8", "replace")


@dataclass
class Section:
    """The rows of one section.  Row ``k`` sits on file line ``lines[k]``,
    and ``columns[j][k]`` is its converted field ``j``.  ``opened`` tells
    whether a ``<name>:`` line opened the section."""

    lines: list
    columns: list
    opened: bool


def read(path, family: str, header, sections: dict, optional: int = 0):
    """Parse the model file at ``path`` as ``<family> v1``.

    ``header`` holds one field converter per header field after the
    version; the last ``optional`` fields may be left out and read as None.
    ``sections`` maps each section name to one column converter per row
    field, the first section being the one rows start in.  Returns the
    converted header fields and ``{section: Section}``, so a loader's own
    checks can name ``path:line`` too.
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

    # lines[i] is line i + 1 of the file; spans[name] holds the (start,
    # stop) slices of lines that are the section's rows
    marks = sorted((i, name) for name in sections
                   for i in _indices(lines, name + ":", 1))
    spans: dict = {name: [] for name in sections}
    start, name = 1, next(iter(sections))
    for i, mark in marks + [(len(lines), None)]:
        spans[name].append((start, i))
        start, name = i + 1, mark
    opened = {name for _, name in marks}
    try:
        return values, {name: _section(lines, spans[name], sections[name], name in opened)
                        for name in sections}
    except (ValueError, KeyError):
        _first_error(path, lines, sections)
        raise  # a column converter that rejects what its fields accept


def _indices(items: list, value, start: int):
    """The indices of ``value`` in ``items`` from ``start`` on."""
    try:
        while True:
            start = items.index(value, start)
            yield start
            start += 1
    except ValueError:
        return


def _section(lines: list, spans: list, convs, opened: bool) -> Section:
    texts = list(chain.from_iterable(lines[a:b] for a, b in spans))
    width = len(convs)
    if texts and set(map(str.count, texts, repeat("\t"))) != {width - 1}:
        raise ValueError("wrong field count")
    fields = "\t".join(texts).split("\t") if texts else []
    columns = [fields[j::width] for j in range(width)]
    del fields  # each column's texts are freed as it is converted
    for j, conv in enumerate(convs):
        columns[j] = conv(columns[j])
    linenos = list(chain.from_iterable(range(a + 1, b + 1) for a, b in spans))
    return Section(linenos, columns, opened)


def _first_error(path, lines: list, sections: dict) -> None:
    """Raise the ParseError of the first bad line of the file, scanning
    line by line."""
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
        for conv, part in zip(convs, parts):
            try:
                conv([part])
            except (ValueError, KeyError):
                raise _bad_field(path, lineno, part) from None


def write(path, family: str, header, sections: dict) -> None:
    """Write the model file at ``path`` that :func:`read` parses.  ``header``
    holds the header field texts after the version; ``sections`` maps each
    section name, in file order, to an iterable of its rows of field texts,
    or to None to leave the section out.  Every later section opens with
    ``<name>:``.  Rows are written as they come, so a caller that passes
    generators holds no more than one row at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(" ".join((family, VERSION, *header)) + "\n")
        for k, (name, rows) in enumerate(sections.items()):
            if rows is None:
                continue
            if k:
                f.write(name + ":\n")
            for row in rows:
                f.write("\t".join(row) + "\n")
