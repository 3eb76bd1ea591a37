"""The fixed-width text tables the experiment runners print."""

from __future__ import annotations


def format_columns(title: str, columns, rows) -> str:
    """``title``, its underline, a header line and one line per row.

    ``columns`` holds ``(header, width, cell)`` triples: ``cell(row)``
    is the cell's text, right-aligned in ``width`` characters, or
    left-aligned in ``-width`` when ``width`` is negative.
    """
    aligns = [("<" if width < 0 else ">", abs(width)) for _, width, _ in columns]
    cells = [[header for header, _, _ in columns]]
    cells += [[cell(row) for _, _, cell in columns] for row in rows]
    lines = [" ".join(f"{text:{a}{w}s}" for text, (a, w) in zip(line, aligns))
             for line in cells]
    return "\n".join([title, "=" * len(title), *lines])
