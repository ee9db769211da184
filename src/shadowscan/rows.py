"""The JSON writer's row pass: records of one class, each member encoded over all of them at once.

``cli._json_pieces`` hands it a record tree (a resolved tree's nodes) or an
array of records with a record member (conflicts); only reports that hold
one import this module. It writes the same bytes as the value-by-value loop
and hands back, writing nothing, what it cannot take.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Any, Iterable, Iterator, Sequence

from shadowscan.cli import _ARRAYS, _BREAKS, _COMMAS, _MAX_NESTING, _column, _members


def _flat_texts(values: list[Any], depths: list[int], level: int) -> list[str] | None:
    """The JSON text of each record in ``values``, made once per distinct (class, value, depth).

    ``level`` is the nesting level of the members of a record at depth 0.
    None unless each member of each class holds scalars of one type, or
    arrays of them, in all its records: the type is taken over all records
    before equal values share a text, as in ``_column``. A record with a
    list member is unhashable: TypeError.
    """
    keys = list(zip(map(type, values), values, depths))
    texts = dict.fromkeys(keys)
    for cls in set(map(type, values)):
        group = [value for value in values if value.__class__ is cls]
        if any(_column(list(map(get, group)))[1] is None for _, get in _members(cls)):
            return None  # so _row_pieces never comes back here from the call below
        distinct = [key for key in texts if key[0] is cls]
        pieces = _row_pieces([key[1] for key in distinct], [key[2] for key in distinct], level,
                             joined=True)
        if pieces is None:
            return None
        texts.update(zip(distinct, map("".join, pieces[0])))
    return list(map(texts.__getitem__, keys))


def _row_pieces(
    rows: list[Any], depths: list[int], level: int, tree: int = -1, counts: Sequence[int] = (),
    joined: bool = False,
) -> tuple[list[Iterator[str]], Iterable[Iterator[str]]] | None:
    """The pieces of records of one class as (heads, tails), each member encoded over all rows at once.

    A row at depth d has its members at nesting level ``level + 2 * d``. A
    member holds, in every row, scalars of one type (mapped through
    ``cli._SCALARS``), flat records, whose members are such scalars or
    arrays of them (``_flat_texts``), or arrays of scalars of one type or of
    flat records (item pieces between one separator string per level). None
    for any other member, a class without members, or nesting past
    ``_MAX_NESTING``.

    ``tree`` indexes the member that holds each row's ``counts[i]`` children,
    written elsewhere: a row's head ends where their array opens, or with
    ``[]``, and its tail follows the array. Without it, the head is the row.
    ``joined`` rows are joined whole by the caller, so each array is one
    text too.
    """
    at = [level + 2 * depth for depth in range(max(depths) + 1)]
    members = _members(rows[0].__class__)
    if not members or at[-1] > _MAX_NESTING:
        return None
    heads, columns, texts = None, [], []  # texts: per-row texts still to be joined into one piece

    def per_row(by_depth: list[str]) -> list[str]:
        return list(map(by_depth.__getitem__, depths))

    def pieces() -> list[Iterator[str]]:  # of each row so far
        return list(map(chain.from_iterable, zip(*columns, zip(map("".join, zip(*texts))))))

    for index, (name, get) in enumerate(members):
        texts.append(per_row([(_COMMAS[m] if index else "{" + _BREAKS[m]) + name for m in at]))
        if index == tree:
            opening = ["[" + _BREAKS[m + 1] for m in at]
            texts.append([opening[depth] if count else "[]" for depth, count in zip(depths, counts)])
            heads, columns, texts = pieces(), [], []
            continue
        values = list(map(get, rows))
        kinds, encode = _column(values)
        if not kinds <= _ARRAYS:
            text = list(map(encode, values)) if encode else _flat_texts(values, depths, level + 1)
            if text is None:
                return None
            texts.append(text)
            continue
        items = list(chain.from_iterable(values))
        if encode:
            text_of = {item: encode(item) for item in set(items)}
            items = list(map(text_of.__getitem__, items))
        else:  # records: flat ones, their members two levels in
            items = _flat_texts(items, list(chain.from_iterable(map(repeat, depths, map(len, values)))),
                                level + 2)
        if items is None or at[-1] == _MAX_NESTING:  # an array could open there
            return None
        found = iter(items)
        openings, closings = ["[" + _BREAKS[m + 1] for m in at], [_BREAKS[m] + "]" for m in at]
        separators = [_COMMAS[m + 1] for m in at]
        if joined:
            texts.append([openings[depth] + separators[depth].join(islice(found, len(value)))
                          + closings[depth] if value else "[]" for value, depth in zip(values, depths)])
            continue
        columns.append(zip(map("".join, zip(*texts))))
        texts = []

        def array(value: Sequence[Any], depth: int) -> Sequence[str]:
            if not value:
                return ("[]",)
            row = [separators[depth]] * (2 * len(value) + 1)
            row[1::2] = islice(found, len(value))
            row[0], row[-1] = openings[depth], closings[depth]
            return row

        columns.append(list(map(array, values, depths)))
    texts.append(per_row([_BREAKS[m - 1] + "}" for m in at]))
    return (pieces(), repeat(())) if heads is None else (heads, pieces())


def record_rows(value: Any, level: int, parts: list[str], tree: int = -1) -> bool:
    """Append to ``parts`` records of one class, written by ``_row_pieces``.

    ``value`` is an array of records, or, with ``tree``, a record tree: a
    record whose member ``tree`` holds children of its class, and so on
    down. ``level`` is the nesting level of the members of the array's
    items, or of the root. The tree is gathered depth first with an
    explicit stack. False, with nothing appended, for ``cli._json_pieces`` to
    write ``value`` value by value, if the rows are not all of one class, a
    children member holds no array, ``_row_pieces`` refuses the rows, or a
    node's members would reach ``_MAX_NESTING``; so the deepest part of a
    tree too deep for a report, or a cycle, ends in ``ReportTooDeep`` there.
    """
    if tree < 0:
        rows = list(value)
        depths = counts = [0] * len(rows)
        if level >= _MAX_NESTING or len(set(map(type, rows))) > 1:
            return False
    else:
        cls = value.__class__
        get = _members(cls)[tree][1]
        deepest = (_MAX_NESTING - 1 - level) // 2
        rows, depths, counts = [], [], []
        stack = [(value, 0)]
        while stack:
            node, depth = stack.pop()
            if node.__class__ is not cls or depth > deepest:
                return False
            children = get(node)
            if children.__class__ is not tuple and children.__class__ is not list:
                return False
            rows.append(node)
            depths.append(depth)
            counts.append(len(children))
            stack += zip(reversed(children), repeat(depth + 1))
    try:
        pieces = _row_pieces(rows, depths, level, tree, counts)
    except TypeError:  # not records, or unhashable
        return False
    if pieces is None:
        return False
    at = range(level, level + 2 * max(depths) + 1, 2)
    separators, closings = [_COMMAS[m - 1] for m in at], [_BREAKS[m] + "]" for m in at]
    if tree < 0:
        parts.append("[" + _BREAKS[level - 1])
    opened: list[Iterator[str]] = []  # the tails of the rows whose children are being written
    previous = -1
    for head, tail, depth, count in zip(*pieces, depths, counts):
        while len(opened) > depth:
            parts.append(closings[len(opened) - 1])
            parts += opened.pop()
        if depth <= previous:  # a later sibling
            parts.append(separators[depth])
        previous = depth
        parts += head
        if count:
            opened.append(tail)
        else:
            parts += tail
    while opened:
        parts.append(closings[len(opened) - 1])
        parts += opened.pop()
    if tree < 0:
        parts.append(_BREAKS[level - 2] + "]")
    return True
