"""Schema v1 JSON reports: ``json.dumps(report, sort_keys=True, indent=2)`` and a newline, as pieces.

Only ``--format json`` loads this module. One column encoder, ``_column``,
writes one member over many records at once, and so also every array of
records, as a column of one array; a record tree is assembled from its
rows. What they refuse is written value by value, to the same bytes.
"""

from __future__ import annotations

from _json import encode_basestring_ascii  # json.encoder's accelerator, without json's decoder
from functools import cache
from itertools import chain, compress, groupby, islice, repeat
from operator import attrgetter, is_
from typing import Any, Callable, Iterable, Iterator

from shadowscan.errors import ReportTooDeep

SCHEMA_VERSION = 1

# JSON readers commonly refuse deeper documents (Jackson's default read constraints
# allow 1000 levels; Python's json stops at its recursion limit, 1000 by default).
# A resolve report nests two levels per tree level; text output has no limit.
_MAX_NESTING = 1000


@cache
def _members(cls: type) -> list[tuple[str, Callable[[Any], Any]]]:
    """Quoted names and getters of a record's ``_fields`` and ``_derived`` properties, sorted.

    A record is a NamedTuple or another class that names ``_fields``; it is
    written as the object of these members. Renaming one changes schema v1.
    """
    names = getattr(cls, "_fields", None)
    if names is None:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    names = sorted((*names, *getattr(cls, "_derived", ())))
    return [(encode_basestring_ascii(name) + ": ", attrgetter(name)) for name in names]


class _ScalarTable(dict):
    """Type -> encoder of one value's JSON text; None for a type that is no scalar.

    A new type is mapped once: a str subclass (a Coordinate, a str enum) to str's encoder."""

    def __missing__(self, kind: type) -> Callable[[Any], str] | None:
        encode = self[kind] = self[str] if issubclass(kind, str) else None
        return encode


_SCALARS = _ScalarTable({
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
})


def _scalar_text(value: Any) -> str:
    return _SCALARS[value.__class__](value)


def _encoder(kinds: set[type]) -> Callable[[Any], str] | None:
    """The encoder of scalars of the types ``kinds``, or None; ``_scalar_text`` if it takes two.

    Only the values of one encoder may share a text: ``1 == True``.
    """
    encoders = set(map(_SCALARS.__getitem__, kinds))
    if None in encoders:
        return None
    return encoders.pop() if len(encoders) == 1 else _scalar_text


class _Lines(dict):
    """Nesting level -> ``start`` and a line break indented to that level, made once per level."""

    def __init__(self, start: str) -> None:
        self.start = start

    def __missing__(self, level: int) -> str:
        text = self[level] = self.start + "\n" + "  " * level
        return text


_BREAKS, _COMMAS = _Lines(""), _Lines(",")
_ARRAYS = {list, tuple}


def _per_row(texts: list[str], depths: list[int]) -> Iterator[str]:
    """``texts[depth]`` for each of ``depths``."""
    if texts.count(texts[0]) == len(texts):  # compared, not hashed: a deep tree's texts are long
        return repeat(texts[0], len(depths))
    return map(texts.__getitem__, depths)


def _column(values: list[Any], depths: list[int], at: list[int], prefix: list[str], nest: int) -> Any:
    """The column encoder: the pieces of one member's ``values`` over many records, or None.

    Value ``i`` belongs to a member at nesting level ``at[depths[i]]``; its
    pieces start with ``prefix[depths[i]]``. Scalars, and arrays of scalars
    at one level (one text per distinct array), come as a tuple of strands
    of one piece per value. Records and other arrays, whose items stay
    pieces (so that no deep array copies its indentation into each item),
    come as each value's pieces, made as they are read in order. Records
    are taken for ``nest`` levels of records. None for any other member, or
    one whose arrays could open at ``_MAX_NESTING``.
    """
    kinds = set(map(type, values))
    if not kinds <= _ARRAYS:
        encode = _encoder(kinds)
        if encode is not None:
            return _per_row(prefix, depths), map(encode, values)
        if not nest:
            return None
        inner = [level + 1 for level in at]
        openings = [text + "{" + _BREAKS[level] for text, level in zip(prefix, inner)]
        return _rows(values, kinds, depths, inner, openings, [_BREAKS[level] + "}" for level in at], nest)
    if max(at) >= _MAX_NESTING:
        return None
    item_kinds = set(map(type, chain.from_iterable(values)))
    encode = _encoder(item_kinds)
    shared = list not in kinds and encode is not _scalar_text  # equal arrays written alike
    if encode is not None and len(set(at)) == 1:
        opening, separator, closing = "[" + _BREAKS[at[0] + 1], _COMMAS[at[0] + 1], _BREAKS[at[0]] + "]"

        def text(value: Any) -> str:
            return opening + separator.join(map(encode, value)) + closing if value else "[]"

        texts = {value: text(value) for value in set(values)}.__getitem__ if shared else text
        return _per_row(prefix, depths), map(texts, values)
    if encode is None and not nest:
        return None
    # each item's pieces start with its array's opening if it is the first item, else a separator
    empties, lengths = [text + "[]" for text in prefix], list(map(len, values))
    item_depths = list(chain.from_iterable(map(lambda depth, length: chain(
        (2 * depth,)[:length], repeat(2 * depth + 1, length - 1)), depths, lengths)))
    if encode is None:
        # per level, the opening of an array's first record and of a later one
        openings = [text for before, level in zip(prefix, at) for text in (
            before + "[" + _BREAKS[level + 1] + "{" + _BREAKS[level + 2],
            _BREAKS[level + 1] + "}" + _COMMAS[level + 1] + "{" + _BREAKS[level + 2])]
        closings = [_BREAKS[level + 1] + "}" + _BREAKS[level] + "]" for level in at]
        found = _rows(list(chain.from_iterable(values)), item_kinds, item_depths,
                      [level + 2 for level in at for _ in "01"], openings, None, nest)
        if found is None:
            return None
    else:  # scalars at several levels (a tree's paths), each distinct item encoded once
        openings = [text for before, level in zip(prefix, at)
                    for text in (before + "[" + _BREAKS[level + 1], _COMMAS[level + 1])]
        closings = [_BREAKS[level] + "]" for level in at]
        if shared:
            encode = {item: encode(item) for item in set(chain.from_iterable(values))}.__getitem__
        found = zip(_per_row(openings, item_depths), map(encode, chain.from_iterable(values)))

    def array(length: int, depth: int) -> Iterable[str]:
        if not length:
            return (empties[depth],)
        return chain.from_iterable(chain(islice(found, length), ((closings[depth],),)))

    return map(array, lengths, depths)


def _rows(records: list[Any], kinds: set[type], depths: list[int], at: list[int], openings: list[str],
          closings: list[str] | None, nest: int, tree: int = -1, counts: Iterable[int] = ()) -> Any:
    """The pieces of each of ``records``, of the classes ``kinds``, from ``_column`` over each member.

    A record at depth ``d`` has its members at nesting level ``at[d]``; its
    pieces start with ``openings[d]``, before its first member's name, and
    end with ``closings[d]``, if given. With ``tree``, that member holds
    ``counts[i]`` children, written elsewhere: the pieces split where their
    array opens. None if a member is refused or a class has no members.
    """
    if len(kinds) > 1:  # each class's records on their own, then merged back in order
        classes, found = list(map(type, records)), {}
        for cls in kinds:
            picked = list(map(is_, classes, repeat(cls)))
            found[cls] = _rows(list(compress(records, picked)), {cls}, list(compress(depths, picked)), at,
                               openings, closings, nest)
        return None if None in found.values() else map(next, map(found.__getitem__, classes))
    try:
        members = _members(records[0].__class__)
    except TypeError:  # not records
        return None
    if not members or max(at) > _MAX_NESTING:
        return None
    columns = []
    for index, (name, get) in enumerate(members):
        prefix = [_COMMAS[level] + name for level in at] if index else [text + name for text in openings]
        if index == tree:
            opened = [text + "[" + _BREAKS[level + 1] for text, level in zip(prefix, at)]
            empty = [text + "[]" for text in prefix]
            columns.append(([(opened if count else empty)[d] for d, count in zip(depths, counts)],))
            continue
        columns.append(_column(list(map(get, records)), depths, at, prefix, nest - 1))
        if columns[-1] is None:
            return None
    if closings is not None:
        columns.append((_per_row(closings, depths),))
    if tree >= 0:
        return _by_row(columns[:tree + 1]), _by_row(columns[tree + 1:])
    return _by_row(columns)


def _by_row(columns: list[Any]) -> Iterator[Iterable[str]]:
    """The pieces of each record from its columns, the strands of adjoining columns zipped together."""
    groups: list[Iterable[Iterable[str]]] = []
    for strands, run in groupby(columns, lambda column: column.__class__ is tuple):
        groups += [zip(*chain.from_iterable(run))] if strands else run
    return iter(groups[0]) if len(groups) == 1 else map(chain.from_iterable, zip(*groups))


def _record_tree(root: Any, tree: int, level: int, parts: list[str]) -> bool:
    """Append to ``parts`` a record tree: ``root``, whose member ``tree`` holds nodes of its class.

    ``level`` is the nesting level of the root's members. The nodes are
    gathered depth first with an explicit stack, encoded by one ``_rows``
    call, each with its depth, and written depth first. False, with nothing
    appended, for ``pieces`` to write the tree value by value, if a child is
    of another class or a node's members would reach ``_MAX_NESTING``: so a
    tree too deep for a report, or a cycle, ends in ``ReportTooDeep`` there.
    """
    cls = root.__class__
    get = _members(cls)[tree][1]
    deepest = (_MAX_NESTING - 1 - level) // 2
    gathered, stack = [], [(root, 0)]
    while stack:
        node, depth = stack.pop()
        children = get(node) if node.__class__ is cls and depth <= deepest else None
        if children.__class__ not in _ARRAYS:
            return False
        gathered.append((node, depth, len(children)))
        stack += zip(reversed(children), repeat(depth + 1))
    nodes, depths, counts = map(list, zip(*gathered))
    at = list(range(level, level + 2 * max(depths) + 1, 2))
    closings, ends = [_BREAKS[m - 1] + "}" for m in at], [_BREAKS[m] + "]" for m in at]
    rows = _rows(nodes, {cls}, depths, at, ["{" + _BREAKS[m] for m in at], closings, 2, tree, counts)
    if rows is None:
        return False
    opened: list[tuple[str, ...]] = []  # the rest of each node whose children are being written
    previous = -1
    for head, tail, depth, count in zip(*rows, depths, counts):
        while len(opened) > depth:
            parts += opened.pop()
        if depth <= previous:  # a later sibling
            parts.append(_COMMAS[at[depth] - 1])
        previous = depth
        parts += head
        if count:
            opened.append((ends[depth], *tail))  # read now: the columns are read in order
        else:
            parts += tail
    while opened:
        parts += opened.pop()
    return True


def pieces(document: Any) -> list[str]:
    """``json.dumps(document, sort_keys=True, indent=2)`` and a newline, as pieces, without recursion.

    An array of records goes to ``_column``, as a column of one value, a
    record tree (a record with one member that holds records of its own
    class) to ``_record_tree``. Raises ``ReportTooDeep`` rather than nest
    deeper than ``_MAX_NESTING``, and ``TypeError`` for a value of no JSON
    type.
    """
    parts: list[str] = []
    emit = parts.append
    breaks, commas = _BREAKS, _COMMAS
    trees = True  # until a tree is refused: its subtrees would be tried and refused again
    # open containers: their remaining (index, (quoted key or "", value)), the
    # nesting level of those members and the closing bracket
    stack = [(enumerate([("", document)]), 0, "")]
    while stack:
        members, level, closing = stack[-1]
        for index, (key, value) in members:
            if index:
                emit(commas[level])
            if key:
                emit(key)
            cls = value.__class__
            encode = _SCALARS[cls]
            if encode is not None:
                emit(encode(value))
            else:
                if cls is dict:
                    opening, close = "{", "}"
                    items = [(encode_basestring_ascii(name) + ": ", item)
                             for name, item in sorted(value.items())]
                elif cls is list or cls is tuple:
                    # most arrays hold scalars (paths above all): skip those without a call
                    if value and _SCALARS[value[0].__class__] is None:
                        found = _column([value], [0], [level], [""], 2)
                        if found is not None:
                            parts += next(found)
                            continue
                    opening, close = "[", "]"
                    items = [("", item) for item in value]
                else:
                    opening, close = "{", "}"
                    items = [(name, get(value)) for name, get in _members(cls)]
                    if trees:
                        own = [at for at, (_, item) in enumerate(items)
                               if item.__class__ in _ARRAYS and item and item[0].__class__ is cls]
                        if len(own) == 1:
                            if _record_tree(value, own[0], level + 1, parts):
                                continue
                            trees = False
                if not items:
                    emit(opening + close)
                    continue
                if level == _MAX_NESTING:
                    raise ReportTooDeep(f"the JSON report would nest deeper than {_MAX_NESTING} levels, "
                                        "the most JSON readers accept; use --format text")
                emit(opening)
                emit(breaks[level + 1])
                stack.append((enumerate(items), level + 1, close))
                break
        else:
            stack.pop()
            if stack:
                emit(breaks[level - 1])
                emit(closing)
    emit("\n")
    return parts


def report_pieces(command: str, inputs: dict[str, Any], payload: dict[str, Any]) -> list[str]:
    """The pieces of the versioned JSON document of one command invocation."""
    return pieces({"schema_version": SCHEMA_VERSION, "command": command,
                   "inputs": inputs, "payload": payload})
