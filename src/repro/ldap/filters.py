"""RFC 2254-style search filters.

Supported grammar::

    filter     = "(" ( and / or / not / item ) ")"
    and        = "&" filter+
    or         = "|" filter+
    not        = "!" filter
    item       = attr "=" value        ; equality (case-insensitive)
               | attr "=*"             ; presence
               | attr "=" substring    ; value containing "*" wildcards
               | attr ">=" value       ; ordering (numeric if both parse)
               | attr "<=" value

:func:`compile_filter` compiles the text into a predicate over *folded*
attribute dictionaries: attr → sorted tuple of lowercased string
values, as :func:`fold` builds them. The directory server keeps that
view on every entry (``Entry.folded``), so no value is lowercased at
query time, and equality is one membership test in C: ``in`` on a
tuple shorter than ``BISECT_FROM`` values, a binary search
(``bisect_left``) on a longer one, such as a location's ``filename``
list. Presence, substring (still case-insensitive) and ordering
(numeric when both sides parse, else the lowercased strings) read the
same folded values and do not depend on their order.

Structured lookups: a caller that knows its filter builds the predicate
with :func:`equal`, :func:`at_least`, :func:`at_most`, :func:`present`
and :func:`conjunction`, the constructors the parser itself builds with,
so a structure and its text match the same entries. A value given to a
constructor is matched as it is, never escaped or parsed: ``*``, ``(``,
``)``, ``\\``, NUL and whitespace at either end are plain characters of
it. The catalogs look names up this way, and their constant filters
are module-level predicates built once, so only a user's text is
compiled, afresh on every call.

A predicate's ``objectclass`` tag, when set, is a folded value every
match must carry, and its ``rest`` is the predicate left to test on an
entry that carries it (``None`` for nothing): only
``equal("objectclass", x)`` and a conjunction with such a conjunct are
tagged. The directory server takes one-level candidates from its
per-parent ``objectclass`` index by the tag and tests only the rest.

In text, an assertion value escapes ``*``, ``(``, ``)``, ``\\`` and NUL
as ``\\2a``, ``\\28``, ``\\29``, ``\\5c`` and ``\\00`` (RFC 2254);
:func:`escape` does it for a caller that writes a filter around a name.
The parser strips the whitespace around a raw value, so :func:`escape`
also encodes the whitespace at either end of a name (a space as
``\\20``), which then matches literally.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left
from typing import Callable, Dict, Tuple, Union

Attrs = Dict[str, Tuple[str, ...]]
Predicate = Callable[[Attrs], bool]
Filter = Union[str, Predicate]  # text or a built predicate


class FilterError(ValueError):
    """Malformed search filter."""


def fold(values: Tuple[str, ...]) -> Tuple[str, ...]:
    """``values`` lowercased and sorted: the same tuple when that changes
    nothing.

    The lowercase check is one pass in C over the joined values, and
    sorting a sorted tuple is one pass of comparisons, so an attribute
    whose values are already lowercase and in order costs no copy and no
    per-value Python call. A non-str value raises ``TypeError`` (from the
    join).
    """
    joined = "\x00".join(values)
    if joined.lower() != joined:
        return tuple(sorted([v.lower() for v in values]))
    if len(values) < 2:
        return values
    folded = tuple(sorted(values))
    return values if folded == values else folded


_ESCAPES = {ord(c): f"\\{ord(c):02x}" for c in "\\*()\x00"}
_SPECIAL = re.compile(r"[\\*()\x00]")
_ESCAPED = re.compile(r"(?:\\[0-9a-fA-F]{2})+")
_BAD_ESCAPE = re.compile(r"\\(?![0-9a-fA-F]{2})")


def escape(value: str) -> str:
    """``value`` as an assertion value that matches it literally.

    A name with no character to escape and no whitespace at either end
    is returned as it is after one regex search and one strip, both in
    C."""
    if _SPECIAL.search(value) is None and value.strip() == value:
        return value
    value = value.translate(_ESCAPES)
    body = value.strip()
    if body == value:
        return value
    head = value[:len(value) - len(value.lstrip())]
    tail = value[len(head) + len(body):]
    return _hex(head) + body + _hex(tail)


def _hex(text: str) -> str:
    return "".join(f"\\{b:02x}" for b in text.encode())


def _unescape(value: str) -> str:
    """An assertion value with its ``\\XX`` escapes (UTF-8) decoded."""
    if "\\" not in value:
        return value
    if _BAD_ESCAPE.search(value):
        raise FilterError(f"bad escape in {value!r}")
    try:
        return _ESCAPED.sub(
            lambda m: bytes.fromhex(m.group().replace("\\", "")).decode(),
            value)
    except UnicodeDecodeError as exc:
        raise FilterError(f"bad escape in {value!r}: {exc}") from exc


def compile_filter(text: str) -> Predicate:
    """Compile a filter string into a predicate over folded attributes."""
    if not text or not text.strip():
        raise FilterError("empty filter")
    text = text.strip()
    pred, rest = _parse(text)
    if rest.strip():
        raise FilterError(f"trailing garbage after filter: {rest!r}")
    return pred


def _parse(text: str):
    if not text.startswith("("):
        raise FilterError(f"expected '(' at {text[:20]!r}")
    body = text[1:]
    if not body:
        raise FilterError("unterminated filter")
    op = body[0]
    if op == "&" or op == "|":
        preds, rest = _parse_list(body[1:])
        if not preds:
            raise FilterError(f"{op!r} needs at least one subfilter")
        combined = conjunction(*preds) if op == "&" else _make_or(preds)
        return combined, _expect_close(rest)
    if op == "!":
        inner, rest = _parse(body[1:])
        return (lambda attrs, p=inner: not p(attrs)), _expect_close(rest)
    return _parse_item(body)


def _parse_list(text: str):
    preds = []
    while text.startswith("("):
        pred, text = _parse(text)
        preds.append(pred)
    return preds, text


def _expect_close(text: str) -> str:
    if not text.startswith(")"):
        raise FilterError(f"expected ')' at {text[:20]!r}")
    return text[1:]


_ITEM = re.compile(r"^([A-Za-z][\w.\-]*)\s*(>=|<=|=)\s*([^()]*)\)")


def _parse_item(body: str):
    m = _ITEM.match(body)
    if m is None:
        raise FilterError(f"malformed item at {body[:30]!r}")
    attr, op, value = m.group(1), m.group(2), m.group(3).strip()
    rest = body[m.end():]
    if op == ">=":
        return at_least(attr, _unescape(value)), rest
    if op == "<=":
        return at_most(attr, _unescape(value)), rest
    if value == "*":
        return present(attr), rest
    if "*" in value:
        parts = [_unescape(p) for p in value.split("*")]
        return _make_substring(attr.lower(), parts), rest
    return equal(attr, _unescape(value)), rest


# -- predicate constructors (over folded attributes) --------------------------

def present(attr: str) -> Predicate:
    """``(attr=*)``: ``attr`` has a value."""
    attr = attr.lower()

    def pred(attrs: Attrs) -> bool:
        return bool(attrs.get(attr))
    return pred


# ``(objectclass=*)``: every entry (the directory's default filter).
ANY_ENTRY = present("objectclass")

# Folded tuples this long or longer are searched by bisection; ``in``
# is faster on shorter ones.
BISECT_FROM = 16


def equal(attr: str, value: str) -> Predicate:
    """``(attr=value)``: a value of ``attr`` is ``value``, ignoring case.

    ``value`` is matched as it is: no character of it is special.
    """
    attr = attr.lower()
    target = _nonempty(attr, value).lower()

    def pred(attrs: Attrs) -> bool:
        values = attrs.get(attr, ())
        if len(values) < BISECT_FROM:
            return target in values
        i = bisect_left(values, target)
        return i < len(values) and values[i] == target
    if attr == "objectclass":
        pred.objectclass, pred.rest = target, None
    return pred


def at_least(attr: str, value: str) -> Predicate:
    """``(attr>=value)``: numeric when both sides parse, else the
    lowercased strings."""
    return _ordering(attr, value, operator.ge)


def at_most(attr: str, value: str) -> Predicate:
    """``(attr<=value)``, compared as :func:`at_least` compares."""
    return _ordering(attr, value, operator.le)


def conjunction(*preds: Predicate) -> Predicate:
    """``(&...)``: every one of ``preds`` holds.

    Its ``objectclass`` tag is its first tagged conjunct's, and its
    ``rest`` tests the other conjuncts and that conjunct's own rest.
    """
    def pred(attrs: Attrs) -> bool:
        return all(p(attrs) for p in preds)
    for i, p in enumerate(preds):
        tag = getattr(p, "objectclass", None)
        if tag is not None:
            others = preds[:i] + ((p.rest,) if p.rest else ()) + preds[i + 1:]
            pred.objectclass = tag
            pred.rest = (None if not others else others[0]
                         if len(others) == 1 else conjunction(*others))
            break
    return pred


def _nonempty(attr: str, value: str) -> str:
    if not value:
        raise FilterError(f"empty value for {attr!r}")
    return value


def _make_or(preds):
    def pred(attrs: Attrs) -> bool:
        return any(p(attrs) for p in preds)
    return pred


def _make_substring(attr: str, parts) -> Predicate:
    """``parts``: the literal pieces between the wildcards."""
    regex = re.compile(
        "^" + ".*".join(re.escape(p) for p in parts) + "$", re.IGNORECASE)

    def pred(attrs: Attrs) -> bool:
        return any(regex.match(v) for v in attrs.get(attr, ()))
    return pred


def _ordering(attr: str, value: str, compare) -> Predicate:
    attr = attr.lower()
    low = _nonempty(attr, value).lower()
    try:
        number = float(value)
    except ValueError:
        number = None

    def holds(v: str) -> bool:
        if number is not None:
            try:
                return compare(float(v), number)
            except ValueError:
                pass
        return compare(v, low)  # lexicographic fallback

    def pred(attrs: Attrs) -> bool:
        return any(holds(v) for v in attrs.get(attr, ()))
    return pred
