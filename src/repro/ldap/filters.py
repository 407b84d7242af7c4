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

A predicate's ``objectclass`` tag, when set, is a folded value every
match must carry: only ``(objectclass=x)`` and an ``&`` with such a
conjunct are tagged. The directory server takes one-level candidates
from its per-parent ``objectclass`` index by it.

:func:`compile_filter` remembers the last ``FILTER_MEMO`` texts it
compiled, as :mod:`re` remembers patterns, so the shard queries of one
federated lookup, and the lookups a fleet repeats, share one predicate.
Predicates hold only the filter's own literals, and text that fails to
parse is not remembered: it raises on every call.

An assertion value escapes ``*``, ``(``, ``)``, ``\\`` and NUL as
``\\2a``, ``\\28``, ``\\29``, ``\\5c`` and ``\\00`` (RFC 2254); :func:`escape`
does it for a caller that builds a filter from a name. The parser strips
the whitespace around a raw value, so :func:`escape` also encodes the
whitespace at either end of a name (a space as ``\\20``), which then
matches literally.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from typing import Callable, Dict, Tuple

Attrs = Dict[str, Tuple[str, ...]]
Predicate = Callable[[Attrs], bool]


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
    (nearly every catalog name) is returned as it is after one regex
    search and one strip, both in C."""
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


# Filter texts whose compiled predicate is remembered.
FILTER_MEMO = 64


@functools.lru_cache(maxsize=FILTER_MEMO)
def compile_filter(text: str) -> Predicate:
    """Compile a filter string into a predicate over folded attributes.

    The predicate is shared by every call with the same text.
    """
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
        combined = _make_and(preds) if op == "&" else _make_or(preds)
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
    attr, op, value = m.group(1).lower(), m.group(2), m.group(3).strip()
    rest = body[m.end():]
    if op == "=":
        if value == "*":
            return _make_presence(attr), rest
        if "*" in value:
            parts = [_unescape(p) for p in value.split("*")]
            return _make_substring(attr, parts), rest
        if not value:
            raise FilterError(f"empty value for {attr!r}")
        return _make_equality(attr, _unescape(value)), rest
    if not value:
        raise FilterError(f"empty value for {attr!r}")
    return _make_ordering(attr, op, _unescape(value)), rest


# -- predicate builders (over folded attributes) ------------------------------

def _make_and(preds):
    def pred(attrs: Attrs) -> bool:
        return all(p(attrs) for p in preds)
    tags = [getattr(p, "objectclass", None) for p in preds]
    pred.objectclass = next((t for t in tags if t is not None), None)
    return pred


def _make_or(preds):
    def pred(attrs: Attrs) -> bool:
        return any(p(attrs) for p in preds)
    return pred


def _make_presence(attr: str) -> Predicate:
    def pred(attrs: Attrs) -> bool:
        return bool(attrs.get(attr))
    return pred


# Folded tuples this long or longer are searched by bisection; ``in``
# is faster on shorter ones.
BISECT_FROM = 16


def _make_equality(attr: str, value: str) -> Predicate:
    target = value.lower()

    def pred(attrs: Attrs) -> bool:
        values = attrs.get(attr, ())
        if len(values) < BISECT_FROM:
            return target in values
        i = bisect_left(values, target)
        return i < len(values) and values[i] == target
    if attr == "objectclass":
        pred.objectclass = target
    return pred


def _make_substring(attr: str, parts) -> Predicate:
    """``parts``: the literal pieces between the wildcards."""
    regex = re.compile(
        "^" + ".*".join(re.escape(p) for p in parts) + "$", re.IGNORECASE)

    def pred(attrs: Attrs) -> bool:
        return any(regex.match(v) for v in attrs.get(attr, ()))
    return pred


def _make_ordering(attr: str, op: str, value: str) -> Predicate:
    def compare(v: str) -> bool:
        try:
            left, right = float(v), float(value)
        except ValueError:
            left, right = v, value.lower()  # lexicographic fallback
        return left >= right if op == ">=" else left <= right

    def pred(attrs: Attrs) -> bool:
        return any(compare(v) for v in attrs.get(attr, ()))
    return pred
