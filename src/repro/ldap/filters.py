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
attribute dictionaries: attr → tuple of lowercased string values, as
:func:`fold` builds them. The directory server keeps that view on every
entry (``Entry.folded``), so equality is one tuple-membership test in C
and no value is lowercased at query time. Presence, substring (still
case-insensitive) and ordering (numeric when both sides parse, else the
lowercased strings) read the same folded values.

A predicate's ``objectclass`` tag, when set, is a folded value every
match must carry: only ``(objectclass=x)`` and an ``&`` with such a
conjunct are tagged. The directory server takes one-level candidates
from its per-parent ``objectclass`` index by it.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Tuple

Attrs = Dict[str, Tuple[str, ...]]
Predicate = Callable[[Attrs], bool]


class FilterError(ValueError):
    """Malformed search filter."""


def fold(values: Tuple[str, ...]) -> Tuple[str, ...]:
    """``values`` lowercased: the same tuple when that changes nothing.

    The check is one pass in C over the joined values, so an attribute
    whose values are already lowercase costs no copy and no per-value
    Python call. A non-str value raises ``TypeError`` (from the join).
    """
    joined = "\x00".join(values)
    if joined.lower() == joined:
        return values
    return tuple([v.lower() for v in values])


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
            return _make_substring(attr, value), rest
        if not value:
            raise FilterError(f"empty value for {attr!r}")
        return _make_equality(attr, value), rest
    if not value:
        raise FilterError(f"empty value for {attr!r}")
    return _make_ordering(attr, op, value), rest


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


def _make_equality(attr: str, value: str) -> Predicate:
    target = value.lower()

    def pred(attrs: Attrs) -> bool:
        return target in attrs.get(attr, ())
    if attr == "objectclass":
        pred.objectclass = target
    return pred


def _make_substring(attr: str, pattern: str) -> Predicate:
    regex = re.compile(
        "^" + ".*".join(re.escape(p) for p in pattern.split("*")) + "$",
        re.IGNORECASE)

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
