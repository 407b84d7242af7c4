"""Distinguished names: parsing, hierarchy, normalization.

A DN is a comma-separated sequence of ``attr=value`` RDNs, most-specific
first: ``lf=ua.1998.01.nc, lc=CO2 1998, rc=esg``. Comparison is
case-insensitive on attribute names and whitespace-insensitive around
separators, as in LDAP.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple


class DnError(ValueError):
    """Malformed distinguished name."""


def _rdn(attr, value) -> Tuple[str, str]:
    """One validated, normalized RDN: attribute lowercased, both stripped."""
    attr, value = str(attr), str(value)
    if not attr or not attr.strip():
        raise DnError("empty attribute in RDN")
    if not value or not value.strip():
        raise DnError(f"empty value for attribute {attr!r}")
    for text in (attr, value):
        if "," in text or "=" in text:
            raise DnError(f"unescaped special character in {text!r}")
    return attr.strip().lower(), value.strip()


class DN:
    """An immutable, normalized distinguished name.

    No attribute or value holds ``,`` or ``=``, so ``_norm`` and ``_str``
    split at their commas exactly where the RDNs do: :attr:`parent` and
    :meth:`child` build from them without re-validating known parts.
    """

    __slots__ = ("rdns", "_norm", "_str")

    def __init__(self, rdns: Iterable[Tuple[str, str]]):
        self.rdns = tuple(_rdn(a, v) for a, v in rdns)
        self._norm = ",".join(f"{a}={v.lower()}" for a, v in self.rdns)
        self._str = ",".join(f"{a}={v}" for a, v in self.rdns)

    @classmethod
    def _build(cls, rdns: Tuple[Tuple[str, str], ...], norm: str,
               text: str) -> "DN":
        """A DN from parts that are already validated and joined."""
        dn = cls.__new__(cls)
        dn.rdns, dn._norm, dn._str = rdns, norm, text
        return dn

    # -- construction -----------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "DN":
        """Parse ``"a=b, c=d"`` into a DN."""
        if not text or not text.strip():
            raise DnError("empty DN")
        rdns = []
        for part in text.split(","):
            if "=" not in part:
                raise DnError(f"RDN {part!r} lacks '='")
            attr, _, value = part.partition("=")
            rdns.append((attr, value))
        return cls(rdns)

    @classmethod
    def of(cls, value) -> "DN":
        """Coerce a string or DN to a DN."""
        if isinstance(value, DN):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise DnError(f"cannot make a DN from {type(value).__name__}")

    def child(self, attr: str, value: str) -> "DN":
        """A DN one level below this one."""
        attr, value = _rdn(attr, value)
        sep = "," if self.rdns else ""
        return DN._build(((attr, value),) + self.rdns,
                         f"{attr}={value.lower()}{sep}{self._norm}",
                         f"{attr}={value}{sep}{self._str}")

    # -- hierarchy -------------------------------------------------------------
    @property
    def parent(self) -> Optional["DN"]:
        """The immediate ancestor, or None at the root."""
        if len(self.rdns) <= 1:
            return None
        return DN._build(self.rdns[1:], self._norm.partition(",")[2],
                         self._str.partition(",")[2])

    @property
    def rdn(self) -> Tuple[str, str]:
        """The most-specific (leftmost) RDN."""
        return self.rdns[0]

    def is_under(self, ancestor: "DN") -> bool:
        """True if ``ancestor`` is a proper prefix (from the right)."""
        if len(ancestor.rdns) >= len(self.rdns):
            return False
        return self._norm.endswith("," + ancestor._norm)

    def depth_below(self, ancestor: "DN") -> int:
        """Levels between self and ancestor (0 = same entry)."""
        if self._norm == ancestor._norm:
            return 0
        if not self.is_under(ancestor):
            raise DnError(f"{self} is not under {ancestor}")
        return len(self.rdns) - len(ancestor.rdns)

    # -- value semantics ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, DN) and self._norm == other._norm

    def __hash__(self) -> int:
        return hash(self._norm)

    def __len__(self) -> int:
        return len(self.rdns)

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"DN({str(self)!r})"
