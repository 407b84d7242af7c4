"""Lightweight LDAP-style directory substrate.

The ESG prototype stores its metadata catalog, replica catalog, and MDS
information service in LDAP directories ("Based on Lightweight Directory
Access Protocol (LDAP), this catalog provides a view of data as a
collection of datasets...", §3; the replica catalog and NWS/MDS are
likewise LDAP-backed, Figure 1).

This substrate provides the semantics those catalogs need:

- :class:`DN` — distinguished names (``lf=file1,lc=CO2 1998,rc=esg``);
- RFC 2254-style search filters (:mod:`repro.ldap.filters`) with ``&``,
  ``|``, ``!``, equality, presence, substring wildcards, and ordering,
  given as text or built directly as predicates (``equal``,
  ``at_least``, ``at_most``, ``conjunction``), which is how the catalogs
  look names up: no name is escaped or parsed;
- :class:`DirectoryServer` — a DN-keyed tree with base/one/subtree
  search scopes, taking either form of filter, and a simulated cost
  model (per-operation base latency plus per-entry-scanned cost), so
  catalog lookups take simulated time just as the prototype's LDAP
  round trips did.
"""

from repro.ldap.dn import DN, DnError
from repro.ldap.filters import FilterError
from repro.ldap.directory import (
    DirectoryError,
    DirectoryServer,
    Entry,
    Scope,
    SharedValues,
)

__all__ = [
    "DN",
    "DnError",
    "DirectoryError",
    "DirectoryServer",
    "Entry",
    "FilterError",
    "Scope",
    "SharedValues",
]
