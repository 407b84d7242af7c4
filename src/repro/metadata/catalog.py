"""The metadata catalog implementation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ldap.directory import DirectoryServer, Entry, Scope
from repro.ldap.dn import DN
from repro.ldap.filters import at_least, at_most, conjunction, equal
from repro.sim.core import Environment

_DATAFILE = equal("objectclass", "datafile")
_DATASET = equal("objectclass", "dataset")
_VARIABLE = equal("objectclass", "variable")


def _split(children) -> Tuple[List[Entry], List[Entry]]:
    """A dataset's variable and datafile children, each in DN order."""
    variables, files = [], []
    for e in children:
        classes = e.folded.get("objectclass", ())
        if "variable" in classes:
            variables.append(e)
        if "datafile" in classes:
            files.append(e)
    return variables, files


class MetadataError(Exception):
    """Unknown dataset/variable or an unanswerable query."""


@dataclass(frozen=True)
class VariableRecord:
    """One variable's descriptive metadata (Figure 2 shows these)."""

    name: str
    units: str
    long_name: str


@dataclass(frozen=True)
class DatasetRecord:
    """A dataset summary."""

    dataset_id: str
    model: str
    run: str
    description: str
    variables: Tuple[str, ...]
    file_count: int


class MetadataCatalog:
    """Attribute-based dataset catalog over LDAP.

    DIT layout::

        mc=<name>
          dataset=<id>          model/run/description attrs
            variable=<var>      units/long_name
            file=<logical>      year, monthlo, monthhi, variables
    """

    def __init__(self, env: Environment, name: str = "pcmdi"):
        self.env = env
        self.directory = DirectoryServer(env, name=f"mc-{name}")
        self.root = DN.parse(f"mc={name}")
        self.directory.add(self.root, {"objectclass": "metadatacatalog"})

    # -- registration -----------------------------------------------------
    def register_dataset(self, dataset_id: str, model: str, run: str,
                         description: str = "",
                         variables: Iterable[VariableRecord] = ()) -> None:
        """Create a dataset entry with its variable descriptions."""
        dn = self.root.child("dataset", dataset_id)
        if self.directory.exists(dn):
            raise MetadataError(f"dataset {dataset_id!r} exists")
        self.directory.add(dn, {"objectclass": "dataset", "model": model,
                                "run": run, "description": description})
        for var in variables:
            self.directory.add(dn.child("variable", var.name),
                               {"objectclass": "variable",
                                "units": var.units,
                                "longname": var.long_name})

    def register_files(self, dataset_id: str,
                       files: Iterable[Dict]) -> int:
        """Attach logical files (dicts from ``repro.data.monthly_files``)."""
        dn = self._dataset_dn(dataset_id)
        n = 0
        for f in files:
            m0, m1 = f["month_range"]
            self.directory.add(
                dn.child("file", str(f["logical_name"])),
                {"objectclass": "datafile",
                 "year": str(f["year"]),
                 "monthlo": str(m0), "monthhi": str(m1),
                 "size": str(f["size"]),
                 "variable": list(f["variables"])})
            n += 1
        return n

    # -- browsing (Figure 2's selection panes) ---------------------------------
    def datasets(self, model: Optional[str] = None) -> List[DatasetRecord]:
        """All datasets, optionally restricted to one model."""
        flt = (_DATASET if model is None
               else conjunction(_DATASET, equal("model", model)))
        entries = self.directory.search(self.root, Scope.ONELEVEL, flt)
        return sorted(
            (self._record(e, self.directory.search(e.dn, Scope.ONELEVEL))
             for e in entries), key=lambda d: d.dataset_id)

    @staticmethod
    def _record(entry, children) -> DatasetRecord:
        """The summary of one dataset entry, given its children."""
        variables, files = _split(children)
        return DatasetRecord(
            dataset_id=entry.dn.rdn[1],
            model=entry.first("model", ""),
            run=entry.first("run", ""),
            description=entry.first("description", ""),
            variables=tuple(sorted(e.dn.rdn[1] for e in variables)),
            file_count=len(files))

    def variables(self, dataset_id: str) -> List[VariableRecord]:
        """Variable descriptions for one dataset."""
        dn = self._dataset_dn(dataset_id)
        return [VariableRecord(e.dn.rdn[1], e.first("units", ""),
                               e.first("longname", ""))
                for e in self.directory.search(
                    dn, Scope.ONELEVEL, _VARIABLE)]

    def time_extent(self, dataset_id: str) -> Tuple[int, int]:
        """(first_year, last_year) covered by the dataset's files."""
        dn = self._dataset_dn(dataset_id)
        years = [int(e.first("year"))
                 for e in self.directory.search(
                     dn, Scope.ONELEVEL, _DATAFILE)]
        if not years:
            raise MetadataError(f"dataset {dataset_id!r} has no files")
        return min(years), max(years)

    # -- resolution: attributes → logical file names ------------------------------
    def resolve(self, dataset_id: str, variable: str,
                years: Optional[Tuple[int, int]] = None,
                months: Optional[Tuple[int, int]] = None) -> List[str]:
        """Logical file names covering the requested selection.

        ``years``/``months`` are inclusive ranges; omitted means "all".
        Raises if the dataset lacks the variable.
        """
        dn = self._dataset_dn(dataset_id)
        return self._select(dataset_id,
                            self.directory.search(dn, Scope.ONELEVEL),
                            variable, years, months)

    def query_files(self, dataset_id: str, variable: str,
                    years: Optional[Tuple[int, int]] = None,
                    months: Optional[Tuple[int, int]] = None):
        """Simulation process: :meth:`resolve` with LDAP costs, answered
        from the one timed query's children."""
        dn = self._dataset_dn(dataset_id)
        children = yield from self.directory.query(dn, Scope.ONELEVEL)
        return self._select(dataset_id, children, variable, years, months)

    @staticmethod
    def _select(dataset_id: str, children, variable: str,
                years: Optional[Tuple[int, int]],
                months: Optional[Tuple[int, int]]) -> List[str]:
        """:meth:`resolve` over one dataset's children."""
        variables, files = _split(children)
        known = {e.dn.rdn[1] for e in variables}
        if known and variable not in known:
            raise MetadataError(
                f"dataset {dataset_id!r} has no variable {variable!r} "
                f"(has {sorted(known)})")
        flt = equal("variable", variable)
        if years is not None:
            flt = conjunction(flt, at_least("year", str(years[0])),
                              at_most("year", str(years[1])))
        hits = [e for e in files if flt(e.folded)]
        if months is not None:
            lo, hi = months
            hits = [e for e in hits
                    if not (int(e.first("monthhi")) < lo
                            or int(e.first("monthlo")) > hi)]
        return sorted(e.dn.rdn[1] for e in hits)

    def query_dataset(self, dataset_id: str):
        """Simulation process: one dataset's summary with LDAP costs,
        answered from the one timed query's children."""
        dn = self._dataset_dn(dataset_id)
        children = yield from self.directory.query(dn, Scope.ONELEVEL)
        entry = (self.directory.lookup(dn)
                 if self.directory.exists(dn) else None)
        if (entry is None or not _DATASET(entry.folded)
                or entry.dn.rdn[1] != dataset_id):
            raise MetadataError(f"no dataset {dataset_id!r}")
        return self._record(entry, children)

    def file_size(self, dataset_id: str, logical_name: str) -> float:
        """Registered size of one logical file."""
        dn = self._dataset_dn(dataset_id).child("file", logical_name)
        if not self.directory.exists(dn):
            raise MetadataError(f"no file {logical_name!r} in "
                                f"{dataset_id!r}")
        return float(self.directory.lookup(dn).first("size", "0"))

    # -- internals -----------------------------------------------------------------
    def _dataset_dn(self, dataset_id: str) -> DN:
        dn = self.root.child("dataset", dataset_id)
        if not self.directory.exists(dn):
            raise MetadataError(f"no dataset {dataset_id!r}")
        return dn

    def __repr__(self) -> str:
        return f"MetadataCatalog({len(self.directory)} entries)"
