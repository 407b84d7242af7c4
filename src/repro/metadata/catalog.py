"""The metadata catalog implementation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ldap.directory import DirectoryServer, Scope
from repro.ldap.dn import DN
from repro.sim.core import Environment


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
        flt = ("(objectclass=dataset)" if model is None
               else f"(&(objectclass=dataset)(model={model}))")
        entries = self.directory.search(self.root, Scope.ONELEVEL, flt)
        return sorted(map(self._record, entries), key=lambda d: d.dataset_id)

    def _record(self, entry) -> DatasetRecord:
        """The summary of one dataset entry."""
        dn = entry.dn
        vars_ = tuple(sorted(
            e.dn.rdn[1] for e in self.directory.search(
                dn, Scope.ONELEVEL, "(objectclass=variable)")))
        n_files = len(self.directory.search(
            dn, Scope.ONELEVEL, "(objectclass=datafile)"))
        return DatasetRecord(
            dataset_id=dn.rdn[1],
            model=entry.first("model", ""),
            run=entry.first("run", ""),
            description=entry.first("description", ""),
            variables=vars_, file_count=n_files)

    def variables(self, dataset_id: str) -> List[VariableRecord]:
        """Variable descriptions for one dataset."""
        dn = self._dataset_dn(dataset_id)
        return [VariableRecord(e.dn.rdn[1], e.first("units", ""),
                               e.first("longname", ""))
                for e in self.directory.search(
                    dn, Scope.ONELEVEL, "(objectclass=variable)")]

    def time_extent(self, dataset_id: str) -> Tuple[int, int]:
        """(first_year, last_year) covered by the dataset's files."""
        dn = self._dataset_dn(dataset_id)
        years = [int(e.first("year"))
                 for e in self.directory.search(
                     dn, Scope.ONELEVEL, "(objectclass=datafile)")]
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
        known = {v.name for v in self.variables(dataset_id)}
        if known and variable not in known:
            raise MetadataError(
                f"dataset {dataset_id!r} has no variable {variable!r} "
                f"(has {sorted(known)})")
        clauses = [f"(objectclass=datafile)", f"(variable={variable})"]
        if years is not None:
            clauses.append(f"(year>={years[0]})")
            clauses.append(f"(year<={years[1]})")
        flt = "(&" + "".join(clauses) + ")"
        hits = self.directory.search(dn, Scope.ONELEVEL, flt)
        if months is not None:
            lo, hi = months
            hits = [e for e in hits
                    if not (int(e.first("monthhi")) < lo
                            or int(e.first("monthlo")) > hi)]
        return sorted(e.dn.rdn[1] for e in hits)

    def query_files(self, dataset_id: str, variable: str,
                    years: Optional[Tuple[int, int]] = None,
                    months: Optional[Tuple[int, int]] = None):
        """Simulation process: :meth:`resolve` with LDAP costs."""
        dn = self._dataset_dn(dataset_id)
        yield from self.directory.query(dn, Scope.ONELEVEL,
                                        "(objectclass=datafile)")
        return self.resolve(dataset_id, variable, years, months)

    def query_dataset(self, dataset_id: str):
        """Simulation process: one dataset's summary with LDAP costs."""
        dn = self._dataset_dn(dataset_id)
        yield from self.directory.query(dn, Scope.ONELEVEL,
                                        "(objectclass=*)")
        hits = (self.directory.search(dn, Scope.BASE, "(objectclass=dataset)")
                if self.directory.exists(dn) else [])
        if not hits or hits[0].dn.rdn[1] != dataset_id:
            raise MetadataError(f"no dataset {dataset_id!r}")
        return self._record(hits[0])

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
