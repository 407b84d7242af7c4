"""Climate data substrate.

The prototype's datasets are "comprised primarily of multidimensional
data variables together with descriptive, textual data", stored in "a
self-describing binary format such as netCDF" (§3). This package
provides:

- :class:`Dataset` / :class:`Variable` — in-memory multidimensional
  variables with named dimensions, coordinates and attributes, plus
  spatiotemporal subsetting;
- ``encode``/``decode`` — SDBF, a compact self-describing binary file
  format in the spirit of netCDF classic (magic, header, typed arrays);
- :class:`ClimateModelRun` and :func:`monthly_files` — a synthetic
  climate-model output generator producing physically plausible fields
  (latitudinal temperature gradients, seasonal cycles, storm noise) at
  any resolution, used both to materialize real bytes for the analysis
  pipeline and to size multi-GB synthetic archives for transfer
  experiments (the intro's "dozen multi-gigabyte files in a few hours").
"""

from repro.data.variables import Dataset, DataError, Variable
from repro.data.ncformat import (
    CHUNKED_VERSION,
    FormatError,
    SdbfReader,
    decode,
    decode_header,
    encode,
)
from repro.data.grids import GridSpec
from repro.data.digest import (
    add_mark,
    content_digest,
    file_digest,
    marks_of,
)
from repro.data.synth import (
    ClimateModelRun,
    monthly_files,
)

__all__ = [
    "CHUNKED_VERSION",
    "ClimateModelRun",
    "DataError",
    "Dataset",
    "FormatError",
    "GridSpec",
    "SdbfReader",
    "Variable",
    "add_mark",
    "content_digest",
    "decode",
    "decode_header",
    "encode",
    "file_digest",
    "marks_of",
    "monthly_files",
]
