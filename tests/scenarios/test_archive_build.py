"""The materialized archive synthesizes each (run, year) once.

``EsgTestbed._populate`` cuts every monthly file of a year from one
``generate_year`` result. The files must still be exactly what
``slice_months`` of a per-file ``generate_year`` plus ``encode`` give
for each month range.
"""

from repro.data import ClimateModelRun, encode
from repro.data.synth import slice_months
from repro.scenarios.esg import EsgTestbed

CHUNKS = {"time": 1, "lat": 8, "lon": 16}
YEARS = 2


def test_each_year_is_synthesized_once_and_files_are_unchanged(monkeypatch):
    calls = []
    generate_year = ClimateModelRun.generate_year

    def counting(self, year, *args, **kwargs):
        calls.append((self.dataset_id, year))
        return generate_year(self, year, *args, **kwargs)

    monkeypatch.setattr(ClimateModelRun, "generate_year", counting)
    tb = EsgTestbed(materialize=True, years=YEARS, sdbf_chunks=CHUNKS)
    assert len(calls) == len(tb.datasets) * YEARS
    assert len(set(calls)) == len(calls)
    monkeypatch.undo()

    runs = {run.dataset_id: run for run in (
        ClimateModelRun(model="NCAR_CSM", run="run1", grid=tb.grid),
        ClimateModelRun(model="PCM", run="B06.22", grid=tb.grid))}
    assert set(runs) == set(tb.datasets)
    for dataset_id, files in tb.datasets.items():
        assert len(files) == 12 * YEARS
        for f in files:
            m0, m1 = f["month_range"]
            want = encode(slice_months(
                runs[dataset_id].generate_year(int(f["year"])), m0, m1),
                chunks=CHUNKS)
            assert f["content"] == want
            assert f["size"] == float(len(want))
