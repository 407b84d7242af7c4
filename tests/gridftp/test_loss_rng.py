"""Data connections get a loss generator only when loss is modelled."""

from repro.gridftp import GridFtpConfig
from repro.net import MB
from repro.sim.rng import RandomStreams


def get_file(grid, cfg):
    grid.server_fs.create("data.nc", 8 * MB)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        yield from session.get("data.nc", grid.client_fs, grid.client_host,
                               config=cfg)

    grid.run_process(main())


class RecordingRng:
    """Passes draws through and keeps (scale, value) of each."""

    def __init__(self, gen):
        self.gen = gen
        self.draws = []

    def exponential(self, scale):
        value = self.gen.exponential(scale)
        self.draws.append((scale, value))
        return value


def recording_spawn(monkeypatch):
    """Patch ``RandomStreams.spawn``; return the (name, index, rng) log."""
    spawned = []
    spawn = RandomStreams.spawn

    def recorded(self, name, index):
        rng = RecordingRng(spawn(self, name, index))
        spawned.append((name, index, rng))
        return rng

    monkeypatch.setattr(RandomStreams, "spawn", recorded)
    return spawned


def test_lossless_get_spawns_no_generator(grid, monkeypatch):
    spawned = recording_spawn(monkeypatch)
    get_file(grid, GridFtpConfig(parallelism=4, loss_rate=0.0))
    assert spawned == []
    assert grid.client._stream_serial == 4  # the serial still advances


def test_lossy_connection_k_draws_its_own_stream(grid, monkeypatch):
    spawned = recording_spawn(monkeypatch)
    get_file(grid, GridFtpConfig(parallelism=3, loss_rate=0.5))
    monkeypatch.undo()
    assert [(name, k) for name, k, _rng in spawned] == [
        ("gridftp.loss", k) for k in (1, 2, 3)]
    for _name, k, rng in spawned:
        assert rng.draws  # every connection draws its first loss gap
        fresh = grid.env.rng.spawn("gridftp.loss", k)
        assert [(scale, fresh.exponential(scale))
                for scale, _value in rng.draws] == rng.draws
