"""Per-layer split of a profiled run.

A layer is a package under ``src/repro``. The self time of every
profiled frame is credited to the layer whose file it lives in. Frames
of the suite itself, of top-level ``repro`` modules and of packages
outside :data:`LAYERS` go to ``other``. Builtin, stdlib and numpy frames
have no layer of their own: their self time goes to the nearest caller
that has one, split by the per-caller times ``pstats`` records. So the
layer times and ``other`` add up to the profile's total.

:data:`ENTRY_POINTS` are the public functions whose call counts and
cumulative times the traced run reports. ``cProfile`` counts every
resumption of a generator as a call, so for generator functions the
traced child installs :func:`count_calls` wrappers and reports their
counts instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from pathlib import Path
from typing import Dict, Optional

SUITE_DIR = str(Path(__file__).resolve().parent) + os.sep

LAYERS = ("sim", "net", "gridftp", "gsi", "hosts", "storage", "rm",
          "campaign", "ldap", "replica", "metadata", "mds", "obs",
          "netlogger", "nws", "data", "cdat", "scenarios")

# metric prefix -> (module, class, function)
ENTRY_POINTS = {
    "sim.schedule": ("repro.sim.core", "Environment", "schedule"),
    "sim.cancel": ("repro.sim.core", "Environment", "cancel"),
    "net.transfer": ("repro.net.fluid", "FluidNetwork", "transfer"),
    "gridftp.connect": ("repro.gridftp.client", "GridFtpClient", "connect"),
    "ldap.query": ("repro.ldap.directory", "DirectoryServer", "query"),
    "ldap.children": ("repro.ldap.directory", "DirectoryServer", "children"),
    "replica.find_replicas_meta": ("repro.replica.federation",
                                   "FederatedReplicaCatalog",
                                   "find_replicas_meta"),
    "rm.submit": ("repro.rm.manager", "RequestManager", "submit"),
    "rm.acquire": ("repro.rm.scheduler", "TransferScheduler", "acquire"),
    "storage.retrieve": ("repro.storage.hpss", "MassStorageSystem",
                         "retrieve"),
}


def _function(spec):
    module, cls, name = spec
    return getattr(getattr(importlib.import_module(module), cls), name)


def count_calls() -> Dict[str, list]:
    """Wrap the generator entry points with call counters.

    Returns metric prefix -> one-element counter list. The wrappers stay
    installed for the life of the process, which is one traced run.
    """
    counts = {}
    for key, spec in ENTRY_POINTS.items():
        fn = _function(spec)
        if not inspect.isgeneratorfunction(fn):
            continue
        box = counts[key] = [0]

        def wrapper(*args, _fn=fn, _box=box, **kwargs):
            _box[0] += 1
            return _fn(*args, **kwargs)

        setattr(getattr(importlib.import_module(spec[0]), spec[1]), spec[2],
                functools.wraps(fn)(wrapper))
    return counts


def entry_point_stats(stats, counted: Dict[str, list]) -> Dict[str, float]:
    """``<prefix>.calls`` and ``<prefix>.cum_s`` for every entry point."""
    out = {}
    for key, spec in ENTRY_POINTS.items():
        code = inspect.unwrap(_function(spec)).__code__
        row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        calls = row[1] if row else 0
        if key in counted:
            calls = counted[key][0]
        out[f"{key}.calls"] = calls
        out[f"{key}.cum_s"] = row[3] if row else 0.0
    return out


def _repro_dir() -> str:
    repro = importlib.import_module("repro")
    return str(Path(repro.__file__).resolve().parent) + os.sep


def split_self_time(stats) -> Dict[str, float]:
    """Self seconds per layer, plus ``other`` and ``total``.

    ``stats`` is ``pstats.Stats(...).stats``: func -> (cc, nc, tt, ct,
    callers), where callers maps caller func -> (cc, nc, tt, ct) of the
    calls made from that caller.
    """
    repro_dir = _repro_dir()
    owners: Dict[str, Optional[str]] = {}

    def owner(func) -> Optional[str]:
        """Layer of a frame, 'other', or None for builtin/stdlib/numpy."""
        filename = func[0]
        if filename not in owners:
            path = os.path.realpath(filename) if filename.startswith(
                os.sep) else filename
            if path.startswith(repro_dir):
                package = path[len(repro_dir):].split(os.sep)[0]
                owners[filename] = package if package in LAYERS else "other"
            elif path.startswith(SUITE_DIR):
                owners[filename] = "other"
            else:
                owners[filename] = None
        return owners[filename]

    shares: Dict[tuple, Dict[str, float]] = {}

    def caller_mix(func, edge_index: int, active: frozenset):
        """How ``func``'s calls split over layers, by its callers.

        ``edge_index`` picks the per-caller field used as the weight:
        2 (self time) for the frame being credited, 3 (cumulative time)
        when walking further up through other foreign frames. ``active``
        holds the foreign frames already being walked. A path that comes
        back to one of them, or to ``func`` itself, closes a call cycle;
        it is dropped and the other paths renormalised, because time
        that re-enters a cycle leaves it again by one of those paths.

        Returns the split and the frames of ``active`` whose paths were
        dropped on the way: a split that dropped any holds only for this
        walk. It is empty when every path was dropped.
        """
        callers = stats[func][4] if func in stats else {}
        inside = active | {func}
        edges = {c: edge for c, edge in callers.items() if c not in inside}
        cut = {c for c in callers if c in active}
        weights = {c: edge[edge_index] for c, edge in edges.items()}
        if not sum(weights.values()):
            weights = {c: edge[1] for c, edge in edges.items()}
        mix: Dict[str, float] = {}
        for caller, weight in weights.items():
            layer = owner(caller)
            if layer is not None:
                up = {layer: 1.0}
            else:
                up, up_cut = foreign_share(caller, inside)
                cut |= up_cut
            for up_layer, frac in up.items():
                mix[up_layer] = mix.get(up_layer, 0.0) + frac * weight
        cut.discard(func)
        total = sum(mix.values())
        if not total:
            # A root frame, or every path led back into the walk.
            return ({} if cut else {"other": 1.0}), cut
        return {layer: w / total for layer, w in mix.items()}, cut

    def foreign_share(func, active: frozenset):
        if func in shares:
            return shares[func], set()
        mix, cut = caller_mix(func, 3, active)
        if not cut:
            shares[func] = mix
        return mix, cut

    out = {layer: 0.0 for layer in LAYERS}
    out["other"] = 0.0
    total = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        total += tt
        layer = owner(func)
        if layer is not None:
            out[layer] += tt
            continue
        for mixed, frac in caller_mix(func, 2, frozenset())[0].items():
            out[mixed] += tt * frac
    out["total"] = total
    return out
