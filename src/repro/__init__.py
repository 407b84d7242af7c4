"""Reproduction of the Earth System Grid (ESG-I) prototype, SC 2001.

This package implements, over a discrete-event simulated wide-area network,
the full stack described in *High-Performance Remote Access to Climate
Simulation Data: A Challenge Problem for Data Grid Technologies* (Allcock et
al., SC 2001):

- ``repro.sim`` — discrete-event simulation kernel (processes, resources).
- ``repro.net`` — fluid-flow WAN model with TCP window dynamics and faults.
- ``repro.hosts`` — host model (CPU interrupt cost, NICs, disks, RAID).
- ``repro.storage`` — filesystems, disk caches, tape libraries, HPSS, HRM.
- ``repro.ldap`` — lightweight directory substrate used by the catalogs.
- ``repro.gsi`` — Grid Security Infrastructure stand-in (certs, proxies).
- ``repro.data`` — self-describing binary climate data format + generators.
- ``repro.gridftp`` — the GridFTP protocol: parallel, striped, restartable.
- ``repro.replica`` — Globus-style replica catalog and management.
- ``repro.metadata`` — CDMS-style metadata catalog.
- ``repro.nws`` — Network Weather Service sensors and forecasters.
- ``repro.mds`` — MDS information service.
- ``repro.rm`` — the LBNL Request Manager and transfer monitor.
- ``repro.cdat`` — CDAT-style analysis and VCDAT-style visualization.
- ``repro.netlogger`` — NetLogger-style event logging and analysis.
- ``repro.baselines`` — DODS- and layered-gateway-style comparators.
- ``repro.scenarios`` — prebuilt testbeds (SciNET SC'2000, ESG multi-site).
- ``repro.esg`` — the end-to-end EarthSystemGrid facade.

See DESIGN.md for the full system inventory and the per-experiment index.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
