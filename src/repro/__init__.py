"""SUSS reproduction: Speeding Up TCP Slow-Start (SIGCOMM 2024).

A discrete-event TCP simulation library reproducing the paper's system:
the SUSS slow-start accelerator (:mod:`repro.core`) integrated into CUBIC,
the network and TCP substrates it needs (:mod:`repro.net`,
:mod:`repro.tcp`, :mod:`repro.cc`), and the experiment harnesses that
regenerate every table and figure of the paper's evaluation
(:mod:`repro.experiments`).

Quickstart::

    from repro.sim import Simulator
    from repro.net import build_path, bdp_bytes
    from repro.tcp import open_transfer

    sim = Simulator()
    net = build_path(sim, bottleneck_rate=12_500_000, rtt=0.1,
                     buffer_bytes=bdp_bytes(12_500_000, 0.1))
    xfer = open_transfer(sim, net.servers[0], net.clients[0], flow_id=1,
                         size_bytes=2_000_000, cc="cubic+suss")
    sim.run(until=30.0)
    print(xfer.fct)

Importing ``repro`` imports no subpackage; a subpackage's public names
and the congestion controls (:func:`repro.cc.create`) load the module
that defines them on first use.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
