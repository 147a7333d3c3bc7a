"""repro — reproduction of "Characterizing Roles of Front-end Servers in
End-to-End Performance of Dynamic Content Distribution" (IMC 2011).

The package simulates the paper's entire measurement universe — a
packet-level network with a faithful TCP, split-TCP front-end servers
with static-content caches, back-end search data centers, and a
PlanetLab-style testbed — and implements the paper's model-based
inference framework on top of captured packet traces.

Layer map (bottom-up):

========================  ==================================================
``repro.sim``             discrete-event engine, RNG streams, session executor
``repro.net``             links, nodes, topology, geography
``repro.tcp``             TCP: handshake, slow start, loss recovery
``repro.http``            HTTP/1.1 with chunked streaming
``repro.content``         keywords and synthetic search-result pages
``repro.services``        back-end data centers, front-end servers
``repro.testbed``         vantage points, sites, scenario assembly
``repro.measure``         packet capture, query emulator, campaigns
``repro.analysis``        stream reconstruction, boundaries, statistics
``repro.core``            the paper's inference framework (the result)
``repro.experiments``     one runner per figure of the paper
========================  ==================================================
"""

__version__ = "1.0.0"
