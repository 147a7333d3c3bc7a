"""Network substrate: links, nodes, topology, addresses, geography."""
