"""HTTP/1.1 over the simulated TCP stack (chunked streaming supported)."""
