"""Event-driven TCP: handshake, slow start, loss recovery, persistence."""
