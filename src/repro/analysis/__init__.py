"""Trace analysis: streams, content boundaries, clustering, statistics."""
