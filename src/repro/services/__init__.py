"""Simulated search services: back-ends, front-ends, deployments."""
