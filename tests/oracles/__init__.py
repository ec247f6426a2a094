"""Slow, obviously-correct oracles that production kernels are
property-tested against.  Nothing under ``src/`` imports them."""
