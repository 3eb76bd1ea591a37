"""The optimizer: Adam, the one every experiment in the paper uses."""

from repro.optim.adam import Adam

__all__ = ["Adam"]
