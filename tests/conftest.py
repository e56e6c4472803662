"""Shared test helpers."""

import numpy as np
import pytest

from otfs_sync.nn import Layer


def _layer_tree(layer):
    """The layer and every layer nested in it, containers included."""
    yield layer
    for value in vars(layer).values():
        if isinstance(value, Layer):
            yield from _layer_tree(value)
        elif isinstance(value, list):  # Sequential children
            for _, child in value:
                yield from _layer_tree(child)


@pytest.fixture
def cached_arrays():
    """Function listing (layer class, attribute) of every array a layer tree
    keeps for a backward pass; empty when nothing is cached."""
    def find(layer):
        return [(type(l).__name__, name) for l in _layer_tree(layer)
                for name, value in vars(l).items()
                if name.startswith("_") and isinstance(value, np.ndarray)]
    return find
