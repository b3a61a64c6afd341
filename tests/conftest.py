"""Helpers shared by the test modules."""

import numpy as np


def roll_field(values: np.ndarray, axis: int, shift: int) -> np.ndarray:
    """Cyclic node shift along a periodic axis."""
    return np.roll(values, shift, axis=axis)
