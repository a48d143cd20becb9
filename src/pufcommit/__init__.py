"""pufcommit: an executable lab for commitment protocols built on
physically uncloneable functions, including tokens that may talk back to
their creator."""

from .bits import BitString, hamming_distance, neighborhood_size

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "hamming_distance",
    "neighborhood_size",
    "__version__",
]
