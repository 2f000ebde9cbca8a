"""Exception types shared across the toolkit."""


class FilterletError(Exception):
    """Base class for all toolkit errors."""


class BoundsError(FilterletError, IndexError):
    """Coordinate or index outside its valid range."""


class DataError(FilterletError, ValueError):
    """Malformed numeric data: shape mismatch, non-finite values, bad dtype."""


class FormatError(FilterletError, ValueError):
    """A value cannot be represented in the requested encoding."""


class CorruptionError(FormatError):
    """Encoded payload fails magic, structural, or checksum validation."""


class TopologyError(FilterletError, ValueError):
    """Layer graph is not a sequential chain."""


class FitError(FilterletError, ValueError):
    """Regression fit cannot be performed on the given samples."""


class ConfigError(FilterletError, ValueError):
    """Invalid machine or lane configuration."""


class StreamError(FilterletError, ValueError):
    """Malformed abstract instruction stream."""
