"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value (CLI exit code 2)."""


class CodecError(ValueError):
    """A genome code out of range for its width, or a bit string that is not whole 5-bit
    segments (``codec``)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge (CLI exit code 4)."""
