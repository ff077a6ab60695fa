"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid argument to a library function."""


class ConfigError(InputError):
    """Malformed or incomplete run configuration."""


class MajorantViolation(RuntimeError):
    """A pairwise relative speed exceeded the majorant rate U_max.

    The engine sets U_max to twice the bound 2 max|v| on every pairwise
    speed, so a correct step never raises this; it signals a broken
    majorant, and the step is aborted rather than silently clamping the rate.
    """


class TimeStepError(RuntimeError):
    """The configured dt makes collisions too frequent per step."""
