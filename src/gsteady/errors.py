"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid argument to a library function."""


class ConfigError(InputError):
    """Malformed or incomplete run configuration."""


class MajorantViolation(RuntimeError):
    """A pairwise relative speed exceeded the majorant rate U_max.

    The engine sets U_max = 2.5 max|v|: a collision dissipates energy, so a
    particle it speeds up meets one that has not collided at
    |u| <= (1 + sqrt 2) max|v|, and the factor 1.25 sits above
    (1 + sqrt 2)/2 = 1.207.  Only further collisions in the step can beat
    U_max; the step is then aborted rather than silently clamping the rate.
    """


class TimeStepError(RuntimeError):
    """The configured dt makes collisions too frequent per step."""
