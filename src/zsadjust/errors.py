"""Exception types shared across the package, one per CLI exit code:
configuration problems, malformed data and numerical solver failures."""


class ConfigError(Exception):
    """Invalid configuration: bad flag values, unknown config keys, etc."""


class DataError(Exception):
    """Malformed or inconsistent data: bad files, dimension conflicts,
    labels without prototypes, non-finite entries."""


class SolverError(Exception):
    """Numerical failure: singular eigenvalue pair, non-convergence."""
