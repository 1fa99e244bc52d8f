"""Exception types shared across the package.

``read_json`` reads a JSON file and reports a missing, unreadable or
malformed one as a ``ConfigurationError``.
"""

import json


class ContractViolation(ValueError):
    """An argument broke a documented call contract."""


class ConfigurationError(ValueError):
    """A configuration value is missing, inconsistent, or infeasible."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss, gradient, or parameter vector."""


def read_json(path) -> object:
    """Parse a JSON file; a missing, unreadable or malformed file raises ``ConfigurationError``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
