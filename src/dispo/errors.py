"""Exception types shared across the package.

``read_json`` reads a JSON file and ``check_out_dir`` checks an output
path; both report a fault as a ``ConfigurationError``.
"""

import json
import os
from pathlib import Path


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


def check_out_dir(path) -> None:
    """Raise ``ConfigurationError`` naming ``path`` unless it can be an output directory:
    it, or else its nearest existing ancestor, is a directory.  Creates nothing."""
    path = Path(path)
    here = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not here.is_dir():
        raise ConfigurationError(f"output directory {path}: {here} is not a directory")
