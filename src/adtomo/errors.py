"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid configuration. ``path`` names the offending field when known."""

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class StatError(ValueError):
    """Invalid statistical parameters or input to a statistical test."""


class WorkerLostError(RuntimeError):
    """A pool worker process died (killed, or out of memory) before it
    returned its task's result."""


def check_known_keys(d: dict, known, prefix: str = "") -> None:
    """ConfigError naming ``prefix`` plus the first unknown key of ``d``, in
    sorted order, unless every key of ``d`` is in ``known``."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigError("unknown key", prefix + unknown[0])
