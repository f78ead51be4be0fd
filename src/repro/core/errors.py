"""Exception hierarchy for the OnionBot core."""

from __future__ import annotations


class BotnetError(RuntimeError):
    """Base class for every error raised by :mod:`repro.core`."""


class ConfigError(BotnetError):
    """A configuration knob (environment variable, policy value) is invalid.

    Raised instead of silently falling back to a default, so a typo like
    ``REPRO_PATH_WORKERS=many`` or ``REPRO_GRAPH_BACKEND=numpy`` fails loudly
    at the first affected call rather than quietly degrading performance or
    routing metrics through an unintended backend.
    """


class BootstrapError(BotnetError):
    """A bot could not find any peers during the rally stage."""


class LifecycleError(BotnetError):
    """An invalid bot life-cycle transition was attempted."""


class MessageError(BotnetError):
    """A C&C message failed validation (format, signature, authorisation)."""


class RentalError(BotnetError):
    """A rental token or rented command failed verification."""


class OverlayError(BotnetError):
    """An invalid operation on the DDSR overlay (unknown node, bad degree bounds)."""
