"""Exception types shared across the package.

An error that is also a ``ValueError`` is a mistake in the caller's input
(a shape, a client count, a block with no nonzero row, a malformed data
file): the CLI exits 2 for it, as for any ``ValueError``, and 3 for every
other error.
"""


class FedRKError(Exception):
    """Base class for all fedrk-specific errors."""


class DimensionMismatch(FedRKError, ValueError):
    pass


class ZeroRow(FedRKError):
    pass


class AllRowsZero(ZeroRow, ValueError):
    pass


class TooManyClients(FedRKError, ValueError):
    pass


class RankDeficient(FedRKError):
    pass


class SchemaError(FedRKError, ValueError):
    pass


class RoundError(FedRKError):
    """A federated round failed. ``round_index`` is the trace row of the
    round (set by the round loop), and ``client_id`` names the offending
    client, when known."""

    def __init__(self, message, client_id=None, round_index=None):
        super().__init__(message)
        self.client_id = client_id
        self.round_index = round_index

    def __str__(self):
        text = super().__str__()
        return text if self.round_index is None else f"round {self.round_index}: {text}"


class ConnectionLost(RoundError):
    pass


class NumericalError(RoundError):
    """A round produced a non-finite value (overflow)."""


class CodecError(FedRKError):
    """Wire-format decode failure at byte position `offset`."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class BadMagic(CodecError):
    pass


class BadVersion(CodecError):
    pass


class BadType(CodecError):
    pass


class Truncated(CodecError):
    pass


class LengthMismatch(CodecError):
    pass
