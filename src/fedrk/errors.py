"""Exception types shared across the package."""


class FedRKError(Exception):
    """Base class for all fedrk-specific errors."""


class DimensionMismatch(FedRKError):
    pass


class ZeroRow(FedRKError):
    pass


class AllRowsZero(FedRKError):
    pass


class WeightError(FedRKError):
    pass


class TooManyClients(FedRKError):
    pass


class InconsistentBlock(FedRKError):
    pass


class RankDeficient(FedRKError):
    pass


class TooManySubsets(FedRKError):
    pass


class SchemaError(FedRKError):
    pass


class RoundError(FedRKError):
    """A federated round failed; carries the offending client id when known."""

    def __init__(self, message, client_id=None):
        super().__init__(message)
        self.client_id = client_id


class ConnectionLost(RoundError):
    pass


class NumericalError(RoundError):
    """A round produced a non-finite value (overflow); ``round_index`` is the
    trace row it belongs to, and ``client_id`` names the client whose delta
    caused it, when one did."""

    def __init__(self, message, client_id=None, round_index=None):
        super().__init__(message, client_id)
        self.round_index = round_index

    def __str__(self):
        text = super().__str__()
        return text if self.round_index is None else f"round {self.round_index}: {text}"


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
