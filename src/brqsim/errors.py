"""Exception types shared across the package."""


class BrqError(Exception):
    """Base class for all package-specific errors."""


class TraceExhaustedError(BrqError):
    """An empirical SNR trace ran out of entries."""


class InfiniteDelayError(BrqError):
    """The decoding probability is zero, so the mean delay diverges."""


class InsufficientFeedbackError(BrqError):
    """The feedback budget cannot carry the success mask: H(p_R) bits per
    slot in the analytic surrogate, the worst single-cell block in the
    quantizer planner."""


class BudgetExceededError(BrqError):
    """A quantizer's worst block encoding does not fit the bit budget."""


class FeedbackDecodeError(BrqError):
    """A feedback bit string is malformed or truncated."""


class ChainBrokenError(BrqError):
    """A backtrack chain could not be decoded.

    Only the receiver state machine raises it, on parity short of what its
    predecessor's true SNR needs (feedback above that SNR) or on a chain
    that does not match its buffer.  The session kernel sizes parity from
    the SNR or its cell's lower edge, so no CLI session raises it.
    """


class NumericError(BrqError):
    """A quadrature or root-finding routine failed to converge."""
