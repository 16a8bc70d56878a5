"""Exception types shared across the package."""


class SplatError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(SplatError, ValueError):
    """An argument violates a documented precondition."""


class InvalidStateError(SplatError, RuntimeError):
    """Inputs are individually valid but mutually inconsistent."""


class EmptySceneError(SplatError, RuntimeError):
    """A prune step would remove every Gaussian; the step is rejected."""


class DivergedRunError(SplatError, RuntimeError):
    """Training produced a non-finite loss, render or parameter update.

    ``iteration`` is the 1-based optimizer step at which it happened.
    """

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(message or f"run diverged at iteration {iteration}")


class DatasetError(SplatError, ValueError):
    """A dataset manifest or one of its entries is unusable."""
