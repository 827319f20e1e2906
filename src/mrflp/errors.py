"""Exception types shared across the package."""


class MrflpError(Exception):
    """Base class for all package-specific errors."""


class StructureError(MrflpError, ValueError):
    """A graph, decomposition or file does not have the required structure."""


class InvalidLabelingError(MrflpError, ValueError):
    """A labeling has the wrong length or an out-of-range label."""


class InfeasibleMarginalsError(MrflpError, ValueError):
    """Marginals violate the feasibility requirements of an operation.

    Carries the offending residual when available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NumericalError(MrflpError, RuntimeError):
    """An iterative routine failed to reach its required accuracy.

    Carries the final residual and the failing problem's index in a stack, when available.
    """

    def __init__(self, message: str, residual: float | None = None, problem: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.problem = problem
