"""Exception types shared across the package."""


class GraphTVError(Exception):
    """Base class for errors raised by graphtv."""


class ValidationError(GraphTVError, ValueError):
    """Malformed input: bad graph structure, field length, or parameter."""


class ConvergenceError(GraphTVError, RuntimeError):
    """An inner solver stopped at its iteration cap before reaching tolerance,
    or an exact answer (``rof_solve``'s decomposition, the flow's minimal
    section) failed its certificate, which well-posed inputs do not.

    Carries the offending :class:`~graphtv.engine.SolveReport` in ``report``
    when one is available, so callers can distinguish a clean negative answer
    from an unconverged solve.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PathError(GraphTVError, RuntimeError):
    """Piecewise-affine path assembly failed (carries the offending interval)."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class ParseError(GraphTVError, ValueError):
    """A problem or trajectory file could not be parsed or validated."""
