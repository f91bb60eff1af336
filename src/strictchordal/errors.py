"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for every error raised by this package."""


class ParseError(GraphError):
    """Input text is not a valid graph file."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NotConnectedError(GraphError):
    """The graph is not connected; the analysis requires connected input."""

    def __init__(self, message="clique tree requires a connected graph"):
        super().__init__(message)


class NotChordalError(GraphError):
    """The graph contains a chordless cycle of length >= 4.

    ``cycle`` holds such a cycle (vertex list, in order) when one was
    recovered; it may be None if certificate extraction failed.
    """

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = cycle


class NotStrictlyChordalError(GraphError):
    """Chordal, but two distinct minimal vertex separators overlap.

    ``vertex`` is a vertex lying in both separators, ``separators`` the two
    offending separator vertex sets.
    """

    def __init__(self, message, vertex=None, separators=None):
        super().__init__(message)
        self.vertex = vertex
        self.separators = separators


class CompleteGraphError(GraphError):
    """Operation undefined on complete graphs (no separator exists)."""


class TooLargeError(GraphError):
    """Instance exceeds the brute-force size cap."""


class InternalError(GraphError):
    """An invariant the algorithms rely on was violated; indicates a bug."""
