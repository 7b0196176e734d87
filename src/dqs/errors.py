"""Exception types shared across the package."""


class DqsError(Exception):
    """Base class for all errors raised by this package."""


class SurfaceError(DqsError):
    """The complex is not a closed oriented bipartite quad surface."""


class MalformedSurfaceError(SurfaceError):
    """Euler count is inconsistent (odd vertex/quad difference)."""


class AmbiguousGluingError(SurfaceError):
    """Doubled edges make the rotation system underdetermined.

    Complexes whose 1-skeleton has two distinct edges with the same
    endpoints (width-2 wrap-around grids, pillows) carry too little
    information in the vertex/quad tables to reconstruct vertex stars.
    Operations that need the rotation system raise it through one gate,
    ``surface.require_star_cycles``, naming the doubled edge; purely
    per-quad and per-vertex-incidence operations still work.
    """


class ChartConstructionError(DqsError):
    """A vertex chart could not be realized as a planar fan."""


class NonDelaunayError(DqsError):
    """A mesh edge violates the local Delaunay condition."""

    def __init__(self, edge, cot_sum):
        self.edge = edge
        self.cot_sum = cot_sum
        super().__init__(
            f"edge {edge} violates the local Delaunay condition "
            f"(cotangent sum {cot_sum:.6g} <= 0)"
        )


class SolveError(DqsError):
    """A linear system that should be solvable was not (residual too large)."""


class AmbiguityError(DqsError):
    """Normalization system is numerically singular; result not unique."""


class NotClosedError(DqsError):
    """A one-form expected to be closed has a nonzero face residual."""

    def __init__(self, max_residual):
        self.max_residual = max_residual
        super().__init__(f"form is not closed (max face residual {max_residual:.3e})")


class ParseError(DqsError):
    """Input file violates the expected schema."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
