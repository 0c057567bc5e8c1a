"""Exception hierarchy shared by every solab subsystem, and its exit codes.

Errors carry enough context (byte positions, parameter points, radii) to be
reported verbatim by the CLI.  Configuration problems and numerical failures
are separated so the CLI can map them to distinct exit codes.
"""


class SolabError(Exception):
    """Base class for all package errors."""


# --- expression DSL ---------------------------------------------------------

class ExpressionError(SolabError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at byte {position})"
        super().__init__(message)


class UnknownCharacter(ExpressionError):
    pass


class UnterminatedNumber(ExpressionError):
    pass


class UnexpectedToken(ExpressionError):
    pass


class UnknownFunction(ExpressionError):
    pass


class UnknownIdentifier(ExpressionError):
    pass


class ArityMismatch(ExpressionError):
    pass


class DomainError(SolabError):
    """Evaluation left the real domain (log of nonpositive, 0 division, ...)."""

    def __init__(self, node, why):
        self.node = node
        self.why = why
        super().__init__(f"domain error in '{node}': {why}")


class ChartValidationError(SolabError):
    pass


# --- geometry ---------------------------------------------------------------

class RankDeficient(SolabError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"chart differential is rank deficient at {point}")


class OriginSingularity(SolabError):
    def __init__(self, r, exclusion):
        super().__init__(
            f"radial function evaluated at r={r:.3e} inside the "
            f"origin exclusion radius {exclusion:.1e}"
        )


class UnknownCatalogEntry(SolabError):
    pass


class InvalidParams(SolabError):
    pass


# --- soliton checks ---------------------------------------------------------

class VanishingMeanCurvature(SolabError):
    """The immersion is minimal at a sample, so no IMCF soliton constant exists."""

    def __init__(self, point):
        self.point = point
        super().__init__(
            f"mean curvature vanishes at parameter point {point}; a minimal "
            "immersion admits no soliton constant for the inverse flow"
        )


class DegenerateNormalPosition(SolabError):
    pass


class TimeOutOfRange(SolabError):
    pass


# --- quadrature -------------------------------------------------------------

class ImproperWindow(SolabError):
    pass


class NonRegularLevel(SolabError):
    def __init__(self, radius, why=""):
        self.radius = radius
        msg = f"r = {radius} is not a regular level"
        if why:
            msg += f": {why}"
        super().__init__(msg)


class TruncationFailure(SolabError):
    pass


class PsiUnderflow(SolabError):
    pass


# --- PDE lab ----------------------------------------------------------------

class MeshFailure(SolabError):
    pass


class DimensionUnsupported(SolabError):
    pass


class SolverDivergence(SolabError):
    pass


class DisconnectedRegion(SolabError):
    def __init__(self, components):
        self.components = components
        super().__init__(
            f"{len(components)} mesh component(s) carry no Dirichlet boundary: "
            f"{components}"
        )


class NonProportional(SolabError):
    pass


# --- configuration ----------------------------------------------------------

class ConfigError(SolabError):
    pass


# --- exit codes ---------------------------------------------------------------

EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_NUMERICAL = 0, 1, 2, 3

# Inside a check these become an ERROR record; any other solab error, a FAIL.
NUMERICAL_FAILURES = (
    SolverDivergence,
    TruncationFailure,
    MeshFailure,
    PsiUnderflow,
    DisconnectedRegion,
    NonRegularLevel,
    RankDeficient,
)

CONFIG_ERRORS = (
    ConfigError,
    UnknownCatalogEntry,
    InvalidParams,
    ChartValidationError,
    ExpressionError,
    DomainError,  # a chart that leaves its domain inside its box
    FileNotFoundError,
)


def exit_code_of(err: Exception) -> int:
    """Exit code for an error raised before any check could record it."""
    if isinstance(err, CONFIG_ERRORS):
        return EXIT_CONFIG
    if isinstance(err, NUMERICAL_FAILURES):
        return EXIT_NUMERICAL
    return EXIT_CHECK_FAILED
