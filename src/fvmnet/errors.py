"""Exception hierarchy shared by all fvmnet modules.

Grouped by how the CLI maps failures to exit codes: configuration problems
(bad config values, unstable timestep requests, malformed modes), numerical
failures (blow-ups, diverging training), and artifact I/O problems (missing
or corrupt on-disk runs).
"""


class FvmnetError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(FvmnetError):
    """A run was configured with invalid, inconsistent, or unstable values."""


class StabilityError(ConfigurationError):
    """Explicit-step stability bounds violated; carries the computed numbers."""

    def __init__(self, message: str, cfl: float, diffusion_number: float):
        super().__init__(message)
        self.cfl = float(cfl)
        self.diffusion_number = float(diffusion_number)


class DomainError(ConfigurationError):
    """An index, shape, or mode argument fell outside its documented domain."""


class NumericalError(FvmnetError):
    """A computation produced non-finite or otherwise unusable numbers."""


class BlowupError(NumericalError):
    """A step produced a non-finite value or T <= 0; names the first bad cell."""

    def __init__(self, message: str, variable: str, cell: tuple):
        super().__init__(message)
        self.variable = variable
        self.cell = tuple(int(c) for c in cell)


class TrainingDivergedError(NumericalError):
    """Training loss became non-finite; carries the offending epoch."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = int(epoch)


class MacnetAbortError(NumericalError):
    """The alternation loop stopped mid-run; carries the partial results."""

    def __init__(self, message: str, series, trace):
        super().__init__(message)
        self.series = series
        self.trace = trace


class ArtifactIOError(FvmnetError):
    """A required on-disk artifact is missing, unreadable, or inconsistent."""
