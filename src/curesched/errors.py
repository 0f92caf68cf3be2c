"""Exception types shared across the solver toolkit, in two families:
`Infeasible` (no schedule found) and `SolverFault` (a backend misbehaved)."""


class CureschedError(Exception):
    """Base class for all toolkit errors."""


class Infeasible(CureschedError):
    """No schedule was found within the given horizon."""


class UnproduciblePair(Infeasible):
    """Residual demand remains but no admissible mold pair can cover it."""


class NoFeasiblePlacement(Infeasible):
    """A tuple cannot be placed on any compatible heater."""


class SolverFault(CureschedError):
    """A solver backend failed or produced a wrong answer."""


class AdapterUnavailable(SolverFault):
    """No external solver adapter is configured or its executable is missing."""


class AdapterFailure(SolverFault):
    """The external solver exited with an unexpected status."""


class SolutionParseError(SolverFault):
    """A solver solution file could not be parsed."""


class InfeasibleAssignment(SolverFault):
    """A variable assignment violates the model constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        preview = "; ".join(self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"assignment violates constraints: {preview}{more}")
