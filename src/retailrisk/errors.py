"""The package's error base class and the errors shared across modules."""


class RetailRiskError(ValueError):
    """Input the analysis cannot handle: malformed or invalid data, or data
    too degenerate for a statistic or fit. The CLI reports any of them as a
    one-line ``error:`` with exit status 1."""


class DegenerateDataError(RetailRiskError):
    """Data too short or too degenerate (zero variance, fewer rows than
    coefficients) for the statistic or fit."""
