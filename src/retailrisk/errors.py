"""The package's error base class."""


class RetailRiskError(ValueError):
    """Input the analysis cannot handle: malformed or invalid data, or data
    too degenerate for a statistic or fit. The CLI reports any of them as a
    one-line ``error:`` with exit status 1."""
