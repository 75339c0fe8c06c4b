"""Retail-chain failure statistics: descriptive tables, logistic screens,
a Firth penalized-likelihood failure model, and failure-probability grids."""

from .dataset import (
    DataParseError,
    DataValidationError,
    Dataset,
    DesignMatrix,
    dataset_to_csv,
    design_matrix,
    embedded_dataset,
    parse_dataset,
)
from .descriptive import (
    ColumnSummary,
    CorrelationMatrix,
    correlation_matrix,
    describe,
    mean_std,
    pearson_corr,
    shapiro_wilk,
)
from .errors import DegenerateDataError, RetailRiskError
from .firth import FirthFit, fit_firth, firth_score, penalized_loglik
from .linalg import SingularMatrixError
from .logistic import (
    DegenerateResponseError,
    MleFit,
    fit_logistic,
    log_likelihood,
    significance_code,
)
from .pipeline import (
    FINAL_MODEL_PREDICTORS,
    PredictionTable,
    ScreenReport,
    fit_final_model,
    run_screen,
    table_from_coefficients,
)
from .report import ReportDocument, Section, render

__version__ = "0.1.0"

__all__ = [
    "ColumnSummary",
    "CorrelationMatrix",
    "DataParseError",
    "DataValidationError",
    "Dataset",
    "DegenerateDataError",
    "DegenerateResponseError",
    "DesignMatrix",
    "FINAL_MODEL_PREDICTORS",
    "FirthFit",
    "MleFit",
    "PredictionTable",
    "ReportDocument",
    "RetailRiskError",
    "ScreenReport",
    "Section",
    "SingularMatrixError",
    "correlation_matrix",
    "dataset_to_csv",
    "describe",
    "design_matrix",
    "embedded_dataset",
    "firth_score",
    "fit_final_model",
    "fit_firth",
    "fit_logistic",
    "log_likelihood",
    "mean_std",
    "parse_dataset",
    "pearson_corr",
    "penalized_loglik",
    "render",
    "run_screen",
    "shapiro_wilk",
    "significance_code",
    "table_from_coefficients",
]
