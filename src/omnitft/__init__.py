"""omnitft: a desk-scale quantile forecaster for clinical-style time series.

Regime-balanced window sampling, frequency-aware embedding shrinkage,
group-entropy variable selection, and shock-aligned attention calibration
around a TFT-style LSTM + causal-attention quantile network, with its own
reverse-mode autodiff core, ingestion, training, and evaluation tooling.

Importing the package loads none of its modules; import them by path
(`omnitft.model`, `omnitft.trainer`, ...).
"""

__version__ = "0.1.0"
