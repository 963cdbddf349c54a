"""Delayed-feedback conversion-rate prediction with feedback-shift
importance weights: data model, synthetic generator with closed-form ground
truth, counterfactual-deadline relabeling, weight estimation, weighted and
baseline trainers, metrics, and an experiment harness.

Each public name below is imported from its module on first access, so
``import fsiw`` loads no submodule."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "data": (
        "NO_CONVERSION ClickLog FieldSpec ParseError Snapshot full_observation_labels "
        "hash_csr read_tsv snapshot_labels"
    ),
    "experiment": (
        "ConfigError ExperimentConfig PipelineError ReportRow config_from_dict "
        "deadline_sweep run_pipeline"
    ),
    "metrics": "EvalReport delay_stats evaluate_columns evaluate_predictions",
    "optim": "OptConfig TrainingMeta minimize_batch",
    "relabel": "ArtificialSet build_artificial_datasets",
    "simulate": "SimConfig generate_arrays to_click_log",
    "training": (
        "DfmModel LinearCvrModel RowGroups TrainingError predict_cvr_batch save_model train_dfm "
        "train_naive_logistic train_weighted_logistic"
    ),
    "weights": (
        "DesignRows WeightedDataset WeightModel WeightModelHyper assign_fsiw fit_weight_model"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
