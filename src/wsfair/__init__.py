"""Weak-supervision pipeline with per-group source-bias detection and
optimal-transport correction of labeling-function votes."""

__version__ = "0.1.0"

from .core import (FeatureMatrix, GroupAssignment, LabelVector, ScoreVector,
                   WeakLabelMatrix, split_by_group, validate_dataset)
from .labelmodel import (AccuracyEstimate, LabelModelParams, fit_label_model,
                         majority_vote, predict_labels, predict_proba,
                         resolve_signs, triplet_estimate)
from .transport import TransportMap, apply_map, fit_map, knn_borrow
from .sbm import SbmAudit, SbmConfig, group_accuracies, run_pipeline, run_sbm
from .metrics import (CenterScan, FairnessReport, accuracy_f1, center_scan,
                      dp_gap, dp_threshold, eo_gap, fairness_report)
from .synth import (LabelingFunctionSpec, gen_gaussian_pair_dataset, gen_lfcount_dataset,
                    lf_accuracy_at, sample_lf_votes)
from .endmodel import LogisticModel, TrainConfig, predict_logreg, train_logreg
