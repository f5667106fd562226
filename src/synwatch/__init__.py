"""DDoS detection and forecasting on packet-count time series."""

from .classifiers import (KMeansModel, LgrModel, MlpModel, TrainConfig, elbow_curve,
                          kmeans_assign, kmeans_best, kmeans_fit, lgr_fit, lgr_predict,
                          map_clusters_to_labels, mlp_fit, mlp_predict)
from .errors import (BalancingError, ConfigError, ContractViolation,
                     DegenerateClusteringError, EmptyDatasetError, NumericError,
                     ParseError, TrainingError)
from .framing import Frame, FramingConfig, frame_sigma, make_frames
from .metrics import Confusion, classification_scores, confusion, r_squared, rmse
from .pipeline import (DataSet, EvalReport, ExperimentConfig, PredictionSeries,
                       build_detection_dataset, fit_model, run_prediction, run_semi_supervised,
                       run_supervised, run_unsupervised, score_model, smote_balance,
                       split_train_test)
from .regressors import (GridSpec, KrrModel, SvrModel, grid_search, krr_fit, krr_predict,
                         rbf_matrix, svr_fit, svr_predict)
from .traffic import (IntervalSeries, PacketRecord, SynthesisConfig, bucketize,
                      generate_baseline, inject_attacks, inject_periodic_attacks,
                      parse_packet_log, read_series, write_series)

__version__ = "0.1.0"
