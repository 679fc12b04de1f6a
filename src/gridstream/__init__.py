"""Grid-indexed continuous spatial queries over windowed point streams."""

from .grid import (CellCoord, Grid, GridError, LayerKeys, LayerSets,
                   OutsideExtentError, build_grid, layer_params)
from .operators import (ResultBatch, batch_to_json, euclidean, join_per_key,
                        knn_local, knn_merge, range_refine, replicas_for)
from .oracle import oracle_join, oracle_knn, oracle_layers, oracle_range
from .runtime import (ConfigError, JoinQuery, KnnQuery, PipelineConfig,
                      PipelineError, RangeQuery, RuntimeMetrics, route_keyed,
                      run_pipeline)
from .streams import (ParseStats, SpatialPoint, StreamFormatError,
                      parse_lines, replay_file)
from .windows import SlidingWindower, WindowError, WindowSpec

__version__ = "0.1.0"

__all__ = [
    "CellCoord", "ConfigError", "Grid", "GridError", "JoinQuery",
    "KnnQuery", "LayerKeys", "LayerSets", "OutsideExtentError",
    "ParseStats", "PipelineConfig", "PipelineError", "RangeQuery",
    "ResultBatch", "RuntimeMetrics", "SlidingWindower", "SpatialPoint",
    "StreamFormatError", "WindowError", "WindowSpec", "batch_to_json",
    "build_grid", "euclidean", "join_per_key", "knn_local", "knn_merge",
    "layer_params", "oracle_join", "oracle_knn", "oracle_layers",
    "oracle_range", "parse_lines", "range_refine", "replay_file",
    "replicas_for", "route_keyed", "run_pipeline",
]
