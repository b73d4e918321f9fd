"""Sentiment-aware actor-critic trading research engine."""

from .a2c import (A2cConfig, Batch, EpisodeLog, TrainedAgent, actor_update,
                  critic_update, greedy_episodes, train)
from .data import (AlignedSeries, HeadlineTable, PriceTable, align, coverage,
                   load_aligned, load_headlines, load_prices, save_aligned)
from .env import (Action, CostMode, EnvConfig, EpisodeResult, StepOutcome,
                  TradingEnv, total_return)
from .errors import (ConfigError, IngestError, ModelFormatError,
                     NonFiniteGradientError, SentarlError)
from .evaluation import (MatrixResult, RollingWindows, TrialKey, TrialResult,
                         WindowSpec, annualized_return, make_windows, report,
                         run_matrix, sharpe)
from .nn import (Gradients, Mlp, apply_update, backward, deserialize, forward,
                 load_model, save_model, serialize, softmax, softmax_draw)
from .sentiment import (CorrelationPulse, FillPolicy, Grouping, LexiconScorer,
                        correlation_pulse, group_by_hour, lexicon_score,
                        pearson, score_headlines, series_pulse)

__version__ = "0.1.0"
