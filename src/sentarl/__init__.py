"""Sentiment-aware actor-critic trading research engine."""

from .a2c import (A2cConfig, EpisodeLog, TrainedAgent, Transition, act_greedy,
                  act_sample, actor_update, advantage, critic_update,
                  greedy_episodes, greedy_policy, train)
from .data import (AlignedSeries, HeadlineRecord, PriceRecord, align,
                   compute_diffs, coverage, load_aligned, load_headlines,
                   load_prices, save_aligned)
from .env import (ACTIONS, Action, CostMode, EnvConfig, EpisodeResult,
                  MarketState, StepOutcome, TradingEnv, baseline_policy,
                  episode_return, run_policy)
from .errors import (ConfigError, IngestError, ModelFormatError,
                     NonFiniteGradientError, SentarlError)
from .evaluation import (MatrixResult, RollingWindows, TrialKey, TrialResult,
                         WindowSpec, annualized_return, make_windows, report,
                         run_matrix, sharpe, total_return)
from .nn import (Gradients, Mlp, apply_update, backward, deserialize, forward,
                 load_model, save_model, serialize, softmax, softmax_sample)
from .sentiment import (CorrelationPulse, FillPolicy, Grouping, LexiconScorer,
                        correlation_pulse, group_by_hour, lexicon_score,
                        pearson, score_headlines, series_pulse)

__version__ = "0.1.0"
