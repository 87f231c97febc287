"""Market-based trade-tape statistics engine."""

from .errors import DomainError, FormatError, NoDataError
from .tape import TradeRecord, TradeTape, bucket, emit_csv, parse_csv, quantize_tick, write_csv
from .windows import Window, WindowSpec, members, plan_windows
from .moments import (
    MomentReport,
    char_fn_taylor,
    compute_report,
    freq_moment,
    market_price_moment,
    market_volatility,
    vwap,
)
from .lagstats import (
    AcfCurve,
    AcfPoint,
    acf_curve,
    correlation_scale,
    market_price_npoint,
    npoint_moment,
    regime_acf,
)
from .synth import SynthParams, gen_tape, theoretical_log_acf

__version__ = "0.1.0"
