"""Market-based trade-tape statistics engine; a name imports its submodule on first use."""

import importlib

_EXPORTS = {
    "errors": ("DomainError", "FormatError", "NoDataError"),
    "tape": ("TradeRecord", "TradeTape", "bucket", "emit_csv", "parse_csv", "write_csv"),
    "windows": ("Window", "WindowSpec", "members", "plan_windows"),
    "moments": ("MomentReport", "char_fn_taylor", "compute_report", "freq_moment",
                "market_price_moment", "market_volatility", "vwap"),
    "lagstats": ("AcfCurve", "AcfPoint", "acf_curve", "correlation_scale", "market_price_npoint",
                 "npoint_moment", "regime_acf"),
    "synth": ("SynthParams", "gen_tape", "theoretical_log_acf"),
}
_SUBMODULES = ("cli", *_EXPORTS)
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
