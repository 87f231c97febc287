"""Command line surface: stats, acf, compare and synth subcommands.

Per-window moment reports stream as JSON lines; curves are written as one
JSON document plus a flat plot-ready CSV.  All numeric output uses the
shortest round-tripping decimal form, and identical inputs and flags yield
byte-identical outputs regardless of --threads.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import lagstats, moments, synth, tape, windows
from .errors import FormatError, NoDataError

_MODE_ALIASES = {"pv": "price_volume", "vv": "value_volume"}

#: Values of the options that neither a flag nor the config file sets.
_DEFAULTS = {"fmt": "tick-value-volume", "epsilon": 1.0, "window_n": 101, "lag_step": 1,
             "min_trades": 1, "max_order": 4, "aggregate": "per-center", "threshold": 0.05}


def _threads(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get("MBSTAT_THREADS")
    return max(1, int(env)) if env else 1


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise FormatError("config file must hold a JSON object")
    return cfg


def _config_type_ok(value, param: click.Parameter) -> bool:
    want = {click.INT: int, click.FLOAT: (int, float)}.get(param.type, str)
    return isinstance(value, want) and not isinstance(value, bool)


def _merged(config: dict, **flags):
    """Flag values win over config entries; config, then defaults fill unset flags.

    Every config key must name one of the command's own options and hold a
    JSON value of that option's type.
    """
    params = {p.name: p for p in click.get_current_context().command.params}
    for key, value in config.items():
        if key not in flags:
            raise click.ClickException(f"config key {key!r} is not an option of this command")
        if not _config_type_ok(value, params[key]):
            raise click.ClickException(f"config key {key!r} has a wrong-type value {value!r}")
    out = {}
    for key, value in flags.items():
        out[key] = value if value is not None else config.get(key, _DEFAULTS.get(key))
    return out


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


class _Main(click.Group):
    """Turns the errors any subcommand may raise into one-line click errors."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ArithmeticError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from None
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from None
        except MemoryError as exc:
            raise click.ClickException(f"out of memory: {exc}") from None


@click.group(cls=_Main)
def main():
    """Market-based trade-tape statistics."""


_common = [
    click.option("--input", "input_path", type=click.Path(exists=True), default=None),
    click.option("--output", "output_path", default=None),
    click.option(
        "--format", "fmt", type=click.Choice(list(tape.FORMATS)), default=None
    ),
    click.option("--epsilon", type=float, default=None),
    click.option("--window-n", type=int, default=None, help="odd window width in ticks"),
    click.option("--lag-step", type=int, default=None),
    click.option("--min-trades", type=int, default=None),
    click.option("--threads", type=int, default=None,
                 help="lag-sweep threads for acf; stats and compare ignore it"),
    click.option("--config", "config_path", type=click.Path(exists=True), default=None),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


def _window_setup(cfg: dict):
    if cfg["input_path"] is None:
        raise click.ClickException("--input is required")
    with open(cfg["input_path"], newline="") as fh:
        tp = tape.parse_csv(fh, format=cfg["fmt"], epsilon=cfg["epsilon"])
    return tp, windows.WindowSpec(cfg["window_n"], cfg["lag_step"], cfg["min_trades"])


def _window_reports(cfg: dict):
    """Planned and valid window counts, and the valid windows' reports."""
    tp, spec = _window_setup(cfg)
    centers, lo, hi = windows.window_grid(tp, spec)
    valid = hi - lo >= spec.min_trades
    if not valid.any():
        raise NoDataError("no valid windows on this tape")
    reports = moments.window_reports(tp, centers[valid].tolist(), lo[valid].tolist(),
                                     hi[valid].tolist(), cfg["max_order"])
    return len(centers), len(reports), reports


@main.command()
@_with_common
@click.option("--max-order", type=int, default=None, help="default 4, cap 8")
def stats(config_path, **flags):
    """Per-window moment reports as JSON lines."""
    cfg = _merged(_load_config(config_path), **flags)
    planned, valid, reports = _window_reports(cfg)
    lines = [json.dumps(rep.to_dict(), allow_nan=False) for rep in reports]
    _write(cfg["output_path"], "\n".join(lines) + "\n")
    summary = {"windows": planned, "valid": valid, "invalid_skipped": planned - valid}
    print(json.dumps(summary), file=sys.stderr)


@main.command()
@_with_common
@click.option("--max-lag", type=int, default=None, help="multiple of the lag step")
@click.option("--aggregate", type=click.Choice(["per-center", "mean"]), default=None)
@click.option("--threshold", type=float, default=None, help="scale detection fraction")
def acf(config_path, **flags):
    """Autocorrelation curve as JSON plus CSV (paths <output>.json/.csv)."""
    cfg = _merged(_load_config(config_path), **flags)
    tp, spec = _window_setup(cfg)
    if cfg["max_lag"] is None:
        raise click.ClickException("--max-lag is required")
    curve = lagstats.acf_curve(
        tp,
        spec,
        max_lag_ticks=cfg["max_lag"],
        aggregate=cfg["aggregate"],
        threshold=cfg["threshold"],
        threads=_threads(cfg["threads"]),
    )
    curve.check_finite()  # before any output file is created
    if cfg["output_path"] is None:
        curve.write(sys.stdout)
    else:
        base = cfg["output_path"]
        with (open(base + ".json", "w", newline="") as json_out,
              open(base + ".csv", "w", newline="") as csv_out):
            curve.write(json_out, csv_out)


@main.command()
@_with_common
@click.option("--max-order", type=int, default=None, help="default 4, cap 8")
def compare(config_path, **flags):
    """Per-window divergence of frequency vs market-based price moments."""
    cfg = _merged(_load_config(config_path), **flags)
    _, _, reports = _window_reports(cfg)
    lines = ["center_tick,n,freq_price,market_price,difference"]
    for rep in reports:
        pairs = zip(rep.freq_price, rep.market_price)
        for n, (freq, market) in enumerate(pairs, start=1):
            lines.append(f"{rep.center_tick},{n},{freq!r},{market!r},{freq - market!r}")
    _write(cfg["output_path"], "\n".join(lines) + "\n")


@main.command("synth")
@click.option("--mode", type=click.Choice(["pv", "vv"]), default="pv")
@click.option("--len", "length_ticks", type=int, required=True)
@click.option("--tau-a", "persistence_a_ticks", type=float, required=True,
              help="e-folding scale, ticks")
@click.option("--tau-b", "persistence_b_ticks", type=float, required=True,
              help="e-folding scale, ticks")
@click.option("--sigma-a", type=float, default=0.1)
@click.option("--sigma-b", type=float, default=0.1)
@click.option("--mean-a", type=float, default=0.0)
@click.option("--mean-b", type=float, default=0.0)
@click.option("--seed", type=int, default=0)
@click.option("--epsilon", type=float, default=1.0)
@click.option("--output", "output_path", default=None)
def synth_cmd(mode, output_path, **params):
    """Generate a synthetic tape as tick-value-volume CSV."""
    params = synth.SynthParams(mode=_MODE_ALIASES[mode], **params)
    _write(output_path, tape.emit_csv(synth.gen_tape(params)))


if __name__ == "__main__":
    main()
