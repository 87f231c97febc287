"""Command line surface: stats, acf, compare and synth subcommands.

Per-window moment reports stream as JSON lines; curves are written as one
JSON document plus a flat plot-ready CSV.  All numeric output uses the
shortest round-tripping decimal form, and identical inputs and flags yield
byte-identical outputs regardless of --threads.  An option's value comes
from its flag, else its environment variable, else --config, else its default.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import click

from . import lagstats, moments, synth, tape, windows
from .errors import FormatError, NoDataError

_MODE_ALIASES = {"pv": "price_volume", "vv": "value_volume"}


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make the JSON object in ``path`` the command's option defaults.

    Every key must name one of the command's own options and hold a JSON
    value of that option's type: an int for an int option, an int or a
    float for a float option, a string otherwise, and never a bool.
    """
    if path is None:
        return
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise FormatError("config file must hold a JSON object")
    params = {p.name: p for p in ctx.command.params if p is not param}
    for key, value in cfg.items():
        if key not in params:
            raise click.ClickException(f"config key {key!r} is not an option of this command")
        kind = params[key].type
        want = (int if isinstance(kind, click.types.IntParamType)
                else (int, float) if isinstance(kind, click.types.FloatParamType) else str)
        if isinstance(value, bool) or not isinstance(value, want):
            raise click.ClickException(f"config key {key!r} has a wrong-type value {value!r}")
    ctx.default_map = cfg


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout, or the file at ``path`` opened for writing with untranslated newlines."""
    if path is None:
        yield sys.stdout
        sys.stdout.flush()  # a reader that went away fails here, inside the command
    else:
        with open(path, "w", newline="") as fh:
            yield fh


class _Main(click.Group):
    """Turns subcommand errors into one-line click errors; a closed stdout pipe exits 1 quietly."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            # The exit-time flush of what is left then goes to devnull, not the pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except ArithmeticError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from None
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from None
        except MemoryError as exc:
            raise click.ClickException(f"out of memory: {exc}") from None


@click.group(cls=_Main, context_settings={"show_default": True})
def main():
    """Market-based trade-tape statistics."""


_common = [
    click.option("--input", "input_path", type=click.Path(exists=True)),
    click.option("--output", "output_path"),
    click.option("--format", "fmt", type=click.Choice(list(tape.FORMATS)),
                 default="tick-value-volume"),
    click.option("--epsilon", type=float, default=1.0),
    click.option("--window-n", type=int, default=101, help="odd window width in ticks"),
    click.option("--lag-step", type=int, default=1),
    click.option("--min-trades", type=int, default=1),
    click.option("--threads", type=click.IntRange(min=1, clamp=True), default=1,
                 envvar="MBSTAT_THREADS", show_envvar=True,
                 help="lag-sweep threads for acf; stats and compare ignore it"),
    click.option("--config", type=click.Path(exists=True), is_eager=True, expose_value=False,
                 callback=_load_config, help="JSON object of option defaults"),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


def _window_setup(opts: dict):
    if opts["input_path"] is None:
        raise click.ClickException("--input is required")
    with open(opts["input_path"], newline="") as fh:
        tp = tape.parse_csv(fh, format=opts["fmt"], epsilon=opts["epsilon"])
    return tp, windows.WindowSpec(opts["window_n"], opts["lag_step"], opts["min_trades"])


def _window_reports(opts: dict):
    """Planned and valid window counts, and the valid windows' reports."""
    tp, spec = _window_setup(opts)
    centers, lo, hi = windows.window_grid(tp, spec)
    valid = hi - lo >= spec.min_trades
    if not valid.any():
        raise NoDataError("no valid windows on this tape")
    reports = moments.window_reports(tp, centers[valid].tolist(), lo[valid].tolist(),
                                     hi[valid].tolist(), opts["max_order"])
    return len(centers), len(reports), reports


@main.command()
@_with_common
@click.option("--max-order", type=int, default=4, help="cap 8")
def stats(**opts):
    """Per-window moment reports as JSON lines."""
    planned, valid, reports = _window_reports(opts)
    with _output(opts["output_path"]) as out:
        out.writelines(json.dumps(rep.to_dict(), allow_nan=False) + "\n" for rep in reports)
    summary = {"windows": planned, "valid": valid, "invalid_skipped": planned - valid}
    print(json.dumps(summary), file=sys.stderr)


@main.command()
@_with_common
@click.option("--max-lag", type=int, help="multiple of the lag step")
@click.option("--aggregate", type=click.Choice(["per-center", "mean"]), default="per-center")
@click.option("--threshold", type=click.FloatRange(0, 1, min_open=True, max_open=True),
              default=0.05, help="scale detection fraction")
def acf(**opts):
    """Autocorrelation curve as JSON plus CSV (paths <output>.json/.csv)."""
    tp, spec = _window_setup(opts)
    if opts["max_lag"] is None:
        raise click.ClickException("--max-lag is required")
    curve = lagstats.acf_curve(tp, spec, max_lag_ticks=opts["max_lag"],
                               aggregate=opts["aggregate"], threshold=opts["threshold"],
                               threads=opts["threads"])
    curve.check_finite()  # before any output file is created
    base = opts["output_path"]
    if base is None:
        with _output(None) as out:
            curve.write(out)
    else:
        with _output(base + ".json") as json_out, _output(base + ".csv") as csv_out:
            curve.write(json_out, csv_out)


@main.command()
@_with_common
@click.option("--max-order", type=int, default=4, help="cap 8")
def compare(**opts):
    """Per-window divergence of frequency vs market-based price moments."""
    _, _, reports = _window_reports(opts)
    with _output(opts["output_path"]) as out:
        out.write("center_tick,n,freq_price,market_price,difference\n")
        out.writelines(f"{rep.center_tick},{n},{freq!r},{market!r},{freq - market!r}\n"
                       for rep in reports for n, (freq, market)
                       in enumerate(zip(rep.freq_price, rep.market_price), start=1))


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
@click.option("--output", "output_path")
def synth_cmd(mode, output_path, **params):
    """Generate a synthetic tape as tick-value-volume CSV."""
    params = synth.SynthParams(mode=_MODE_ALIASES[mode], **params)
    text = tape.emit_csv(synth.gen_tape(params))  # before the file is created
    with _output(output_path) as out:
        out.write(text)


if __name__ == "__main__":
    main()
