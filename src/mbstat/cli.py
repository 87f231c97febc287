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
import stat
import sys

# mbstat makes no BLAS call, so numpy's OpenBLAS needs no worker threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click  # noqa: E402

# Each command imports the other layers it runs, so a command pays only for its own.
from . import tape  # noqa: E402
from .errors import FormatError  # noqa: E402

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


def _threshold(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """The library's threshold rule, as a click error naming the option."""
    from . import lagstats
    try:
        lagstats.check_threshold(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None
    return value


@contextlib.contextmanager
def _files(*paths: str):
    """The files at ``paths`` opened for writing with untranslated newlines.

    No file changes unless every one opens: each is opened without
    truncating, and truncated once all are open.  When an open fails, the
    files this call created are removed and the error is raised.
    """
    opened = []
    try:
        for path in paths:
            created = not os.path.lexists(path)
            opened.append((os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), path, created))
    except OSError:
        for fd, path, created in opened:
            os.close(fd)
            if created:
                os.remove(path)
        raise
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(fd, "w", newline="")) for fd, _, _ in opened]
        for fh in files:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # O_TRUNC skips FIFOs and devices
                fh.truncate()
        yield files


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout, or the file at ``path`` as ``_files`` opens it."""
    if path is None:
        yield sys.stdout
        sys.stdout.flush()  # a reader that went away fails here, inside the command
    else:
        with _files(path) as (fh,):
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
    click.option("--input", "input_path", type=click.Path(exists=True), required=True),
    click.option("--output", "output_path"),
    click.option("--format", "fmt", type=click.Choice(list(tape.FORMATS)),
                 default="tick-value-volume"),
    click.option("--window-n", type=int, default=101, help="odd window width in ticks"),
    click.option("--lag-step", type=int, default=1),
    click.option("--min-trades", type=int, default=1),
    click.option("--config", type=click.Path(exists=True), is_eager=True, expose_value=False,
                 callback=_load_config, help="JSON object of option defaults"),
]


def _with_common(sweep: bool):
    """The common options and ``--threads``, which only the lag sweep
    (``sweep``) runs and reads ``MBSTAT_THREADS`` for; the other commands
    accept it and ignore it."""
    threads = click.option(
        "--threads", type=click.IntRange(min=1, clamp=True), default=1,
        **(dict(envvar="MBSTAT_THREADS", show_envvar=True, help="lag-sweep threads") if sweep
           else dict(help="ignored: lag-sweep threads, for acf")))

    def wrap(fn):
        for opt in reversed([*_common, threads]):
            fn = opt(fn)
        return fn
    return wrap


def _window_setup(opts: dict, check):
    """The tape and the window spec; the spec and ``check(spec)`` run before the tape is read."""
    from . import windows
    spec = windows.WindowSpec(opts["window_n"], opts["lag_step"], opts["min_trades"])
    check(spec)
    with open(opts["input_path"], newline="") as fh:
        return tape.parse_csv(fh, format=opts["fmt"]), spec


def _window_columns(opts: dict, volatility: bool = True):
    """The planned window count and the valid windows' moment columns, all checked
    (with the market volatility when ``volatility``)."""
    from . import moments, windows
    tp, spec = _window_setup(opts, lambda _: moments.check_order(opts["max_order"]))
    centers, lo, hi, valid = windows.valid_grid(tp, spec)
    cols = moments.window_columns(tp, centers[valid], lo[valid], hi[valid], opts["max_order"],
                                  volatility)
    return len(centers), cols


@main.command()
@_with_common(sweep=False)
@click.option("--max-order", type=int, default=4, help="cap 8")
def stats(**opts):
    """Per-window moment reports as JSON lines."""
    planned, cols = _window_columns(opts)
    with _output(opts["output_path"]) as out:
        cols.write_jsonl(out)
    valid = len(cols.center)
    summary = {"windows": planned, "valid": valid, "invalid_skipped": planned - valid}
    print(json.dumps(summary), file=sys.stderr)


@main.command()
@_with_common(sweep=True)
@click.option("--max-lag", type=int, required=True, help="multiple of the lag step")
@click.option("--aggregate", type=click.Choice(["per-center", "mean"]), default="per-center")
@click.option("--threshold", type=float, default=0.05, callback=_threshold,
              help="scale detection fraction, 0 < t < 1")
def acf(**opts):
    """Autocorrelation curve as JSON plus CSV (paths <output>.json/.csv)."""
    from . import lagstats
    tp, spec = _window_setup(opts, lambda spec: spec.check_max_lag(opts["max_lag"]))
    # A non-finite value fails here, before any output file is created.
    curve = lagstats.acf_curve(tp, spec, max_lag_ticks=opts["max_lag"],
                               aggregate=opts["aggregate"], threshold=opts["threshold"],
                               threads=opts["threads"])
    base = opts["output_path"]
    if base is None:
        with _output(None) as out:
            curve.write(out)
    else:
        with _files(base + ".json", base + ".csv") as (json_out, csv_out):
            curve.write(json_out, csv_out)


@main.command()
@_with_common(sweep=False)
@click.option("--max-order", type=int, default=4, help="cap 8")
def compare(**opts):
    """Per-window divergence of frequency vs market-based price moments."""
    _, cols = _window_columns(opts, volatility=False)
    with _output(opts["output_path"]) as out:
        cols.write_compare_csv(out)


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
@click.option("--output", "output_path")
def synth_cmd(mode, output_path, **params):
    """Generate a synthetic tape as tick-value-volume CSV."""
    from . import synth
    params = synth.SynthParams(mode=_MODE_ALIASES[mode], **params)
    tp = synth.gen_tape(params)  # every check runs before the file is created
    with _output(output_path) as out:
        tape.write_csv(tp, out)


if __name__ == "__main__":
    main()
