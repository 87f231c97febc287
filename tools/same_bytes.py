"""Check that two source trees of mbstat write the same bytes.

    python tools/same_bytes.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository (its ``src`` directory holds the
``mbstat`` package), for example a ``git archive`` of the parent commit and
the working tree.  A fixed, seeded matrix of CLI runs goes through each tree
in one child process, with ``PYTHONPATH=<tree>/src``:

- ``synth`` in ``pv`` and ``vv`` mode;
- ``stats`` and ``compare`` at ``--max-order`` 1, 4 and 8, on the golden
  tape, a gappy multi-trade tape and a sparse one, and on tapes whose
  windows overflow or underflow, which between them end in every error of
  the moments' failure table (``failing_tapes``);
- ``acf`` per center and as the mean, on the golden (dense), the gappy and
  the sparse tape, at lag steps 1 and 3 with ``--threads`` 1 and 2, and at
  lag step 5 (product rows wider than the float64 rows) with 2; and in
  both modes on the gappy tape at lag step 3 without ``--output``, which
  writes the JSON alone, to stdout;
- ``stats``, ``compare`` and both ``acf`` modes at ``--min-trades 2`` on the
  sparse tape, and on tapes with no valid window, each of which ends in
  its own error: the sparse tape at ``--min-trades 22`` (above every
  21-tick window's record count), and a 3-tick tape (ticks 1..3) at
  ``--window-n 3 --lag-step 3`` (no lag-step multiple fits as a center)
  and at a ``--window-n`` beyond the int64 range;
- the same four commands on a multi-trade ``tick-price-volume`` tape, whose
  plain lines numpy's reader parses, and on copies of the gappy tape in
  other CSV dialects (``renderings``): every field quoted with CRLF line
  ends; a byte-order mark, CRLF line ends and ``, `` separators; fields
  padded with tabs; a blank line every 50 rows; ticks written with ``_``
  thousands separators; the first row's tick quoted; and a quoted field
  whose line break crosses the end of the parse's first block.

Every output (stdout, stderr with the exit code, and each file the run
writes) is hashed with sha256.  One line per output gives its hash, or both
hashes where the trees differ.  The exit status is 1 on any difference, and
2 when a tree holds no ``src/mbstat`` or its run fails (its stderr is
printed).
Standard library only; the inputs come from this script and from the golden
tape of the repository that holds it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_tape.csv"


def gappy_tape(seed: int = 11, ticks: int = 1500, filled: float = 0.7) -> str:
    """A multi-trade tape: about ``filled`` of the ticks have 1 to 3 trades, the others none."""
    rng = random.Random(seed)
    lines = ["tick,value,volume"]
    for t in range(ticks):
        if rng.random() >= filled:
            continue
        for _ in range(rng.randint(1, 3)):
            volume = rng.uniform(0.1, 5.0)
            lines.append(f"{t},{rng.lognormvariate(0.0, 0.2) * volume!r},{volume!r}")
    return "\n".join(lines) + "\n"


def trade_tape(seed: int = 13, ticks: int = 1500) -> str:
    """A ``tick,price,volume`` tape: about 10% of the ticks have no trade, the others 1 to 4."""
    rng = random.Random(seed)
    lines = ["tick,price,volume"]
    for t in range(ticks):
        if rng.random() < 0.1:
            continue
        price = rng.lognormvariate(0.0, 0.1)
        for _ in range(rng.randint(1, 4)):
            lines.append(f"{t},{price * rng.lognormvariate(0.0, 0.002)!r},"
                         f"{rng.lognormvariate(0.0, 0.5) / 3.0!r}")
    return "\n".join(lines) + "\n"


def failing_tapes(seed: int = 17, ticks: int = 100) -> dict[str, str]:
    """Tapes on which ``stats`` or ``compare`` fail at some ``--max-order``:
    between them, every row of the failure table of ``moments.window_columns``.

    Each is a dense tape of one trade a tick with values and volumes near 1,
    changed at some ticks.  At tick 60 alone: ``value-pow8``, ``volume-pow8``
    and ``price-pow8`` hold a value, volume or price whose 8th power
    overflows, first in the window at tick 50 (not the first);
    ``price-inf`` holds a price of inf.  ``price-fsum-overflow`` holds prices
    1e308, 1e308 and inf at ticks 58 to 60, whose ``math.fsum`` overflows
    before it meets the inf.  ``volume-underflow`` holds volumes near
    1e-170, whose squares are 0, from tick 50 on.  On every tick,
    ``market-price-inf`` holds a volume whose square rounds down to the
    smallest subnormal, so the market price of order 2 overflows where no
    price square does, and ``vwap-square`` holds one trade of volume 1 in
    every 21 ticks and the rest of volume 1e-100, at a value of 2e153: the
    VWAP's square overflows at ``--max-order 1``.
    """
    rng = random.Random(seed)
    normal = [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) for _ in range(ticks)]

    def tape(changed: dict[int, tuple[float, float]]) -> str:
        return "tick,value,volume\n" + "".join(
            "%d,%r,%r\n" % (t, *changed.get(t, trade)) for t, trade in enumerate(normal))

    u = 2.6e-162  # u**2 is 1.37 times the smallest subnormal, which it rounds to
    every = range(ticks)
    return {
        "value-pow8": tape({60: (1e40, 1.0)}),
        "volume-pow8": tape({60: (1.0, 1e40)}),
        "price-pow8": tape({60: (1e38, 1e-3)}),
        "price-inf": tape({60: (1e10, 1e-300)}),
        "price-fsum-overflow": tape({58: (1e8, 1e-300), 59: (1e8, 1e-300), 60: (1e10, 1e-300)}),
        "volume-underflow": tape({t: (c * 1e-170, v * 1e-170)
                                  for t, (c, v) in enumerate(normal) if t >= 50}),
        "market-price-inf": tape({t: (1.5e308**0.5 * u, u) for t in every}),
        "vwap-square": tape({t: (2e153, 1.0 if t % 21 == 0 else 1e-100) for t in every}),
    }


def renderings(text: str) -> dict[str, str]:
    """Copies of the plain tape ``text`` in other CSV dialects, each of which
    parses to the same tape.  ``quoted-crlf``: every field quoted and CRLF
    line ends (``csv.reader`` parses it).  ``bom-crlf-comma-space``: a UTF-8
    byte-order mark, as Excel's "CSV UTF-8" writes, CRLF line ends and ``, ``
    separators.  ``tab-padded``: a tab on each side of every field.
    ``blank-lines``: a blank line after every 50th row.  ``underscored-ticks``:
    ticks from 1000 up written as ``1_000``, which ``int`` reads.
    ``one-quoted-tick``: the first row's tick quoted, so that only the first
    block of the parse needs ``csv.reader``.  ``quoted-break-at-block-end``:
    the volume of the 1,024th row quoted with a line break after it, so
    that the field opens on file line 1,025, the last of the parse's first
    block of 1,024 lines, and closes on the next."""
    lines = text.splitlines()
    header, *rows = lines
    quoted_tick = '"{}",{}'.format(*rows[0].split(",", 1))
    broken_volume = '{},"{}\n"'.format(*rows[1023].rsplit(",", 1))
    return {
        "quoted-crlf": "".join(",".join(f'"{field}"' for field in line.split(",")) + "\r\n"
                               for line in lines),
        "bom-crlf-comma-space": "\ufeff" + "".join(line.replace(",", ", ") + "\r\n"
                                                   for line in lines),
        "tab-padded": "".join("\t" + line.replace(",", "\t,\t") + "\t\n" for line in lines),
        "blank-lines": "".join(line + ("\n\n" if i and i % 50 == 0 else "\n")
                               for i, line in enumerate(lines)),
        "underscored-ticks": header + "\n" + "".join(
            f"{int(tick):_},{rest}\n" for tick, rest in (row.split(",", 1) for row in rows)),
        "one-quoted-tick": "\n".join([header, quoted_tick, *rows[1:]]) + "\n",
        "quoted-break-at-block-end": "\n".join(
            [header, *rows[:1023], broken_volume, *rows[1024:]]) + "\n",
    }


def matrix(inputs: Path) -> list[tuple[str, list[str]]]:
    """(label, CLI arguments) of every run; ``OUT`` marks an ``--output`` path."""
    runs = [(f"synth-{mode}", ["synth", "--mode", mode, "--len", "3000", "--tau-a", "10",
                               "--tau-b", "40", "--seed", "7"]) for mode in ("pv", "vv")]
    tapes = {name: str(inputs / f"{name}.csv") for name in ("golden", "gappy", "sparse")}
    failing = {name: str(inputs / f"{name}.csv") for name in failing_tapes()}
    for command in ("stats", "compare"):
        for name, path in {**tapes, **failing}.items():
            for order in ("1", "4", "8"):
                runs.append((f"{command}-{name}-order{order}",
                             [command, "--input", path, "--window-n", "21", "--lag-step", "5",
                              "--max-order", order]))
    for aggregate in ("per-center", "mean"):
        for name, path in tapes.items():
            for step, threads in (("1", "1"), ("1", "2"), ("3", "1"), ("3", "2"), ("5", "2")):
                runs.append((f"acf-{aggregate}-{name}-step{step}-threads{threads}",
                             ["acf", "--input", path, "--window-n", "21", "--lag-step", step,
                              "--max-lag", "30", "--aggregate", aggregate,
                              "--threads", threads, "--output", "OUT"]))
        # Without --output the JSON alone goes to stdout.
        runs.append((f"acf-{aggregate}-gappy-stdout",
                     ["acf", "--input", tapes["gappy"], "--window-n", "21", "--lag-step", "3",
                      "--max-lag", "30", "--aggregate", aggregate]))
    short = str(inputs / "short.csv")
    cases = {f"sparse-min-trades{m}": [tapes["sparse"], "--window-n", "21", "--lag-step", "3",
                                       "--min-trades", m] for m in ("2", "22")}
    cases["short-step3"] = [short, "--window-n", "3", "--lag-step", "3"]
    cases["short-window-n-1e23"] = [short, "--window-n", "99999999999999999999999"]
    cases["trades-price-form"] = [str(inputs / "trades.csv"), "--format", "tick-price-volume",
                                  "--window-n", "21", "--lag-step", "5"]
    for name in renderings(gappy_tape()):
        cases[f"gappy-{name}"] = [str(inputs / f"gappy_{name}.csv"), "--window-n", "21",
                                  "--lag-step", "5"]
    for command in ("stats", "compare", "acf-per-center", "acf-mean"):
        args = (["acf", "--max-lag", "30", "--aggregate", command[4:], "--output", "OUT"]
                if command.startswith("acf") else [command])
        for case, flags in cases.items():
            runs.append((f"{command}-{case}", [*args, "--input", *flags]))
    return runs


def child(inputs: Path) -> None:
    """Run the matrix with the ``mbstat`` on ``sys.path``; print {output: sha256} as JSON."""
    from click.testing import CliRunner

    from mbstat.cli import main

    digests = {}
    for label, args in matrix(inputs):
        with tempfile.TemporaryDirectory() as work:
            base = Path(work) / "out"
            res = CliRunner().invoke(main, [str(base) if a == "OUT" else a for a in args])
            status = f"exit {res.exit_code}\n".encode() + res.stderr_bytes
            outputs = {"stdout": res.stdout_bytes, "stderr": status}
            outputs.update((p.name, p.read_bytes()) for p in sorted(Path(work).iterdir()))
        for name, blob in outputs.items():
            digests[f"{label} {name}"] = hashlib.sha256(blob).hexdigest()
    print(json.dumps(digests))


def digests(tree: Path, inputs: Path) -> dict[str, str] | None:
    """The output digests of the matrix run with the source tree ``tree``, or
    None, with the run's stderr printed, when the run fails."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MBSTAT_")}
    env["PYTHONPATH"] = str(tree / "src")
    res = subprocess.run([sys.executable, __file__, "--child", str(inputs)], env=env,
                         capture_output=True, text=True)
    if res.returncode:
        print(f"{res.stderr}the run with {tree} exited {res.returncode}", file=sys.stderr)
        return None
    return json.loads(res.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--child":
        child(Path(argv[1]))
        return 0
    if len(argv) != 2:
        print("usage: python tools/same_bytes.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    old_tree, new_tree = (Path(a).resolve() for a in argv)
    for tree in (old_tree, new_tree):
        if not (tree / "src" / "mbstat").is_dir():
            print(f"{tree} holds no src/mbstat package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        (inputs / "golden.csv").write_bytes(GOLDEN.read_bytes())
        (inputs / "gappy.csv").write_text(gappy_tape())
        (inputs / "sparse.csv").write_text(gappy_tape(seed=12, ticks=4000, filled=0.05))
        (inputs / "short.csv").write_text("tick,value,volume\n1,4,2\n2,4,2\n3,4,2\n")
        (inputs / "trades.csv").write_text(trade_tape())
        for name, text in renderings(gappy_tape()).items():
            (inputs / f"gappy_{name}.csv").write_bytes(text.encode())
        for name, text in failing_tapes().items():
            (inputs / f"{name}.csv").write_text(text)
        old = digests(old_tree, inputs)
        new = None if old is None else digests(new_tree, inputs)
    if new is None:
        return 2
    differ = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, "missing"), new.get(key, "missing")
        if a == b:
            print(f"{a}  {key}")
        else:
            differ += 1
            print(f"{a} -> {b}  {key}  DIFFERS")
    print(f"{len(old.keys() | new.keys())} outputs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
