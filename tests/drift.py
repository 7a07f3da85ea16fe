"""How far two hopsim output trees drift apart, for a change meant to move bytes.

A regenerated digest says only that bytes moved.  :func:`drift` says how far
the physics moved: given two trees written by ``hopsim run`` or ``hopsim
compare``, it pairs their files by path under the tree and reports

* per ``run.csv``, the record counts, and for each numeric column the
  largest absolute and relative difference over the rows both logs have;
* per ``run.csv``, the lifts and landings, matched by kind and order, with
  the largest time difference, and the rows whose phase differs;
* every field of every ``summary.csv`` and ``compare.csv``, side by side.

Events are read from the phase column, as the trees hold no event list: a
row whose phase differs from the row before marks a lift (into flight) or a
landing (into stance) in the tick before it, dated by the row's ``t``.  Event
times thus resolve to one control period, and a lift and landing within one
tick do not show.

Run ``python tests/drift.py OLD NEW`` for the table to put next to the digests
a change regenerates.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

_KIND = {"flight": "lift", "stance": "landing"}  # the phase a row enters -> its event


@dataclass
class RunDrift:
    """The drift between two ``run.csv`` files of one path."""

    records: tuple[int, int]
    columns: dict[str, tuple[float, float]]  # numeric column -> (largest abs, largest rel)
    events: dict[str, tuple[int, int, float]]  # kind -> (count a, count b, largest |dt|)
    phase_rows: int  # shared rows whose phase differs

    def is_zero(self) -> bool:
        return (
            self.records[0] == self.records[1]
            and self.phase_rows == 0
            and all(d == (0.0, 0.0) for d in self.columns.values())
            and all(a == b and dt == 0.0 for a, b, dt in self.events.values())
        )


@dataclass
class Drift:
    """The drift between two output trees."""

    runs: dict[str, RunDrift]  # path of each run.csv under the trees
    fields: list[tuple[str, str, str]]  # ("path:field", value a, value b)
    unpaired: list[str]  # compared files that only one tree has

    def is_zero(self) -> bool:
        return (
            not self.unpaired
            and all(run.is_zero() for run in self.runs.values())
            and all(a == b for _, a, b in self.fields)
        )

    def table(self) -> str:
        """The report as plain text, one table per run.csv, then the fields."""
        lines = []
        for path, run in self.runs.items():
            lines.append(f"{path}: records {run.records[0]} / {run.records[1]}, "
                         f"phase differs on {run.phase_rows} rows")
            lines.append(f"  {'column':14s} {'max abs':>10s} {'max rel':>10s}")
            for name, (d_abs, d_rel) in run.columns.items():
                lines.append(f"  {name:14s} {d_abs:10.3g} {d_rel:10.3g}")
            for kind, (n_a, n_b, dt) in run.events.items():
                lines.append(f"  {kind + 's':14s} {n_a} / {n_b}, max |dt| {dt:.3g} s")
        width = max((len(name) for name, _, _ in self.fields), default=0)
        for name, a, b in self.fields:
            lines.append(f"{name:{width}s}  {a:>24s}  {b:>24s}{_difference(a, b)}")
        lines.extend(f"only in one tree: {path}" for path in self.unpaired)
        return "\n".join(lines) + "\n"


def _difference(a: str, b: str) -> str:
    try:
        d = float(b) - float(a)
    except ValueError:
        return ""
    return f"  {d:+.3g}" if d == d else ""


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))


def _abs_rel(a: float, b: float) -> tuple[float, float]:
    if a == b:
        return 0.0, 0.0
    d = abs(a - b)
    if not math.isfinite(d):  # a non-finite value on one side, or two unequal infinities
        return math.inf, math.inf
    return d, d / max(abs(a), abs(b))


def _events(rows: list[list[str]], phase: int) -> dict[str, list[float]]:
    events: dict[str, list[float]] = {kind: [] for kind in _KIND.values()}
    for prev, row in zip(rows, rows[1:]):
        if row[phase] != prev[phase]:
            events[_KIND[row[phase]]].append(float(row[0]))
    return events


def run_drift(path_a: Path, path_b: Path) -> RunDrift:
    """The drift between two ``run.csv`` files."""
    (header, *rows_a), (header_b, *rows_b) = _rows(path_a), _rows(path_b)
    if header != header_b:
        raise ValueError(f"run.csv headers differ: {header} / {header_b}")
    phase = header.index("phase")
    columns = {name: (0.0, 0.0) for i, name in enumerate(header) if i != phase}
    phase_rows = 0
    for row_a, row_b in zip(rows_a, rows_b):
        phase_rows += row_a[phase] != row_b[phase]
        for i, name in enumerate(header):
            if i != phase:
                d_abs, d_rel = _abs_rel(float(row_a[i]), float(row_b[i]))
                worst = columns[name]
                columns[name] = (max(worst[0], d_abs), max(worst[1], d_rel))
    ev_a, ev_b = _events(rows_a, phase), _events(rows_b, phase)
    events = {
        kind: (len(ev_a[kind]), len(ev_b[kind]),
               max((abs(a - b) for a, b in zip(ev_a[kind], ev_b[kind])), default=0.0))
        for kind in _KIND.values()
    }
    return RunDrift((len(rows_a), len(rows_b)), columns, events, phase_rows)


def _fields(path: str, rows: list[list[str]]) -> dict[str, str]:
    """summary.csv's one row by its header names, compare.csv's rows by metric."""
    header, *body = rows
    if path.endswith("summary.csv"):
        return {f"{path}:{name}": value for name, value in zip(header, body[0])}
    return {
        f"{path}:{row[0]}.{name}": value
        for row in body
        for name, value in zip(header[1:], row[1:])
    }


def drift(tree_a: Path, tree_b: Path) -> Drift:
    """The drift between the ``run.csv``, ``summary.csv`` and ``compare.csv``
    files of two output trees, paired by path."""
    names = ("run.csv", "summary.csv", "compare.csv")

    def files(tree: Path) -> set[str]:
        return {p.relative_to(tree).as_posix() for p in tree.rglob("*.csv") if p.name in names}

    in_a, in_b = files(tree_a), files(tree_b)
    runs, fields = {}, []
    for path in sorted(in_a & in_b):
        if path.endswith("run.csv"):
            runs[path] = run_drift(tree_a / path, tree_b / path)
            continue
        fa, fb = _fields(path, _rows(tree_a / path)), _fields(path, _rows(tree_b / path))
        fields.extend((name, fa.get(name, ""), fb.get(name, "")) for name in {**fa, **fb})
    return Drift(runs, fields, sorted(in_a ^ in_b))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/drift.py OLD_TREE NEW_TREE")
    print(drift(Path(sys.argv[1]), Path(sys.argv[2])).table(), end="")
