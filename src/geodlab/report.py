"""Deterministic text reports for experiment outputs.

A report is parameters, a rectangular table, derived scalars, and a
footer.  Everything except the footer is deterministic for fixed inputs:
parameters and derived values print sorted by key, floats print with %.9g.
Footer lines start with '#' so consumers can strip them before comparing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


def fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    if isinstance(v, (np.floating,)):
        return f"{float(v):.9g}"
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def ls_slope(xs, ys) -> tuple:
    """Least-squares slope and intercept of ys against xs."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points for a slope")
    xm, ym = x.mean(), y.mean()
    den = ((x - xm) ** 2).sum()
    if den == 0.0:
        raise ValueError("degenerate abscissae")
    s = ((x - xm) * (y - ym)).sum() / den
    return float(s), float(ym - s * xm)


@dataclass
class CountReport:
    title: str
    params: dict
    columns: tuple
    rows: list
    derived: dict = field(default_factory=dict)
    wall_time: float | None = None
    # work counts of the run, printed as '# count.<name> = N' footer lines
    counters: dict = field(default_factory=dict)

    def to_text(self, deterministic_only: bool = False) -> str:
        out = [self.title]
        for k in sorted(self.params):
            out.append(f"{k} = {fmt_value(self.params[k])}")
        out.append("")
        out.append(";".join(self.columns))
        for row in self.rows:
            out.append(";".join(fmt_value(v) for v in row))
        if self.derived:
            out.append("")
            for k in sorted(self.derived):
                out.append(f"{k} = {fmt_value(self.derived[k])}")
        if not deterministic_only:
            out.append(f"# generated_at = {time.strftime('%Y-%m-%dT%H:%M:%S')}")
            for k in sorted(self.counters):
                out.append(f"# count.{k} = {self.counters[k]}")
            if self.wall_time is not None:
                out.append(f"# wall_time = {self.wall_time:.3f}s")
        return "\n".join(out) + "\n"
