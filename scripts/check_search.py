#!/usr/bin/env python3
"""The pruned search against the exhaustive grid, loss by loss.

For every loss of ``1:45:1`` on the projection config's two grids (p_z
fixed at the config's, and free over 0.5..0.95), checks that
``optimize(refine=False)`` returns the point and l_bits that
``optimizer._best_index`` picks over the whole grid scored by
``evaluate_grid``, or raises ``EmptyFeasibleSet`` where no point scores
above zero, and that the points it scored and pruned sum to the coarse
grid's scorable points.  Prints a Markdown table, one row per (grid,
loss): the share of those points that each bound stopped first, the
share scored, and the search's time.  Exits 1 if any case fails::

    python3 scripts/check_search.py
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qkdlab import cli, core, optimizer  # noqa: E402

LOSSES = "1:45:1"


def exhaustive_best(grid: optimizer.GridSpec, p0, link):
    """The grid point (mu, nu, p_mu, p_z) and l_bits that ``_best_index``
    picks over every (mu, nu) pair of ``grid`` scored, or None where no
    point scores above zero."""
    mu, nu, pm, pz = (np.asarray(v, dtype=np.float64) for v in (
        grid.mu_values, grid.nu_values, grid.p_mu_values, grid.p_z_values))
    pair_mu, pair_nu = (a.ravel() for a in np.meshgrid(mu, nu, indexing="ij"))
    l = optimizer.evaluate_grid(pair_mu, pair_nu, pm, pz, p0, link)
    if not l.max() > 0.0:
        return None
    z, m, pair = optimizer._best_index(l, pair_mu, pair_nu, pm[:, None], pz[:, None, None])
    return (pair_mu[pair], pair_nu[pair], pm[m], pz[z]), float(l[z, m, pair])


def scorable_points(grid: optimizer.GridSpec) -> int:
    """The coarse grid's scorable points: its scorable (mu, nu) pairs at
    every p_mu and p_z value."""
    pairs = optimizer._scorable(np.asarray(grid.mu_values)[:, None], np.asarray(grid.nu_values))
    return int(pairs.sum()) * len(grid.p_mu_values) * len(grid.p_z_values)


def main() -> int:
    p, link, _ = core.load_config(os.path.join(ROOT, "configs", "projection.conf"))
    grids = {"default": cli._grid(p, False), "free": cli._grid(p, True)}
    failed = 0
    print("| grid | loss (dB) | l_bits | stopped by B | by B_x | by l_up | by l_up_x | scored "
          "| ms |")
    print("|---|---:|---:|---:|---:|---:|---:|---:|---:|")
    for name, grid in grids.items():
        total = scorable_points(grid)
        for loss in cli._parse_losses(LOSSES):
            at = link.with_channel_loss(loss)
            expected = exhaustive_best(grid, p, at)
            t0 = time.perf_counter()
            try:
                result = optimizer.optimize(at, p0=p, grid=grid, refine=False)
            except optimizer.EmptyFeasibleSet:
                result = None
            ms = 1e3 * (time.perf_counter() - t0)
            if result is None:
                ok = expected is None
                cells = ["0", "-", "-", "-", "-", "-"]
            else:
                b = result.best
                ok = (expected == ((b.mu, b.nu, b.p_mu, b.p_z_bob), result.l_bits)
                      and result.points_scored + result.points_pruned == total)
                shares = (result.pruned_by_b, result.pruned_by_b_x, result.pruned_by_l_up,
                          result.pruned_by_l_up_x, result.points_scored)
                cells = [f"{result.l_bits:.6g}", *(f"{100.0 * s / total:.2f} %" for s in shares)]
            if not ok:
                failed += 1
                print(f"{name} grid at {loss:g} dB: search gave {result}, "
                      f"exhaustive grid {expected}, {total} scorable points", file=sys.stderr)
            print(f"| {name}{'' if ok else ' (MISMATCH)'} | {loss:g} | {' | '.join(cells)} | "
                  f"{ms:.1f} |")
    print(f"\n{failed} of {2 * len(cli._parse_losses(LOSSES))} (grid, loss) cases differ from "
          f"the exhaustive grid or miscount its points")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
