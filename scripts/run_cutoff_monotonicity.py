"""Monotonicity of the cutoff-Coulomb spectrum in both parameters.

Sweeps E(a) at fixed alpha and E(alpha) at fixed a for the lowest two states
of the k = -1 channel, prints the sweep tables with both derivative
estimates, and writes the verdicts. CSV output lands next to this script
unless --outdir is given.
"""

import argparse
import pathlib
import sys

import numpy as np

import diracmono as dm
from diracmono import monotonicity as mono
from diracmono.cli import records_csv


def run(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    channel = dm.ChannelSpec(d=3, tau=-1, j=0.5)
    cases = [
        ("a", dm.cutoff_coulomb(1.0, 1.0, active="a"), np.linspace(0.1, 2.0, 20)),
        ("alpha", dm.cutoff_coulomb(1.0, 1.0, active="alpha"), np.linspace(0.5, 1.5, 20)),
    ]
    for param, family, grid in cases:
        sign = dm.classify_sign(family)
        print(f"\n=== cutoff-Coulomb, active parameter {param!r} "
              f"(dV/d{param} classified {sign.value}) ===")
        for n_r in (0, 1):
            records = mono.sweep(family, channel, n_r, grid)
            vd = mono.verdict(records, sign)
            print(f"\n  n_r = {n_r}: E from {records[0].E:+.9f} to "
                  f"{records[-1].E:+.9f}  ->  {vd.conclusion} [{vd.status}]")
            print(f"  {'param':>10} {'E':>14} {'dE_fd':>13} {'dE_hf':>13} "
                  f"{'|fd-hf|':>9}")
            for r in records[:: max(1, len(records) // 6)]:
                print(f"  {r.a:>10.4f} {r.E:>14.10f} {r.dE_fd:>13.6e} "
                      f"{r.dE_hf:>13.6e} {r.hf_residual:>9.1e}")
            out = outdir / f"cutoff_sweep_{param}_nr{n_r}.csv"
            out.write_text(records_csv(records))
            print(f"  wrote {out}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default=None)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir) if args.outdir else pathlib.Path(__file__).parent
    sys.exit(run(outdir))
