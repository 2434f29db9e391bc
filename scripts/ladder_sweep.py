"""Path sweep of the Bethe size ladder: how each rung of ``state_roots`` is solved.

For the six tabulated states (three per parity class) at every U in
``COUPLINGS``, empties the root store and solves
``bethe.state_roots(state, L, U)`` for every table size of the state's class,
plus L = 514 for the even states, under a wall-time cap per case, so that
each case climbs its whole ladder from the floor.  Each rung of the ladder
prints one CSV line

    state,U,L,rung,path,iterations,stalled

where ``path`` is ``seed`` (the size seed from the rung below, or the
decoupled guess at the ladder floor) when that start converged, and
``continuation`` when it stalled and the continuation in U from U = 20 took
over; ``iterations`` counts the Newton iterations of the winning path and
``stalled`` is 1 when the first start failed; ``failed`` marks a rung
where the continuation failed too.  A case that raises or hits the cap also
prints ``state,U,L,-,failed|timeout,,``.  The last lines list the
rungs whose first start stalled.

    python scripts/ladder_sweep.py [--cap 60] [--U 0.5,2]
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chargepair import bethe  # noqa: E402
from chargepair.reference_tables import EVEN_SIZES, ODD_SIZES  # noqa: E402

COUPLINGS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 16.0, 100.0)
CASES = [(state, L) for state in bethe.STATES_EVEN for L in sorted(EVEN_SIZES + (514,))]
CASES += [(state, L) for state in bethe.STATES_ODD for L in ODD_SIZES]


class CaseTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CaseTimeout


def rungs(calls):
    """Fold the recorded Newton runs (L, iterations or None on failure) into
    one (L, path, iterations, stalled) per rung, in ladder order."""
    by_size = {}
    for L, its in calls:
        by_size.setdefault(L, []).append(its)
    out = []
    for L, runs in by_size.items():
        if runs[0] is not None:
            out.append((L, "seed", runs[0], 0))
        elif len(runs) > 1 and None not in runs[1:]:
            out.append((L, "continuation", sum(runs[1:]), 1))
        else:
            out.append((L, "failed", "", 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cap", type=float, default=60.0, help="wall-time cap per case, s")
    parser.add_argument("--U", default=",".join(map(str, COUPLINGS)),
                        help="comma-separated couplings")
    args = parser.parse_args()
    couplings = [float(u) for u in args.U.split(",")]

    calls = []
    newton = bethe._newton

    def spy(k, mu, cfg):
        try:
            out = newton(k, mu, cfg)
        except bethe.SolverError:
            calls.append((cfg.L, None))
            raise
        calls.append((cfg.L, out[3]))
        return out

    bethe._newton = spy
    signal.signal(signal.SIGALRM, _alarm)
    stalls = []
    t_all = time.perf_counter()
    print("state,U,L,rung,path,iterations,stalled")
    for U in couplings:
        for state, L in CASES:
            calls.clear()
            bethe.state_energy.cache_clear()
            signal.setitimer(signal.ITIMER_REAL, args.cap)
            try:
                bethe.state_roots(state, L, U)
                status = None
            except bethe.SolverError:
                status = "failed"
            except CaseTimeout:
                status = "timeout"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            for rung, path, its, stalled in rungs(calls):
                print(f"{state},{U:g},{L},{rung},{path},{its},{stalled}")
                if stalled:
                    stalls.append(f"{state} U={U:g} L={L}: rung {rung}")
            if status:
                print(f"{state},{U:g},{L},-,{status},,")
                stalls.append(f"{state} U={U:g} L={L}: {status}")
            sys.stdout.flush()
    print(f"# {len(stalls)} stalled rungs or failed cases, "
          f"{time.perf_counter() - t_all:.0f} s in all")
    for line in stalls:
        print(f"# {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
