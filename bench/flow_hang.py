"""Reproduce the flow-solver hang on a motion-only scene with occluded pairs.

    python3 bench/flow_hang.py --seed 1

Builds a motion-only scene of crossing, merge and bounce pairs with the
benchmark's generator, tracks it and runs ``learn_weights`` under a
deadline.  When the deadline passes, it names the sweep point being
solved and, if the solver is inside ``_Ssp.augment``, whether the parent
chain it follows is a cycle.  Exits 1 on a hang, 0 when the sweep ends.
The benchmark's workloads keep such scenes out.
"""

from __future__ import annotations

import argparse
import signal
import sys
import tempfile
import time
from pathlib import Path

from checks import sweep_pick
from run import load_program, setup
from scenes import HEIGHT, WIDTH, SceneSpec

HANG_SCENE = SceneSpec(
    n_frames=400,
    groups={"crossing": 5, "merge": 5, "bounce": 5},
    life=160,
    feature_dim=0,
    misses=5,
)
TIMEOUT_S = 60.0  # a sweep of this scene that does not stall ends in about 6 s


class Stalled(BaseException):
    def __init__(self, frame):
        self.frame = frame


def _parent_cycle(frame) -> bool | None:
    """Whether the parent chain walked by the innermost ``augment`` call
    loops back on itself; None when the solver is elsewhere."""
    while frame is not None and frame.f_code.co_name != "augment":
        frame = frame.f_back
    if frame is None:
        return None
    ssp, parent, v = frame.f_locals["self"], frame.f_locals["parent"], frame.f_locals["dst"]
    seen = set()
    while v != ssp.src:
        if v in seen:
            return True
        seen.add(v)
        v = ssp.res.to[parent[v] ^ 1]
    return False


def _on_alarm(signum, frame):
    raise Stalled(frame)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    tp = load_program()
    with tempfile.TemporaryDirectory() as tmp:
        _, detections, ground_truth = setup(HANG_SCENE, args.seed, 0, Path(tmp), tp["mot_io"])
    cfg = tp["model"].RunConfig(rng_seed=args.seed, frame_width=WIDTH, frame_height=HEIGHT)
    state = tp["association"].track_sequence(detections, cfg)
    print(f"seed {args.seed}: {len(state.reliable_tracklets)} reliable tracklets, "
          f"{len(state.flagged_ids)} flagged")
    sweep: list = []
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        learned = tp["evaluation"].learn_weights(
            state.reliable_tracklets, ground_truth, cfg, state.tables, trace=sweep
        )
    except Stalled as stall:
        level, step = divmod(len(sweep), 11)
        point = (sweep_pick(sweep[:11], 0), step / 10) if level else (step / 10, 0.0)
        print(f"learn_weights did not return within {TIMEOUT_S:.0f} s; "
              f"stalled solving sweep point {point} after {len(sweep)} points; "
              f"parent cycle in augment: {_parent_cycle(stall.frame)}")
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(f"learn_weights returned {learned} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
