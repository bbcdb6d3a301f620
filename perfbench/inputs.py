"""Workload inputs and the checksums the correctness gates compare.

Everything here is a pure function of the benchmark seed: the program
under test only ever sees the command lines and request streams built
from these values.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

#: production simulation path; ``interp`` is the oracle the expected
#: values are generated with (see ``make_expected.py``).
BACKEND = "superblock"

SUITE_COLD_BENCHMARKS = ("compress", "gcc", "li", "tex", "python")
#: half scale keeps every cold benchmark's branch population while the
#: run fits the benchmark's time budget (README: "Deviations").
SUITE_COLD_SCALE = 0.5
SUITE_WARM_BENCHMARKS = ("gcc", "li", "tex", "python")
#: Table 3 is degenerate below 1.0: every baseline cost is 0.
SUITE_WARM_SCALE = 1.0
WARM_EXPERIMENTS = ("table2", "table3", "table4", "figure3", "figure4")

#: service-mix: 3 of every 4 requests come from the hot set (store hits
#: and in-flight dedupe after the first); the 4th is a never-seen
#: (benchmark, scale) pair that simulates under the daemon's default
#: 2000-event checkpoint cadence.
HOT_SET = ("plot", "pgp", "compress", "li")
HOT_SCALE = 0.05
#: Above scale 0.06 every step changes the fuel budget, hence the
#: digest, while the simulated work barely changes; the benchmarks are
#: the analogs outside the hot set whose small-scale runs are cheapest.
COLD_PAIRS: Tuple[Tuple[str, float], ...] = tuple(
    (name, scale)
    for scale in (0.061, 0.062, 0.063, 0.064)
    for name in (
        "ijpeg", "m88ksim", "perl_a", "perl_b", "chess", "ss_a", "ss_b",
        "tex",
    )
)[:25]
SERVICE_REQUESTS = 4 * len(COLD_PAIRS)
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
PREDICTORS = ("bimodal", "gshare:10")

#: supervised: the unix set at a small scale, where partition, leases
#: and merge are a visible share of the run.
SUPERVISED_SET = "unix"
SUPERVISED_SCALE = 0.05
SUPERVISED_WORKERS = 2


def shuffled(items, seed: int, salt: str) -> list:
    """A seed-determined permutation of *items*."""
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


def service_schedule(seed: int) -> List[Tuple[str, float, bool]]:
    """The service-mix request stream: ``(benchmark, scale, cold)``.

    The multiset of requests is the same for every seed (each hot
    benchmark an equal share of the hot slots, every cold pair exactly
    once); the seed sets only the order.
    """
    hot_slots = SERVICE_REQUESTS - len(COLD_PAIRS)
    hot = [HOT_SET[i % len(HOT_SET)] for i in range(hot_slots)]
    hot = shuffled(hot, seed, "hot")
    cold = shuffled(COLD_PAIRS, seed, "cold")
    rng = random.Random(f"slot:{seed}")
    schedule: List[Tuple[str, float, bool]] = []
    for block, (name, scale) in enumerate(cold):
        requests = [(h, HOT_SCALE, False) for h in hot[3 * block:3 * block + 3]]
        requests.insert(rng.randrange(4), (name, scale, True))
        schedule.extend(requests)
    return schedule


def composition(schedule) -> str:
    """Order-free fingerprint of a request stream (same for every seed)."""
    return hashlib.sha256(
        json.dumps(sorted(map(list, schedule))).encode()
    ).hexdigest()[:16]


def trace_checksum(trace) -> str:
    """sha256 over a loaded trace's four event columns."""
    h = hashlib.sha256()
    for column in (trace.pcs, trace.targets, trace.taken, trace.timestamps):
        h.update(column.tobytes())
    return h.hexdigest()


def profile_checksum(profile) -> str:
    """sha256 over a loaded profile's canonical content (order-free)."""
    payload = {
        "instructions": profile.instructions,
        "branches": sorted(
            (pc, s.executions, s.taken) for pc, s in profile.branches.items()
        ),
        "pairs": sorted(
            (a, b, count) for (a, b), count in profile.pairs.items()
        ),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def artifact_summary(artifacts) -> Dict[str, object]:
    """What the suite gates compare for one benchmark's stored artifacts."""
    return {
        "events": len(artifacts.trace),
        "instructions": artifacts.instructions,
        "static_branches": artifacts.static_branches,
        "trace_sha256": trace_checksum(artifacts.trace),
        "profile_sha256": profile_checksum(artifacts.profile),
    }
