"""Seeded inputs of every workload, as OPB text.

Instances come from the ``repro.benchgen`` suite functions with the
Table 1 shapes of ``repro.experiments.table1.family_instances``; only the
OPB text they serialize to reaches the measured program.  Benchmark
seed ``s`` moves each suite's own seed by ``100 * s``, so suites of
different seeds share no instance.
"""

from __future__ import annotations

import random
from typing import Dict, List

from answers import read_opb, renamed, write_opb

#: Family -> (suite function name, its default seed, Table 1 shape at
#: ``scale``).  The shapes are those of ``family_instances``.
_FAMILIES = {
    "grout": ("routing_suite", 2005, lambda s: dict(
        rows=max(2, round(6 * s)), cols=max(2, round(6 * s)),
        nets=max(2, round(14 * s)), capacity=2, detours=5)),
    "ptl": ("ptl_suite", 432, lambda s: dict(
        nodes=max(3, round(22 * s)), extra_edges=max(1, round(11 * s)))),
    "mcnc": ("covering_suite", 1991, lambda s: dict(
        minterms=max(4, round(70 * s)), implicants=max(3, round(36 * s)),
        density=0.11, max_cost=120)),
    "acc": ("scheduling_suite", 1997, lambda s: dict(
        teams=max(4, 2 * round(5 * s)))),
}

#: Scale per family for the table1-* workloads.  Small instances, many
#: of them: each solves in 20-300 ms with every column's solver, far
#: inside the budget, so no budget hit makes the search depend on time,
#: and a suite of 80-90 instances varies little from seed to seed.
SCALES = {"grout": 0.6, "mcnc": 0.5, "ptl": 0.3, "acc": 1.2}

#: Per-instance budget (seconds) given to every solve.
BUDGET = 60.0


def family(name: str, count: int, scale: float, seed: int) -> List[str]:
    """OPB texts of ``count`` instances of one Table 1 family."""
    import repro.benchgen as benchgen
    from repro.pb.opb import write

    function, default_seed, shape = _FAMILIES[name]
    suite = getattr(benchgen, function)(
        count=count, seed=default_seed + 100 * seed, **shape(scale))
    return [write(instance) for instance in suite]


def table1_jobs(workload: str, seed: int) -> List[Dict]:
    """The solve jobs of ``table1-lpr`` or ``table1-search``, in order."""
    if workload == "table1-lpr":
        plan = [("bsolo-lpr", name, 36) for name in ("grout", "mcnc", "ptl")]
    else:
        plan = [(solver, name, 24) for solver in ("bsolo-mis", "bsolo-lgr")
                for name in ("grout", "mcnc", "ptl")]
        plan.append(("bsolo-mis", "acc", 6))
    jobs = []
    for solver, name, count in plan:
        for index, text in enumerate(family(name, count, SCALES[name], seed)):
            jobs.append({"label": "%s/%s-%d" % (solver, name, index + 1),
                         "solver": solver, "opb": text})
    return jobs


#: service-mix: the share of each job kind in the stream (exact; only
#: the order is drawn from the seed).  These shares are an assumption,
#: not measured traffic; nothing in the repository records a traffic
#: mix.  Distinct misses are the majority so the fork-and-solve path
#: sets the median; duplicates are large enough that the cache path is
#: a third of the samples; proof and large jobs are each "a small
#: share", the least that puts about one of each in every 20 jobs, so
#: the large bodies' stall reaches the 95th percentile.  Reweight when
#: real traffic is known.
MIX = (("distinct", 0.60), ("duplicate", 0.30), ("proof", 0.05), ("large", 0.05))

#: service-mix: small jobs come from these families at these scales,
#: where a direct solve takes 20-60 ms, so admission, queue, fork,
#: serialization and cache are a large part of each job.
SERVICE_SCALES = {"grout": 0.5, "mcnc": 0.5, "ptl": 0.3}
SERVICE_FAMILIES = tuple(SERVICE_SCALES)

#: service-mix: the large bodies are renamed copies of acc instances
#: (196 variables, 10 KB, five to ten times a small job).  They are
#: highly symmetric, so the canonical labeling the server runs on its
#: event loop takes ~80 ms, about as long as a small job takes end to
#: end: the stall adds to the latency tail without making it.
LARGE_SCALE = 0.8


def service_jobs(count: int, seed: int):
    """``(warmup, stream)``: jobs that fill the cache before timing
    starts, then ``count`` timed jobs in submission order.  Each job is
    ``{"label", "kind", "opb", "proof"}``."""
    rng = random.Random(seed)
    per_family = count // len(SERVICE_FAMILIES) + 1
    pools = {name: family(name, per_family, scale, seed)
             for name, scale in SERVICE_SCALES.items()}
    bases = [read_opb(text) for name, scale in SERVICE_SCALES.items()
             for text in family(name, 2, scale, seed + 50)]
    large = [read_opb(text) for text in family("acc", 2, LARGE_SCALE, seed)]
    warmup = [{"label": "warmup-%d" % index, "kind": "warmup",
               "opb": write_opb(base), "proof": False}
              for index, base in enumerate(bases + large)]
    kinds = [kind for kind, share in MIX for _ in range(round(share * count))]
    kinds += ["distinct"] * (count - len(kinds))
    rng.shuffle(kinds)
    stream = []
    for index, kind in enumerate(kinds[:count]):
        if kind in ("distinct", "proof"):
            name = SERVICE_FAMILIES[index % len(SERVICE_FAMILIES)]
            text = pools[name][index // len(SERVICE_FAMILIES)]
        else:
            base = rng.choice(bases if kind == "duplicate" else large)
            text = write_opb(renamed(base, rng))
        stream.append({"label": "%s-%d" % (kind, index), "kind": kind,
                       "opb": text, "proof": kind == "proof"})
    return warmup, stream
