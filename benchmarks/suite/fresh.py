"""Work the benchmark runs in a new interpreter; prints one JSON line.

``setup``  times what a user pays before a workload's first unit: the
           import of its entry module, then its construction step.
           Only the standard library is imported before the clock
           starts.
``export`` simulates the ``analyze`` workload's source campaign over a
           ``FaultPlan.mild`` link and exports its logs.

    python -m benchmarks.suite.fresh setup --workload wide --seed 2005 --scale bench
"""

from __future__ import annotations

import argparse
import importlib
import json
from time import perf_counter

ENTRY_MODULES = {
    "paper": "repro.experiments.campaign",
    "wide": "repro.experiments.campaign",
    "sharded": "repro.experiments.shard",
    "analyze": "repro.cli",
}


def setup(workload: str, seed: int, scale_name: str, logs: str) -> dict:
    start = perf_counter()
    importlib.import_module(ENTRY_MODULES[workload])
    import_s = perf_counter() - start

    from benchmarks.suite.workloads import SCALES, campaign_config
    from repro.logger.transfer import load_lines_from_dir
    from repro.phone.fleet import Fleet

    scale = SCALES[scale_name]
    start = perf_counter()
    if workload in ("paper", "wide"):
        phones, months = (
            (scale.paper_phones, scale.paper_months)
            if workload == "paper"
            else (scale.wide_phones, scale.wide_months)
        )
        config = campaign_config(phones, months, seed)
        Fleet(config.fleet, seed=config.seed).build()
    elif workload == "analyze":
        load_lines_from_dir(logs)
    return {"import_s": import_s, "construct_s": perf_counter() - start}


def export(seed: int, scale_name: str, logs: str) -> dict:
    from benchmarks.suite.workloads import SCALES, campaign_config
    from repro.experiments.campaign import run_campaign
    from repro.logger.transfer import CollectionServer, load_lines_from_dir
    from repro.robustness.injectors import FaultyLink
    from repro.robustness.plan import FaultPlan

    scale = SCALES[scale_name]
    config = campaign_config(scale.analyze_phones, scale.analyze_months, seed)
    result = run_campaign(
        config, collector=CollectionServer(link=FaultyLink(FaultPlan.mild(seed=seed)))
    )
    result.fleet.collector.export_to_dir(logs)
    lines = sum(len(phone) for phone in load_lines_from_dir(logs).values())
    return {"events_fired": result.fleet.sim.events_fired, "lines": lines}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("op", choices=("setup", "export"))
    parser.add_argument("--workload", choices=sorted(ENTRY_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--logs", default="")
    args = parser.parse_args()
    if args.op == "setup":
        if args.workload is None:
            parser.error("setup needs --workload")
        out = setup(args.workload, args.seed, args.scale, args.logs)
    else:
        out = export(args.seed, args.scale, args.logs)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
