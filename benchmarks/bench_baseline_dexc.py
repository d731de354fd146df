"""BASE — the D_EXC baseline comparison.

The paper's §3: D_EXC "does not relate panic events to failure
manifestations, running applications, and phone activities as we do in
our study".  This bench runs the paper's logger and the baseline side
by side on the same fleet and tabulates which evaluation artifacts each
instrument can produce.
"""

from repro.analysis.ingest import Dataset
from repro.analysis.report import build_report
from repro.analysis.tables import render_table
from repro.core.clock import MONTH
from repro.phone.fleet import Fleet, FleetConfig


def test_baseline_dexc_comparison(benchmark):
    config = FleetConfig(
        phone_count=10,
        duration=8 * MONTH,
        enroll_fraction_min=0.0,
        enroll_fraction_max=0.3,
        attach_dexc=True,
    )

    def run_both():
        fleet = Fleet(config, seed=55)
        fleet.run()
        full = Dataset.from_collector(fleet.collector, end_time=config.duration)
        dexc = Dataset.from_lines(fleet.dexc_dataset(), end_time=config.duration)
        return full, dexc

    full, dexc = benchmark.pedantic(run_both, rounds=1, iterations=1)

    table_full = build_report(full).panic_table
    table_dexc = build_report(dexc).panic_table

    def has_boots(dataset):
        return any(log.boots for log in dataset.logs.values())

    def has_context(dataset):
        return any(
            log.activities or log.runapps for log in dataset.logs.values()
        )

    rows = [
        ("Table 2 (panic classification)", "yes", "yes"),
        (
            "Fig 2 / MTBF (freezes, self-shutdowns)",
            "yes" if has_boots(full) else "no",
            "yes" if has_boots(dexc) else "no",
        ),
        (
            "Fig 5 (panic <-> failure coalescence)",
            "yes" if has_boots(full) else "no",
            "yes" if has_boots(dexc) else "no",
        ),
        (
            "Tables 3/4, Fig 6 (activity, running apps)",
            "yes" if has_context(full) else "no",
            "yes" if has_context(dexc) else "no",
        ),
        (
            "panics captured",
            str(table_full.total),
            str(table_dexc.total),
        ),
        (
            "panics during MAOFF windows",
            "missed",
            str(table_dexc.total - table_full.total) + " extra",
        ),
    ]
    print()
    print(
        "Instrument comparison: the paper's logger vs D_EXC\n"
        + render_table(("Evaluation artifact", "Full logger", "D_EXC"), rows)
    )
    benchmark.extra_info["full_panics"] = table_full.total
    benchmark.extra_info["dexc_panics"] = table_dexc.total

    # Both reproduce Table 2; the KERN-EXEC 3 share agrees closely.
    assert abs(
        table_full.access_violation_percent - table_dexc.access_violation_percent
    ) < 5.0
    # D_EXC sees at least everything the full logger saw.
    assert table_dexc.total >= table_full.total
    # But it can answer none of the failure-manifestation questions.
    assert not has_boots(dexc)
    assert not has_context(dexc)
    assert has_boots(full)
    assert has_context(full)
