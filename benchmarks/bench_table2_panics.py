"""T2 — Table 2: collected panic events by category and type.

Regenerates: the 20-row panic frequency table; headline aggregates
(KERN-EXEC 3 = 56% memory access violations, E32USER-CBase ~18% heap
management).
"""

from benchmarks.conftest import emit

from repro.analysis.report import build_report
from repro.experiments import paper
from repro.experiments.compare import Comparison
from repro.symbian import panics as P


def test_table2_panics(benchmark, campaign):
    table = benchmark(build_report, campaign.dataset).panic_table

    print()
    print(campaign.report.render_table2())

    comparison = Comparison("Table 2: paper vs measured (% of all panics)")
    measured = {row.panic_id: row.percent for row in table.rows}
    # Compare every non-rare type individually (rare 0.25% rows are one
    # event in the paper; sampling noise dominates them).
    for pid, target in sorted(paper.PAPER_TABLE2.items(), key=lambda kv: -kv[1]):
        if target >= 1.0:
            comparison.add(str(pid), target, measured.get(pid, 0.0), unit="%")
    comparison.add(
        "access violations (KERN-EXEC 3)",
        paper.ACCESS_VIOLATION_PERCENT,
        table.access_violation_percent,
        unit="%",
    )
    comparison.add(
        "heap management (E32USER-CBase)",
        paper.HEAP_MANAGEMENT_PERCENT,
        table.heap_management_percent,
        unit="%",
    )
    emit(benchmark, comparison)

    # Who wins: KERN-EXEC 3 dominates everything else by a wide margin.
    top = max(table.rows, key=lambda r: r.count)
    assert top.panic_id == P.KERN_EXEC_3
    second = sorted(table.rows, key=lambda r: -r.count)[1]
    assert top.percent > 3 * second.percent
    assert comparison.all_within_factor(2.5)
