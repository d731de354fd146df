"""T3 — Table 3: panic-activity relationship.

Regenerates: the share of HL-related panics recorded during voice
calls (38.6%), messaging (6.6%), and otherwise (54.8%); about 45%
during real-time activity; USER panics voice-only; Phone.app / MSGS
Client message-only.
"""

from benchmarks.conftest import emit

from repro.analysis.report import build_report
from repro.experiments import paper
from repro.experiments.compare import Comparison
from repro.symbian import panics as P


def test_table3_activity(benchmark, campaign):
    table = benchmark(build_report, campaign.dataset).activity

    print()
    print(campaign.report.render_table3())

    comparison = Comparison("Table 3 row totals: paper vs measured")
    comparison.add(
        "voice call",
        paper.PAPER_TABLE3_ROW_TOTALS["voice_call"],
        table.row_totals.get("voice_call", 0.0),
        unit="%",
    )
    comparison.add(
        "message",
        paper.PAPER_TABLE3_ROW_TOTALS["message"],
        table.row_totals.get("message", 0.0),
        unit="%",
    )
    comparison.add(
        "unspecified",
        paper.PAPER_TABLE3_ROW_TOTALS["unspecified"],
        table.row_totals.get("unspecified", 0.0),
        unit="%",
    )
    comparison.add(
        "real-time activity share",
        paper.REALTIME_ACTIVITY_PERCENT,
        table.realtime_percent,
        unit="%",
    )
    emit(benchmark, comparison)

    # Exclusivity claims (up to cascade stragglers landing just past an
    # activity's end record).
    user_voice = table.cells.get(("voice_call", P.USER), 0.0)
    user_other = table.cells.get(("unspecified", P.USER), 0.0) + table.cells.get(
        ("message", P.USER), 0.0
    )
    assert user_voice > 3 * max(user_other, 1e-9) or user_other == 0.0
    # Ordering: unspecified > voice > message.
    assert (
        table.row_totals["unspecified"]
        > table.row_totals["voice_call"]
        > table.row_totals["message"]
    )
    assert comparison.all_within_factor(1.8)
