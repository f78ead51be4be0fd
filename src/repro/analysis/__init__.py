"""Experiment harness: one runner per paper table/figure plus reporting.

* :mod:`~repro.analysis.experiments` -- reusable runners for Figure 3 (repair
  walk-through), Figure 4 (centrality with/without pruning), Figure 5 (DDSR vs
  normal graph), Figure 6 (simultaneous-takedown partition threshold), the
  SOAP campaign, the HSDir interception mitigation, the SuperOnion arms race
  and the PoW/rate-limit trade-off.
* :mod:`~repro.analysis.table1` -- the Table I comparison (crypto, signing,
  replay) augmented with empirical message-distinguishability measurements.
* :mod:`~repro.analysis.reporting` -- plain-text tables and series formatting
  used by the benchmarks and the README's "Reproducing the paper" section.

Parameter sweeps over a registered scenario run through
:func:`repro.runner.executor.run_scenario`.
"""

from repro.analysis.experiments import (
    Fig3Result,
    Fig4Result,
    Fig5Result,
    Fig6Result,
    HsdirExperimentResult,
    PowTradeoffPoint,
    SoapExperimentResult,
    run_fig3_walkthrough,
    run_fig4_centrality,
    run_fig5_resilience,
    run_fig6_partition_threshold,
    run_hsdir_interception,
    run_pow_tradeoff,
    run_soap_campaign,
    run_superonion_vs_soap,
)
from repro.analysis.export import (
    export_fig4,
    export_fig5,
    export_fig6,
    write_json,
    write_rows_csv,
    write_series_csv,
)
from repro.analysis.reporting import format_series, format_table, render_result_rows
from repro.analysis.table1 import build_table1

__all__ = [
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "SoapExperimentResult",
    "HsdirExperimentResult",
    "PowTradeoffPoint",
    "run_fig3_walkthrough",
    "run_fig4_centrality",
    "run_fig5_resilience",
    "run_fig6_partition_threshold",
    "run_soap_campaign",
    "run_hsdir_interception",
    "run_superonion_vs_soap",
    "run_pow_tradeoff",
    "build_table1",
    "format_table",
    "format_series",
    "render_result_rows",
    "write_json",
    "write_series_csv",
    "write_rows_csv",
    "export_fig4",
    "export_fig5",
    "export_fig6",
]
