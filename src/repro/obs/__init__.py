"""``repro.obs`` -- zero-overhead-when-off telemetry for the whole stack.

The observability layer has three parts:

* :mod:`repro.obs.telemetry` -- an in-process, thread-safe collector of
  named **counters**, key-value **gauges** and wall-clock **spans**.  Off by
  default: the module-level singleton is a no-op collector whose methods
  allocate nothing, so instrumented hot paths (the wave engine, the CSR
  cache, the runner) pay only an attribute check when telemetry is
  disabled.
* :mod:`repro.obs.report` -- renders a collected run into a stable JSON
  document (the per-run provenance artifact) plus a human-readable text
  summary.
* :mod:`repro.obs.schema` -- validates a report against the checked-in
  JSON schema (``report_schema.json``), so the artifact format cannot
  drift silently.

Telemetry is **observational only**: it never touches rng streams, unit
seeds, result values or cache keys -- campaigns with telemetry on are
bit-identical to telemetry off (locked by ``tests/obs``).
"""

from repro.obs.telemetry import (  # noqa: F401
    NULL,
    Collector,
    NullCollector,
    collecting,
    current,
    disable,
    enable,
    enabled,
)
from repro.obs.report import (  # noqa: F401
    SCHEMA_ID,
    dumps_report,
    format_report,
    load_report,
    render_report,
    write_report,
)
