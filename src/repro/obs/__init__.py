"""Observability for the serving stack: tracing, metrics, exposition.

The serving path spans four layers -- asyncio server, thread-pool
executor / step batcher, cluster router, worker processes -- and
before this package the only window into it was one counter blob behind
the ``stats`` op.  This package is the telemetry layer all of them now
share, stdlib-only and import-light (nothing here imports the engine or
the service, so cluster workers use it too without cycles).

Architecture::

    request (JSONL/TCP)                         repro serve --metrics-port
      -> server.py  mints trace_id ──────────┐    -> obs.http  GET /metrics
           │  span: request, serialize       │         │  /healthz /readyz
           ▼                                 │         ▼
         executor.py / StepBatcher           │    obs.registry.render()
           │  span: queue_wait, solve        │      counters/gauges/
           ▼                                 │      histograms, one lock,
         ExecutionBackend                    │      Prometheus text 0.0.4
           │  ClusterBackend (+ supervisor)  │
           │  span: rpc (trace rides the     │    stats op («spans»: N)
           │  typed codec's optional         │      -> obs.trace ring
           │  "trace" frame field)           │         buffers (recent,
           ▼                                 │         slow) + totals
         worker process                      │
              span: solver (worker-local ────┘    repro top / repro stats
              tracer, propagated ids)               -> obs.top over the
                                                       ordinary client

    obs.registry  metric families (counter/gauge/histogram) in one
                  MetricsRegistry; duplicate names raise at wiring
                  time; renders Prometheus text exposition.  Also home
                  of LatencyHistogram (log-bucket, mergeable across
                  processes), re-exported by repro.service.metrics.
    obs.trace     trace/span ids, bounded span ring buffers, slow-span
                  log, and the thread-local active-trace context that
                  carries a request's identity across executor threads
                  and into RPC encoders without widening any backend
                  signature.
    obs.probe     event-loop scheduling-lag sampler (current/max gauges).
    obs.http      the stdlib asyncio listener behind --metrics-port:
                  /metrics, /healthz, /readyz (readiness from local
                  worker-health state only -- never RPCs).
    obs.top       `repro top` live terminal view and `repro stats`
                  one-shot dump, both over the normal service client.

Cost model: tracing is a few microseconds per request (id mint + ring
append) and is on by default; constructing a disabled tracer
(``ServerConfig(trace=False)`` / :data:`~repro.obs.trace.NULL_TRACER`)
turns every call site into a no-op returning a shared null span, and
the exposition listener simply does not start without
``--metrics-port`` -- the configuration the perf smoke holds to within
noise of the pre-instrumentation baseline.
"""

from .http import ObsHttpServer
from .probe import EventLoopLagProbe
from .registry import (
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    LatencyHistogram,
    MetricsRegistry,
)
from .trace import NULL_TRACER, Span, Tracer, new_span_id, new_trace_id
from .top import fetch_stats, run_stats, run_top

__all__ = [
    "CounterFamily",
    "EventLoopLagProbe",
    "GaugeFamily",
    "HistogramFamily",
    "LatencyHistogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "ObsHttpServer",
    "Span",
    "Tracer",
    "fetch_stats",
    "new_span_id",
    "new_trace_id",
    "run_stats",
    "run_top",
]
