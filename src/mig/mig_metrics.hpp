// Process-wide mig.* metric singletons, shared by the migration layer's
// split translation units (spool_transfer, source_txn, dest_host,
// coordinator). Each struct resolves its instruments once against the
// obs::Registry; get() hands every caller the same references.
#pragma once

#include "obs/metrics.hpp"

namespace hpm::mig {

/// `mig.coordinator.*` counters for the retry machinery.
struct CoordinatorMetrics {
  obs::Counter& attempts = obs::Registry::process().counter("mig.coordinator.attempts");
  obs::Counter& retries = obs::Registry::process().counter("mig.coordinator.retries");
  obs::Counter& aborts = obs::Registry::process().counter("mig.coordinator.aborts");

  static CoordinatorMetrics& get() {
    static CoordinatorMetrics m;
    return m;
  }
};

/// `mig.pipeline.*` instruments for the chunked transfer.
struct PipelineMetrics {
  obs::Counter& chunks = obs::Registry::process().counter("mig.pipeline.chunks");
  obs::Histogram& chunk_bytes =
      obs::Registry::process().histogram("mig.pipeline.chunk_bytes", obs::Unit::Bytes);
  obs::Gauge& queue_depth = obs::Registry::process().gauge("mig.pipeline.queue_depth");
  obs::Histogram& overlap =
      obs::Registry::process().histogram("mig.pipeline.overlap_ratio", obs::Unit::None);

  static PipelineMetrics& get() {
    static PipelineMetrics m;
    return m;
  }
};

/// `mig.txn.*` counters for the two-phase handoff. `commits` counts the
/// source's durable Commit decisions, `dest_committed` the destination's
/// Committed records.
struct TxnMetrics {
  obs::Counter& begins = obs::Registry::process().counter("mig.txn.begins");
  obs::Counter& prepares = obs::Registry::process().counter("mig.txn.prepares");
  obs::Counter& commits = obs::Registry::process().counter("mig.txn.commits");
  obs::Counter& dest_committed = obs::Registry::process().counter("mig.txn.dest_committed");
  obs::Counter& aborts = obs::Registry::process().counter("mig.txn.aborts");
  obs::Counter& indoubt_recoveries =
      obs::Registry::process().counter("mig.txn.indoubt_recoveries");

  static TxnMetrics& get() {
    static TxnMetrics m;
    return m;
  }
};

/// `mig.dedup.*` instruments for the content-addressed transfer
/// (DESIGN.md §15): manifest sizes, the destination's hit/miss split and
/// the bytes splicing saved, and the wire codec's achieved ratio
/// (coded/raw per transmitted miss — below 1.0 means compression paid;
/// raw-fallback chunks record 1.0).
struct DedupMetrics {
  obs::Counter& manifest_chunks =
      obs::Registry::process().counter("mig.dedup.manifest_chunks");
  obs::Counter& hits = obs::Registry::process().counter("mig.dedup.hits");
  obs::Counter& misses = obs::Registry::process().counter("mig.dedup.misses");
  obs::Counter& bytes_saved = obs::Registry::process().counter("mig.dedup.bytes_saved");
  obs::Histogram& codec_ratio =
      obs::Registry::process().histogram("mig.dedup.codec_ratio", obs::Unit::None);

  static DedupMetrics& get() {
    static DedupMetrics m;
    return m;
  }
};

/// `mig.failover.*` instruments for destination failover (DESIGN.md §16):
/// how often a primary was declared dead with standbys armed, the
/// re-targets actually dialed, the dial budget exhaustions, the fencing
/// rejections that kept a stale incarnation from committing, and the
/// availability gap a successful failover cost.
struct FailoverMetrics {
  obs::Counter& triggered = obs::Registry::process().counter("mig.failover.triggered");
  obs::Counter& redirects = obs::Registry::process().counter("mig.failover.redirects");
  obs::Counter& dial_failures =
      obs::Registry::process().counter("mig.failover.dial_failures");
  obs::Counter& fenced = obs::Registry::process().counter("mig.failover.fenced");
  obs::Histogram& downtime = obs::Registry::process().histogram(
      "mig.failover.downtime_seconds", obs::Unit::Seconds);

  static FailoverMetrics& get() {
    static FailoverMetrics m;
    return m;
  }
};

/// `mig.resume.*` instruments for the resume machinery.
struct ResumeMetrics {
  obs::Counter& attempts = obs::Registry::process().counter("mig.resume.attempts");
  obs::Counter& chunks_skipped =
      obs::Registry::process().counter("mig.resume.chunks_skipped");

  static ResumeMetrics& get() {
    static ResumeMetrics m;
    return m;
  }
};

}  // namespace hpm::mig
