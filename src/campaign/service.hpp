// Sharded campaign service (DESIGN.md §11): the multi-process composition
// of the resilient sweep runtime.
//
// run_campaign() is a coordinator that keeps one ownership table over the
// campaign's scenario indices: each index is done, pooled, or owned by one
// shard.  It forks one worker process per shard; each worker drives the
// indices it owns through engine::run_resilient_indices with its own
// fsync'd shard journal (campaign-scoped, so it resumes bit-exactly in
// any process), its own watchdog/retry settings, and a per-shard failure
// budget.  The coordinator stays single-threaded and event-driven: it
// polls the workers' frame sockets (campaign/protocol.hpp), scans a fleet
// deadline, reaps dead workers with waitpid, respawns a crashed shard onto
// its own journal (completed work is served from the journal, not
// recomputed), and hands pooled indices -- or, with nothing pooled, an
// unstarted tail stolen from the most-loaded shard -- to any idle worker.
// With zero workers, or once the whole fleet is gone, the coordinator
// runs what is left itself on shard-coord.jsonl.  The result is merged
// from every shard journal in the work dir, so scenario ordering and
// bytes are identical to a single-process run of the same campaign under
// any fleet shape, and a work dir resumes under any worker count.
//
// In front of execution sits the content-addressed result cache
// (campaign/cache.hpp): a repeated query of the same campaign identity is
// served from the cached journal/report bytes with zero scenario
// executions.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/fleet.hpp"
#include "sweep_engine/resilient.hpp"

namespace rr::campaign {

/// Respawns allowed per shard before its remainder goes to the pool.
inline constexpr int kMaxRespawns = 3;

/// What to run: the campaign identity is campaign_hash(params), exactly
/// the identity the shard journals and the result cache are keyed by.
/// Fold anything that changes results (spec knobs, seed, engine
/// provenance) into `params`.
struct CampaignSpec {
  std::string name = "campaign";
  Json params = Json::object();
  int scenarios = 0;
  std::uint64_t base_seed = 0;
  /// Optional per-index seed override (must match what a single-process
  /// run of the same study would derive).
  std::function<std::uint64_t(int)> seed_of;
};

/// How to run it.
struct ServiceConfig {
  /// Forked worker processes; 0 is the coordinator with zero workers: it
  /// runs the whole campaign itself (still journaled and cache-fronted).
  int workers = 1;
  /// Indices a worker runs between control-socket polls; also the
  /// minimum remainder worth stealing from.
  int chunk = 4;
  /// Coordinator poll cadence and worker idle-heartbeat period.
  std::chrono::milliseconds heartbeat{50};
  /// No frame from any worker for this long => assume the fleet is
  /// wedged, SIGKILL it, and finish the remainder in-process.  The
  /// coordinator-side analogue of the scenario watchdog.
  std::chrono::milliseconds fleet_deadline{60'000};
  /// Directory for shard journals (created if missing).  Required when
  /// scenarios run; reusing it resumes the campaign's shards.
  std::string work_dir;
  /// Result-cache root; empty disables caching.
  std::string cache_dir;
  /// Per-shard resilience settings (retry, watchdog deadline, failure
  /// budget).  base_seed/seed_of are taken from the spec, not from here.
  engine::ResilientConfig resilient{};
  /// Fault-injection hook: shard `crash_shard`'s first incarnation dies
  /// via the journal crash hook (std::_Exit(137), fault::ExitCode::kCrash)
  /// after `crash_after` appends -- deterministic mid-shard death for the
  /// respawn path.  Respawns are not re-armed.
  int crash_shard = -1;
  int crash_after = 0;
  /// Merged distributed trace: when set (and work_dir is usable), every
  /// process writes a per-incarnation Chrome trace file into work_dir
  /// (ProfSpan wall spans, frame instants, flow events pairing frame
  /// send->recv) and the coordinator merges them all into this path,
  /// one Perfetto process row per shard.  Empty disables tracing.
  std::string trace_path;
};

/// The run's only per-event counts; run_campaign adds them to the
/// process-wide `campaign.*` counters once, when the run ends.
struct CampaignStats {
  int workers_spawned = 0;
  int crashes = 0;
  int respawns = 0;
  int steal_requests = 0;
  int steals_granted = 0;   ///< steal replies that released work
  int stolen_indices = 0;
  int executed = 0;         ///< scenarios actually computed this run
  int resumed = 0;          ///< served from pre-existing shard journals
};

struct CampaignResult {
  /// Merged cross-shard entries in index order (nullopt = never ran).
  std::vector<std::optional<engine::JournalEntry>> entries;
  engine::RunOutcome outcome = engine::RunOutcome::kClean;
  bool cache_hit = false;
  std::string campaign;       ///< hex64 identity
  /// Canonical result bytes: one compact JSON line per entry in index
  /// order.  On a cache hit these are the cached bytes verbatim.
  std::string result_bytes;
  /// On a cache hit, the cached report.json / report.md verbatim.
  std::string cached_report_json;
  std::string cached_report_md;
  CampaignStats stats;
  /// Fleet-wide metrics: every worker ships absolute registry snapshots
  /// on its `progress` and `done` frames; the coordinator folds each
  /// shard's last snapshot (across incarnations) into a labeled part
  /// ("coord", "0", "1", ...) and `merged` sums them exactly.  Empty on
  /// a cache hit (the cached report carries the populating run's fleet
  /// block).
  obs::FleetSnapshot fleet;
  int ok = 0;
  int timed_out = 0;
  int quarantined = 0;
  int not_run = 0;

  /// fault::ExitCode of the outcome (same contract as ResilientReport).
  int exit_code() const { return engine::exit_code(outcome); }

  /// Atomic snapshot of result_bytes.
  bool write_results(const std::string& path) const;
};

/// Execute (or serve) the campaign.  `fn` must be deterministic per
/// (index, seed) -- that is what makes shard merges, respawn resumes, and
/// cache hits bit-exact.  The function is called in forked worker
/// processes, and in the coordinator itself for whatever the fleet
/// leaves (everything when workers == 0).
CampaignResult run_campaign(const CampaignSpec& spec,
                            const engine::ResilientScenario& fn,
                            const ServiceConfig& cfg);

/// The report.json/report.md pair for a finished campaign: rr-run-report
/// whose "metrics" block is the fleet-merged snapshot (worker counters
/// included), with per-shard wire snapshots under "extra.fleet" and the
/// shard stats under "extra.campaign".  On a cache hit the cached pair
/// is returned verbatim instead of being rebuilt, so a hit's report is
/// byte-identical to the populating run's.
struct CampaignReportBytes {
  std::string json;
  std::string markdown;
};
CampaignReportBytes campaign_report(const CampaignSpec& spec,
                                    const ServiceConfig& cfg,
                                    const CampaignResult& result);

}  // namespace rr::campaign
