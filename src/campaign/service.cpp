#include "campaign/service.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <map>
#include <sstream>
#include <utility>

#include "campaign/cache.hpp"
#include "campaign/protocol.hpp"
#include "obs/export.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/report.hpp"
#include "sim/trace.hpp"
#include "util/expect.hpp"
#include "util/fileio.hpp"
#include "util/flightrec.hpp"
#include "util/log.hpp"

namespace rr::campaign {

namespace {

using Clock = std::chrono::steady_clock;
using Entries = std::vector<std::optional<engine::JournalEntry>>;

/// Coordinator poll cadence and worker idle-heartbeat period, in ms.
constexpr int kHeartbeatMs = 50;

// ---------------------------------------------------------------------------
// Fleet observability plumbing (DESIGN.md §15).
// ---------------------------------------------------------------------------

/// Write one frame: the flight ring records it, valued with the shard at
/// the worker end, and when tracing it carries its send time.
bool send_frame(int fd, Json msg, bool tracing, const std::string& label,
                int shard) {
  if (tracing) msg.set("sent", time_to_json(obs::wall_now()));
  FlightRecorder::global().record(FlightKind::kFrame, "send " + label,
                                  static_cast<double>(shard));
  return write_frame(fd, msg);
}

/// The trace row of a shard incarnation: "shard1", then "shard1.1" for
/// its first respawn -- a respawn is visibly a different process.
std::string trace_row(int shard, int incarnation) {
  std::string row = "shard" + std::to_string(shard);
  if (incarnation > 0) row.append(".").append(std::to_string(incarnation));
  return row;
}

engine::ResilientConfig shard_resilient_config(const CampaignSpec& spec,
                                               const ServiceConfig& cfg) {
  engine::ResilientConfig rcfg = cfg.resilient;
  rcfg.base_seed = spec.base_seed;
  rcfg.seed_of = spec.seed_of;
  return rcfg;
}

// ---------------------------------------------------------------------------
// Worker side.  Runs in the forked child; never returns.
// ---------------------------------------------------------------------------

[[noreturn]] void worker_main(int fd, int shard, const CampaignSpec& spec,
                              const engine::ResilientScenario& fn,
                              const ServiceConfig& cfg, bool arm_crash) {
  // Workers re-read the log environment the coordinator exported and tag
  // every line with their shard id -- as text prefix for humans and as a
  // structured JSONL field for tools.
  log_init_from_env();
  set_log_prefix("shard " + std::to_string(shard));
  set_log_shard(shard);

  // The forked child inherited the coordinator's registry *values*, its
  // WallTrace attachment, and its flight-recorder dump path; all three
  // would corrupt fleet observability.  Reset the registry so the
  // absolute snapshots this worker ships describe only its own work,
  // collect this process's wall spans (or none), and point postmortems
  // at a shard-scoped file.
  obs::MetricsRegistry::global().reset();
  const bool tracing = !cfg.trace_path.empty();
  sim::TraceRecorder spans;
  obs::WallTrace::global().attach(tracing ? &spans : nullptr);
  if (!cfg.work_dir.empty())
    FlightRecorder::global().set_dump_path(cfg.work_dir + "/flightrec-shard-" +
                                           std::to_string(shard) + ".json");

  // Progress and done frames carry this incarnation's cumulative metrics
  // snapshot as text (the coordinator decodes only the last one), so a
  // crash loses at most one chunk of counters, and, when tracing, the
  // spans closed and frames received since the last report.
  std::vector<sim::TraceRecorder::Span> recvs;
  const auto report = [&](const char* type, Json msg) {
    msg.set("t", type).set(
        "metrics",
        obs::snapshot_to_wire(obs::MetricsRegistry::global().snapshot())
            .dump());
    if (tracing)
      msg.set("trace", trace_to_json({spans.take_spans(),
                                      std::exchange(recvs, {})}));
    return send_frame(fd, std::move(msg), tracing, type, shard);
  };
  const auto progress = [&](Json entries) {
    Json msg = Json::object();
    msg.set("entries", std::move(entries));
    return report("progress", std::move(msg));
  };

  int code = fault::to_int(fault::ExitCode::kClean);
  try {
    // No journal and no failure budget here: the coordinator journals the
    // entries each progress frame carries and counts the campaign's
    // failures itself.
    engine::ResilientConfig rcfg = shard_resilient_config(spec, cfg);
    rcfg.failure_budget = -1;
    obs::Histogram& chunk_hist = obs::MetricsRegistry::global().histogram(
        "campaign.chunk_us", obs::latency_bounds_us());

    std::deque<int> owned;
    int completed = 0;  // scenarios this incarnation has run
    bool stopping = false;
    while (!stopping) {
      // Drain control frames first: immediately when work is pending,
      // with a heartbeat-long block when idle.
      struct ::pollfd pfd{fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, owned.empty() ? kHeartbeatMs : 0);
      if (pr > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
        const std::optional<Json> msg = read_frame(fd);
        if (!msg) break;  // coordinator went away; nothing left to report to
        const MsgType t = frame_type(*msg);  // throws on garbage: the
                                             // catch below exits kError
                                             // and the coordinator respawns
        FlightRecorder::global().record(FlightKind::kFrame,
                                        std::string("recv ") + to_string(t),
                                        static_cast<double>(shard));
        if (tracing)
          recvs.push_back({to_string(t), time_from_json(msg->at("sent")),
                           obs::wall_now()});
        if (t == MsgType::kRun) {
          // Bounds-checked decode: an assignment outside the campaign's
          // index space is a desynced or hostile stream, rejected before
          // any index is acted on.
          for (const IndexRange& r :
               ranges_from_json(msg->at("ranges"), spec.scenarios))
            for (int i = r.lo; i < r.hi; ++i) owned.push_back(i);
        } else if (t == MsgType::kSteal) {
          // Give back ~half of the unstarted remainder, from the tail, but
          // never go below one chunk -- a near-empty shard is not worth
          // splitting.
          std::vector<int> give;
          if (static_cast<int>(owned.size()) > cfg.chunk) {
            const std::size_t keep = (owned.size() + 1) / 2;
            while (owned.size() > keep) {
              give.push_back(owned.back());
              owned.pop_back();
            }
            std::sort(give.begin(), give.end());
          }
          Json rel = Json::object();
          rel.set("t", "released")
              .set("ranges", ranges_to_json(ranges_from_sorted_indices(give)));
          if (!send_frame(fd, std::move(rel), tracing, "released", shard))
            break;
        } else if (t == MsgType::kStop) {
          stopping = true;
        }
        continue;  // keep draining frames before running more work
      }

      if (owned.empty()) {
        // Idle heartbeat so the coordinator's fleet watchdog sees life.
        if (pr == 0 && !progress(Json::array())) break;
        continue;
      }

      // Run one chunk off the front of the owned queue.
      std::vector<int> chunk;
      while (!owned.empty() && static_cast<int>(chunk.size()) < cfg.chunk) {
        chunk.push_back(owned.front());
        owned.pop_front();
      }
      const engine::ResilientReport rep = [&] {
        // The span publishes chunk wall latency into the registry and,
        // when tracing, onto this incarnation's trace row.
        obs::ProfSpan span("chunk x" + std::to_string(chunk.size()),
                           &chunk_hist);
        return engine::run_resilient_indices(spec.scenarios, chunk, fn,
                                             nullptr, rcfg);
      }();
      completed += static_cast<int>(chunk.size());
      // Crash hook: die like a SIGKILL once crash_after scenarios have
      // run, before the chunk that got there is reported.
      if (arm_crash && cfg.crash_after > 0 && completed >= cfg.crash_after)
        std::_Exit(fault::to_int(fault::ExitCode::kCrash));
      Json entries = Json::array();
      for (const int i : chunk)
        if (const auto& e = rep.entries[static_cast<std::size_t>(i)])
          entries.push_back(engine::to_json(*e));
      if (!progress(std::move(entries))) break;
    }

    if (stopping) report("done", Json::object());
  } catch (const std::exception& e) {
    RR_ERROR("campaign worker failed: " << e.what());
    code = fault::to_int(fault::ExitCode::kError);
  }
  // Forked child: no destructors, no atexit -- running the parent's
  // cleanup here would be wrong.
  std::_Exit(code);
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

/// Owner-table states besides a shard id (>= 0).  kDone is final.
constexpr int kDone = -1;
constexpr int kPooled = -2;

struct WorkerState {
  int shard = -1;
  pid_t pid = -1;
  int fd = -1;
  bool alive = false;
  bool stopping = false;   ///< stop sent or being killed: never respawned
  bool done_seen = false;  ///< done frame received
  bool steal_outstanding = false;
  int respawns = 0;
  int owned = 0;           ///< indices the owner table gives this shard
  std::string row;         ///< trace row of the current incarnation
  /// Latest absolute metrics snapshot of the current incarnation, as the
  /// text its frame carried: decoded once, when the incarnation retires.
  std::optional<std::string> metrics;
};

class Coordinator {
 public:
  Coordinator(const CampaignSpec& spec, const engine::ResilientScenario& fn,
              const ServiceConfig& cfg, engine::SweepJournal& journal)
      : spec_(spec), fn_(fn), cfg_(cfg), n_(spec.scenarios),
        tracing_(!cfg.trace_path.empty()), journal_(journal),
        owner_(static_cast<std::size_t>(n_), kPooled), pooled_(n_) {
    trace_.set_row("wall/coord", "coord");
    trace_.set_row("frames/coord", "coord");
  }

  CampaignStats stats;
  bool abort = false;

  /// Drive the campaign and return the journal's entries in index order;
  /// on return every index is done or unreachable (budget abort).
  /// Throws std::runtime_error, before anything forks, if the journal
  /// holds an entry under a seed this spec does not derive.
  Entries run() {
    // Resume: whatever the journal held when it opened is done before
    // anything forks, once its seed checks out, and its failures count
    // against the budget.
    for (int i = 0; i < n_; ++i)
      if (const auto e = journal_.entry(i)) {
        check_seed(*e);
        mark_done(e->index, e->ok());
      }
    stats.resumed = done_count_;
    if (stats.resumed > 0)
      RR_INFO("campaign resume: " << stats.resumed << "/" << n_
                                  << " scenarios already journaled");
    if (cfg_.workers > 0 && done_count_ < n_ && !abort) run_fleet();
    if (!abort && done_count_ < n_) run_local();
    stats.executed = done_count_ - stats.resumed;
    return journal_.take_entries();
  }

  /// The fleet snapshot after run(): the coordinator's own registry as
  /// part "coord", then each shard's folded metrics under its index label.
  obs::FleetSnapshot fleet() const {
    obs::FleetSnapshot f;
    f.add_part("coord", obs::MetricsRegistry::global().snapshot());
    for (const auto& [shard, snap] : shard_stats_)
      f.add_part(std::to_string(shard), snap);
    return f;
  }

  /// Write the campaign's one trace to cfg.trace_path: the coordinator's
  /// rows, every incarnation's row with the spans and frame flows it
  /// shipped, and as counters the coordinator's registry and each
  /// shard's folded metrics.
  void write_trace() {
    if (!tracing_) return;
    const TimePoint now = obs::wall_now();
    obs::export_counters(obs::MetricsRegistry::global().snapshot(), trace_,
                         now, "wall/coord");
    for (const auto& [shard, snap] : shard_stats_)
      obs::export_counters(snap, trace_, now, "wall/" + trace_row(shard, 0));
    std::ostringstream os;
    trace_.write_json(os);
    if (!write_file_atomic(cfg_.trace_path, os.str()))
      RR_WARN("campaign: trace write to " << cfg_.trace_path << " failed");
  }

 private:
  int& owner(int i) { return owner_[static_cast<std::size_t>(i)]; }

  /// A checksummed entry under a seed the spec does not derive was
  /// journaled by a different seeding scheme: serving it would break
  /// determinism, and the journal refuses a second record for its index,
  /// so the campaign cannot run on this work dir -- the same contract as
  /// a params mismatch.
  void check_seed(const engine::JournalEntry& e) const {
    const std::uint64_t want =
        spec_.seed_of ? spec_.seed_of(e.index)
                      : engine::scenario_seed(
                            spec_.base_seed,
                            static_cast<std::uint64_t>(e.index));
    if (e.seed != want)
      throw std::runtime_error(
          "journal " + journal_.path() + ": index " + std::to_string(e.index) +
          " journaled with seed " + std::to_string(e.seed) +
          " but the campaign derives " + std::to_string(want));
  }

  /// Mark a journaled entry's index done and count a failed one against
  /// the campaign-wide failure budget.
  void mark_done(int index, bool ok) {
    set_owner(index, kDone);
    const int budget = cfg_.resilient.failure_budget;
    if (!ok && ++failures_ > budget && budget >= 0) abort = true;
  }

  /// The counter that tracks how many indices `who` holds.
  int& held_by(int who) {
    if (who == kDone) return done_count_;
    if (who == kPooled) return pooled_;
    return workers_[static_cast<std::size_t>(who)].owned;
  }

  /// The one way an index changes hands: the initial split, steal
  /// releases, failed spawns, exhausted respawns and completions all
  /// come through here.  A done index never changes again.
  void set_owner(int i, int to) {
    int& from = owner(i);
    if (from == kDone || from == to) return;
    --held_by(from);
    ++held_by(to);
    from = to;
  }

  std::vector<int> indices_of(int who) const {
    std::vector<int> out;
    for (int i = 0; i < n_; ++i)
      if (owner_[static_cast<std::size_t>(i)] == who) out.push_back(i);
    return out;
  }

  bool any_alive() const {
    for (const WorkerState& w : workers_)
      if (w.alive) return true;
    return false;
  }

  void run_fleet() {
    // Export the effective log configuration so every forked worker (and
    // anything it execs) inherits it.
    ::setenv("RR_LOG_LEVEL", to_string(log_level()), 1);
    const std::string sink = log_json_path();
    if (!sink.empty()) ::setenv("RR_LOG_JSON", sink.c_str(), 1);

    // Every pending index starts pooled, so the first rebalance() splits
    // the pool evenly, in index order, across the fresh (idle) workers.
    workers_.resize(static_cast<std::size_t>(std::min(cfg_.workers, pooled_)));
    last_frame_ = Clock::now();
    for (std::size_t k = 0; k < workers_.size(); ++k) {
      workers_[k].shard = static_cast<int>(k);
      spawn(workers_[k], workers_[k].shard == cfg_.crash_shard);
    }
    while (done_count_ < n_ && !abort && any_alive()) {
      rebalance();
      poll_once(kHeartbeatMs);
      reap();
      if (Clock::now() - last_frame_ > cfg_.fleet_deadline) {
        RR_ERROR("campaign fleet made no progress for "
                 << cfg_.fleet_deadline.count() << " ms; killing workers");
        kill_all();
      }
    }
    stop_all();
  }

  /// Send `w` a frame of `type` with `fields`.  A failed write (dead
  /// peer) is caught by reap(), same as the raw write_frame contract.
  void send(WorkerState& w, const char* type, Json fields = Json::object()) {
    fields.set("t", type);
    send_frame(w.fd, std::move(fields), tracing_,
               std::string(type) + " -> shard " + std::to_string(w.shard),
               w.shard);
  }

  /// Fork a new incarnation of `w`'s shard; false (logged) on failure.
  bool spawn(WorkerState& w, bool arm_crash) {
    int sv[2];
    const bool paired = ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0;
    const pid_t pid = paired ? ::fork() : -1;
    if (pid < 0) {
      if (paired) {
        ::close(sv[0]);
        ::close(sv[1]);
      }
      RR_ERROR("campaign: socketpair/fork failed; shard " << w.shard
                                                          << " not spawned");
      return false;
    }
    if (pid == 0) {
      ::close(sv[0]);
      for (const WorkerState& other : workers_)
        if (other.fd >= 0) ::close(other.fd);
      worker_main(sv[1], w.shard, spec_, fn_, cfg_, arm_crash);  // noreturn
    }
    ::close(sv[1]);
    w.pid = pid;
    w.fd = sv[0];
    w.alive = true;
    w.row = trace_row(w.shard, w.respawns);
    trace_.set_row("wall/" + w.row, w.row);
    trace_.set_row("frames/" + w.row, w.row);
    ++stats.workers_spawned;
    return true;
  }

  /// Make `w` the owner of the sorted `indices` and send it a run frame.
  void give(WorkerState& w, const std::vector<int>& indices) {
    if (indices.empty()) return;
    for (const int i : indices) set_owner(i, w.shard);
    Json fields = Json::object();
    fields.set("ranges", ranges_to_json(ranges_from_sorted_indices(indices)));
    send(w, "run", std::move(fields));
  }

  /// Apply one worker frame.  Throws std::runtime_error on a frame that
  /// is shaped wrong or claims indices outside the campaign -- the
  /// caller (poll_once / finish_exit) treats that as a corrupt stream
  /// and retires the worker; a hostile child cannot crash or corrupt
  /// the coordinator.
  void handle_frame(WorkerState& w, Json msg) {
    last_frame_ = Clock::now();
    const MsgType t = frame_type(msg);
    const std::string label =
        std::string(to_string(t)) + " <- shard " + std::to_string(w.shard);
    FlightRecorder::global().record(FlightKind::kFrame, "recv " + label,
                                    static_cast<double>(w.shard));
    if (tracing_) record_trace(w, label, msg);
    // An absolute cumulative snapshot for this incarnation: keep only the
    // latest text, undecoded (finish_exit decodes it).  A field that is
    // not text throws, retiring the worker like any other corrupt frame.
    if (std::optional<std::string> text = take_metrics_text(msg))
      w.metrics = std::move(text);
    if (t == MsgType::kProgress) {
      // Decode and bounds-check the whole frame before acting on any of
      // it, moving each entry's metrics out of the frame.
      Json& records = msg.at("entries");
      std::vector<engine::JournalEntry> fresh;
      std::vector<std::pair<int, bool>> done;  // index, ok: outlives the move
      for (std::size_t k = 0; k < records.size(); ++k) {
        engine::JournalEntry e =
            engine::journal_entry_from_json(std::move(records.at(k)));
        if (e.index < 0 || e.index >= n_)
          throw std::runtime_error("progress frame carries scenario " +
                                   std::to_string(e.index) +
                                   " outside campaign of " +
                                   std::to_string(n_));
        if (owner(e.index) == kDone) continue;
        done.emplace_back(e.index, e.ok());
        fresh.push_back(std::move(e));
      }
      // One write(2) and one fdatasync for the chunk.  An index the frame
      // repeats throws here, before a byte is written.
      journal_.append(std::move(fresh));
      for (const auto& [index, ok] : done) mark_done(index, ok);
    } else if (t == MsgType::kReleased) {
      w.steal_outstanding = false;
      int granted = 0;
      for (const IndexRange& r : ranges_from_json(msg.at("ranges"), n_))
        for (int i = r.lo; i < r.hi; ++i)
          if (owner(i) == w.shard) {
            set_owner(i, kPooled);
            ++granted;
          }
      if (granted > 0) {
        ++stats.steals_granted;
        stats.stolen_indices += granted;
        FlightRecorder::global().record(
            FlightKind::kMetric,
            "campaign.steal.indices +" + std::to_string(granted) +
                " (shard " + std::to_string(w.shard) + ")",
            static_cast<double>(granted));
      }
    } else if (t == MsgType::kDone) {
      w.done_seen = true;
    }
  }

  /// Record what a worker frame adds to the trace, on `w`'s row: the
  /// frame's own flow, then the spans and frame receives its trace field
  /// ships.  Everything is decoded before anything is recorded, and
  /// hostile input throws like any other corrupt frame.
  void record_trace(const WorkerState& w, const std::string& label,
                    const Json& msg) {
    const TimePoint now = obs::wall_now();
    const TimePoint sent = time_from_json(msg.at("sent"));
    if (sent > now)
      throw std::runtime_error("frame sent after the coordinator read it");
    const Json* field = msg.find("trace");
    const FrameTrace shipped = field ? trace_from_json(*field) : FrameTrace{};
    const std::string frames = "frames/" + w.row;
    trace_.flow(label, frames, sent, "frames/coord", now);
    for (const auto& s : shipped.spans)
      trace_.end(trace_.begin(s.name, "wall/" + w.row, s.start), s.end);
    for (const auto& r : shipped.recvs)
      trace_.flow(r.name + " -> shard " + std::to_string(w.shard),
                  "frames/coord", r.start, frames, r.end);
  }

  /// Hand pooled indices to idle workers, split evenly in index order;
  /// with nothing pooled, ask the most-loaded worker to shed half.
  void rebalance() {
    if (abort) return;
    std::vector<WorkerState*> idle;
    for (WorkerState& w : workers_)
      if (w.alive && !w.stopping && w.owned == 0) idle.push_back(&w);
    if (idle.empty()) return;

    if (pooled_ > 0) {
      const std::vector<int> pool = indices_of(kPooled);
      std::size_t off = 0;
      for (std::size_t k = 0; k < idle.size(); ++k) {
        const std::size_t share = (pool.size() - off) / (idle.size() - k);
        give(*idle[k],
             std::vector<int>(pool.begin() + static_cast<long>(off),
                              pool.begin() + static_cast<long>(off + share)));
        off += share;
      }
      return;
    }

    // One steal per idle worker, each from a different victim.
    for (std::size_t k = 0; k < idle.size(); ++k) {
      WorkerState* victim = nullptr;
      for (WorkerState& w : workers_) {
        if (!w.alive || w.stopping || w.steal_outstanding) continue;
        if (w.owned <= cfg_.chunk) continue;
        if (!victim || w.owned > victim->owned) victim = &w;
      }
      if (!victim) break;
      victim->steal_outstanding = true;
      ++stats.steal_requests;
      send(*victim, "steal");
    }
  }

  /// One poll pass over the live worker fds; reads at most one frame per
  /// readable fd (buffered frames surface on the next pass immediately,
  /// since poll keeps reporting them readable).
  void poll_once(int timeout_ms) {
    std::vector<struct ::pollfd> pfds;
    std::vector<WorkerState*> who;
    for (WorkerState& w : workers_) {
      if (!w.alive) continue;
      pfds.push_back({w.fd, POLLIN, 0});
      who.push_back(&w);
    }
    if (pfds.empty() || ::poll(pfds.data(), pfds.size(), timeout_ms) <= 0)
      return;
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerState& w = *who[k];
      try {
        if (std::optional<Json> msg = read_frame(w.fd))
          handle_frame(w, std::move(*msg));
        else
          handle_exit(w);  // clean EOF: the worker is gone
      } catch (const std::exception& e) {
        RR_WARN("campaign: shard " << w.shard << " stream error ("
                                   << e.what() << "); retiring worker");
        // The child may still be alive and writing garbage; handle_exit
        // blocks in waitpid, so kill first or a live corrupting worker
        // would hang the coordinator.
        if (w.pid > 0) ::kill(w.pid, SIGKILL);
        handle_exit(w);
      }
    }
  }

  /// Reap exited children without blocking.
  void reap() {
    for (WorkerState& w : workers_) {
      if (!w.alive) continue;
      int status = 0;
      if (::waitpid(w.pid, &status, WNOHANG) == w.pid) finish_exit(w, status);
    }
  }

  /// EOF / stream-error path: the child is gone or unusable; wait for it.
  void handle_exit(WorkerState& w) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    finish_exit(w, status);
  }

  void finish_exit(WorkerState& w, int status) {
    // The child may have written frames we have not read yet (its final
    // progress, its done).  EOF is guaranteed now, so drain fully.
    try {
      while (std::optional<Json> msg = read_frame(w.fd))
        handle_frame(w, std::move(*msg));
    } catch (const std::exception&) {
      // A frame torn by the death itself; everything before it was applied.
    }
    ::close(w.fd);
    w.fd = -1;
    w.alive = false;
    w.steal_outstanding = false;

    // Decode the incarnation's final absolute snapshot and fold it into
    // the shard's fleet part; incarnations of one shard sum.  A crash
    // loses at most the counters since its last progress frame (one
    // chunk).  A text that does not decode is dropped with a warning.
    if (w.metrics) {
      try {
        const obs::Snapshot snap =
            obs::snapshot_from_wire(Json::parse(*w.metrics));
        obs::merge_into(shard_stats_[w.shard], snap);
      } catch (const std::exception& e) {
        RR_WARN("campaign: shard " << w.shard
                                   << " metrics unmergeable: " << e.what());
      }
      w.metrics.reset();
    }

    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                     : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                           : -1;
    if (w.done_seen || (w.stopping && WIFEXITED(status))) {
      RR_DEBUG("campaign: shard " << w.shard << " exited " << code);
      return;
    }

    ++stats.crashes;
    FlightRecorder::global().record(
        FlightKind::kMark,
        "worker crash: shard " + std::to_string(w.shard) + " exit " +
            std::to_string(code),
        static_cast<double>(code));
    // Crash detection is a dump trigger: the postmortem shows the frames
    // and log lines leading up to the death while they are still fresh.
    FlightRecorder::global().dump();
    RR_WARN("campaign: shard " << w.shard << " died (exit " << code << ", "
                               << (fault::exit_code_from_int(code)
                                       ? describe(*fault::exit_code_from_int(
                                             code))
                                       : "unmapped")
                               << ") with " << w.owned
                               << " indices outstanding");
    if (!abort && !w.stopping && w.owned > 0 && w.respawns < kMaxRespawns) {
      ++w.respawns;
      ++stats.respawns;
      FlightRecorder::global().record(
          FlightKind::kMetric,
          "campaign.worker.respawn +1 (shard " + std::to_string(w.shard) +
              ")",
          1.0);
      RR_INFO("campaign: respawning shard "
              << w.shard << " (attempt " << w.respawns << "/" << kMaxRespawns
              << ")");
      // The new incarnation is handed its shard's not-done indices.
      if (spawn(w, /*arm_crash=*/false)) {
        give(w, indices_of(w.shard));
        return;
      }
    }
    // Out of respawns (or the respawn failed): the remainder is pooled.
    for (const int i : indices_of(w.shard)) set_owner(i, kPooled);
  }

  void kill_all() {
    for (WorkerState& w : workers_) {
      if (!w.alive) continue;
      w.stopping = true;
      ::kill(w.pid, SIGKILL);
      handle_exit(w);
    }
  }

  /// Graceful shutdown: stop frames out, done frames (and exits) in.
  void stop_all() {
    for (WorkerState& w : workers_) {
      if (!w.alive || w.stopping) continue;
      w.stopping = true;
      send(w, "stop");
    }
    const Clock::time_point deadline = Clock::now() + cfg_.fleet_deadline;
    while (any_alive() && Clock::now() < deadline) {
      poll_once(kHeartbeatMs);
      reap();
    }
    if (any_alive()) {
      RR_ERROR("campaign: workers ignored stop; killing the remainder");
      kill_all();
    }
  }

  /// The coordinator's own runner: the whole campaign when workers == 0,
  /// else whatever a dead fleet left.  It appends to the campaign journal
  /// like the frames do.
  void run_local() {
    std::vector<int> pending;
    for (int i = 0; i < n_; ++i)
      if (owner(i) != kDone) pending.push_back(i);
    if (cfg_.workers > 0)
      RR_WARN("campaign: no workers left; running " << pending.size()
                                                    << " indices in-process");
    // The runner counts failures of this call only: hand it what is left
    // of the campaign-wide budget (unlimited stays unlimited).
    engine::ResilientConfig rcfg = shard_resilient_config(spec_, cfg_);
    if (rcfg.failure_budget >= 0) rcfg.failure_budget -= failures_;
    // Wall spans of the local run land on the coordinator's trace row.
    struct Detach {
      bool on;
      ~Detach() {
        if (on) obs::WallTrace::global().attach(nullptr, "");
      }
    } detach{tracing_};
    if (tracing_) obs::WallTrace::global().attach(&trace_, "wall/coord");
    const engine::ResilientReport rep = [&] {
      obs::ProfSpan span("campaign x" + std::to_string(pending.size()));
      return engine::run_resilient_indices(n_, pending, fn_, &journal_, rcfg);
    }();
    for (const int i : pending)
      if (const auto& e = rep.entries[static_cast<std::size_t>(i)])
        mark_done(e->index, e->ok());
  }

  const CampaignSpec& spec_;
  const engine::ResilientScenario& fn_;
  const ServiceConfig& cfg_;
  const int n_;
  const bool tracing_;
  /// The campaign's only journal: preloaded entries are the resume, and
  /// every result lands here, from a frame or from the local runner.
  engine::SweepJournal& journal_;
  /// Per campaign index: kDone, kPooled, or the owning shard.
  std::vector<int> owner_;
  int pooled_;
  int done_count_ = 0;
  int failures_ = 0;  ///< done entries that are not ok
  std::vector<WorkerState> workers_;
  Clock::time_point last_frame_{};
  /// The campaign's one trace: its own frames and local-run wall spans,
  /// and what each worker incarnation ships, on per-process rows.
  sim::TraceRecorder trace_;
  /// Per-shard fleet parts, folded from each incarnation's last metrics
  /// snapshot at retirement.
  std::map<int, obs::Snapshot> shard_stats_;
};

/// Add one run's stats to the process-wide campaign.* counters.
void add_to_counters(const CampaignStats& s) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const auto add = [&](const char* name, int v) {
    reg.counter(name).add(static_cast<std::uint64_t>(v));
  };
  add("campaign.worker.spawn", s.workers_spawned);
  add("campaign.worker.crash", s.crashes);
  add("campaign.worker.respawn", s.respawns);
  add("campaign.steal.requests", s.steal_requests);
  add("campaign.steal.granted", s.steals_granted);
  add("campaign.steal.indices", s.stolen_indices);
}

// ---------------------------------------------------------------------------
// Result assembly.
// ---------------------------------------------------------------------------

void fill_counts(CampaignResult& result) {
  result.ok = result.timed_out = result.quarantined = result.not_run = 0;
  for (const auto& e : result.entries) {
    if (!e) {
      ++result.not_run;
      continue;
    }
    switch (e->status) {
      case engine::ScenarioStatus::kOk: ++result.ok; break;
      case engine::ScenarioStatus::kTimedOut: ++result.timed_out; break;
      case engine::ScenarioStatus::kQuarantined: ++result.quarantined; break;
    }
  }
}

/// The result bytes: one compact JSON line per entry in index order.
/// Entries hold no wall-clock state and numbers round-trip bit-exactly,
/// so they are byte-identical between an uninterrupted run and any
/// kill-and-resume chain of the same campaign.
std::string entries_bytes(const Entries& entries) {
  std::string out;
  for (const auto& e : entries) {
    if (!e) continue;
    engine::append_json(out, *e);
    out += '\n';
  }
  return out;
}

/// Build a result from a verified cache hit.  The entry's bytes were read
/// and content-hash-validated during lookup, so no filesystem access
/// happens here; a structurally damaged result line still throws, and the
/// caller falls back to recomputing (miss semantics).
CampaignResult serve_from_cache(const CampaignSpec& spec,
                                const CacheEntry& hit) {
  CampaignResult result;
  result.cache_hit = true;
  result.campaign = engine::campaign_hex(engine::campaign_hash(spec.params));
  result.result_bytes = hit.result_bytes;
  result.cached_report_json = hit.report_json;
  result.cached_report_md = hit.report_md;
  result.entries.assign(static_cast<std::size_t>(spec.scenarios),
                        std::nullopt);
  for (Json& rec : read_jsonl(result.result_bytes).records) {
    engine::JournalEntry e = engine::journal_entry_from_json(std::move(rec));
    if (e.index < 0 || e.index >= spec.scenarios)
      throw std::runtime_error("cached entry index " +
                               std::to_string(e.index) +
                               " outside campaign of " +
                               std::to_string(spec.scenarios));
    result.entries[static_cast<std::size_t>(e.index)] = std::move(e);
  }
  fill_counts(result);
  result.outcome = engine::RunOutcome::kClean;  // only clean runs are cached
  // The acceptance contract: a full cache hit counts one hit per scenario
  // served, so `campaign.cache.hit == scenario count` on a repeat query.
  obs::MetricsRegistry::global()
      .counter("campaign.cache.hit")
      .add(static_cast<std::uint64_t>(spec.scenarios));
  RR_INFO("campaign cache: hit for " << result.campaign << " ("
                                     << spec.scenarios << " scenarios)");
  return result;
}

}  // namespace

bool CampaignResult::write_results(const std::string& path) const {
  return write_file_atomic(path, result_bytes);
}

CampaignReportBytes campaign_report(const CampaignSpec& spec,
                                    const ServiceConfig& cfg,
                                    const CampaignResult& result) {
  if (result.cache_hit)
    return {result.cached_report_json, result.cached_report_md};
  obs::RunInfo info;
  info.name = spec.name;
  info.campaign = result.campaign;
  info.params = spec.params;
  info.seed = std::to_string(spec.base_seed);
  info.threads = cfg.workers;
  obs::RunReport report(info);
  // The report's metrics block is the fleet-merged snapshot, so worker
  // counters (journal appends, chunk latencies) are in it, not just the
  // coordinator's own.  The stored fleet is used -- never a fresh global
  // snapshot -- so repeated calls on one result are byte-identical.
  if (!result.fleet.empty()) {
    report.add_snapshot(result.fleet.merged);
    report.set_extra("fleet", result.fleet.parts_to_json());
  } else {
    report.add_snapshot(obs::MetricsRegistry::global().snapshot());
  }
  Json c = Json::object();
  c.set("scenarios", spec.scenarios)
      .set("workers", cfg.workers)
      .set("outcome", engine::to_string(result.outcome))
      .set("ok", result.ok)
      .set("timed_out", result.timed_out)
      .set("quarantined", result.quarantined)
      .set("not_run", result.not_run)
      .set("executed", result.stats.executed)
      .set("resumed", result.stats.resumed)
      .set("workers_spawned", result.stats.workers_spawned)
      .set("crashes", result.stats.crashes)
      .set("respawns", result.stats.respawns)
      .set("steal_requests", result.stats.steal_requests)
      .set("steals_granted", result.stats.steals_granted)
      .set("stolen_indices", result.stats.stolen_indices)
      .set("cache_hit", result.cache_hit);
  report.set_extra("campaign", std::move(c));
  return {report.to_json().dump(2) + "\n", report.to_markdown()};
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const engine::ResilientScenario& fn,
                            const ServiceConfig& cfg) {
  RR_EXPECTS(spec.scenarios >= 0);
  RR_EXPECTS(cfg.workers >= 0);
  RR_EXPECTS(cfg.chunk >= 1);
  const std::uint64_t campaign = engine::campaign_hash(spec.params);
  const std::string campaign_id = engine::campaign_hex(campaign);

  // Cache front door.
  std::optional<ResultCache> cache;
  if (!cfg.cache_dir.empty()) {
    cache.emplace(cfg.cache_dir);
    if (const auto hit = cache->lookup(campaign, spec.params)) {
      try {
        return serve_from_cache(spec, *hit);
      } catch (const std::exception& e) {
        obs::MetricsRegistry::global()
            .counter("campaign.cache.corrupt")
            .inc();
        RR_WARN("campaign cache: entry " << hit->dir << " unusable ("
                                         << e.what() << "); recomputing");
      }
    }
    obs::MetricsRegistry::global().counter("campaign.cache.miss").inc();
  }

  CampaignResult result;
  result.campaign = campaign_id;
  if (spec.scenarios == 0) {
    fill_counts(result);
    return result;
  }

  RR_EXPECTS(!cfg.work_dir.empty());
  IoError dir_err;
  if (!make_dirs(cfg.work_dir, &dir_err)) {
    // Degrade, don't die: with no work dir the journal falls back to
    // memory-only (and reports the run as degraded), but every scenario
    // still executes.
    RR_ERROR("campaign: " << dir_err.detail
                          << "; continuing without a durable journal");
  }

  // Flight recorder: every campaign run arms a postmortem destination
  // (unless the host already picked one) and answers SIGUSR1 with a live
  // ring dump -- the "what is that stuck fleet doing" probe.
  if (!FlightRecorder::global().has_dump_path())
    FlightRecorder::global().set_dump_path(cfg.work_dir + "/flightrec.json");
  FlightRecorder::install_sigusr1();
  FlightRecorder::global().record(
      FlightKind::kMark,
      "campaign " + campaign_id + " start: " +
          std::to_string(spec.scenarios) + " scenarios, " +
          std::to_string(cfg.workers) + " workers",
      static_cast<double>(spec.scenarios));

  // The campaign's only journal, opened before anything forks: the
  // entries it preloads are the resume.
  engine::SweepJournal journal(cfg.work_dir + "/campaign.jsonl", spec.params,
                               spec.scenarios);

  // A worker death mid-write must surface as EPIPE on our write_frame,
  // not as a fatal signal.
  struct ::sigaction ignore{}, saved{};
  ignore.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore, &saved);
  Coordinator coord(spec, fn, cfg, journal);
  try {
    result.entries = coord.run();
  } catch (...) {
    ::sigaction(SIGPIPE, &saved, nullptr);
    throw;
  }
  ::sigaction(SIGPIPE, &saved, nullptr);
  result.stats = coord.stats;
  add_to_counters(coord.stats);
  coord.write_trace();
  result.fleet = coord.fleet();
  fill_counts(result);
  result.outcome = coord.abort ? engine::RunOutcome::kBudgetExceeded
                   : (journal.degraded() || result.ok < spec.scenarios)
                       ? engine::RunOutcome::kDegraded
                       : engine::RunOutcome::kClean;
  result.result_bytes = entries_bytes(result.entries);

  if (cache && result.outcome == engine::RunOutcome::kClean) {
    const CampaignReportBytes rep = campaign_report(spec, cfg, result);
    Json meta = Json::object();
    meta.set("cache", "rr-campaign-cache").set("version", 1)
        .set("campaign", campaign_id).set("name", spec.name)
        .set("scenarios", spec.scenarios).set("params", spec.params)
        .set("outcome", engine::to_string(result.outcome));
    cache->publish(campaign, meta, result.result_bytes, rep.json,
                   rep.markdown);
  }

  FlightRecorder::global().record(
      FlightKind::kMark,
      "campaign " + campaign_id + " " + engine::to_string(result.outcome),
      static_cast<double>(result.exit_code()));
  // A degraded-or-worse outcome is a dump trigger even when the process
  // itself survives: the postmortem captures the run that went wrong, not
  // just runs that die.
  if (result.exit_code() >= fault::to_int(fault::ExitCode::kDegraded))
    FlightRecorder::global().dump();
  return result;
}

}  // namespace rr::campaign
