#include "campaign/service.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <sstream>

#include "campaign/cache.hpp"
#include "campaign/protocol.hpp"
#include "obs/export.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/report.hpp"
#include "obs/tracemerge.hpp"
#include "sim/trace.hpp"
#include "util/expect.hpp"
#include "util/fileio.hpp"
#include "util/flightrec.hpp"
#include "util/log.hpp"

namespace rr::campaign {

namespace {

using Clock = std::chrono::steady_clock;
using Entries = std::vector<std::optional<engine::JournalEntry>>;

std::string shard_journal_path(const ServiceConfig& cfg, int shard) {
  return cfg.work_dir + "/shard-" + std::to_string(shard) + ".jsonl";
}

std::string coord_journal_path(const ServiceConfig& cfg) {
  return cfg.work_dir + "/shard-coord.jsonl";
}

/// Every journal of the campaign in the work dir, whichever fleet shape
/// wrote it, so a work dir resumes under any worker count: each
/// shard-<k>.jsonl in shard order (digits only, so a quarantined
/// "*.corrupt" file never matches), then the coordinator's own journal.
std::vector<std::string> journal_paths(const ServiceConfig& cfg) {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(cfg.work_dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.size() <= 12 || !name.starts_with("shard-") ||
        !name.ends_with(".jsonl"))
      continue;
    const std::string id = name.substr(6, name.size() - 12);
    if (std::all_of(id.begin(), id.end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; }))
      ids.push_back(id);
  }
  // Numeric order without parsing: fewer digits first.
  std::sort(ids.begin(), ids.end(),
            [](const std::string& a, const std::string& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  std::vector<std::string> paths;
  for (const std::string& id : ids)
    paths.push_back(cfg.work_dir + "/shard-" + id + ".jsonl");
  paths.push_back(coord_journal_path(cfg));
  return paths;
}

// ---------------------------------------------------------------------------
// Fleet observability plumbing (DESIGN.md §15).
// ---------------------------------------------------------------------------

bool tracing_enabled(const ServiceConfig& cfg) {
  return !cfg.trace_path.empty() && !cfg.work_dir.empty();
}

std::string coord_trace_path(const ServiceConfig& cfg) {
  return cfg.work_dir + "/trace-coord.json";
}

/// Per-incarnation file: a respawned shard must not clobber what an
/// earlier incarnation managed to write.
std::string shard_trace_path(const ServiceConfig& cfg, int shard,
                             int incarnation) {
  return cfg.work_dir + "/trace-shard-" + std::to_string(shard) + "-" +
         std::to_string(incarnation) + ".json";
}

bool write_trace_file(const sim::TraceRecorder& rec, const std::string& path) {
  std::ostringstream os;
  rec.write_json(os);
  return write_file_atomic(path, os.str());
}

/// Flow ids pair a frame's send ("s") with its receive ("f") across the
/// merged trace, so every sender stamps "fs" from its own disjoint
/// range: the coordinator from kCoordFlowBase, shard k incarnation i
/// from (8k + i + 1) * kShardFlowStride.  Ranges never collide below
/// one million frames per incarnation.
constexpr std::uint64_t kShardFlowStride = 1'000'000;
constexpr std::uint64_t kCoordFlowBase = 2'000'000'000;

std::uint64_t shard_flow_base(int shard, int incarnation) {
  return (static_cast<std::uint64_t>(shard) * 8 +
          static_cast<std::uint64_t>(incarnation) + 1) *
         kShardFlowStride;
}

/// Frame instrumentation for both ends of a socket.  A sent frame is
/// stamped with the sender's next flow id ("fs") and opens a flow; the
/// receive that finds the stamp closes it.  Both directions land in the
/// flight ring, valued with the shard at the worker end.
struct FrameTrace {
  sim::TraceRecorder* rec;  ///< null when not tracing
  std::string track;
  std::uint64_t next_fs;

  bool send(int fd, Json msg, const std::string& label, int shard) {
    const std::uint64_t id = next_fs++;
    msg.set("fs", static_cast<std::int64_t>(id));
    if (rec) rec->flow_begin("send " + label, track, obs::wall_now(), id);
    FlightRecorder::global().record(FlightKind::kFrame, "send " + label,
                                    static_cast<double>(shard));
    return write_frame(fd, msg);
  }

  void received(const Json& msg, const std::string& label, int shard) {
    const Json* fs = msg.find("fs");
    if (rec && fs && fs->is_number() && fs->as_double() >= 0)
      rec->flow_end("recv " + label, track, obs::wall_now(),
                    static_cast<std::uint64_t>(fs->as_double()));
    FlightRecorder::global().record(FlightKind::kFrame, "recv " + label,
                                    static_cast<double>(shard));
  }
};

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

[[noreturn]] void worker_main(int fd, int shard, int incarnation,
                              const CampaignSpec& spec,
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
  // attach (or detach) the wall trace to this process's recorder, and
  // point postmortems at a shard-scoped file.
  obs::MetricsRegistry::global().reset();
  const bool tracing = tracing_enabled(cfg);
  sim::TraceRecorder rec;
  const std::string track = "shard" + std::to_string(shard);
  obs::WallTrace::global().attach(tracing ? &rec : nullptr, "wall/" + track);
  if (!cfg.work_dir.empty())
    FlightRecorder::global().set_dump_path(cfg.work_dir + "/flightrec-shard-" +
                                           std::to_string(shard) + ".json");
  FrameTrace frames{tracing ? &rec : nullptr, "frames/" + track,
                    shard_flow_base(shard, incarnation)};

  engine::RunOutcome worst = engine::RunOutcome::kClean;
  // Progress and done frames carry this incarnation's cumulative metrics
  // snapshot, so a crash loses at most one chunk of counters.
  const auto report = [&](const char* type, Json msg) {
    msg.set("t", type).set("outcome", engine::to_string(worst))
        .set("metrics",
             obs::snapshot_to_wire(obs::MetricsRegistry::global().snapshot()));
    return frames.send(fd, std::move(msg), type, shard);
  };
  const auto progress = [&](Json completed, int executed, int resumed) {
    Json msg = Json::object();
    msg.set("completed", std::move(completed)).set("executed", executed)
        .set("resumed", resumed);
    return report("progress", std::move(msg));
  };

  int code = fault::to_int(fault::ExitCode::kError);
  try {
    engine::SweepEngine eng({1});
    engine::SweepJournal journal(shard_journal_path(cfg, shard), spec.params,
                                 spec.scenarios);
    if (arm_crash && cfg.crash_after > 0)
      journal.set_crash_after(cfg.crash_after);
    const engine::ResilientConfig rcfg = shard_resilient_config(spec, cfg);
    obs::Histogram& chunk_hist = obs::MetricsRegistry::global().histogram(
        "campaign.chunk_us", obs::latency_bounds_us());

    std::deque<int> owned;
    bool stopping = false;
    while (!stopping) {
      // Drain control frames first: immediately when work is pending,
      // with a heartbeat-long block when idle.
      struct ::pollfd pfd{fd, POLLIN, 0};
      const int timeout_ms =
          owned.empty() ? static_cast<int>(cfg.heartbeat.count()) : 0;
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
        const std::optional<Json> msg = read_frame(fd);
        if (!msg) break;  // coordinator went away; nothing left to report to
        const MsgType t = frame_type(*msg);  // throws on garbage: the
                                             // catch below exits kError
                                             // and the coordinator respawns
        frames.received(*msg, to_string(t), shard);
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
          if (!frames.send(fd, std::move(rel), "released", shard)) break;
        } else if (t == MsgType::kStop) {
          stopping = true;
        }
        continue;  // keep draining frames before running more work
      }

      // Budget tripped: idle until told to stop.
      if (worst == engine::RunOutcome::kBudgetExceeded) owned.clear();
      if (owned.empty()) {
        // Idle heartbeat so the coordinator's fleet watchdog sees life.
        if (pr == 0 && !progress(Json::array(), 0, 0)) break;
        continue;
      }

      // Run one chunk off the front of the owned queue.
      std::vector<int> chunk;
      while (!owned.empty() && static_cast<int>(chunk.size()) < cfg.chunk) {
        chunk.push_back(owned.front());
        owned.pop_front();
      }
      int pre = 0;
      for (const int i : chunk)
        if (journal.completed(i)) ++pre;
      engine::ResilientReport rep = [&] {
        // The span publishes chunk wall latency into the registry and,
        // when tracing, onto this worker's wall track.
        obs::ProfSpan span("chunk x" + std::to_string(chunk.size()),
                           &chunk_hist);
        return engine::run_resilient_indices(eng, spec.scenarios, chunk, fn,
                                             &journal, rcfg);
      }();
      worst = std::max(worst, rep.outcome);

      Json completed = Json::array();
      int got = 0;
      for (const int i : chunk) {
        const auto& e = rep.entries[static_cast<std::size_t>(i)];
        if (!e) continue;
        ++got;
        Json pair = Json::array();
        pair.push_back(i);
        pair.push_back(engine::to_string(e->status));
        completed.push_back(std::move(pair));
      }
      if (!progress(std::move(completed), got - pre, pre)) break;
    }

    code = engine::exit_code(worst);
    if (stopping) report("done", Json::object());
  } catch (const std::exception& e) {
    RR_ERROR("campaign worker failed: " << e.what());
    code = fault::to_int(fault::ExitCode::kError);
  }
  if (tracing) {
    obs::export_counters(obs::MetricsRegistry::global().snapshot(), rec,
                         obs::wall_now(), "wall/" + track);
    write_trace_file(rec, shard_trace_path(cfg, shard, incarnation));
  }
  // Forked child: no destructors, no atexit -- every journal append was
  // already fsync'd, and running the parent's cleanup here would be wrong.
  // A degraded exit leaves its flight-ring postmortem behind first.
  std::_Exit(FlightRecorder::dump_on_exit(code));
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
  /// Latest absolute metrics snapshot of the current incarnation.
  std::optional<obs::Snapshot> metrics;
};

class Coordinator {
 public:
  Coordinator(const CampaignSpec& spec, const engine::ResilientScenario& fn,
              const ServiceConfig& cfg)
      : spec_(spec), fn_(fn), cfg_(cfg), n_(spec.scenarios),
        tracing_(tracing_enabled(cfg)),
        owner_(static_cast<std::size_t>(n_), kPooled), pooled_(n_),
        frames_{tracing_ ? &trace_ : nullptr, "frames/coord", kCoordFlowBase} {}

  CampaignStats stats;
  bool abort = false;
  /// The local runner's own outcome was degraded (e.g. its journal went
  /// memory-only) even though its entries are all present.
  bool degraded = false;

  /// Drive the campaign and return the merged entries in index order; on
  /// return every index is done or unreachable (budget abort).
  Entries run() {
    // Resume: whatever an earlier run of this campaign journaled in the
    // work dir, under any fleet shape, is done before anything forks.
    Entries merged =
        engine::merge_journal_files(journal_paths(cfg_), spec_.params, n_);
    for (int i = 0; i < n_; ++i)
      if (merged[static_cast<std::size_t>(i)]) set_owner(i, kDone);
    stats.resumed = done_count_;
    if (stats.resumed > 0)
      RR_INFO("campaign resume: " << stats.resumed << "/" << n_
                                  << " scenarios already journaled");
    if (cfg_.workers > 0 && done_count_ < n_) {
      run_fleet();
      merged =
          engine::merge_journal_files(journal_paths(cfg_), spec_.params, n_);
    }
    if (!abort && done_count_ < n_) run_local(merged);
    return merged;
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

  /// Merge the coordinator's trace with every shard incarnation's trace
  /// file into cfg.trace_path (crashed incarnations wrote nothing and are
  /// skipped).
  void write_merged_trace() {
    if (!tracing_) return;
    obs::export_counters(obs::MetricsRegistry::global().snapshot(), trace_,
                         obs::wall_now(), "wall/coord");
    std::vector<obs::TracePart> parts;
    if (write_trace_file(trace_, coord_trace_path(cfg_)))
      parts.push_back({"coord", coord_trace_path(cfg_)});
    for (const WorkerState& w : workers_) {
      for (int inc = 0; inc <= w.respawns; ++inc) {
        std::string label = "shard" + std::to_string(w.shard);
        if (inc > 0) label.append(".").append(std::to_string(inc));
        parts.push_back({label, shard_trace_path(cfg_, w.shard, inc)});
      }
    }
    int skipped = 0;
    if (!obs::merge_trace_files(parts, cfg_.trace_path, &skipped)) {
      RR_WARN("campaign: merged trace write to " << cfg_.trace_path
                                                 << " failed");
    } else {
      RR_INFO("campaign: merged trace -> " << cfg_.trace_path << " ("
                                           << parts.size() - skipped
                                           << " parts, " << skipped
                                           << " missing)");
    }
  }

 private:
  int& owner(int i) { return owner_[static_cast<std::size_t>(i)]; }

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
      poll_once(static_cast<int>(cfg_.heartbeat.count()));
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
    frames_.send(w.fd, std::move(fields),
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
      worker_main(sv[1], w.shard, w.respawns, spec_, fn_, cfg_,
                  arm_crash);  // noreturn
    }
    ::close(sv[1]);
    w.pid = pid;
    w.fd = sv[0];
    w.alive = true;
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
  void handle_frame(WorkerState& w, const Json& msg) {
    last_frame_ = Clock::now();
    const MsgType t = frame_type(msg);
    frames_.received(msg,
                     std::string(to_string(t)) + " <- shard " +
                         std::to_string(w.shard),
                     w.shard);
    // An absolute cumulative snapshot for this incarnation: keep only the
    // latest (it is folded into the shard's part at retirement).
    // snapshot_from_wire throws on garbage, retiring the worker like any
    // other corrupt frame.
    if (const Json* m = msg.find("metrics"))
      w.metrics = obs::snapshot_from_wire(*m);
    if (const Json* o = msg.find("outcome");
        o && o->as_string() ==
                 engine::to_string(engine::RunOutcome::kBudgetExceeded))
      abort = true;
    if (t == MsgType::kProgress) {
      for (const Json& pair : msg.at("completed").as_array()) {
        const int i = static_cast<int>(pair.at(std::size_t{0}).as_int());
        if (i < 0 || i >= n_)
          throw std::runtime_error("progress frame claims scenario " +
                                   std::to_string(i) +
                                   " outside campaign of " +
                                   std::to_string(n_));
        set_owner(i, kDone);
      }
      stats.executed += static_cast<int>(msg.at("executed").as_int());
      stats.resumed += static_cast<int>(msg.at("resumed").as_int());
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
        if (const std::optional<Json> msg = read_frame(w.fd))
          handle_frame(w, *msg);
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
      while (const std::optional<Json> msg = read_frame(w.fd))
        handle_frame(w, *msg);
    } catch (const std::exception&) {
      // A frame torn by the death itself; everything before it was applied.
    }
    ::close(w.fd);
    w.fd = -1;
    w.alive = false;
    w.steal_outstanding = false;

    // Fold the incarnation's final absolute snapshot into the shard's
    // fleet part; incarnations of one shard sum.  A crash loses at most
    // the counters since its last progress frame (one chunk).
    if (w.metrics) {
      try {
        obs::merge_into(shard_stats_[w.shard], *w.metrics);
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
              << "); journal resume covers completed work");
      // The new incarnation gets its shard's outstanding indices back, so
      // it resumes them from the shard's own journal.
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
      poll_once(static_cast<int>(cfg_.heartbeat.count()));
      reap();
    }
    if (any_alive()) {
      RR_ERROR("campaign: workers ignored stop; killing the remainder");
      kill_all();
    }
  }

  /// The coordinator's own runner: the whole campaign when workers == 0,
  /// else whatever a dead fleet left.  It is created only after every
  /// worker has been reaped (its thread pool must never be forked), and
  /// journals to shard-coord.jsonl, which it never reads back: its
  /// in-memory entries fill in any index the merged journals lack.
  void run_local(Entries& merged) {
    std::vector<int> pending;
    for (int i = 0; i < n_; ++i)
      if (owner(i) != kDone) pending.push_back(i);
    if (cfg_.workers > 0)
      RR_WARN("campaign: no workers left; running " << pending.size()
                                                    << " indices in-process");
    engine::SweepEngine eng({1});
    engine::SweepJournal journal(coord_journal_path(cfg_), spec_.params, n_);
    int pre = 0;
    for (const int i : pending)
      if (journal.completed(i)) ++pre;
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
      return engine::run_resilient_indices(
          eng, n_, pending, fn_, &journal, shard_resilient_config(spec_, cfg_));
    }();
    int got = 0;
    for (const int i : pending) {
      const auto& e = rep.entries[static_cast<std::size_t>(i)];
      if (!e) continue;
      ++got;
      auto& slot = merged[static_cast<std::size_t>(i)];
      if (!slot) slot = e;
    }
    stats.executed += got - pre;
    stats.resumed += pre;
    abort = rep.outcome == engine::RunOutcome::kBudgetExceeded;
    degraded = rep.outcome == engine::RunOutcome::kDegraded;
  }

  const CampaignSpec& spec_;
  const engine::ResilientScenario& fn_;
  const ServiceConfig& cfg_;
  const int n_;
  const bool tracing_;
  /// Per campaign index: kDone, kPooled, or the owning shard.
  std::vector<int> owner_;
  int pooled_;
  int done_count_ = 0;
  std::vector<WorkerState> workers_;
  Clock::time_point last_frame_{};
  /// Coordinator-side trace (frame flows, local-run wall spans); merged
  /// with the shard files by write_merged_trace().
  sim::TraceRecorder trace_;
  FrameTrace frames_;
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

std::string entries_bytes(const Entries& entries) {
  std::ostringstream os;
  engine::write_entries_jsonl(entries, os);
  return os.str();
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
  for (const Json& rec : read_jsonl(result.result_bytes).records) {
    const engine::JournalEntry e = engine::journal_entry_from_json(rec);
    if (e.index < 0 || e.index >= spec.scenarios)
      throw std::runtime_error("cached entry index " +
                               std::to_string(e.index) +
                               " outside campaign of " +
                               std::to_string(spec.scenarios));
    result.entries[static_cast<std::size_t>(e.index)] = e;
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
    // Degrade, don't die: with no work dir the shard journals fall back
    // to memory-only (and report the run as degraded), but every
    // scenario still executes.
    RR_ERROR("campaign: " << dir_err.detail
                          << "; continuing without durable journals");
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

  // A worker death mid-write must surface as EPIPE on our write_frame,
  // not as a fatal signal.
  struct ::sigaction ignore{}, saved{};
  ignore.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore, &saved);
  Coordinator coord(spec, fn, cfg);
  try {
    result.entries = coord.run();
  } catch (...) {
    ::sigaction(SIGPIPE, &saved, nullptr);
    throw;
  }
  ::sigaction(SIGPIPE, &saved, nullptr);
  result.stats = coord.stats;
  add_to_counters(coord.stats);
  coord.write_merged_trace();
  result.fleet = coord.fleet();
  fill_counts(result);
  result.outcome = coord.abort ? engine::RunOutcome::kBudgetExceeded
                   : (coord.degraded || result.ok < spec.scenarios)
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
