// Write-ahead journal for sweep campaigns (see DESIGN.md §8).
//
// A campaign of n independent scenarios appends one JSONL record per
// *completed* scenario -- params hash, index, derived seed, status,
// metrics -- fsync'd before the run moves on (alone, or with the rest of
// its group: the campaign coordinator appends a worker's chunk at once),
// so a run killed at any instant loses at most the work that was in
// flight.  Reopening the same path with the same campaign parameters
// preloads what it holds; the campaign coordinator, the only code that
// resumes, serves those indices from it (bit-exact, thanks to %.17g
// number round-tripping) and recomputes only the missing ones.  A torn final line -- the only damage an
// interrupted append can do, since each append is a single O_APPEND
// write(2) -- is detected on open and truncated away.
//
// File layout (one JSON object per line; every line carries a trailing
// "c" field -- the FNV-1a 64 hash, in hex, of the record bytes before
// the checksum was spliced in -- so *mid-file* bit rot is detected, not
// just torn tails):
//
//   {"journal":"rr-sweep","version":2,"campaign":"<hex64>",
//    "scenarios":N,"params":{...},"c":"<hex16>"}            <- header
//   {"index":3,"status":"ok","attempts":1,"seed":"123","metrics":{...},
//    "c":"<hex16>"}
//   {"index":0,"status":"quarantined","attempts":3,"seed":"45",
//    "class":"transient","error":"...","c":"<hex16>"}       <- failures too
//
// The campaign id is a 64-bit FNV-1a hash of the compact params dump;
// resuming with different parameters is refused rather than silently
// mixing two campaigns in one file.
//
// Failure policy (DESIGN.md §13): mid-file corruption found while
// *resuming* quarantines the poisoned file (renamed aside) and starts
// fresh -- resuming from a corrupt prefix would silently drop work; the
// *read-only* loaders fail closed with line/offset diagnostics instead.
// Append I/O failures retry transient errnos on the shared backoff, then
// degrade the journal to memory-only (`degraded()`), which the campaign
// maps to ExitCode::kDegraded -- a full disk costs durability, never the
// run.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/taxonomy.hpp"
#include "util/json.hpp"

namespace rr::engine {

/// Terminal state of one scenario within a campaign.
enum class ScenarioStatus { kOk, kTimedOut, kQuarantined };

const char* to_string(ScenarioStatus s);
std::optional<ScenarioStatus> scenario_status_from_string(std::string_view s);

/// One journaled scenario outcome.  `metrics` is the scenario's result
/// object when status == kOk and null otherwise; `error`/`error_class`
/// are meaningful only for failures.  Deliberately holds no wall-clock
/// fields: journal bytes must be identical across reruns.
struct JournalEntry {
  int index = -1;
  ScenarioStatus status = ScenarioStatus::kOk;
  int attempts = 1;
  std::uint64_t seed = 0;
  fault::ErrorClass error_class = fault::ErrorClass::kPermanent;
  std::string error;
  Json metrics;

  bool ok() const { return status == ScenarioStatus::kOk; }
};

Json to_json(const JournalEntry& e);
/// Append the bytes of to_json(e).dump() to `out`, written straight from
/// the entry: no tree is built and the metrics are not copied.  The
/// journal's record lines and the campaign's result bytes are written
/// with it.
void append_json(std::string& out, const JournalEntry& e);
/// Decode a record the caller hands over: its metrics are moved into the
/// entry, not copied.
JournalEntry journal_entry_from_json(Json j);

/// 64-bit FNV-1a over arbitrary bytes: the hash behind campaign ids,
/// journal record checksums, and cache content validation.
std::uint64_t fnv1a_hash(std::string_view bytes);

/// 64-bit FNV-1a over the compact dump of `params`: the campaign identity.
std::uint64_t campaign_hash(const Json& params);

/// The identity as it appears in journal headers, cache directory names,
/// and run reports: 16 lowercase hex digits.
std::string campaign_hex(std::uint64_t campaign);

/// Read-only load of a journal file's entries, validated against the
/// campaign (params) and scenario count exactly as resuming would --
/// without creating, appending to, or truncating the file.  A missing or
/// header-only file yields all-empty slots; a torn tail is tolerated
/// (the partial record is ignored); a campaign/scenario mismatch throws;
/// mid-file corruption (bad JSON or a record-checksum mismatch before
/// the tail) fails closed: it throws with the line and byte offset of
/// the first bad record.
std::vector<std::optional<JournalEntry>> read_journal_entries(
    const std::string& path, const Json& params, int scenarios);

class SweepJournal {
 public:
  /// Create `path` (writing the header) or resume an existing journal.
  /// Throws std::runtime_error on a campaign/scenario/version mismatch
  /// (the contract).  Torn tails are recovered by truncation; mid-file
  /// corruption quarantines the file (renamed to `path + ".corrupt"`)
  /// and starts fresh (`quarantined()`); I/O failures opening or reading
  /// the file degrade the journal to memory-only (`degraded()`) instead
  /// of throwing.  Honors RR_CRASH_AFTER_N (see below).
  SweepJournal(std::string path, const Json& params, int scenarios);
  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  const std::string& path() const { return path_; }
  int scenarios() const { return scenarios_; }
  std::uint64_t campaign() const { return campaign_; }
  /// True when the file pre-existed with at least the header intact.
  bool resumed() const { return resumed_; }
  /// True when a torn final line was truncated away on open.
  bool tail_recovered() const { return tail_recovered_; }
  /// True when mid-file corruption forced the poisoned file aside
  /// (renamed to `path() + ".corrupt"`) and this journal started fresh.
  bool quarantined() const { return quarantined_; }
  /// True once durability has been lost: the file could not be opened,
  /// read, or appended to after retries.  Entries are still tracked in
  /// memory so the run completes, but the run must report no better than
  /// fault::ExitCode::kDegraded -- nothing survives a crash any more.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  bool completed(int index) const;
  std::size_t completed_count() const;
  /// Entry for `index`, or nullopt if it has not been journaled.
  std::optional<JournalEntry> entry(int index) const;
  /// All journaled entries, in index order.
  std::vector<JournalEntry> entries() const;
  /// Every slot, in index order, moved out for an owner that is done
  /// with the journal: the journal is left holding no entries (its file
  /// is untouched).
  std::vector<std::optional<JournalEntry>> take_entries();

  /// Durably append one completed scenario: a single write(2) of the
  /// checksummed record line into the O_APPEND fd, then fdatasync.
  /// Thread-safe.  Throws std::runtime_error on an out-of-range /
  /// duplicate index (the run protocol never journals an index twice).
  /// I/O failures never throw: transient errnos retry on the shared
  /// backoff (counting `io.fault.retried`), a partial write is truncated
  /// away before the retry so the file stays parseable, and a permanent
  /// failure or exhausted retry degrades the journal to memory-only
  /// (counting `io.fault.degraded`).
  void append(const JournalEntry& e) { append(std::span(&e, 1)); }
  /// The same for a group of scenarios: every record line in one
  /// write(2), then one fdatasync.  The whole group is checked before a
  /// byte is written (an index repeated within it is a duplicate too), so
  /// a rejected group leaves the journal untouched.  An empty group is a
  /// no-op.
  void append(std::span<const JournalEntry> group) {
    append(std::vector<JournalEntry>(group.begin(), group.end()));
  }
  /// The same, moving the group's entries into the journal's table.
  void append(std::vector<JournalEntry>&& group);

  /// Crash hook for kill-and-resume testing (RR_CRASH_AFTER_N=N, read at
  /// construction): after the Nth successful record append of this
  /// journal object (1-based), the process exits at once with this code
  /// -- fault::ExitCode::kCrash, what a SIGKILLed child reports too --
  /// running no destructors and flushing nothing, like a SIGKILL at a
  /// scenario boundary.
  static constexpr int kCrashExitCode = fault::to_int(fault::ExitCode::kCrash);

 private:
  /// Enter memory-only mode: close the fd, log `why`, count the event.
  void degrade(const std::string& why);

  std::string path_;
  int scenarios_ = 0;
  std::uint64_t campaign_ = 0;
  bool resumed_ = false;
  bool tail_recovered_ = false;
  bool quarantined_ = false;
  std::atomic<bool> degraded_{false};
  int fd_ = -1;

  mutable std::mutex mu_;
  std::vector<std::optional<JournalEntry>> entries_;
  std::size_t completed_ = 0;
  int appended_ = 0;
  int crash_after_ = -1;
};

}  // namespace rr::engine
