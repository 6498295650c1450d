#include "sweep_engine/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/expect.hpp"
#include "util/fileio.hpp"
#include "util/log.hpp"

namespace rr::engine {

namespace {

constexpr const char* kMagic = "rr-sweep";
constexpr int kVersion = 2;

/// A journaled seed: 1-20 ASCII digits whose value fits in uint64.
/// Anything else (empty, signs, spaces, trailing junk, overflow) is a
/// corrupt record, never a seed to guess at, so it throws JsonError.
std::uint64_t parse_seed(const std::string& s) {
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  std::uint64_t v = 0;
  if (s.empty() || s.size() > 20 ||
      !std::all_of(s.begin(), s.end(), is_digit) ||
      std::from_chars(s.data(), s.data() + s.size(), v).ec != std::errc{})
    throw JsonError("journal: malformed seed '" + s + "'");
  return v;
}

/// Contract violations -- wrong campaign, wrong scenario count, wrong
/// version, a protocol-breaking append.  These always throw; they are a
/// caller bug or a deliberate refusal, never damage to recover from.
class JournalContractError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void journal_fail(const std::string& path,
                               const std::string& what) {
  throw JournalContractError("journal " + path + ": " + what);
}

/// Append `v` as 16 lowercase hex digits.
void append_hex16(std::string& out, std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  char digits[16];
  for (int i = 15; i >= 0; --i, v >>= 4) digits[i] = kHex[v & 0xf];
  out.append(digits, sizeof digits);
}

/// Append `v`'s decimal digits: for an int, the bytes Json's %.17g
/// writes too.
template <typename Int>
void append_decimal(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Splice the FNV-1a hash of out[from, end) -- one compact JSON object --
/// into it as a trailing "c" field: `,"c":"<hex16>"` before its closing
/// '}'.  The reader reverses this by re-dumping the parsed object minus
/// "c" -- sound because Json objects preserve insertion order and our
/// own writer's output round-trips byte-exactly.
void splice_checksum(std::string& out, std::size_t from) {
  const std::uint64_t hash = fnv1a_hash(std::string_view(out).substr(from));
  out.pop_back();  // the object's '}'
  out += ",\"c\":\"";
  append_hex16(out, hash);
  out += "\"}";
}

/// Serialize `o` with its own checksum spliced in (the header line).
std::string checksummed_line(const Json& o) {
  std::string line;
  o.append_to(line);
  splice_checksum(line, 0);
  return line;
}

/// Verify one parsed journal record's "c" checksum; throws JsonError
/// (with the record's 1-based line and byte offset) on a missing field
/// or a mismatch.  `offset` is where the record's line starts in the
/// file.
void verify_record_checksum(const std::string& path, const Json& rec,
                            int lineno, std::size_t offset) {
  const auto fail = [&](const std::string& what) {
    throw JsonError("journal " + path + ": line " + std::to_string(lineno) +
                        " (offset " + std::to_string(offset) + "): " + what,
                    lineno, 0, offset);
  };
  if (!rec.is_object()) fail("record is not an object");
  const Json* c = rec.find("c");
  if (!c) fail("record missing checksum field \"c\"");
  Json body = Json::object();
  for (const auto& [key, value] : rec.as_object())
    if (key != "c") body.set(key, value);
  const std::string expect = campaign_hex(fnv1a_hash(body.dump()));
  if (c->as_string() != expect)
    fail("record checksum mismatch (stored " + c->as_string() + ", computed " +
         expect + "): corrupt journal");
}

/// Byte offset where 1-based line `lineno` starts in `text`.
std::size_t line_start_offset(std::string_view text, int lineno) {
  std::size_t off = 0;
  for (int i = 1; i < lineno; ++i) {
    const std::size_t nl = text.find('\n', off);
    if (nl == std::string_view::npos) break;
    off = nl + 1;
  }
  return off;
}

/// Read + parse + checksum-verify a journal file.  Throws
/// std::runtime_error if the file cannot be read and JsonError on any
/// mid-file damage (bad JSON or a checksum mismatch before the tail);
/// torn tails are reported in the returned JsonlData, not thrown.
JsonlData load_verified(const std::string& path) {
  const std::string text = read_file(path);
  JsonlData data = read_jsonl(text);
  for (std::size_t i = 0; i < data.records.size(); ++i) {
    const int lineno = static_cast<int>(i) + 1;  // writer emits no blanks
    verify_record_checksum(path, data.records[i], lineno,
                           line_start_offset(text, lineno));
  }
  return data;
}

/// Shared by the resuming constructor and the read-only loaders: the
/// header must name this campaign and scenario count, or we refuse.
void check_header(const std::string& path, const Json& header,
                  std::uint64_t campaign, int scenarios) {
  if (!header.is_object() || !header.find("journal") ||
      header.at("journal").as_string() != kMagic)
    journal_fail(path, "not a sweep journal");
  if (header.at("version").as_int() != kVersion)
    journal_fail(path, "unsupported version " +
                           std::to_string(header.at("version").as_int()));
  if (header.at("campaign").as_string() != campaign_hex(campaign))
    journal_fail(path, "campaign mismatch (journal " +
                           header.at("campaign").as_string() + ", run " +
                           campaign_hex(campaign) +
                           "): refusing to resume with different parameters");
  if (header.at("scenarios").as_int() != scenarios)
    journal_fail(path, "scenario count mismatch");
}

// Journal instrumentation (DESIGN.md §10/§13): fsync latency is the cost
// every durable append pays, so it gets a histogram.  Torn tails,
// quarantines and drops to memory-only mode (`io.fault.degraded`) are
// counted where they happen.
struct JournalMetrics {
  obs::Histogram& fsync_us;
  obs::Counter& appends;
  obs::Counter& torn_tails;
  obs::Counter& corrupt;
  obs::Counter& degraded;

  static JournalMetrics& instance() {
    static JournalMetrics m{
        obs::MetricsRegistry::global().histogram("journal.fsync_us",
                                                 obs::latency_bounds_us()),
        obs::MetricsRegistry::global().counter("journal.appends"),
        obs::MetricsRegistry::global().counter("journal.torn_tails"),
        obs::MetricsRegistry::global().counter("journal.corrupt"),
        obs::MetricsRegistry::global().counter("io.fault.degraded")};
    return m;
  }
};

}  // namespace

const char* to_string(ScenarioStatus s) {
  switch (s) {
    case ScenarioStatus::kOk: return "ok";
    case ScenarioStatus::kTimedOut: return "timed_out";
    case ScenarioStatus::kQuarantined: return "quarantined";
  }
  return "?";
}

std::optional<ScenarioStatus> scenario_status_from_string(std::string_view s) {
  if (s == "ok") return ScenarioStatus::kOk;
  if (s == "timed_out") return ScenarioStatus::kTimedOut;
  if (s == "quarantined") return ScenarioStatus::kQuarantined;
  return std::nullopt;
}

Json to_json(const JournalEntry& e) {
  Json o = Json::object();
  o.set("index", e.index)
      .set("status", to_string(e.status))
      .set("attempts", e.attempts)
      // Decimal string: a 64-bit seed does not survive a double round trip.
      .set("seed", std::to_string(e.seed));
  if (e.ok()) {
    o.set("metrics", e.metrics);
  } else {
    o.set("class", fault::to_string(e.error_class)).set("error", e.error);
  }
  return o;
}

void append_json(std::string& out, const JournalEntry& e) {
  out += "{\"index\":";
  append_decimal(out, e.index);
  out += ",\"status\":";
  append_json_string(out, to_string(e.status));
  out += ",\"attempts\":";
  append_decimal(out, e.attempts);
  out += ",\"seed\":\"";
  append_decimal(out, e.seed);
  out += '"';
  if (e.ok()) {
    out += ",\"metrics\":";
    e.metrics.append_to(out);
  } else {
    out += ",\"class\":";
    append_json_string(out, fault::to_string(e.error_class));
    out += ",\"error\":";
    append_json_string(out, e.error);
  }
  out += '}';
}

JournalEntry journal_entry_from_json(Json j) {
  JournalEntry e;
  e.index = j.at("index").as_int32();
  const auto status = scenario_status_from_string(j.at("status").as_string());
  if (!status)
    throw JsonError("journal: unknown status '" + j.at("status").as_string() +
                    "'");
  e.status = *status;
  e.attempts = j.at("attempts").as_int32();
  e.seed = parse_seed(j.at("seed").as_string());
  if (e.ok()) {
    e.metrics = std::move(j.at("metrics"));
  } else {
    const auto cls = fault::error_class_from_string(j.at("class").as_string());
    if (!cls)
      throw JsonError("journal: unknown error class '" +
                      j.at("class").as_string() + "'");
    e.error_class = *cls;
    e.error = j.at("error").as_string();
  }
  return e;
}

std::uint64_t fnv1a_hash(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t campaign_hash(const Json& params) {
  return fnv1a_hash(params.dump());
}

std::string campaign_hex(std::uint64_t campaign) {
  std::string hex;
  append_hex16(hex, campaign);
  return hex;
}

std::vector<std::optional<JournalEntry>> read_journal_entries(
    const std::string& path, const Json& params, int scenarios) {
  RR_EXPECTS(scenarios >= 0);
  std::vector<std::optional<JournalEntry>> entries(
      static_cast<std::size_t>(scenarios));
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0 || st.st_size == 0) return entries;
  JsonlData data = load_verified(path);
  if (data.records.empty()) return entries;
  check_header(path, data.records.front(), campaign_hash(params), scenarios);
  for (std::size_t i = 1; i < data.records.size(); ++i) {
    JournalEntry e = journal_entry_from_json(std::move(data.records[i]));
    if (e.index < 0 || e.index >= scenarios)
      journal_fail(path,
                   "entry index " + std::to_string(e.index) + " out of range");
    entries[static_cast<std::size_t>(e.index)] = std::move(e);
  }
  return entries;
}

SweepJournal::SweepJournal(std::string path, const Json& params, int scenarios)
    : path_(std::move(path)), scenarios_(scenarios) {
  RR_EXPECTS(scenarios_ >= 0);
  campaign_ = campaign_hash(params);
  entries_.resize(static_cast<std::size_t>(scenarios_));
  Env& env = Env::current();

  struct ::stat st{};
  const bool exists = ::stat(path_.c_str(), &st) == 0 && st.st_size > 0;
  bool load_failed = false;  // unreadable (I/O), as opposed to corrupt
  bool truncate_on_open = false;
  if (exists) {
    try {
      JsonlData data = load_verified(path_);
      if (data.records.empty()) {
        // Only a torn header made it to disk: treat as a fresh journal.
        tail_recovered_ = data.torn_tail;
      } else {
        check_header(path_, data.records.front(), campaign_, scenarios_);
        for (std::size_t i = 1; i < data.records.size(); ++i) {
          JournalEntry e = journal_entry_from_json(std::move(data.records[i]));
          if (e.index < 0 || e.index >= scenarios_)
            throw JsonError("journal " + path_ + ": entry index " +
                            std::to_string(e.index) + " out of range");
          auto& slot = entries_[static_cast<std::size_t>(e.index)];
          if (!slot) ++completed_;
          // Last record wins, though the protocol never duplicates.
          slot = std::move(e);
        }
        resumed_ = true;
        tail_recovered_ = data.torn_tail;
      }
      if (tail_recovered_) {
        // Truncate the torn tail so the next append starts on a clean line.
        if (::truncate(path_.c_str(),
                       static_cast<off_t>(data.clean_bytes)) != 0)
          throw JsonError(
              format_io_error("truncate torn tail of", path_, errno));
        JournalMetrics::instance().torn_tails.inc();
        RR_WARN("journal " << path_ << ": torn tail truncated at byte "
                           << data.clean_bytes);
      }
    } catch (const JournalContractError&) {
      throw;  // wrong campaign/scenarios/version: refuse, never recover
    } catch (const JsonError& e) {
      // Mid-file corruption: resuming from a poisoned prefix would
      // silently drop completed work, so the file is quarantined aside
      // (kept for the postmortem) and this run starts fresh.
      entries_.assign(static_cast<std::size_t>(scenarios_), std::nullopt);
      completed_ = 0;
      resumed_ = false;
      tail_recovered_ = false;
      quarantined_ = true;
      JournalMetrics::instance().corrupt.inc();
      const std::string aside = path_ + ".corrupt";
      if (env.rename(path_, aside) == 0) {
        RR_WARN("journal " << path_ << ": corrupt (" << e.what()
                           << "); quarantined to " << aside
                           << ", starting fresh");
      } else {
        truncate_on_open = true;  // cannot move it aside: overwrite it
        RR_WARN("journal " << path_ << ": corrupt (" << e.what() << "); "
                           << format_io_error("rename", aside, errno)
                           << ", starting fresh in place");
      }
    } catch (const std::exception& e) {
      // Unreadable (EIO, permissions...): without the file's contents we
      // can neither resume nor safely append; run memory-only.
      entries_.assign(static_cast<std::size_t>(scenarios_), std::nullopt);
      completed_ = 0;
      load_failed = true;
      degrade(std::string("cannot read existing journal: ") + e.what());
    }
  }

  if (!load_failed) {
    const int flags =
        O_WRONLY | O_CREAT | O_APPEND | (truncate_on_open ? O_TRUNC : 0);
    fd_ = env.open(path_, flags, 0644);
    if (fd_ < 0) degrade(format_io_error("open", path_, errno));
  }

  if (!resumed_ && fd_ >= 0) {
    Json header = Json::object();
    header.set("journal", kMagic)
        .set("version", kVersion)
        .set("campaign", campaign_hex(campaign_))
        .set("scenarios", scenarios_)
        .set("params", params);
    // A failed write leaves at most a torn header, which the next open
    // truncates away: nothing is written after a degrade.
    IoError err;
    if (!append_line_fsync(fd_, checksummed_line(header), &err))
      degrade("header write failed: " + err.detail);
  }

  if (resumed_)
    RR_INFO("journal " << path_ << ": resumed campaign "
                       << campaign_hex(campaign_) << " with " << completed_
                       << "/" << scenarios_ << " scenarios already journaled");

  if (const char* env_n = std::getenv("RR_CRASH_AFTER_N"))
    crash_after_ = std::atoi(env_n);
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void SweepJournal::degrade(const std::string& why) {
  if (degraded_.exchange(true, std::memory_order_relaxed)) return;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  JournalMetrics::instance().degraded.inc();
  RR_WARN("journal " << path_ << ": degraded to memory-only (" << why
                     << "); completed scenarios will not survive a crash");
}

bool SweepJournal::completed(int index) const {
  std::lock_guard lock(mu_);
  return index >= 0 && index < scenarios_ &&
         entries_[static_cast<std::size_t>(index)].has_value();
}

std::size_t SweepJournal::completed_count() const {
  std::lock_guard lock(mu_);
  return completed_;
}

std::optional<JournalEntry> SweepJournal::entry(int index) const {
  std::lock_guard lock(mu_);
  if (index < 0 || index >= scenarios_) return std::nullopt;
  return entries_[static_cast<std::size_t>(index)];
}

std::vector<JournalEntry> SweepJournal::entries() const {
  std::lock_guard lock(mu_);
  std::vector<JournalEntry> out;
  out.reserve(completed_);
  for (const auto& e : entries_)
    if (e) out.push_back(*e);
  return out;
}

std::vector<std::optional<JournalEntry>> SweepJournal::take_entries() {
  std::lock_guard lock(mu_);
  std::vector<std::optional<JournalEntry>> out(entries_.size());
  out.swap(entries_);
  completed_ = 0;
  return out;
}

void SweepJournal::append(std::vector<JournalEntry>&& group) {
  std::lock_guard lock(mu_);
  std::vector<int> indices;
  indices.reserve(group.size());
  for (const JournalEntry& e : group) {
    if (e.index < 0 || e.index >= scenarios_)
      journal_fail(path_, "append index " + std::to_string(e.index) +
                              " out of range");
    if (entries_[static_cast<std::size_t>(e.index)])
      journal_fail(path_,
                   "index " + std::to_string(e.index) + " journaled twice");
    indices.push_back(e.index);
  }
  std::sort(indices.begin(), indices.end());
  if (const auto dup = std::adjacent_find(indices.begin(), indices.end());
      dup != indices.end())
    journal_fail(path_, "index " + std::to_string(*dup) + " journaled twice");
  if (group.empty()) return;

  // A degrade closes the fd, so a degraded journal writes nothing more:
  // a failed append's partial bytes stay the file's tail, which the next
  // open truncates away.
  bool durable = false;
  if (fd_ >= 0) {
    JournalMetrics& jm = JournalMetrics::instance();
    // The group's record lines, newline-joined and each written straight
    // from its entry; append_line_fsync adds the final terminator and
    // writes them all with one write(2).
    std::string lines;
    for (const JournalEntry& e : group) {
      if (!lines.empty()) lines.push_back('\n');
      const std::size_t start = lines.size();
      append_json(lines, e);
      splice_checksum(lines, start);
    }
    const auto t0 = std::chrono::steady_clock::now();
    IoError err;
    durable = append_line_fsync(fd_, lines, &err);
    if (durable) {
      jm.fsync_us.observe(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
      jm.appends.add(group.size());
    } else {
      degrade("append failed: " + err.detail);
    }
  }
  for (JournalEntry& e : group)
    entries_[static_cast<std::size_t>(e.index)] = std::move(e);
  completed_ += group.size();
  if (durable) {
    appended_ += static_cast<int>(group.size());
    if (crash_after_ > 0 && appended_ >= crash_after_) {
      // Records are durable (fsync above); die like a SIGKILL would, at a
      // scenario boundary, with nothing flushed and no destructors run.
      std::_Exit(kCrashExitCode);
    }
  }
}

}  // namespace rr::engine
