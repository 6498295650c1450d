#include "util/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/flightrec.hpp"
#include "util/json.hpp"

namespace rr {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::atomic<int> g_shard{-1};

// The JSONL sink and its path are guarded by g_mu (cold path only: the
// level check in RR_LOG already filtered).
std::mutex g_mu;
std::FILE* g_json = nullptr;
std::string g_json_path;
std::string g_prefix;

std::once_flag g_env_once;

// Small stable per-thread ids beat hashed std::thread::id in log output.
int thread_id() {
  static std::atomic<int> next{0};
  static thread_local const int id = next.fetch_add(1);
  return id;
}

double unix_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void init_from_env_locked() {
  if (const char* env = std::getenv("RR_LOG_LEVEL")) {
    if (const auto level = log_level_from_string(env))
      g_level.store(*level, std::memory_order_relaxed);
  }
  const char* json = std::getenv("RR_LOG_JSON");
  const std::string path = json ? json : "";
  if (path != g_json_path) {
    if (g_json) std::fclose(g_json);
    g_json = path.empty() ? nullptr : std::fopen(path.c_str(), "a");
    g_json_path = g_json ? path : "";
  }
}

void ensure_env_init() {
  std::call_once(g_env_once, [] {
    std::lock_guard lock(g_mu);
    init_from_env_locked();
  });
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

std::optional<LogLevel> log_level_from_string(std::string_view s) {
  if (s == "debug") return LogLevel::kDebug;
  if (s == "info") return LogLevel::kInfo;
  if (s == "warn" || s == "warning") return LogLevel::kWarn;
  if (s == "error") return LogLevel::kError;
  if (s == "off" || s == "none") return LogLevel::kOff;
  return std::nullopt;
}

void set_log_level(LogLevel level) {
  ensure_env_init();
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() {
  ensure_env_init();
  return g_level.load(std::memory_order_relaxed);
}

void set_log_json_path(const std::string& path) {
  ensure_env_init();
  std::lock_guard lock(g_mu);
  if (g_json) std::fclose(g_json);
  g_json = path.empty() ? nullptr : std::fopen(path.c_str(), "a");
  g_json_path = g_json ? path : "";
}

std::string log_json_path() {
  ensure_env_init();
  std::lock_guard lock(g_mu);
  return g_json_path;
}

void set_log_prefix(const std::string& prefix) {
  std::lock_guard lock(g_mu);
  g_prefix = prefix;
}

void set_log_shard(int shard) {
  g_shard.store(shard, std::memory_order_relaxed);
}

void log_init_from_env() {
  ensure_env_init();  // make sure the once-flag cannot fire after us
  std::lock_guard lock(g_mu);
  init_from_env_locked();
}

namespace detail {

void log_emit(LogLevel level, const std::string& msg) {
  ensure_env_init();
  const int tid = thread_id();
  std::lock_guard lock(g_mu);
  if (g_prefix.empty())
    std::fprintf(stderr, "[%s] %s\n", to_string(level), msg.c_str());
  else
    std::fprintf(stderr, "[%s] [%s] %s\n", to_string(level), g_prefix.c_str(),
                 msg.c_str());
  const int shard = g_shard.load(std::memory_order_relaxed);
  if (g_json) {
    Json record = Json::object();
    record.set("ts", unix_seconds())
        .set("level", to_string(level))
        .set("thread", tid);
    if (!g_prefix.empty()) record.set("prefix", g_prefix);
    if (shard >= 0) record.set("shard", shard);
    record.set("msg", msg);
    const std::string line = record.dump();
    std::fprintf(g_json, "%s\n", line.c_str());
    std::fflush(g_json);
  }
  // Every emitted record also lands in the crash flight recorder, so a
  // postmortem dump carries the last few log lines without any sink
  // being configured.  value = log level (shard travels in the message).
  FlightRecorder::global().record(
      FlightKind::kLog, g_prefix.empty() ? msg : "[" + g_prefix + "] " + msg,
      static_cast<double>(static_cast<int>(level)));
}

}  // namespace detail

}  // namespace rr
