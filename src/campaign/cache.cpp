#include "campaign/cache.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "obs/metrics.hpp"
#include "sweep_engine/journal.hpp"
#include "util/env.hpp"
#include "util/expect.hpp"
#include "util/fileio.hpp"
#include "util/log.hpp"

namespace rr::campaign {

namespace {

constexpr const char* kMagic = "rr-campaign-cache";
constexpr int kVersion = 1;

bool is_dir(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

obs::Counter& corrupt_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("campaign.cache.corrupt");
  return c;
}

}  // namespace

ResultCache::ResultCache(std::string root) : root_(std::move(root)) {
  RR_EXPECTS(!root_.empty());
}

std::string ResultCache::entry_dir(std::uint64_t campaign) const {
  return root_ + "/" + engine::campaign_hex(campaign);
}

std::optional<CacheEntry> ResultCache::lookup(std::uint64_t campaign,
                                              const Json& params) const {
  CacheEntry entry;
  entry.dir = entry_dir(campaign);
  entry.result_path = entry.dir + "/result.jsonl";
  entry.report_path = entry.dir + "/report.json";
  if (!is_dir(entry.dir)) return std::nullopt;
  try {
    entry.meta = Json::parse(read_file(entry.dir + "/meta.json"));
    if (entry.meta.at("cache").as_string() != kMagic ||
        entry.meta.at("version").as_int() != kVersion ||
        entry.meta.at("campaign").as_string() !=
            engine::campaign_hex(campaign) ||
        !(entry.meta.at("params") == params)) {
      RR_WARN("campaign cache " << entry.dir
                                << ": identity mismatch; treating as a miss");
      return std::nullopt;
    }
    // Content revalidation: metadata agreeing is not enough -- the
    // result bytes themselves must still hash to what the publisher
    // recorded, or a single flipped bit would be served forever.
    const Json* stored = entry.meta.find("result_hash");
    if (!stored) {
      corrupt_counter().inc();
      RR_WARN("campaign cache " << entry.dir << ": meta carries no "
                                << "result_hash; treating as a miss");
      return std::nullopt;
    }
    entry.result_bytes = read_file(entry.result_path);
    const std::string computed =
        engine::campaign_hex(engine::fnv1a_hash(entry.result_bytes));
    if (stored->as_string() != computed) {
      corrupt_counter().inc();
      RR_WARN("campaign cache " << entry.dir << ": result.jsonl hash "
                                << computed << " != recorded "
                                << stored->as_string()
                                << " (corrupt entry); treating as a miss");
      return std::nullopt;
    }
    entry.report_json = read_file(entry.report_path);
    entry.report_md = read_file(entry.dir + "/report.md");
  } catch (const std::exception& e) {
    RR_WARN("campaign cache " << entry.dir << ": unreadable entry ("
                              << e.what() << "); treating as a miss");
    return std::nullopt;
  }
  return entry;
}

bool ResultCache::publish(std::uint64_t campaign, const Json& meta,
                          std::string_view result_bytes,
                          std::string_view report_json,
                          std::string_view report_md) {
  IoError err;
  if (!make_dirs(root_, &err)) {
    RR_WARN("campaign cache " << root_ << ": " << err.detail
                              << "; publish skipped");
    return false;
  }
  FileLock lock(root_ + "/.lock");
  if (!lock.held()) {
    RR_WARN("campaign cache " << root_
                              << ": cannot take publish lock; publish skipped");
    return false;
  }

  const std::string final_dir = entry_dir(campaign);
  if (is_dir(final_dir)) return true;  // a racer already published

  Json stamped = meta;
  stamped.set("result_hash",
              engine::campaign_hex(engine::fnv1a_hash(result_bytes)));

  const std::string stage = root_ + "/.stage-" +
                            engine::campaign_hex(campaign) + "-" +
                            std::to_string(::getpid());
  bool ok = make_dirs(stage, &err) &&
            write_file_atomic(stage + "/meta.json", stamped.dump(2) + "\n",
                              &err) &&
            write_file_atomic(stage + "/result.jsonl", result_bytes, &err) &&
            write_file_atomic(stage + "/report.json", report_json, &err) &&
            write_file_atomic(stage + "/report.md", report_md, &err);
  if (ok && Env::current().rename(stage, final_dir) != 0) {
    err.errnum = errno;
    err.detail = format_io_error("rename", stage + " -> " + final_dir, errno);
    ok = false;
  }
  if (!ok) {
    RR_WARN("campaign cache " << final_dir << ": publish aborted ("
                              << err.detail << "); no partial entry left");
    // Best-effort cleanup of the stage directory; the final rename never
    // happened, so readers cannot observe a half-written entry.
    for (const char* f :
         {"/meta.json", "/result.jsonl", "/report.json", "/report.md"})
      ::unlink((stage + f).c_str());
    ::rmdir(stage.c_str());
    return false;
  }
  RR_INFO("campaign cache: published " << final_dir);
  return true;
}

}  // namespace rr::campaign
