// Failure-domain tests (DESIGN.md §13): what each persisting layer does
// when one of Env's five calls fails -- fileio's diagnostics, the
// journal's immediate degrade and mid-file quarantine, the cache's
// revalidation and abort-clean publish -- driven by test-local
// environments that fail one operation on the real filesystem.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/service.hpp"
#include "obs/metrics.hpp"
#include "sweep_engine/journal.hpp"
#include "sweep_engine/resilient.hpp"
#include "util/env.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"

#include "tmp_dir.hpp"

namespace rr {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// Deterministic toy metrics with non-terminating binary fractions, so
// byte-identity through the %.17g round trip actually bites.
Json scenario_metrics(int i) {
  Rng rng(engine::scenario_seed(0xfeedULL, static_cast<std::uint64_t>(i)));
  Json o = Json::object();
  o.set("x", Json(rng.next_double() / 3.0));
  o.set("y", Json(rng.next_double() * 1e-7));
  return o;
}

engine::ResilientScenario plain_fn() {
  return [](int i, const engine::CancelToken&) { return scenario_metrics(i); };
}

engine::JournalEntry demo_entry(int i) {
  engine::JournalEntry e;
  e.index = i;
  e.status = engine::ScenarioStatus::kOk;
  e.seed = static_cast<std::uint64_t>(1000 + i);
  e.metrics = scenario_metrics(i);
  return e;
}

Json demo_params(const std::string& salt) {
  Json p = Json::object();
  p.set("study", Json("chaos-unit"));
  p.set("salt", Json(salt));
  return p;
}

/// Fails one chosen operation kind with a chosen errno, every time (or
/// only the first `times` calls when bounded); everything else passes
/// through to the real filesystem.
class FailOpEnv : public Env {
 public:
  enum class Op { kWrite, kFsync, kFdatasync, kRename, kOpen };

  FailOpEnv(Op op, int err, int times = -1)
      : op_(op), err_(err), left_(times) {}

  int open(const std::string& path, int flags, int mode) override {
    if (should_fail(Op::kOpen)) return fail();
    return Env::open(path, flags, mode);
  }
  long write(int fd, const void* buf, std::size_t n) override {
    if (should_fail(Op::kWrite)) return fail();
    return Env::write(fd, buf, n);
  }
  int fsync(int fd) override {
    if (should_fail(Op::kFsync)) return fail();
    return Env::fsync(fd);
  }
  int fdatasync(int fd) override {
    if (should_fail(Op::kFdatasync)) return fail();
    return Env::fdatasync(fd);
  }
  int rename(const std::string& from, const std::string& to) override {
    if (should_fail(Op::kRename)) return fail();
    return Env::rename(from, to);
  }

  int failures() const { return failures_; }

 private:
  bool should_fail(Op op) {
    if (op != op_) return false;
    if (left_ == 0) return false;
    if (left_ > 0) --left_;
    ++failures_;
    return true;
  }
  int fail() {
    errno = err_;
    return -1;
  }

  Op op_;
  int err_;
  int left_;
  int failures_ = 0;
};

/// Writes the first half of the next write(2), then fails it with EIO:
/// the torn append a device error mid-write leaves behind.
class TornWriteEnv : public Env {
 public:
  long write(int fd, const void* buf, std::size_t n) override {
    if (torn_) return Env::write(fd, buf, n);
    torn_ = true;
    (void)Env::write(fd, buf, n / 2);
    errno = EIO;
    return -1;
  }

 private:
  bool torn_ = false;
};

// ---------------------------------------------------------------------------
// The environment itself.
// ---------------------------------------------------------------------------

TEST(ChaosEnvTest, ScopedEnvInstallsAndRestores) {
  EXPECT_EQ(&Env::current(), &Env::real());
  {
    Env outer;
    ScopedEnv outer_scope(&outer);
    EXPECT_EQ(&Env::current(), &outer);
    {
      Env inner;
      ScopedEnv inner_scope(&inner);
      EXPECT_EQ(&Env::current(), &inner);
    }
    EXPECT_EQ(&Env::current(), &outer);
  }
  EXPECT_EQ(&Env::current(), &Env::real());
}

// ---------------------------------------------------------------------------
// fileio diagnostics: errno, strerror and path in every error.
// ---------------------------------------------------------------------------

TEST(FileIoChaosTest, WriteFileAtomicReportsErrnoAndPath) {
  FailOpEnv env(FailOpEnv::Op::kFsync, EIO);
  ScopedEnv scope(&env);
  const std::string path = tmp_path("fileio_fsync_fail");
  IoError err;
  EXPECT_FALSE(write_file_atomic(path, "doomed\n", &err));
  EXPECT_EQ(err.errnum, EIO);
  EXPECT_NE(err.detail.find("fsync"), std::string::npos) << err.detail;
  EXPECT_NE(err.detail.find(path), std::string::npos) << err.detail;
  EXPECT_NE(err.detail.find(std::strerror(EIO)), std::string::npos)
      << err.detail;
}

TEST(FileIoChaosTest, AppendLineFsyncReportsFdatasyncFailure) {
  const std::string path = tmp_path("fileio_append_fail");
  const int fd = Env::real().open(path, O_CREAT | O_WRONLY | O_APPEND, 0644);
  ASSERT_GE(fd, 0);
  FailOpEnv env(FailOpEnv::Op::kFdatasync, ENOSPC);
  ScopedEnv scope(&env);
  IoError err;
  EXPECT_FALSE(append_line_fsync(fd, "{\"a\":1}", &err));
  EXPECT_EQ(err.errnum, ENOSPC);
  EXPECT_NE(err.detail.find("fdatasync"), std::string::npos) << err.detail;
  EXPECT_NE(err.detail.find(std::strerror(ENOSPC)), std::string::npos)
      << err.detail;
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Journal failure policy: the first failed write or sync degrades at once,
// mid-file corruption quarantines -- a full disk costs durability, never
// the run.
// ---------------------------------------------------------------------------

// The first failed write or fdatasync degrades the journal at once.  It
// writes nothing more, so reopening its file resumes exactly the records
// whose write(2) completed (the fdatasync case's second record too), with
// no torn tail.
TEST(JournalDegradeTest, FailedWriteOrSyncDegradesAtOnce) {
  struct Case {
    const char* name;
    FailOpEnv::Op op;
    int err;
    int on_disk;  ///< records the reopen resumes
  };
  for (const Case& c : {Case{"fdatasync", FailOpEnv::Op::kFdatasync, EIO, 2},
                        Case{"write", FailOpEnv::Op::kWrite, ENOSPC, 1}}) {
    SCOPED_TRACE(c.name);
    const std::string path = tmp_path(std::string("journal_fail_") + c.name);
    const Json params = demo_params(c.name);
    {
      engine::SweepJournal journal(path, params, 4);
      journal.append(demo_entry(0));
      ASSERT_FALSE(journal.degraded());
      FailOpEnv env(c.op, c.err, /*times=*/1);
      ScopedEnv scope(&env);
      journal.append(demo_entry(1));
      EXPECT_EQ(env.failures(), 1);
      EXPECT_TRUE(journal.degraded());
      const std::string bytes = read_file(path);
      journal.append(demo_entry(2));
      EXPECT_EQ(read_file(path), bytes) << "a degraded journal wrote";
      EXPECT_EQ(journal.completed_count(), 3u);
    }
    engine::SweepJournal reopened(path, params, 4);
    EXPECT_TRUE(reopened.resumed());
    EXPECT_FALSE(reopened.tail_recovered());
    EXPECT_FALSE(reopened.degraded());
    EXPECT_EQ(reopened.completed_count(), static_cast<std::size_t>(c.on_disk));
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(reopened.completed(i), i < c.on_disk) << i;
      if (i < c.on_disk) {
        EXPECT_EQ(reopened.entry(i)->metrics.dump(),
                  demo_entry(i).metrics.dump());
      }
    }
  }
}

// The torn bytes of a failed append are the file's tail, because nothing
// follows them; the next open truncates them and appends cleanly.
TEST(JournalDegradeTest, TornAppendIsATailTheReopenTruncates) {
  const std::string path = tmp_path("journal_torn_append");
  const Json params = demo_params("torn-append");
  std::string clean;
  {
    engine::SweepJournal journal(path, params, 4);
    journal.append(demo_entry(0));
    clean = read_file(path);
    TornWriteEnv env;
    ScopedEnv scope(&env);
    journal.append(demo_entry(1));
    EXPECT_TRUE(journal.degraded());
    journal.append(demo_entry(2));
  }
  ASSERT_GT(read_file(path).size(), clean.size());
  {
    engine::SweepJournal reopened(path, params, 4);
    EXPECT_TRUE(reopened.tail_recovered());
    EXPECT_EQ(reopened.completed_count(), 1u);
    EXPECT_EQ(read_file(path), clean);
    reopened.append(demo_entry(1));
    EXPECT_FALSE(reopened.degraded());
  }
  engine::SweepJournal again(path, params, 4);
  EXPECT_FALSE(again.tail_recovered());
  EXPECT_EQ(again.completed_count(), 2u);
}

TEST(JournalChaosTest, PermanentAppendFailureDegradesToMemoryOnly) {
  const std::string path = tmp_path("journal_degrade");
  const Json params = demo_params("degrade");
  engine::SweepJournal journal(path, params, 4);
  const std::uint64_t degraded_before = counter_value("io.fault.degraded");
  {
    FailOpEnv env(FailOpEnv::Op::kWrite, ENOSPC);
    ScopedEnv scope(&env);
    journal.append(demo_entry(0));  // never throws
  }
  EXPECT_TRUE(journal.degraded());
  EXPECT_GT(counter_value("io.fault.degraded"), degraded_before);
  // The entry survived in memory: the run can still finish.
  ASSERT_TRUE(journal.entry(0).has_value());
  EXPECT_EQ(journal.entry(0)->index, 0);
  // Appends after degradation stay memory-only and harmless.
  journal.append(demo_entry(1));
  EXPECT_EQ(journal.completed_count(), 2u);
}

TEST(JournalChaosTest, DegradedJournalClampsRunOutcome) {
  campaign::CampaignSpec spec;
  spec.name = "chaos_clamp";
  spec.params = demo_params("clamp");
  spec.scenarios = 6;
  campaign::ServiceConfig cfg;
  cfg.workers = 0;
  cfg.work_dir = tmp_dir("journal_outcome_clamp");
  FailOpEnv env(FailOpEnv::Op::kWrite, ENOSPC);
  campaign::CampaignResult result;
  {
    ScopedEnv scope(&env);
    result = campaign::run_campaign(spec, plain_fn(), cfg);
  }
  // Every scenario still completed, but the journal lost durability
  // along the way, so the campaign must not report clean.
  EXPECT_EQ(result.ok, 6);
  EXPECT_EQ(result.outcome, engine::RunOutcome::kDegraded);
  EXPECT_EQ(result.exit_code(), 3);
}

TEST(JournalChaosTest, MidFileTamperFailsClosedWithLineDiagnostics) {
  const std::string path = tmp_path("journal_midfile");
  const Json params = demo_params("midfile");
  {
    engine::SweepJournal journal(path, params, 4);
    for (int i = 0; i < 3; ++i) journal.append(demo_entry(i));
  }
  // Flip a semantic byte in the first record (line 2 of the file): the
  // JSON stays parseable, only the record checksum can catch it.
  std::string text = read_file(path);
  const std::size_t at = text.find("\"attempts\":1");
  ASSERT_NE(at, std::string::npos);
  text[at + std::strlen("\"attempts\":")] = '7';
  ASSERT_TRUE(write_file_atomic(path, text));

  try {
    engine::read_journal_entries(path, params, 4);
    FAIL() << "tampered journal was accepted";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(JournalChaosTest, ResumeQuarantinesTamperedFileAndStartsFresh) {
  const std::string path = tmp_path("journal_quarantine");
  const Json params = demo_params("quarantine");
  {
    engine::SweepJournal journal(path, params, 4);
    for (int i = 0; i < 3; ++i) journal.append(demo_entry(i));
  }
  std::string text = read_file(path);
  const std::size_t at = text.find("\"attempts\":1");
  ASSERT_NE(at, std::string::npos);
  text[at + std::strlen("\"attempts\":")] = '7';
  ASSERT_TRUE(write_file_atomic(path, text));

  const std::uint64_t corrupt_before = counter_value("journal.corrupt");
  engine::SweepJournal journal(path, params, 4);
  EXPECT_TRUE(journal.quarantined());
  EXPECT_FALSE(journal.degraded());
  EXPECT_EQ(journal.completed_count(), 0u);  // poisoned entries not trusted
  EXPECT_GT(counter_value("journal.corrupt"), corrupt_before);
  // The poisoned bytes were moved aside for the postmortem, and the
  // journal is writable again.
  EXPECT_EQ(read_file(path + ".corrupt"), text);
  journal.append(demo_entry(0));
  EXPECT_FALSE(journal.degraded());
}

// ---------------------------------------------------------------------------
// Cache failure policy: corrupt entries are misses, failed publishes
// leave nothing behind.
// ---------------------------------------------------------------------------

TEST(CacheChaosTest, BitFlippedResultBytesAreAMiss) {
  const std::string root = tmp_dir("cache_bitflip");
  const Json params = demo_params("bitflip");
  const std::uint64_t campaign = engine::campaign_hash(params);
  campaign::ResultCache cache(root);
  Json meta = Json::object();
  meta.set("cache", "rr-campaign-cache").set("version", 1)
      .set("campaign", engine::campaign_hex(campaign))
      .set("name", "chaos_test").set("scenarios", 2).set("params", params)
      .set("outcome", "clean");
  const std::string result = "{\"index\":0}\n{\"index\":1}\n";
  ASSERT_TRUE(cache.publish(campaign, meta, result, "{}\n", "# report\n"));
  ASSERT_TRUE(cache.lookup(campaign, params).has_value());

  // One flipped bit in the cached result bytes.
  const std::string path = cache.entry_dir(campaign) + "/result.jsonl";
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(write_file_atomic(path, bytes));

  const std::uint64_t corrupt_before = counter_value("campaign.cache.corrupt");
  EXPECT_FALSE(cache.lookup(campaign, params).has_value());
  EXPECT_GT(counter_value("campaign.cache.corrupt"), corrupt_before);
}

TEST(CacheChaosTest, VerifiedHitCarriesTheEntryBytes) {
  const std::string root = tmp_dir("cache_hit_bytes");
  const Json params = demo_params("hitbytes");
  const std::uint64_t campaign = engine::campaign_hash(params);
  campaign::ResultCache cache(root);
  Json meta = Json::object();
  meta.set("cache", "rr-campaign-cache").set("version", 1)
      .set("campaign", engine::campaign_hex(campaign))
      .set("name", "chaos_test").set("scenarios", 1).set("params", params)
      .set("outcome", "clean");
  ASSERT_TRUE(cache.publish(campaign, meta, "{\"index\":0}\n", "{\"r\":1}\n",
                            "# md\n"));
  const auto hit = cache.lookup(campaign, params);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result_bytes, "{\"index\":0}\n");
  EXPECT_EQ(hit->report_json, "{\"r\":1}\n");
  EXPECT_EQ(hit->report_md, "# md\n");
}

TEST(CacheChaosTest, FailedPublishLeavesNoPartialEntry) {
  const std::string root = tmp_dir("cache_abort");
  const Json params = demo_params("abort");
  const std::uint64_t campaign = engine::campaign_hash(params);
  campaign::ResultCache cache(root);
  Json meta = Json::object();
  meta.set("cache", "rr-campaign-cache").set("version", 1)
      .set("campaign", engine::campaign_hex(campaign))
      .set("name", "chaos_test").set("scenarios", 1).set("params", params)
      .set("outcome", "clean");
  {
    FailOpEnv env(FailOpEnv::Op::kRename, EIO);
    ScopedEnv scope(&env);
    EXPECT_FALSE(cache.publish(campaign, meta, "{\"index\":0}\n", "{}\n",
                               "# md\n"));
  }
  struct ::stat st{};
  EXPECT_NE(::stat(cache.entry_dir(campaign).c_str(), &st), 0)
      << "partial cache entry escaped a failed publish";
  EXPECT_FALSE(cache.lookup(campaign, params).has_value());
  // And the same publish succeeds once the fault clears.
  EXPECT_TRUE(cache.publish(campaign, meta, "{\"index\":0}\n", "{}\n",
                            "# md\n"));
  EXPECT_TRUE(cache.lookup(campaign, params).has_value());
}

}  // namespace
}  // namespace rr
