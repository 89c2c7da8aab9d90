/// Tests for the serving daemon (src/serve/{jobstore,daemon,client}):
/// RRJL journal durability (round-trip, corruption fallback), the
/// JobStore's transition/recovery semantics over a MemoryBlobStore, the
/// daemon end to end over a real socket (submit / result-wait / status
/// / stats / cancel / admission rejection / drain), and the crash path:
/// a fail_after-interrupted daemon whose successor replays the journal
/// and completes the batch with identical scores.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/core/bppart.hpp"
#include "rri/core/serialize.hpp"
#include "rri/mpisim/checkpoint.hpp"
#include "rri/serve/batch_state.hpp"
#include "rri/serve/client.hpp"
#include "rri/serve/daemon.hpp"
#include "rri/serve/engine.hpp"
#include "rri/serve/jobstore.hpp"
#include "rri/serve/manifest.hpp"
#include "rri/serve/scheduler.hpp"

namespace rri::serve {
namespace {

Job make_job(const std::string& id, const std::string& s1,
             const std::string& s2) {
  Job job;
  job.id = id;
  job.s1 = rna::Sequence::from_string(s1);
  job.s2 = rna::Sequence::from_string(s2);
  return job;
}

float direct_score(const Job& job) {
  const rna::Sequence s2 =
      job.params.reverse ? job.s2.reversed() : job.s2;
  core::BpmaxOptions opts;
  opts.variant = core::Variant::kBaseline;
  return core::bpmax_score(job.s1, s2, job.params.model(), opts);
}

// ------------------------------------------------------------- journal

TEST(Journal, EncodeDecodeRoundTrips) {
  std::vector<JournalRecord> records;
  JournalRecord submit;
  submit.kind = JournalRecord::Kind::kSubmit;
  submit.id = "j1";
  submit.s1 = "GGGAAACCC";
  submit.s2 = "GGGUUUCCC";
  submit.params.min_hairpin = 3;
  submit.params.unit_weights = true;
  submit.params.reverse = false;
  records.push_back(submit);
  JournalRecord start;
  start.kind = JournalRecord::Kind::kStart;
  start.id = "j1";
  records.push_back(start);
  JournalRecord done;
  done.kind = JournalRecord::Kind::kDone;
  done.id = "j1";
  done.outcome.id = "j1";
  done.outcome.key = 0xdeadbeefu;
  done.outcome.m = 9;
  done.outcome.n = 9;
  done.outcome.score = 24.0f;
  done.outcome.seconds = 0.5;
  records.push_back(done);
  JournalRecord failed;
  failed.kind = JournalRecord::Kind::kFailed;
  failed.id = "j2";
  failed.error = "kernel exploded \"loudly\"";
  records.push_back(failed);

  const std::string bytes = encode_journal(records);
  const std::vector<JournalRecord> back = decode_journal(bytes);
  ASSERT_EQ(back.size(), records.size());
  EXPECT_EQ(back[0].id, "j1");
  EXPECT_EQ(back[0].s1, "GGGAAACCC");
  EXPECT_EQ(back[0].params.min_hairpin, 3);
  EXPECT_TRUE(back[0].params.unit_weights);
  EXPECT_FALSE(back[0].params.reverse);
  EXPECT_EQ(back[1].kind, JournalRecord::Kind::kStart);
  EXPECT_EQ(back[2].outcome.key, 0xdeadbeefu);
  EXPECT_EQ(back[2].outcome.score, 24.0f);
  EXPECT_EQ(back[3].error, "kernel exploded \"loudly\"");
}

TEST(Journal, DecodeRejectsCorruption) {
  std::vector<JournalRecord> records(1);
  records[0].kind = JournalRecord::Kind::kSubmit;
  records[0].id = "j1";
  records[0].s1 = "AA";
  records[0].s2 = "UU";
  const std::string good = encode_journal(records);

  // Truncation: every proper prefix must fail, never mis-parse.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_THROW(decode_journal(good.substr(0, cut)), core::SerializeError)
        << "prefix length " << cut;
  }
  // Single bit flips anywhere trip the CRC (or an earlier check).
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    EXPECT_THROW(decode_journal(bad), core::SerializeError)
        << "flip at byte " << i;
  }
}

// ------------------------------------------------------------ jobstore

TEST(JobStore, TransitionsAndIdempotentSubmit) {
  mpisim::MemoryBlobStore blobs;
  JobStore store(&blobs);
  EXPECT_TRUE(store.recover().empty());

  const Job job = make_job("j1", "GGGAAACCC", "GGGUUUCCC");
  EXPECT_TRUE(store.submit(job));
  EXPECT_FALSE(store.submit(job)) << "duplicate id must be refused";
  EXPECT_EQ(store.counts().queued, 1u);

  EXPECT_TRUE(store.mark_running("j1"));
  EXPECT_FALSE(store.mark_running("j1")) << "already running";
  JobOutcome outcome;
  outcome.id = "j1";
  outcome.score = 24.0f;
  store.mark_done("j1", outcome);
  const StoredJob* stored = store.find("j1");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->state, JobState::kDone);
  EXPECT_EQ(stored->outcome.score, 24.0f);

  EXPECT_FALSE(store.cancel("j1")) << "terminal jobs cannot be cancelled";
  EXPECT_TRUE(store.submit(make_job("j2", "AA", "UU")));
  EXPECT_TRUE(store.cancel("j2"));
  EXPECT_EQ(store.counts().cancelled, 1u);
  EXPECT_EQ(store.find("nope"), nullptr);
}

TEST(JobStore, RecoverRequeuesInterruptedKeepsTerminal) {
  mpisim::MemoryBlobStore blobs;
  {
    JobStore store(&blobs);
    store.recover();
    store.submit(make_job("done", "GGGAAACCC", "GGGUUUCCC"));
    store.submit(make_job("running", "ACGUACGU", "UGCAUGCA"));
    store.submit(make_job("queued", "GGCC", "GGCC"));
    store.submit(make_job("gone", "AU", "AU"));
    store.mark_running("done");
    JobOutcome outcome;
    outcome.id = "done";
    outcome.score = 7.0f;
    store.mark_done("done", outcome);
    store.mark_running("running");
    store.cancel("gone");
    // `kill -9` here: the store object dies, the blobs survive.
  }
  JobStore store(&blobs);
  const std::vector<std::string> requeued = store.recover();
  // Interrupted kRunning and untouched kQueued both come back queued,
  // in submit order; terminal jobs keep their recorded state.
  EXPECT_EQ(requeued, (std::vector<std::string>{"running", "queued"}));
  EXPECT_EQ(store.find("done")->state, JobState::kDone);
  EXPECT_EQ(store.find("done")->outcome.score, 7.0f);
  EXPECT_EQ(store.find("running")->state, JobState::kQueued);
  EXPECT_EQ(store.find("gone")->state, JobState::kCancelled);
}

TEST(JobStore, RecoverFallsBackPastATornNewestBlob) {
  mpisim::MemoryBlobStore blobs;
  {
    JobStore store(&blobs);
    store.recover();
    store.submit(make_job("j1", "GGGAAACCC", "GGGUUUCCC"));
    store.submit(make_job("j2", "ACGU", "ACGU"));
  }
  // Corrupt the newest journal blob; the previous one (holding only j1)
  // must be adopted instead of the store giving up.
  blobs.corrupt_newest(/*bit=*/40);

  JobStore store(&blobs);
  const std::vector<std::string> requeued = store.recover();
  EXPECT_EQ(requeued, std::vector<std::string>{"j1"});
  EXPECT_EQ(store.find("j2"), nullptr) << "j2 only existed in the torn blob";
}

TEST(JobStore, NullStoreWorksWithoutDurability) {
  JobStore store(nullptr);
  EXPECT_TRUE(store.recover().empty());
  EXPECT_TRUE(store.submit(make_job("j1", "AA", "UU")));
  EXPECT_EQ(store.counts().queued, 1u);
}

// -------------------------------------------------------- daemon e2e

struct RunningDaemon {
  explicit RunningDaemon(DaemonConfig config) : daemon(std::move(config)) {
    port = daemon.start();
    thread = std::thread([this] { daemon.run(); });
  }
  ~RunningDaemon() {
    daemon.request_drain();
    if (thread.joinable()) {
      thread.join();
    }
  }
  Daemon daemon;
  int port = 0;
  std::thread thread;
};

TEST(DaemonE2E, ServesSubmitResultStatusStats) {
  DaemonConfig config;
  config.workers = 2;
  RunningDaemon server(config);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  EXPECT_TRUE(client.ping().get("ok").as_bool());

  const Job j1 = make_job("j1", "GGGAAACCC", "GGGUUUCCC");
  const Job j2 = make_job("j2", "ACGUACGUACGUACGU", "UGCAUGCAUGCA");
  EXPECT_TRUE(client.submit(j1).get("ok").as_bool());
  EXPECT_TRUE(client.submit(j2).get("ok").as_bool());

  const obs::JsonValue r1 = client.result("j1", /*wait=*/true);
  ASSERT_TRUE(r1.get("ok").as_bool());
  const JobOutcome o1 = DaemonClient::outcome_from_response(r1);
  EXPECT_EQ(o1.score, direct_score(j1));
  EXPECT_EQ(o1.key, job_key(j1));
  EXPECT_EQ(o1.m, 9);

  const obs::JsonValue r2 = client.result("j2", /*wait=*/true);
  ASSERT_TRUE(r2.get("ok").as_bool());
  EXPECT_EQ(DaemonClient::outcome_from_response(r2).score, direct_score(j2));

  // Identical resubmission is idempotent, not an error.
  const obs::JsonValue again = client.submit(j1);
  EXPECT_TRUE(again.get("ok").as_bool());
  EXPECT_TRUE(again.get("resubmitted").as_bool());
  // Same id with a different job is a conflict.
  const obs::JsonValue clash =
      client.submit(make_job("j1", "AAAA", "UUUU"));
  EXPECT_FALSE(clash.get("ok").as_bool());
  EXPECT_EQ(clash.get("code").as_string(), "id_conflict");

  const obs::JsonValue status = client.status("j1");
  EXPECT_TRUE(status.get("ok").as_bool());
  EXPECT_EQ(status.get("state").as_string(), "done");
  const obs::JsonValue missing = client.status("never-submitted");
  EXPECT_FALSE(missing.get("ok").as_bool());
  EXPECT_EQ(missing.get("code").as_string(), "unknown_id");

  // Cancelling a finished job is refused; the outcome stands.
  const obs::JsonValue cancel = client.cancel("j1");
  EXPECT_FALSE(cancel.get("ok").as_bool());
  EXPECT_EQ(cancel.get("code").as_string(), "not_cancellable");

  const obs::JsonValue stats = client.stats();
  EXPECT_TRUE(stats.get("ok").as_bool());
  EXPECT_EQ(static_cast<int>(stats.get("jobs").get("done").as_number()), 2);
  EXPECT_GE(stats.get("workers").as_number(), 2.0);
}

TEST(DaemonE2E, RejectsOverBudgetJobsAtSubmit) {
  DaemonConfig config;
  config.job_budget_bytes = 1024.0;  // nothing real fits
  RunningDaemon server(config);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  const obs::JsonValue doc =
      client.submit(make_job("big", "GGGAAACCC", "GGGUUUCCC"));
  EXPECT_FALSE(doc.get("ok").as_bool());
  EXPECT_EQ(doc.get("code").as_string(), "over_budget");
  EXPECT_NE(doc.get("error").as_string().find("GiB"), std::string::npos)
      << "the rejection must be actionable: " << doc.get("error").as_string();
  // A rejected job is not in the store at all.
  const obs::JsonValue status = client.status("big");
  EXPECT_EQ(status.get("code").as_string(), "unknown_id");
}

TEST(DaemonE2E, MalformedFramesGetErrorThenHangup) {
  DaemonConfig config;
  RunningDaemon server(config);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  const obs::JsonValue doc = client.request("this is not json\n");
  EXPECT_FALSE(doc.get("ok").as_bool());
  EXPECT_EQ(doc.get("code").as_string(), "bad_json");
  // The daemon keeps the connection for well-formed-but-invalid JSON…
  const obs::JsonValue doc2 = client.request("{\"op\":\"nonsense\"}\n");
  EXPECT_EQ(doc2.get("code").as_string(), "bad_request");
  // …and a fresh connection still serves.
  DaemonClient second;
  second.connect("127.0.0.1", server.port);
  EXPECT_TRUE(second.ping().get("ok").as_bool());
}

TEST(DaemonE2E, DrainVerbStopsIntakeAndFinishesWork) {
  DaemonConfig config;
  config.workers = 1;
  Daemon daemon(config);
  const int port = daemon.start();
  std::thread runner([&] { daemon.run(); });

  DaemonClient client;
  client.connect("127.0.0.1", port);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client
                    .submit(make_job("j" + std::to_string(i),
                                     "GGGAAACCCGGGAAACCC",
                                     "GGGUUUCCCGGGUUUCCC" +
                                         std::string(i, 'A')))
                    .get("ok")
                    .as_bool());
  }
  const obs::JsonValue ack = client.drain();
  EXPECT_TRUE(ack.get("ok").as_bool());
  runner.join();

  // Every accepted job reached a terminal state before run() returned.
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.jobs.done, 4u);
  EXPECT_EQ(stats.jobs.queued + stats.jobs.running, 0u);
  EXPECT_FALSE(stats.interrupted);
}

TEST(DaemonE2E, RestartReplaysJournalAndCompletesBatch) {
  mpisim::MemoryBlobStore blobs;
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(make_job("j" + std::to_string(i),
                            "GGGAAACCCGGGAAACCC",
                            "GGGUUUCCC" + std::string(i + 1, 'A')));
  }

  // First run: accept everything, crash (fail_after) after 2 finishes.
  {
    DaemonConfig config;
    config.workers = 1;
    config.journal_store = &blobs;
    config.fail_after = 2;
    Daemon daemon(config);
    const int port = daemon.start();
    std::thread runner([&] { daemon.run(); });
    DaemonClient client;
    client.connect("127.0.0.1", port);
    for (const Job& job : jobs) {
      ASSERT_TRUE(client.submit(job).get("ok").as_bool());
    }
    runner.join();
    const DaemonStats stats = daemon.stats();
    EXPECT_TRUE(stats.interrupted);
    EXPECT_EQ(stats.jobs.done, 2u);
    EXPECT_EQ(stats.jobs.queued, 3u) << "unfinished jobs stay journaled";
  }

  // Second run over the same blobs: replay adopts the finished jobs and
  // re-runs the rest; every result matches the direct solver.
  DaemonConfig config;
  config.workers = 2;
  config.journal_store = &blobs;
  RunningDaemon server(config);
  const DaemonStats boot = server.daemon.stats();
  EXPECT_EQ(boot.jobs_replayed, 2u);
  EXPECT_EQ(boot.jobs_requeued, 3u);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  for (const Job& job : jobs) {
    const obs::JsonValue doc = client.result(job.id, /*wait=*/true);
    ASSERT_TRUE(doc.get("ok").as_bool()) << job.id;
    EXPECT_EQ(DaemonClient::outcome_from_response(doc).score,
              direct_score(job))
        << job.id;
  }
}

TEST(Journal, V2RecordsCarryTenantAndDeadline) {
  std::vector<JournalRecord> records(1);
  records[0].kind = JournalRecord::Kind::kSubmit;
  records[0].id = "j1";
  records[0].s1 = "GGGAAACCC";
  records[0].s2 = "GGGUUUCCC";
  records[0].tenant = "acme";
  records[0].deadline_s = 2.5;
  const std::vector<JournalRecord> back =
      decode_journal(encode_journal(records));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].tenant, "acme");
  EXPECT_EQ(back[0].deadline_s, 2.5);
}

TEST(JobStore, RestartPreservesTenantOnRequeuedJobs) {
  mpisim::MemoryBlobStore blobs;
  {
    JobStore store(&blobs);
    Job job = make_job("j1", "GGGAAACCC", "GGGUUUCCC");
    job.tenant = "acme";
    job.deadline_s = 9.0;
    ASSERT_TRUE(store.submit(job));
  }
  JobStore store(&blobs);
  const std::vector<std::string> requeued = store.recover();
  ASSERT_EQ(requeued.size(), 1u);
  const StoredJob* stored = store.find("j1");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->job.tenant, "acme");
  EXPECT_EQ(stored->job.deadline_s, 9.0);
}

TEST(DaemonE2E, QuotaRefusalCarriesRetryAfterAndRetryingClientLands) {
  DaemonConfig config;
  config.workers = 2;
  // 2 jobs/s with burst 1: the second back-to-back submit must be
  // refused with a ~0.5 s retry_after_s hint.
  config.tenant_config.tenants["acme"] = {/*rate_per_s=*/2.0,
                                          /*burst=*/1.0, 0, 0.0};
  RunningDaemon server(config);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  Job j1 = make_job("q1", "GGGAAACCC", "GGGUUUCCC");
  Job j2 = make_job("q2", "ACGUACGUACGU", "UGCAUGCAUGCA");
  j1.tenant = j2.tenant = "acme";
  ASSERT_TRUE(client.submit(j1).get("ok").as_bool());
  const obs::JsonValue refused = client.submit(j2);
  ASSERT_FALSE(refused.get("ok").as_bool());
  EXPECT_EQ(refused.get("code").as_string(), "quota_exceeded");
  EXPECT_NE(refused.get("error").as_string().find("acme"),
            std::string::npos);
  const double hint = refused.get("retry_after_s").as_number();
  EXPECT_GT(hint, 0.0);
  EXPECT_LE(hint, 0.5 + 1e-9);
  // A refused job never entered the store.
  EXPECT_EQ(client.status("q2").get("code").as_string(), "unknown_id");
  // Another tenant's bucket is untouched.
  Job other = make_job("q3", "GCAUGC", "AUGCAU");
  other.tenant = "lab";
  EXPECT_TRUE(client.submit(other).get("ok").as_bool());

  // The retrying client waits out the hint and lands the refused job.
  const obs::JsonValue accepted = client.submit_retrying(j2);
  ASSERT_TRUE(accepted.get("ok").as_bool());
  const obs::JsonValue result = client.result("q2", /*wait=*/true);
  ASSERT_TRUE(result.get("ok").as_bool());
  EXPECT_EQ(DaemonClient::outcome_from_response(result).score,
            direct_score(j2));

  // Per-tenant tallies surface in the stats verb.
  const obs::JsonValue stats = client.stats();
  const obs::JsonValue& acme = stats.get("tenants").get("acme");
  EXPECT_EQ(acme.get("admitted").as_number(), 2.0);
  EXPECT_GE(acme.get("rejected").as_number(), 1.0);
  EXPECT_GE(stats.get("shed").get("quota").as_number(), 1.0);
}

TEST(DaemonE2E, ExpiredDeadlineJobsAreShedAtDequeue) {
  DaemonConfig config;
  config.workers = 1;
  RunningDaemon server(config);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  // A long job pins the single worker...
  Job slow = make_job("slow", "GGGAAACCCGGGAAACCCGGGAAACCC",
                      "GGGUUUCCCGGGUUUCCCGGGUUUCCC");
  ASSERT_TRUE(client.submit(slow).get("ok").as_bool());
  // ...so a microscopic deadline on the next job expires in the queue.
  Job doomed = make_job("doomed", "GGGAAACCC", "GGGUUUCCC");
  doomed.deadline_s = 1e-6;
  ASSERT_TRUE(client.submit(doomed).get("ok").as_bool());

  const obs::JsonValue result = client.result("doomed", /*wait=*/true);
  ASSERT_FALSE(result.get("ok").as_bool());
  EXPECT_EQ(result.get("code").as_string(), "deadline_exceeded");
  EXPECT_NE(result.get("error").as_string().find("deadline"),
            std::string::npos);
  // The pinned job itself still finishes normally.
  EXPECT_TRUE(client.result("slow", /*wait=*/true).get("ok").as_bool());
  EXPECT_GE(server.daemon.stats().shed_deadline, 1u);
}

TEST(DaemonE2E, QueueDepthHighWatermarkShedsWithRetryAfter) {
  DaemonConfig config;
  config.workers = 1;
  config.shed_queue_depth = 1;
  RunningDaemon server(config);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  // First job occupies the worker (or the one queue slot); keep
  // submitting until the watermark refuses one.
  obs::JsonValue refused;
  bool saw_overload = false;
  for (int i = 0; i < 8 && !saw_overload; ++i) {
    const obs::JsonValue doc = client.submit(
        make_job("o" + std::to_string(i),
                 "GGGAAACCCGGGAAACCCGGGAAACCC",
                 "GGGUUUCCCGGGUUUCCC" + std::string(i, 'A')));
    if (!doc.get("ok").as_bool()) {
      EXPECT_EQ(doc.get("code").as_string(), "overloaded");
      EXPECT_GT(doc.get("retry_after_s").as_number(), 0.0);
      saw_overload = true;
    }
  }
  EXPECT_TRUE(saw_overload) << "watermark of 1 never shed a submit";
  EXPECT_GE(server.daemon.stats().shed_overload, 1u);
}

TEST(DaemonE2E, ChaosDaemonWithRetryingClientMatchesCleanRun) {
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(make_job("c" + std::to_string(i), "GGGAAACCCAUGC",
                            "UUGCCAAGG" + std::string(i, 'A')));
  }

  // Clean run first: the gold answers.
  std::vector<float> gold;
  {
    DaemonConfig config;
    config.workers = 2;
    RunningDaemon server(config);
    DaemonClient client;
    client.connect("127.0.0.1", server.port);
    for (const Job& job : jobs) {
      ASSERT_TRUE(client.submit(job).get("ok").as_bool());
      const obs::JsonValue doc = client.result(job.id, /*wait=*/true);
      ASSERT_TRUE(doc.get("ok").as_bool());
      gold.push_back(DaemonClient::outcome_from_response(doc).score);
    }
  }

  // Same batch against a daemon that stalls, splits, and resets its
  // sockets. The retrying client must converge to identical scores —
  // chaos may cost retries, never correctness.
  DaemonConfig config;
  config.workers = 2;
  config.chaos =
      ChaosPlan::parse("stall:p=0.2,ms=10;split:p=0.5;reset:p=0.15,seed=11");
  RunningDaemon server(config);
  DaemonClient client;
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.base_s = 0.01;
  policy.cap_s = 0.2;
  client.set_retry_policy(policy);
  client.connect("127.0.0.1", server.port);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const obs::JsonValue sub = client.submit_retrying(jobs[i]);
    ASSERT_TRUE(sub.get("ok").as_bool()) << jobs[i].id;
    const obs::JsonValue doc = client.result_retrying(jobs[i].id, true);
    ASSERT_TRUE(doc.get("ok").as_bool()) << jobs[i].id;
    EXPECT_EQ(DaemonClient::outcome_from_response(doc).score, gold[i])
        << jobs[i].id;
  }
}

TEST(Journal, V3RecordsCarryAlgebraAndTemperature) {
  std::vector<JournalRecord> records(2);
  records[0].kind = JournalRecord::Kind::kSubmit;
  records[0].id = "p1";
  records[0].s1 = "GGGAAACCC";
  records[0].s2 = "GGGUUUCCC";
  records[0].params.algebra = semiring::Algebra::kLogSumExp;
  records[0].params.temperature = 2.5;
  records[1].kind = JournalRecord::Kind::kDone;
  records[1].id = "p1";
  records[1].outcome.id = "p1";
  records[1].outcome.algebra = semiring::Algebra::kLogSumExp;
  records[1].outcome.log_z = 20.196838686873523;
  records[1].outcome.score = static_cast<float>(records[1].outcome.log_z);
  const std::vector<JournalRecord> back =
      decode_journal(encode_journal(records));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].params.algebra, semiring::Algebra::kLogSumExp);
  EXPECT_EQ(back[0].params.temperature, 2.5);
  EXPECT_EQ(back[1].outcome.algebra, semiring::Algebra::kLogSumExp);
  EXPECT_EQ(back[1].outcome.log_z, 20.196838686873523);
}

double direct_log_z(const Job& job) {
  const rna::Sequence s2 =
      job.params.reverse ? job.s2.reversed() : job.s2;
  core::BppartOptions opts;
  opts.temperature = job.params.temperature;
  opts.variant = core::BppartVariant::kSerial;
  return core::bppart_log_z(job.s1, s2, job.params.model(), opts);
}

TEST(DaemonE2E, BppartJobsServeTheStandaloneLogZ) {
  DaemonConfig config;
  config.workers = 2;
  RunningDaemon server(config);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  Job part = make_job("p1", "GGGAAACCC", "GGGUUUCCC");
  part.params.algebra = semiring::Algebra::kLogSumExp;
  Job hot = make_job("p2", "GGGAAACCC", "GGGUUUCCC");
  hot.params.algebra = semiring::Algebra::kLogSumExp;
  hot.params.temperature = 2.0;
  const Job max = make_job("m1", "GGGAAACCC", "GGGUUUCCC");
  ASSERT_TRUE(client.submit(part).get("ok").as_bool());
  ASSERT_TRUE(client.submit(hot).get("ok").as_bool());
  ASSERT_TRUE(client.submit(max).get("ok").as_bool());

  const obs::JsonValue r1 = client.result("p1", /*wait=*/true);
  ASSERT_TRUE(r1.get("ok").as_bool());
  const JobOutcome o1 = DaemonClient::outcome_from_response(r1);
  EXPECT_EQ(o1.algebra, semiring::Algebra::kLogSumExp);
  EXPECT_EQ(o1.log_z, direct_log_z(part)) << "full-precision over the wire";
  EXPECT_EQ(o1.score, static_cast<float>(o1.log_z));

  const obs::JsonValue r2 = client.result("p2", /*wait=*/true);
  ASSERT_TRUE(r2.get("ok").as_bool());
  EXPECT_EQ(DaemonClient::outcome_from_response(r2).log_z,
            direct_log_z(hot));

  // The tropical job on the same pair is untouched by the seam — and its
  // response carries no algebra/log_z fields at all.
  const obs::JsonValue r3 = client.result("m1", /*wait=*/true);
  ASSERT_TRUE(r3.get("ok").as_bool());
  const JobOutcome o3 = DaemonClient::outcome_from_response(r3);
  EXPECT_EQ(o3.algebra, semiring::Algebra::kTropical);
  EXPECT_EQ(o3.score, direct_score(max));
  EXPECT_EQ(r3.find("log_z"), nullptr);
}

TEST(DaemonE2E, RestartReplaysBppartJobsFromTheJournal) {
  // The acceptance gauntlet: a mixed bpmax/bppart batch, a kill-9 after
  // two finishes, and a successor daemon that replays the journal. Every
  // bppart result must match the standalone solver bit for bit.
  mpisim::MemoryBlobStore blobs;
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    Job job = make_job("j" + std::to_string(i), "GGGAAACCCGGGAAACCC",
                       "GGGUUUCCC" + std::string(i + 1, 'A'));
    if (i % 2 == 0) {
      job.params.algebra = semiring::Algebra::kLogSumExp;
      job.params.temperature = 1.0 + 0.5 * i;
    }
    jobs.push_back(job);
  }

  {
    DaemonConfig config;
    config.workers = 1;
    config.journal_store = &blobs;
    config.fail_after = 2;
    Daemon daemon(config);
    const int port = daemon.start();
    std::thread runner([&] { daemon.run(); });
    DaemonClient client;
    client.connect("127.0.0.1", port);
    for (const Job& job : jobs) {
      ASSERT_TRUE(client.submit(job).get("ok").as_bool());
    }
    runner.join();
    EXPECT_TRUE(daemon.stats().interrupted);
  }

  DaemonConfig config;
  config.workers = 2;
  config.journal_store = &blobs;
  RunningDaemon server(config);
  EXPECT_EQ(server.daemon.stats().jobs_replayed, 2u);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  for (const Job& job : jobs) {
    const obs::JsonValue doc = client.result(job.id, /*wait=*/true);
    ASSERT_TRUE(doc.get("ok").as_bool()) << job.id;
    const JobOutcome outcome = DaemonClient::outcome_from_response(doc);
    if (job.params.algebra == semiring::Algebra::kLogSumExp) {
      EXPECT_EQ(outcome.algebra, semiring::Algebra::kLogSumExp) << job.id;
      EXPECT_EQ(outcome.log_z, direct_log_z(job)) << job.id;
    } else {
      EXPECT_EQ(outcome.score, direct_score(job)) << job.id;
    }
  }
}

TEST(DaemonE2E, BppartAdmissionPricesDoubleWidthTables) {
  // A budget between the float and double footprints of one pair: the
  // bpmax submit passes, the bppart submit is refused, and the refusal
  // names the 8 bytes/cell it priced.
  const Job max = make_job("m", "GGGAAACCC", "GGGUUUCCC");
  Job part = make_job("p", "GGGAAACCC", "GGGUUUCCC");
  part.params.algebra = semiring::Algebra::kLogSumExp;
  DaemonConfig config;
  config.job_budget_bytes = job_table_bytes(max) + 1.0;
  RunningDaemon server(config);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  EXPECT_TRUE(client.submit(max).get("ok").as_bool());
  const obs::JsonValue refused = client.submit(part);
  ASSERT_FALSE(refused.get("ok").as_bool());
  EXPECT_EQ(refused.get("code").as_string(), "over_budget");
  EXPECT_NE(refused.get("error").as_string().find("8 bytes/cell"),
            std::string::npos)
      << refused.get("error").as_string();
}

TEST(DaemonE2E, StopFlagDrainsLikeSigterm) {
  std::atomic<bool> stop{false};
  DaemonConfig config;
  config.stop_flag = &stop;
  Daemon daemon(config);
  const int port = daemon.start();
  std::thread runner([&] { daemon.run(); });
  DaemonClient client;
  client.connect("127.0.0.1", port);
  ASSERT_TRUE(
      client.submit(make_job("j", "GGGAAACCC", "GGGUUUCCC")).get("ok")
          .as_bool());
  stop.store(true);
  runner.join();
  EXPECT_EQ(daemon.stats().jobs.done, 1u);
}

// ------------------------------------------------- telemetry plane

TEST(DaemonE2E, MetricsAndSloVerbsServeTelemetry) {
  const std::string slo_path =
      ::testing::TempDir() + "/daemon_test_slo.jsonl";
  {
    std::ofstream out(slo_path, std::ios::trunc);
    out << "# daemon_test objective\n"
        << "{\"name\":\"queue-p99\",\"kind\":\"latency\","
           "\"histogram\":\"serve.queue_wait_s\",\"quantile\":0.99,"
           "\"max_seconds\":10.0}\n";
  }
  DaemonConfig config;
  config.slo_config = slo_path;
  RunningDaemon server(config);
  // The registry is process-global: when the whole suite runs in one
  // process (the TSan job does), earlier daemons already counted their
  // jobs. Start this test's count at zero.
  obs::set_counter("serve.jobs_served", 0.0);

  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  ASSERT_TRUE(
      client.submit(make_job("j", "GGGAAACCC", "GGGUUUCCC")).get("ok")
          .as_bool());
  ASSERT_TRUE(client.result("j", /*wait=*/true).get("ok").as_bool());

  // metrics verb: the full Prometheus exposition over the wire.
  const obs::JsonValue metrics = client.metrics();
  ASSERT_TRUE(metrics.get("ok").as_bool());
  EXPECT_EQ(metrics.get("content_type").as_string(),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string body = metrics.get("body").as_string();
  EXPECT_NE(body.find("rri_build_info{version="), std::string::npos);
  EXPECT_NE(body.find("rri_serve_daemon_workers"), std::string::npos);
  EXPECT_NE(body.find("rri_serve_jobs_served 1"), std::string::npos);
  EXPECT_NE(body.find("# TYPE rri_serve_queue_wait_s histogram"),
            std::string::npos);
  EXPECT_NE(body.find("rri_serve_queue_wait_s_bucket{le=\"+Inf\"}"),
            std::string::npos);

  // slo verb: the configured objective with a live state.
  const obs::JsonValue slo = client.slo();
  ASSERT_TRUE(slo.get("ok").as_bool());
  const auto& objectives = slo.get("objectives").as_array();
  ASSERT_EQ(objectives.size(), 1u);
  EXPECT_EQ(objectives[0].get("name").as_string(), "queue-p99");
  EXPECT_EQ(objectives[0].get("kind").as_string(), "latency");
  const std::string state = objectives[0].get("state").as_string();
  EXPECT_TRUE(state == "ok" || state == "warning" || state == "breach");

  // stats verb: build identity + slo section ride along.
  const obs::JsonValue stats = client.stats();
  ASSERT_TRUE(stats.get("ok").as_bool());
  EXPECT_FALSE(stats.get("build").get("version").as_string().empty());
  EXPECT_FALSE(stats.get("build").get("compiler").as_string().empty());
  EXPECT_FALSE(stats.get("build").get("simd").as_string().empty());
  EXPECT_EQ(stats.get("slo").as_array().size(), 1u);
}

TEST(DaemonE2E, StatsOmitsSloSectionWithoutConfig) {
  DaemonConfig config;
  RunningDaemon server(config);
  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  const obs::JsonValue stats = client.stats();
  ASSERT_TRUE(stats.get("ok").as_bool());
  EXPECT_NE(stats.find("build"), nullptr);
  EXPECT_EQ(stats.find("slo"), nullptr);
  // The slo verb still answers, with an empty objective list.
  const obs::JsonValue slo = client.slo();
  ASSERT_TRUE(slo.get("ok").as_bool());
  EXPECT_TRUE(slo.get("objectives").as_array().empty());
}

TEST(DaemonE2E, MetricsHttpListenerServesScrapes) {
  DaemonConfig config;
  config.metrics_port = 0;  // ephemeral
  RunningDaemon server(config);
  ASSERT_GT(server.daemon.metrics_port(), 0);

  const auto http_get = [&](const char* request_head) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(static_cast<std::uint16_t>(server.daemon.metrics_port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string request = request_head;
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n <= 0) {
        break;
      }
      response.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  };

  const std::string ok =
      http_get("GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n");
  EXPECT_EQ(ok.rfind("HTTP/1.0 200 OK", 0), 0u) << ok.substr(0, 120);
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(ok.find("rri_build_info{"), std::string::npos);
  EXPECT_NE(ok.find("rri_serve_daemon_uptime_s"), std::string::npos);

  const std::string missing =
      http_get("GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);
}


// --------------------------------------------------------- wire formats
//
// Checked-in encodings of both persisted formats. A change to any byte
// (field order, width, version gate) fails here before it can strand a
// journal or a checkpoint already on disk.

std::string to_hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += digits[c >> 4];
    out += digits[c & 0xf];
  }
  return out;
}

std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return out;
}

JobOutcome pinned_lse_outcome() {
  JobOutcome o;
  o.id = "j1";
  o.key = 0x0BADF00Du;
  o.m = 9;
  o.n = 6;
  o.algebra = semiring::Algebra::kLogSumExp;
  o.log_z = 20.25;
  o.score = 20.25f;
  o.cache_hit = true;
  o.seconds = 0.5;
  return o;
}

TEST(WireFormat, RrjlV3EncodingIsPinned) {
  std::vector<JournalRecord> records(5);
  records[0].kind = JournalRecord::Kind::kSubmit;
  records[0].id = "j1";
  records[0].s1 = "GGGAAACCC";
  records[0].s2 = "GGAUCC";
  records[0].params.unit_weights = true;
  records[0].params.min_hairpin = 3;
  records[0].params.reverse = false;
  records[0].params.algebra = semiring::Algebra::kLogSumExp;
  records[0].params.temperature = 1.5;
  records[0].tenant = "acme";
  records[0].deadline_s = 2.5;
  records[1].kind = JournalRecord::Kind::kStart;
  records[1].id = "j1";
  records[2].kind = JournalRecord::Kind::kDone;
  records[2].id = "j1";
  records[2].outcome = pinned_lse_outcome();
  records[3].kind = JournalRecord::Kind::kFailed;
  records[3].id = "j2";
  records[3].error = "boom";
  records[4].kind = JournalRecord::Kind::kCancelled;
  records[4].id = "j3";
  EXPECT_EQ(to_hex(encode_journal(records)),
            "52524a4c030000000500000000020000006a3109000000474747414141434343"
            "060000004747415543430103000000000400000061636d650000000000000440"
            "01000000000000f83f01020000006a3102020000006a31020000006a310df0ad"
            "0b09000000060000000000a2410100000000000000e03f010000000000403440"
            "03020000006a3204000000626f6f6d04020000006a333ed8023e");
}

TEST(WireFormat, RrbsV2EncodingIsPinned) {
  BatchState state;
  state.manifest_digest = 0xDEADBEEFu;
  JobOutcome a;
  a.id = "a";
  a.key = 0x12345678u;
  a.m = 9;
  a.n = 6;
  a.score = 18.0f;
  a.seconds = 0.125;
  JobOutcome rejected;
  rejected.id = "r";
  rejected.rejected = true;
  state.completed = {a, rejected, pinned_lse_outcome()};
  EXPECT_EQ(to_hex(encode_batch_state(state)),
            "5252425302000000efbeadde0300000001000000617856341209000000060000"
            "00000090410000000000000000c03f0000000000000000000100000072000000"
            "0000000000000000000000000000010000000000000000000000000000000000"
            "020000006a310df0ad0b09000000060000000000a2410100000000000000e03f"
            "0100000000004034409bb709e5");
}

TEST(WireFormat, RrjlV1DecodesWithTropicalDefaults) {
  // A pre-quota, pre-bppart journal: submit "old" (reverse on), then its
  // outcome (score 7, 0.25 s).
  const std::vector<JournalRecord> records = decode_journal(from_hex(
      "52524a4c010000000200000000030000006f6c64090000004747474141414343"
      "430600000047474155434300000000000102030000006f6c64030000006f6c64"
      "7856341209000000060000000000e0400000000000000000d03f37f34041"));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, JournalRecord::Kind::kSubmit);
  EXPECT_EQ(records[0].s1, "GGGAAACCC");
  EXPECT_TRUE(records[0].params.reverse);
  EXPECT_EQ(records[0].tenant, "");
  EXPECT_EQ(records[0].deadline_s, 0.0);
  EXPECT_EQ(records[0].params.algebra, semiring::Algebra::kTropical);
  EXPECT_EQ(records[0].params.temperature, 1.0);
  EXPECT_EQ(records[1].kind, JournalRecord::Kind::kDone);
  EXPECT_EQ(records[1].outcome.key, 0x12345678u);
  EXPECT_EQ(records[1].outcome.score, 7.0f);
  EXPECT_EQ(records[1].outcome.seconds, 0.25);
  EXPECT_EQ(records[1].outcome.algebra, semiring::Algebra::kTropical);
  EXPECT_EQ(records[1].outcome.log_z, 0.0);
}

TEST(WireFormat, RrbsV1DecodesWithTropicalDefaults) {
  const BatchState state = decode_batch_state(from_hex(
      "5252425301000000efbeadde01000000030000006f6c64785634120900000006"
      "0000000000e0400100000000000000d03fb54df23c"));
  EXPECT_EQ(state.manifest_digest, 0xDEADBEEFu);
  ASSERT_EQ(state.completed.size(), 1u);
  const JobOutcome& o = state.completed[0];
  EXPECT_EQ(o.id, "old");
  EXPECT_EQ(o.m, 9);
  EXPECT_EQ(o.n, 6);
  EXPECT_EQ(o.score, 7.0f);
  EXPECT_TRUE(o.cache_hit);
  EXPECT_FALSE(o.rejected);
  EXPECT_EQ(o.algebra, semiring::Algebra::kTropical);
  EXPECT_EQ(o.log_z, 0.0);
}

// ------------------------------------------------- batch == daemon bytes

TEST(DaemonE2E, ExecutedCountsKernelRunsNotCacheHits) {
  DaemonConfig config;
  RunningDaemon server(config);
  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  ASSERT_TRUE(client.submit(make_job("first", "GGGAAACCC", "GGAUCC"))
                  .get("ok")
                  .as_bool());
  ASSERT_TRUE(client.result("first", /*wait=*/true).get("ok").as_bool());
  ASSERT_TRUE(client.submit(make_job("again", "GGGAAACCC", "GGAUCC"))
                  .get("ok")
                  .as_bool());
  const obs::JsonValue again = client.result("again", /*wait=*/true);
  ASSERT_TRUE(again.get("ok").as_bool());
  EXPECT_TRUE(again.get("cache_hit").as_bool());

  const obs::JsonValue stats = client.stats();
  EXPECT_EQ(stats.get("executed").as_number(), 1.0);
  EXPECT_EQ(stats.get("cache").get("hits").as_number(), 1.0);
  EXPECT_EQ(server.daemon.stats().jobs_executed, 1u);
}

/// Result lines with the one non-deterministic field zeroed.
std::string result_lines(const std::vector<JobOutcome>& outcomes) {
  std::ostringstream out;
  write_results(out, outcomes);
  return std::regex_replace(out.str(), std::regex("\"seconds\":[0-9.]+"),
                            "\"seconds\":0");
}

TEST(DaemonE2E, BatchAndDaemonResultLinesAreByteIdentical) {
  // Distinct tropical pairs, one logsumexp pair, and a duplicate of the
  // first pair placed after it: bpmax_batch output and the daemon's
  // (through rri_client's parse -> write_result_line) must not differ.
  std::vector<Job> jobs = {
      make_job("t1", "GGGAAACCC", "GGAUCC"),
      make_job("t2", "ACGUACGUACGUACGU", "UGCAUGCAUGCA"),
      make_job("t3", "GGGAAACCCAUGC", "UUGCCAAGG"),
      make_job("lse", "GGGAAACCC", "GGGUUUCCC"),
      make_job("t1-dup", "gggaaaccc", "GGATCC"),
  };
  jobs[3].params.algebra = semiring::Algebra::kLogSumExp;
  jobs[3].params.temperature = 1.5;

  EngineConfig batch_config;
  batch_config.workers = 2;
  batch_config.cache_bytes = 64u << 20;
  const BatchResult batch = run_batch(jobs, batch_config);
  ASSERT_EQ(batch.outcomes.size(), jobs.size());
  EXPECT_TRUE(batch.outcomes.back().cache_hit);

  DaemonConfig daemon_config;
  daemon_config.workers = 2;
  RunningDaemon server(daemon_config);
  DaemonClient client;
  client.connect("127.0.0.1", server.port);
  std::vector<JobOutcome> served;
  for (const Job& job : jobs) {
    // One at a time, so the duplicate arrives after its primary finished.
    ASSERT_TRUE(client.submit(job).get("ok").as_bool()) << job.id;
    const obs::JsonValue doc = client.result(job.id, /*wait=*/true);
    ASSERT_TRUE(doc.get("ok").as_bool()) << job.id;
    served.push_back(DaemonClient::outcome_from_response(doc));
  }
  EXPECT_EQ(result_lines(served), result_lines(batch.outcomes));
}

}  // namespace
}  // namespace rri::serve
