/// Tests for the batch-serving layer (src/serve/): cache-key
/// canonicalization, ResultCache LRU/byte accounting, scheduler
/// determinism, the bounded queue's backpressure bookkeeping, RRBS
/// batch-state durability, and the engine end to end — including the
/// interruption/resume path and score agreement with the single-pair
/// solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/core/bppart.hpp"
#include "rri/core/ftable.hpp"
#include "rri/core/serialize.hpp"
#include "rri/mpisim/checkpoint.hpp"
#include "rri/serve/batch_state.hpp"
#include "rri/serve/cache.hpp"
#include "rri/serve/engine.hpp"
#include "rri/serve/manifest.hpp"
#include "rri/serve/queue.hpp"
#include "rri/serve/scheduler.hpp"

namespace rri::serve {
namespace {

Job make_job(const std::string& id, const std::string& s1,
             const std::string& s2, JobParams params = {}) {
  Job job;
  job.id = id;
  job.s1 = rna::Sequence::from_string(s1);
  job.s2 = rna::Sequence::from_string(s2);
  job.params = params;
  return job;
}

// ---------------------------------------------------------------- keys

TEST(JobKey, CanonicalizesSpellingVariants) {
  // Lowercase and DNA-style 'T' both normalize to the same solver input.
  const Job plain = make_job("a", "GGGAAACCC", "GGAUCC");
  const Job shouty = make_job("b", "gggaaaccc", "ggatcc");
  EXPECT_EQ(job_key_text(plain), job_key_text(shouty));
  EXPECT_EQ(job_key(plain), job_key(shouty));
}

TEST(JobKey, FoldsStrand2Reversal) {
  // A pre-reversed strand 2 with reverse=false names the same
  // computation as the default convention on the forward spelling.
  JobParams no_rev;
  no_rev.reverse = false;
  const Job forward = make_job("a", "GGGAAACCC", "GGAUCC");
  const Job prerev = make_job("b", "GGGAAACCC", "CCUAGG", no_rev);
  EXPECT_EQ(job_key_text(forward), job_key_text(prerev));
}

TEST(JobKey, ParamsDifferentiate) {
  JobParams hairpin;
  hairpin.min_hairpin = 3;
  JobParams unit;
  unit.unit_weights = true;
  const Job base = make_job("a", "GGGAAACCC", "GGAUCC");
  EXPECT_NE(job_key_text(base),
            job_key_text(make_job("a", "GGGAAACCC", "GGAUCC", hairpin)));
  EXPECT_NE(job_key_text(base),
            job_key_text(make_job("a", "GGGAAACCC", "GGAUCC", unit)));
}

TEST(JobKey, AlgebraSeparatesBpmaxFromBppart) {
  // The regression this guards: a bppart job must never collide with a
  // bpmax job on the same pair, or cached max-scores would be served as
  // log-partition values (and vice versa).
  JobParams lse;
  lse.algebra = semiring::Algebra::kLogSumExp;
  const Job tropical = make_job("a", "GGGAAACCC", "GGAUCC");
  const Job partition = make_job("b", "GGGAAACCC", "GGAUCC", lse);
  EXPECT_NE(job_key_text(tropical), job_key_text(partition));
  EXPECT_NE(job_key(tropical), job_key(partition));
  // The algebra and temperature are spelled into the key text.
  EXPECT_NE(job_key_text(partition).find("|alg=logsumexp"),
            std::string::npos);
  EXPECT_NE(job_key_text(partition).find("|T="), std::string::npos);
}

TEST(JobKey, TemperatureDifferentiatesOnlyWhereItMatters) {
  // Different temperatures are different partition functions...
  JobParams warm;
  warm.algebra = semiring::Algebra::kLogSumExp;
  warm.temperature = 1.0;
  JobParams hot = warm;
  hot.temperature = 2.0;
  EXPECT_NE(job_key_text(make_job("a", "GGGAAACCC", "GGAUCC", warm)),
            job_key_text(make_job("b", "GGGAAACCC", "GGAUCC", hot)));
  // ...but a max never depends on T, so tropical keys canonicalize the
  // temperature away (and stay byte-identical to pre-algebra keys).
  JobParams trop_hot;
  trop_hot.temperature = 2.0;
  const Job base = make_job("a", "GGGAAACCC", "GGAUCC");
  EXPECT_EQ(job_key_text(base),
            job_key_text(make_job("b", "GGGAAACCC", "GGAUCC", trop_hot)));
  EXPECT_EQ(job_key_text(base).find("|alg="), std::string::npos);
}

// --------------------------------------------------------------- cache

TEST(ResultCache, HitAndMissAccountingIsConsistent) {
  ResultCache cache(4096);
  EXPECT_FALSE(cache.get(1, "k1").has_value());
  cache.put(1, "k1", 7.0f);
  const auto hit = cache.get(1, "k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 7.0f);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, ByteBudgetIsNeverExceeded) {
  const std::size_t budget = 3 * (8 + kCacheEntryOverhead);
  ResultCache cache(budget);
  for (int i = 0; i < 50; ++i) {
    cache.put(static_cast<std::uint32_t>(i),
              "keytext" + std::to_string(i % 10), static_cast<float>(i));
    EXPECT_LE(cache.stats().bytes_in_use, budget);
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_in_use, stats.budget_bytes);
}

TEST(ResultCache, EvictsLeastRecentlyUsedFirst) {
  // Budget fits exactly two of these entries.
  const std::size_t budget = 2 * (2 + kCacheEntryOverhead);
  ResultCache cache(budget);
  cache.put(1, "k1", 1.0f);
  cache.put(2, "k2", 2.0f);
  ASSERT_TRUE(cache.get(1, "k1").has_value());  // promote k1
  cache.put(3, "k3", 3.0f);                     // must evict k2
  EXPECT_TRUE(cache.get(1, "k1").has_value());
  EXPECT_FALSE(cache.get(2, "k2").has_value());
  EXPECT_TRUE(cache.get(3, "k3").has_value());
}

TEST(ResultCache, OversizedEntryIsNotCached) {
  ResultCache cache(kCacheEntryOverhead + 4);
  cache.put(1, std::string(1000, 'x'), 1.0f);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
}

TEST(ResultCache, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  cache.put(1, "k1", 1.0f);
  EXPECT_FALSE(cache.get(1, "k1").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, HashCollisionDegradesToMiss) {
  ResultCache cache(4096);
  cache.put(42, "the-real-key", 1.0f);
  // Same 32-bit hash, different text: must miss, never return 1.0f.
  EXPECT_FALSE(cache.get(42, "an-impostor-key").has_value());
}

TEST(ResultCache, BpmaxAndBppartEntriesNeverShare) {
  // End-to-end over the real keys: the same sequence pair under the two
  // algebras occupies two distinct cache entries, and each lookup gets
  // its own value back at full double precision.
  JobParams lse;
  lse.algebra = semiring::Algebra::kLogSumExp;
  const Job tropical = make_job("a", "GGGAAACCC", "GGAUCC");
  const Job partition = make_job("b", "GGGAAACCC", "GGAUCC", lse);
  ResultCache cache(4096);
  cache.put(job_key(tropical), job_key_text(tropical), 12.0);
  EXPECT_FALSE(
      cache.get(job_key(partition), job_key_text(partition)).has_value());
  const double log_z = 20.196838686873523;  // 17 significant digits
  cache.put(job_key(partition), job_key_text(partition), log_z);
  const auto trop_hit = cache.get(job_key(tropical), job_key_text(tropical));
  const auto lse_hit =
      cache.get(job_key(partition), job_key_text(partition));
  ASSERT_TRUE(trop_hit.has_value());
  ASSERT_TRUE(lse_hit.has_value());
  EXPECT_EQ(*trop_hit, 12.0);
  EXPECT_EQ(*lse_hit, log_z);  // exact: the cache stores doubles
  EXPECT_EQ(cache.stats().entries, 2u);
}

// ----------------------------------------------------------- scheduler

std::vector<Job> mixed_size_jobs() {
  return {
      make_job("small", "GCAU", "AUGC"),
      make_job("large", "GGGAAACCCAUGCGGGAAACCC", "UUGCCAAGGUUGCC"),
      make_job("medium", "GGGAAACCC", "UUUGGGCC"),
      make_job("twin-a", "GGGAAACCC", "GGAUCC"),
      make_job("twin-b", "GGGAAACCC", "GGAUCC"),
  };
}

TEST(Scheduler, SamePlanForSameJobsAndSeed) {
  const auto jobs = mixed_size_jobs();
  ScheduleConfig config;
  config.workers = 3;
  config.seed = 1234;
  const Schedule a = plan_schedule(jobs, config);
  const Schedule b = plan_schedule(jobs, config);
  ASSERT_EQ(a.order.size(), b.order.size());
  for (std::size_t i = 0; i < a.order.size(); ++i) {
    EXPECT_EQ(a.order[i].job_index, b.order[i].job_index);
    EXPECT_EQ(a.order[i].worker, b.order[i].worker);
  }
  EXPECT_EQ(a.worker_load, b.worker_load);
}

TEST(Scheduler, OrdersLargestCostFirst) {
  const auto jobs = mixed_size_jobs();
  const Schedule plan = plan_schedule(jobs, ScheduleConfig{});
  ASSERT_EQ(plan.order.size(), jobs.size());
  for (std::size_t i = 1; i < plan.order.size(); ++i) {
    EXPECT_GE(plan.order[i - 1].cost_flops, plan.order[i].cost_flops);
  }
  EXPECT_EQ(jobs[plan.order.front().job_index].id, "large");
}

TEST(Scheduler, CostModelsMatchClosedForms) {
  EXPECT_EQ(job_table_bytes(10, 20), 10.0 * 11.0 / 2.0 * 20.0 * 20.0 * 4.0);
  EXPECT_EQ(job_cost_flops(3, 2), 27.0 * 8.0);
}

TEST(Scheduler, TableBytesPriceTheElementWidth) {
  // bppart fills an M(M+1)/2·N² table of doubles, twice the bpmax
  // footprint.
  EXPECT_EQ(job_table_bytes(10, 20, semiring::Algebra::kLogSumExp),
            10.0 * 11.0 / 2.0 * 20.0 * 20.0 * 8.0);
  JobParams lse;
  lse.algebra = semiring::Algebra::kLogSumExp;
  const Job tropical = make_job("a", "GGGAAACCC", "GGAUCC");
  const Job partition = make_job("b", "GGGAAACCC", "GGAUCC", lse);
  EXPECT_EQ(job_elem_bytes(tropical), sizeof(float));
  EXPECT_EQ(job_elem_bytes(partition), sizeof(double));
  EXPECT_EQ(job_table_bytes(partition), 2.0 * job_table_bytes(tropical));
  EXPECT_EQ(job_table_bytes(tropical), job_table_bytes(9, 6));
}

TEST(Scheduler, JobTableBytesIsCoreTableBytes) {
  // Admission, the plan and tenant budgets price a job exactly as the
  // table the solver allocates.
  JobParams lse;
  lse.algebra = semiring::Algebra::kLogSumExp;
  const Job tropical = make_job("a", "GGGAAACCCAUGC", "UUGCCAAGG");
  const Job partition = make_job("b", "GGGAAACCCAUGC", "UUGCCAAGG", lse);
  EXPECT_EQ(job_table_bytes(tropical),
            core::table_bytes(13, 9, semiring::Algebra::kTropical));
  EXPECT_EQ(job_table_bytes(partition),
            core::table_bytes(13, 9, semiring::Algebra::kLogSumExp));
}

TEST(Scheduler, AdmissionUsesTheDoubleWidthForBppart) {
  // A budget that admits a pair as bpmax must reject the same pair as
  // bppart once the doubled footprint crosses the line.
  JobParams lse;
  lse.algebra = semiring::Algebra::kLogSumExp;
  const std::vector<Job> jobs = {
      make_job("max", "GGGAAACCCAUGCGGGAAACCC", "UUGCCAAGGUUGCC"),
      make_job("part", "GGGAAACCCAUGCGGGAAACCC", "UUGCCAAGGUUGCC", lse),
  };
  ScheduleConfig config;
  config.worker_budget_bytes = job_table_bytes(jobs[0]) + 1.0;
  const Schedule plan = plan_schedule(jobs, config);
  ASSERT_EQ(plan.rejected.size(), 1u);
  EXPECT_EQ(jobs[plan.rejected[0]].id, "part");
}

TEST(Scheduler, RejectsJobsOverTheWorkerBudget) {
  const auto jobs = mixed_size_jobs();
  ScheduleConfig config;
  // Budget below the "large" pair's table but above the others.
  config.worker_budget_bytes = job_table_bytes(10, 10);
  const Schedule plan = plan_schedule(jobs, config);
  ASSERT_EQ(plan.rejected.size(), 1u);
  EXPECT_EQ(jobs[plan.rejected[0]].id, "large");
  EXPECT_EQ(plan.order.size(), jobs.size() - 1);
}

TEST(Scheduler, LptBalancesPredictedLoad) {
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(make_job("j" + std::to_string(i), "GGGAAACCC",
                            "UUUGGGCC"));
  }
  ScheduleConfig config;
  config.workers = 4;
  const Schedule plan = plan_schedule(jobs, config);
  ASSERT_EQ(plan.worker_load.size(), 4u);
  // Eight equal jobs over four workers: every worker gets exactly two.
  for (const double load : plan.worker_load) {
    EXPECT_EQ(load, plan.worker_load[0]);
  }
}

// --------------------------------------------------------------- queue

TEST(BoundedQueue, BackpressureBoundsTheHighWaterMark) {
  BoundedQueue<int> queue(3);
  std::thread producer([&] {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(queue.push(i));
    }
    queue.close();
  });
  std::vector<int> popped;
  while (auto item = queue.pop()) {
    popped.push_back(*item);
  }
  producer.join();
  ASSERT_EQ(popped.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(popped[static_cast<std::size_t>(i)], i);  // FIFO
  }
  EXPECT_LE(queue.high_water(), queue.capacity());
  EXPECT_GE(queue.high_water(), 1u);
}

TEST(BoundedQueue, CloseDrainsThenEnds) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.push(3));
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_FALSE(queue.pop().has_value());
}

// --------------------------------------------------------- batch state

BatchState sample_state() {
  BatchState state;
  state.manifest_digest = 0xDEADBEEF;
  JobOutcome a;
  a.id = "a";
  a.key = 0x12345678;
  a.m = 9;
  a.n = 6;
  a.score = 18.0f;
  a.seconds = 0.125;
  JobOutcome b;
  b.id = "b";
  b.key = 0x9ABCDEF0;
  b.m = 4;
  b.n = 4;
  b.score = 5.0f;
  b.cache_hit = true;
  JobOutcome c;
  c.id = "c";
  c.rejected = true;
  JobOutcome d;
  d.id = "d";
  d.key = 0x0BADF00D;
  d.m = 9;
  d.n = 6;
  d.algebra = semiring::Algebra::kLogSumExp;
  d.log_z = 20.196838686873523;
  d.score = static_cast<float>(d.log_z);
  d.seconds = 0.5;
  state.completed = {a, b, c, d};
  return state;
}

TEST(BatchState, EncodeDecodeRoundTrips) {
  const BatchState state = sample_state();
  const BatchState back = decode_batch_state(encode_batch_state(state));
  EXPECT_EQ(back.manifest_digest, state.manifest_digest);
  ASSERT_EQ(back.completed.size(), state.completed.size());
  for (std::size_t i = 0; i < state.completed.size(); ++i) {
    EXPECT_EQ(back.completed[i].id, state.completed[i].id);
    EXPECT_EQ(back.completed[i].key, state.completed[i].key);
    EXPECT_EQ(back.completed[i].m, state.completed[i].m);
    EXPECT_EQ(back.completed[i].n, state.completed[i].n);
    EXPECT_EQ(back.completed[i].score, state.completed[i].score);
    EXPECT_EQ(back.completed[i].cache_hit, state.completed[i].cache_hit);
    EXPECT_EQ(back.completed[i].rejected, state.completed[i].rejected);
    EXPECT_EQ(back.completed[i].seconds, state.completed[i].seconds);
    EXPECT_EQ(back.completed[i].algebra, state.completed[i].algebra);
    EXPECT_EQ(back.completed[i].log_z, state.completed[i].log_z);
  }
}

TEST(BatchState, CorruptionFailsDecode) {
  std::string bytes = encode_batch_state(sample_state());
  bytes[bytes.size() / 2] ^= 0x10;
  EXPECT_THROW(decode_batch_state(bytes), core::SerializeError);
  EXPECT_THROW(decode_batch_state(std::string("RRXX")),
               core::SerializeError);
  const std::string truncated =
      encode_batch_state(sample_state()).substr(0, 10);
  EXPECT_THROW(decode_batch_state(truncated), core::SerializeError);
}

TEST(BatchState, LatestSkipsCorruptNewestBlob) {
  mpisim::MemoryBlobStore store(2);
  BatchState first = sample_state();
  first.completed.resize(1);
  store.put_blob(1, encode_batch_state(first));
  store.put_blob(2, encode_batch_state(sample_state()));
  store.corrupt_newest(13);
  const auto recovered = latest_batch_state(store);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->completed.size(), 1u);  // fell back to blob 1
}

TEST(BatchState, ManifestDigestTracksIdsAndKeys) {
  const auto jobs = mixed_size_jobs();
  auto renamed = jobs;
  renamed[0].id = "renamed";
  EXPECT_NE(manifest_digest(jobs), manifest_digest(renamed));
  auto reordered = jobs;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(manifest_digest(jobs), manifest_digest(reordered));
  EXPECT_EQ(manifest_digest(jobs), manifest_digest(mixed_size_jobs()));
}

// -------------------------------------------------------------- engine

float solo_score(const Job& job) {
  core::BpmaxOptions opts;
  const rna::Sequence s2 =
      job.params.reverse ? job.s2.reversed() : job.s2;
  return core::bpmax_score(job.s1, s2, job.params.model(), opts);
}

TEST(Engine, ScoresMatchTheSinglePairSolver) {
  const auto jobs = mixed_size_jobs();
  EngineConfig config;
  config.workers = 2;
  config.cache_bytes = 1 << 20;
  const BatchResult result = run_batch(jobs, config);
  ASSERT_EQ(result.outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].id, jobs[i].id);  // manifest order
    EXPECT_EQ(result.outcomes[i].score, solo_score(jobs[i])) << jobs[i].id;
  }
}

TEST(Engine, DuplicateHeavyBatchHitsTheCache) {
  // >= 50% repeats of one pair, interleaved with distinct jobs.
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(make_job("dup" + std::to_string(i), "GGGAAACCC",
                            "GGAUCC"));
  }
  jobs.push_back(make_job("solo1", "GCAU", "AUGC"));
  jobs.push_back(make_job("solo2", "GGGAAACCCAUGC", "UUGCCAAGG"));
  EngineConfig config;
  config.workers = 3;
  config.cache_bytes = 1 << 20;
  const BatchResult result = run_batch(jobs, config);
  EXPECT_EQ(result.stats.jobs_computed, 3u);  // one per distinct pair
  EXPECT_EQ(result.stats.cache_hits, 7u);
  const float expected = solo_score(jobs[0]);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.outcomes[i].score, expected);
    EXPECT_EQ(result.outcomes[i].key, result.outcomes[0].key);
    hits += result.outcomes[i].cache_hit ? 1 : 0;
  }
  EXPECT_EQ(hits, 7u);  // all but the primary
}

TEST(Engine, RejectsOverBudgetJobsWithoutRunningThem) {
  auto jobs = mixed_size_jobs();
  EngineConfig config;
  config.worker_budget_bytes = job_table_bytes(10, 10);
  const BatchResult result = run_batch(jobs, config);
  ASSERT_EQ(result.outcomes.size(), jobs.size());
  EXPECT_EQ(result.stats.jobs_rejected, 1u);
  for (const JobOutcome& o : result.outcomes) {
    EXPECT_EQ(o.rejected, o.id == "large");
  }
}

TEST(Engine, InterruptThenResumeMatchesUninterruptedRun) {
  const auto jobs = mixed_size_jobs();

  EngineConfig gold_config;
  gold_config.cache_bytes = 1 << 20;
  const BatchResult gold = run_batch(jobs, gold_config);

  mpisim::MemoryBlobStore store(2);
  EngineConfig part_config = gold_config;
  part_config.state_store = &store;
  part_config.checkpoint_every = 1;
  part_config.max_jobs = 2;
  const BatchResult part = run_batch(jobs, part_config);
  EXPECT_TRUE(part.stats.interrupted);
  EXPECT_EQ(part.stats.jobs_served, 2u);
  EXPECT_GT(store.size(), 0u);

  EngineConfig resume_config = gold_config;
  resume_config.state_store = &store;
  resume_config.resume = true;
  const BatchResult resumed = run_batch(jobs, resume_config);
  EXPECT_FALSE(resumed.stats.interrupted);
  EXPECT_EQ(resumed.stats.jobs_resumed, 2u);
  ASSERT_EQ(resumed.outcomes.size(), gold.outcomes.size());
  for (std::size_t i = 0; i < gold.outcomes.size(); ++i) {
    EXPECT_EQ(resumed.outcomes[i].id, gold.outcomes[i].id);
    EXPECT_EQ(resumed.outcomes[i].key, gold.outcomes[i].key);
    EXPECT_EQ(resumed.outcomes[i].score, gold.outcomes[i].score);
    EXPECT_EQ(resumed.outcomes[i].cache_hit, gold.outcomes[i].cache_hit);
    EXPECT_EQ(resumed.outcomes[i].rejected, gold.outcomes[i].rejected);
  }
}

TEST(Engine, ResumeRefusesAForeignManifest) {
  const auto jobs = mixed_size_jobs();
  mpisim::MemoryBlobStore store(2);
  EngineConfig config;
  config.state_store = &store;
  config.max_jobs = 2;
  run_batch(jobs, config);

  auto other = jobs;
  other[0].id = "someone-else";
  EngineConfig resume_config;
  resume_config.state_store = &store;
  resume_config.resume = true;
  EXPECT_THROW(run_batch(other, resume_config), std::runtime_error);
}

TEST(Engine, GrainCompositionKeepsScoresBitIdentical) {
  // Coarse job-parallelism (workers) composed with the fine-grain OpenMP
  // kernel (kernel_threads) must not change any score.
  const auto jobs = mixed_size_jobs();
  EngineConfig config;
  config.workers = 2;
  config.kernel_threads = 2;
  config.variant = core::Variant::kHybridTiled;
  const BatchResult result = run_batch(jobs, config);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].score, solo_score(jobs[i])) << jobs[i].id;
  }
}

TEST(Engine, LogSumExpJobsMatchTheStandaloneSolver) {
  // A mixed batch: the lse jobs must carry the standalone bppart log_z at
  // full precision, the tropical jobs must be untouched by the seam.
  JobParams lse;
  lse.algebra = semiring::Algebra::kLogSumExp;
  JobParams hot = lse;
  hot.temperature = 2.5;
  std::vector<Job> jobs = {
      make_job("max", "GGGAAACCC", "GGAUCC"),
      make_job("part", "GGGAAACCC", "GGAUCC", lse),
      make_job("part-hot", "GGGAAACCC", "GGAUCC", hot),
      make_job("part-dup", "GGGAAACCC", "GGAUCC", lse),
  };
  EngineConfig config;
  config.workers = 2;
  config.cache_bytes = 1 << 20;
  const BatchResult result = run_batch(jobs, config);
  ASSERT_EQ(result.outcomes.size(), jobs.size());

  const auto expected_log_z = [&](const Job& job) {
    core::BppartOptions opts;
    opts.temperature = job.params.temperature;
    opts.variant = core::BppartVariant::kSerial;
    return core::bppart_log_z(job.s1, job.s2.reversed(), job.params.model(),
                              opts);
  };
  EXPECT_EQ(result.outcomes[0].algebra, semiring::Algebra::kTropical);
  EXPECT_EQ(result.outcomes[0].score, solo_score(jobs[0]));
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_EQ(result.outcomes[i].algebra, semiring::Algebra::kLogSumExp);
    EXPECT_EQ(result.outcomes[i].log_z, expected_log_z(jobs[i]))
        << jobs[i].id;
    EXPECT_EQ(result.outcomes[i].score,
              static_cast<float>(result.outcomes[i].log_z));
  }
  EXPECT_NE(result.outcomes[1].log_z, result.outcomes[2].log_z);
  // The duplicate coalesces onto the primary's full-precision value.
  EXPECT_TRUE(result.outcomes[3].cache_hit);
  EXPECT_EQ(result.outcomes[3].log_z, result.outcomes[1].log_z);
}

// ------------------------------------------------------------ manifest

TEST(Manifest, ParsesJsonlWithCommentsAndCrlf) {
  std::istringstream in(
      "# annotated manifest\r\n"
      "\r\n"
      "{\"id\":\"a\",\"s1\":\"GCAU\",\"s2\":\"AUGC\"}\r\n"
      "{\"s1\":\"gcau\",\"s2\":\"augc\","
      "\"params\":{\"min-hairpin\":3,\"unit-weights\":true}}\n");
  const auto jobs = load_manifest(in, JobParams{});
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "a");
  EXPECT_EQ(jobs[1].id, "job2");  // auto-assigned
  EXPECT_EQ(jobs[1].params.min_hairpin, 3);
  EXPECT_TRUE(jobs[1].params.unit_weights);
  EXPECT_EQ(jobs[0].s1.to_string(), jobs[1].s1.to_string());
}

TEST(Manifest, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in(text);
    try {
      load_manifest(in, JobParams{});
      FAIL() << "expected ParseError for: " << text;
    } catch (const rna::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("{\"id\":\"a\",\"s1\":\"GCAU\",\"s2\":\"AUGC\"}\n"
               "{\"s1\":\"GC\"}\n",
               "line 2");
  expect_error("not json\n", "line 1");
  expect_error("{\"id\":\"a\",\"s1\":\"GCAU\",\"s2\":\"AUGC\"}\n"
               "{\"id\":\"a\",\"s1\":\"GC\",\"s2\":\"GC\"}\n",
               "duplicate id");
  expect_error("{\"id\":\"a\",\"s1\":\"GXAU\",\"s2\":\"AUGC\"}\n",
               "line 1");
  expect_error("{\"id\":\"a\",\"s1\":\"GCAU\",\"s2\":\"AUGC\","
               "\"params\":{\"bogus\":1}}\n",
               "unknown param");
  expect_error("{\"id\":\"a\",\"s1\":\"GCAU\",\"s2\":\"AUGC\","
               "\"params\":{\"algebra\":\"boltzmann\"}}\n",
               "unknown algebra");
  expect_error("{\"id\":\"a\",\"s1\":\"GCAU\",\"s2\":\"AUGC\","
               "\"params\":{\"temperature\":0}}\n",
               "must be a number > 0");
}

TEST(Manifest, ParsesAlgebraAndTemperatureParams) {
  std::istringstream in(
      "{\"id\":\"a\",\"s1\":\"GCAU\",\"s2\":\"AUGC\","
      "\"params\":{\"algebra\":\"logsumexp\",\"temperature\":2.5}}\n"
      "{\"id\":\"b\",\"s1\":\"GCAU\",\"s2\":\"AUGC\","
      "\"params\":{\"algebra\":\"tropical\"}}\n");
  const auto jobs = load_manifest(in, JobParams{});
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].params.algebra, semiring::Algebra::kLogSumExp);
  EXPECT_EQ(jobs[0].params.temperature, 2.5);
  EXPECT_EQ(jobs[1].params.algebra, semiring::Algebra::kTropical);
}

TEST(Manifest, ResultLinesCarryAlgebraAndLogZ) {
  JobOutcome o;
  o.id = "p";
  o.key = 0x1234;
  o.m = 9;
  o.n = 6;
  o.algebra = semiring::Algebra::kLogSumExp;
  o.log_z = 20.196838686873523;
  o.score = static_cast<float>(o.log_z);
  std::ostringstream out;
  write_result_line(out, o);
  EXPECT_NE(out.str().find("\"algebra\":\"logsumexp\""), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("\"log_z\":20.196838686873523"),
            std::string::npos)
      << out.str();
  // Tropical lines stay byte-compatible: no algebra, no log_z.
  JobOutcome t;
  t.id = "m";
  t.key = 0x1234;
  t.m = 9;
  t.n = 6;
  t.score = 12.0f;
  std::ostringstream tout;
  write_result_line(tout, t);
  EXPECT_EQ(tout.str().find("algebra"), std::string::npos) << tout.str();
  EXPECT_EQ(tout.str().find("log_z"), std::string::npos) << tout.str();
}

TEST(Manifest, ResultLinesAreStableAcrossRuns) {
  const auto jobs = mixed_size_jobs();
  EngineConfig config;
  config.workers = 2;
  config.cache_bytes = 1 << 20;
  const auto render = [&] {
    const BatchResult result = run_batch(jobs, config);
    std::ostringstream out;
    for (JobOutcome o : result.outcomes) {
      o.seconds = 0.0;  // the only non-deterministic field
      write_result_line(out, o);
    }
    return out.str();
  };
  const std::string first = render();
  EXPECT_EQ(first, render());
  EXPECT_NE(first.find("\"score\":"), std::string::npos);
  EXPECT_NE(first.find("\"cache_hit\":true"), std::string::npos);
}

}  // namespace
}  // namespace rri::serve
