// Randomized durability properties. Two claims beyond the deterministic
// boundary sweep (tests/crash_recovery_test.cc):
//
//  1. For ANY seeded interleaving of inserts, deletes, probability
//     updates, view changes and reshards, crashing at a RANDOM WAL byte
//     offset and recovering yields exactly the durable prefix --
//     bit-identical to a never-crashed twin even when the recovered
//     engine evaluates with tuple-level parallelism while the twin stays
//     serial (the engine's parallel paths promise bitwise equality with
//     serial; recovery must not break that).
//
//  2. Bounding the step II caches (EvalOptions::step_two_cache_capacity)
//     so the mutation/query stream forces LRU evictions changes nothing:
//     recovery after eviction churn is still bit-identical.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/snapshot.h"
#include "src/util/check.h"
#include "src/util/io.h"
#include "tests/crash_injection.h"
#include "tests/durability_testlib.h"

namespace pvcdb {
namespace {

using namespace durability_test;  // NOLINT(build/namespaces)

// Applies `workload` against a fault-injecting session that crashes once
// `budget` WAL bytes are durable, then recovers from the debris and
// returns the recovered session. `expected_prefix` receives the number of
// whole records the budget admits (computed from the fault-free
// boundaries, asserted against the replay count).
std::unique_ptr<DurableSession> CrashAndRecover(
    const std::string& crash_dir, const EngineState& initial,
    const std::vector<Mutation>& workload,
    const std::vector<uint64_t>& boundaries, uint64_t budget,
    size_t* expected_prefix, const std::string& tag) {
  FileSystem* real = DefaultFileSystem();
  for (const std::string& file : real->ListDir(crash_dir)) {
    std::string error;
    real->Remove(JoinPath(crash_dir, file), &error);
  }
  FaultInjectingFileSystem faulty(real, "wal-", budget);
  DurableConfig config;
  config.dir = crash_dir;
  config.fs = &faulty;
  std::string error;
  std::unique_ptr<DurableSession> session =
      DurableSession::Create(config, initial, &error);
  if (session != nullptr) {
    try {
      for (const Mutation& m : workload) Apply(session.get(), m);
    } catch (const CheckError&) {
      // The simulated crash: a WAL append did not fit the budget.
    }
  }
  session.reset();  // Process death: no checkpoint, no cleanup.

  // The twin prefix is counted in MUTATIONS; the replay count in RECORDS.
  // They differ when a mutation logs nothing (a reshard to the current
  // shard count, a delete against an empty table): such a boundary repeats
  // the previous offset, extends the durable mutation prefix for free, and
  // contributes no WAL record.
  *expected_prefix = 0;
  size_t expected_records = 0;
  for (size_t i = 1; i < boundaries.size(); ++i) {
    if (boundaries[i] > budget) break;
    *expected_prefix = i;
    if (boundaries[i] > boundaries[i - 1]) ++expected_records;
  }

  DurableConfig recover_config;
  recover_config.dir = crash_dir;
  std::unique_ptr<DurableSession> recovered =
      DurableSession::Recover(recover_config, &error);
  EXPECT_NE(recovered, nullptr) << tag << ": " << error;
  if (recovered != nullptr) {
    EXPECT_EQ(recovered->stats().replayed_records, expected_records) << tag;
  }
  return recovered;
}

void SetThreads(DurableSession* session, int num_threads) {
  EvalOptions& options = session->is_sharded()
                             ? session->sharded()->eval_options()
                             : session->db()->eval_options();
  options.num_threads = num_threads;
}

TEST(DurabilityPropertyTest, RandomCrashOffsetsRecoverBitIdentical) {
  for (uint32_t seed = 1; seed <= 16; ++seed) {
    const std::string tag = "prop_s" + std::to_string(seed);
    const uint64_t num_shards = seed % 3 == 0 ? 0 : (seed % 3) * 2;
    const EngineState initial = InitialState(num_shards);
    const std::vector<Mutation> workload =
        SeededWorkload(seed, 14, /*with_reshard=*/true);
    const std::vector<uint64_t> boundaries =
        RecordBoundaries(TestDir(tag + "_ref"), initial, workload);

    // Crash at a random byte offset: anywhere from inside the WAL magic to
    // just past the final record (no crash at all).
    Lcg rng(seed ^ 0x9E3779B9u);
    const uint64_t budget = rng.Next() % (boundaries.back() + 4);

    size_t prefix = 0;
    std::unique_ptr<DurableSession> recovered =
        CrashAndRecover(TestDir(tag + "_crash"), initial, workload,
                        boundaries, budget, &prefix,
                        tag + " budget=" + std::to_string(budget));
    ASSERT_NE(recovered, nullptr);

    std::unique_ptr<DurableSession> twin =
        BuildTwin(TestDir(tag + "_twin"), initial, workload, prefix);

    // The recovered engine evaluates with tuple-parallel batches; the twin
    // stays serial. Bit-identity must survive both recovery and the
    // parallel paths at once.
    SetThreads(recovered.get(), /*num_threads=*/2);
    ExpectSameState(recovered.get(), twin.get(),
                    tag + " budget=" + std::to_string(budget));
  }
}

TEST(DurabilityPropertyTest, StepTwoCacheEvictionSurvivesRecovery) {
  for (size_t capacity : {size_t{1}, size_t{7}}) {
    for (uint64_t num_shards : {uint64_t{0}, uint64_t{2}}) {
      const std::string tag = "cache_c" + std::to_string(capacity) + "_n" +
                              std::to_string(num_shards);
      const EngineState initial = InitialState(num_shards);
      // No reshards here: the stream keeps one view registered throughout
      // so every mutation round-trips the step II cache.
      std::vector<Mutation> workload = SeededWorkload(17, 12);
      const std::vector<uint64_t> boundaries =
          RecordBoundaries(TestDir(tag + "_ref"), initial, workload);

      // Stress the LRU bound during the crash run: query the view's
      // probabilities after every mutation, so a capacity of 1 evicts on
      // nearly every step while the WAL bytes stay identical to the
      // fault-free reference (queries do not log).
      const std::string crash_dir = TestDir(tag + "_crash");
      FileSystem* real = DefaultFileSystem();
      const uint64_t budget = boundaries[boundaries.size() * 2 / 3] + 1;
      FaultInjectingFileSystem faulty(real, "wal-", budget);
      DurableConfig config;
      config.dir = crash_dir;
      config.fs = &faulty;
      std::string error;
      std::unique_ptr<DurableSession> session =
          DurableSession::Create(config, initial, &error);
      ASSERT_NE(session, nullptr) << tag << ": " << error;
      EvalOptions& options = session->is_sharded()
                                 ? session->sharded()->eval_options()
                                 : session->db()->eval_options();
      options.step_two_cache_capacity = capacity;
      try {
        for (const Mutation& m : workload) {
          Apply(session.get(), m);
          if (session->is_sharded()) {
            session->sharded()->ViewProbabilities("low");
          } else {
            session->db()->ViewProbabilities("low");
          }
        }
      } catch (const CheckError&) {
        // The simulated crash.
      }
      session.reset();

      size_t prefix = 0;
      size_t expected_records = 0;
      for (size_t i = 1; i < boundaries.size(); ++i) {
        if (boundaries[i] > budget) break;
        prefix = i;
        if (boundaries[i] > boundaries[i - 1]) ++expected_records;
      }

      DurableConfig recover_config;
      recover_config.dir = crash_dir;
      std::unique_ptr<DurableSession> recovered =
          DurableSession::Recover(recover_config, &error);
      ASSERT_NE(recovered, nullptr) << tag << ": " << error;
      EXPECT_EQ(recovered->stats().replayed_records, expected_records) << tag;

      // The twin never crashed but ran under the same capacity bound (its
      // churn differs -- it never re-queried between mutations -- which is
      // the point: eviction history must not leak into results).
      std::unique_ptr<DurableSession> twin =
          BuildTwin(TestDir(tag + "_twin"), initial, workload, prefix);
      EvalOptions& recovered_options =
          recovered->is_sharded() ? recovered->sharded()->eval_options()
                                  : recovered->db()->eval_options();
      recovered_options.step_two_cache_capacity = capacity;
      EvalOptions& twin_options = twin->is_sharded()
                                      ? twin->sharded()->eval_options()
                                      : twin->db()->eval_options();
      twin_options.step_two_cache_capacity = capacity;
      // Query twice: the second pass reads through the (now bounded and
      // partially evicted) caches.
      ExpectSameState(recovered.get(), twin.get(), tag + " pass1");
      ExpectSameState(recovered.get(), twin.get(), tag + " pass2");
    }
  }
}

}  // namespace
}  // namespace pvcdb
