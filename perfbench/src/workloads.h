// The benchmark's three workloads: their generated inputs (CSV files the
// server loads), set-up commands, and per-client command streams. Every
// input is a pure function of the workload seed; the program under test
// sees only the CSV files and the command lines.
//
//   chain_read   20k-row `items`; point lookups and `v >= c` ranges, the
//                distributable (scatter-gather) read path.
//   agg_read     TPC-H (GenerateTpch, SF 0.1); aggregate SELECTs whose
//                replies carry conditional aggregate distributions.
//   durable_mix  `items` + `groups` with a chain view and a join view over a
//                durable server; inserts, deletes, setprobs and reads.

#ifndef PVCBENCH_WORKLOADS_H_
#define PVCBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace pvcbench {

/// The served topology of every workload: `pvcdb_server --shards 2` with
/// forked workers, driven by two closed-loop client connections. The
/// in-process reference and replay use the same shard count; the replay
/// interleaves the same client streams.
constexpr int kShards = 2;
constexpr int kClients = 2;

struct Command {
  std::string text;
  bool write = false;
  /// Read workloads: index into Workload::pool (the reference reply).
  int pool_index = -1;
  /// Writes: the acknowledging reply. When `ack_suffix` is non-empty the
  /// reply carries an interleaving-dependent count, so only `ack` as a
  /// prefix and `ack_suffix` as a suffix are fixed (insert's row count).
  std::string ack;
  std::string ack_suffix;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  /// Durable server (--open) with the mutation mix; else read-only.
  bool durable = false;
  /// (table, CSV file relative to the working directory), in load order.
  std::vector<std::pair<std::string, std::string>> loads;
  /// Commands after the loads (view registrations).
  std::vector<std::string> setup;
  /// The command whose reply completes set-up.
  std::string warmup;
  /// Read workloads: the distinct commands clients draw from, in their
  /// seeded mix; each reply is checked against the in-process reference.
  std::vector<Command> pool;
  /// Durable workloads: commands whose replies must survive a restart.
  std::vector<std::string> final_checks;
  /// Durable workloads: base-row variables inside the chain view and
  /// outside every view (setprob targets; a base row's variable id is its
  /// load index).
  std::vector<int64_t> view_vars;
  std::vector<int64_t> plain_vars;
  /// One line per input property (sizes, mix), printed with every result.
  std::vector<std::string> description;
};

/// True for chain_read, agg_read and durable_mix.
bool IsWorkloadName(const std::string& name);

/// Writes the workload's CSV inputs into `dir` (which must exist) and
/// builds its commands. Deterministic in `seed`.
Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const std::string& dir);

/// The closed-loop command source of one client. Deterministic in (seed,
/// client): durable_mix clients touch only their own keys and variables, so
/// each stream is fixed regardless of how the two clients interleave.
class ClientStream {
 public:
  ClientStream(const Workload& workload, int client);

  Command Next();

 private:
  Command NextDurable();

  const Workload* workload_;
  int client_;
  pvcdb::Rng rng_;
  int64_t next_key_;
  std::deque<int64_t> live_keys_;  ///< This client's inserts, oldest first.
};

}  // namespace pvcbench

#endif  // PVCBENCH_WORKLOADS_H_
