// Typed messages of the pvcdb serving wire protocol, carried inside the
// frames of src/net/frame.h. docs/SERVING.md is the narrative spec; this
// header is the authoritative field list.
//
// Conversation shape (coordinator ↔ worker):
//   1. On connect the coordinator sends kHello {version, semiring,
//      shard_index, num_shards}; the worker validates the protocol version
//      and replies kHelloAck. A version mismatch is a kError reply and the
//      connection is dropped — there is no negotiation, matching the WAL's
//      magic-string versioning rule.
//   2. Variable-table sync: kSyncVars ships a contiguous run of variable
//      definitions starting at `first_id`. Variables are append-only and
//      globally scoped (the in-process ShardedDatabase shares one
//      VariableTable; out of process every worker replays the same Add
//      order), so ids line up by construction and the worker checks
//      `first_id == variables().size()` before applying.
//   3. Data plane: kLoadPartition / kAppendRow / kDeleteRow mirror the
//      in-process partition hand-off and the IVM delta stream; kEvalChain /
//      kTableProbs / kViewProbs are the scatter half of scatter-gather and
//      return kChainResult / kProbsResult with per-global-row payloads the
//      coordinator merges by global row order.
//
// Every request either succeeds with its typed reply or fails with kError
// {text}; a worker never crashes the connection on a malformed payload
// (decode failures become kError, CRC failures already killed the frame).
//
// Client ↔ front-end traffic uses the same framing with exactly two kinds:
// kClientCommand carries one shell command line, kClientReply carries the
// full rendered reply text (status + the same output the in-process shell
// would print).

#ifndef PVCDB_NET_PROTOCOL_H_
#define PVCDB_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/algebra/semiring.h"
#include "src/prob/distribution.h"
#include "src/prob/variable.h"
#include "src/query/ast.h"
#include "src/table/cell.h"
#include "src/table/schema.h"
#include "src/util/metrics.h"

namespace pvcdb {

/// Bumped on any incompatible change to framing or message payloads.
/// Version 2 added the durability plane: kSetOptions, kReplayTail /
/// kTailInfo, kShipWal and kReset (WAL-shipping resync; docs/SERVING.md).
/// Version 3 added the observability plane: kStatsRequest / kStatsReply
/// (the coordinator aggregating worker-side metrics registries).
/// Version 4 made heartbeats meaningful: kPing carries PingMsg{nonce} and
/// kPong replies PongMsg{nonce, lsn, chain}, piggybacking the worker's
/// durability position so every heartbeat doubles as a (lsn, chain) probe
/// (the coordinator's health cycle and its exactly-once mutation
/// resolution both ride on it).
/// Version 5 shrank the kSetOptions payload to EvalOptionsMsg{num_threads}
/// (4 bytes): the per-d-tree thread count it also carried is gone.
constexpr uint32_t kProtocolVersion = 5;

/// Frame kind bytes. Requests are < 64, replies 64–127, client traffic
/// >= 128 — the ranges make a reply-where-request-expected bug an
/// immediate protocol error instead of a misparse.
enum class MsgKind : uint8_t {
  // Coordinator → worker requests.
  kHello = 1,
  kSyncVars = 2,
  kUpdateVar = 3,
  kLoadPartition = 4,
  kAppendRow = 5,
  kDeleteRow = 6,
  kEvalChain = 7,
  kTableProbs = 8,
  kRegisterChainView = 9,
  kDropChainView = 10,
  kViewProbs = 11,
  kPing = 12,
  kShutdown = 13,
  kViewInfo = 14,
  kSetOptions = 15,
  kReplayTail = 16,
  kShipWal = 17,
  kReset = 18,
  kStatsRequest = 19,
  // Worker → coordinator replies.
  kHelloAck = 64,
  kOk = 65,
  kError = 66,
  kChainResult = 67,
  kProbsResult = 68,
  kPong = 69,
  kViewInfoResult = 70,
  kTailInfo = 71,
  kStatsReply = 72,
  // Client ↔ front-end server.
  kClientCommand = 128,
  kClientReply = 129,
};

// ---------------------------------------------------------------------------
// Session setup.
// ---------------------------------------------------------------------------

/// First frame on every coordinator → worker connection.
struct HelloMsg {
  uint32_t version = kProtocolVersion;
  SemiringKind semiring = SemiringKind::kBool;
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;

  std::string Encode() const;
  static bool Decode(const std::string& payload, HelloMsg* out);
};

/// One variable definition in a kSyncVars run.
struct VarSyncEntry {
  std::string name;
  Distribution distribution;
};

/// Ships variables [first_id, first_id + entries.size()) in Add order.
struct SyncVarsMsg {
  VarId first_id = 0;
  std::vector<VarSyncEntry> entries;

  std::string Encode() const;
  static bool Decode(const std::string& payload, SyncVarsMsg* out);
};

/// Marginal update for one existing variable (shell `setprob`).
struct UpdateVarMsg {
  VarId var = 0;
  double probability = 0.0;

  std::string Encode() const;
  static bool Decode(const std::string& payload, UpdateVarMsg* out);
};

// ---------------------------------------------------------------------------
// Data plane: partitions and deltas.
// ---------------------------------------------------------------------------

/// Hands a worker its partition of one table: base rows, each annotated by
/// one variable, plus the global row id (position in the unsharded table)
/// that drives merge order and provenance.
struct LoadPartitionMsg {
  std::string table;
  std::string key_column;
  Schema schema;
  std::vector<std::vector<Cell>> rows;
  std::vector<VarId> vars;
  std::vector<uint64_t> global_rows;

  std::string Encode() const;
  static bool Decode(const std::string& payload, LoadPartitionMsg* out);
};

/// One inserted row routed to its owning worker (the IVM insert delta).
struct AppendRowMsg {
  std::string table;
  std::vector<Cell> cells;
  VarId var = 0;
  uint64_t global_row = 0;

  std::string Encode() const;
  static bool Decode(const std::string& payload, AppendRowMsg* out);
};

/// Broadcast on every delete: the owning worker drops its local row
/// (has_local_row set), and *every* worker shifts global row ids above
/// `global_row` down by one so provenance stays aligned with the
/// coordinator's unsharded numbering.
struct DeleteRowMsg {
  std::string table;
  bool has_local_row = false;
  uint64_t local_row = 0;
  uint64_t global_row = 0;

  std::string Encode() const;
  static bool Decode(const std::string& payload, DeleteRowMsg* out);
};

// ---------------------------------------------------------------------------
// Scatter requests and gather replies.
// ---------------------------------------------------------------------------

/// Evaluates a distributable Select/Rename chain over `table`'s partition.
/// The query is serialized with src/query/serialize.h; `want_distributions`
/// additionally computes each surviving row's full marginal.
struct EvalChainMsg {
  std::string table;
  QueryPtr query;
  bool want_distributions = false;

  std::string Encode() const;
  static bool Decode(const std::string& payload, EvalChainMsg* out);
};

/// Asks for P / full marginals of every row in the worker's partition of
/// `table` (batch tuple confidence, the gather side of TupleProbabilities).
struct TableProbsMsg {
  std::string table;
  bool want_distributions = false;

  std::string Encode() const;
  static bool Decode(const std::string& payload, TableProbsMsg* out);
};

/// Registers a worker-maintained chain view over `table`'s partition; the
/// worker keeps its part materialized and serves kViewProbs from its
/// per-shard step-two cache, mirroring in-process ShardedView.
struct RegisterChainViewMsg {
  std::string name;
  std::string table;
  QueryPtr query;

  std::string Encode() const;
  static bool Decode(const std::string& payload, RegisterChainViewMsg* out);
};

/// A request identified only by a name: kDropChainView and kViewProbs
/// (view name), kTableProbs uses its own struct above.
struct NameMsg {
  std::string name;

  std::string Encode() const;
  static bool Decode(const std::string& payload, NameMsg* out);
};

/// One surviving row of a distributed chain evaluation.
struct ChainRow {
  uint64_t global_row = 0;   ///< Provenance: driving row in global order.
  std::vector<Cell> cells;   ///< Projected cells (rowid column stripped).
  VarId var = 0;             ///< The row's annotation variable.
  double probability = 0.0;
  Distribution distribution;  ///< Empty unless want_distributions.
};

/// Reply to kEvalChain.
struct ChainResultMsg {
  Schema schema;
  std::vector<ChainRow> rows;

  std::string Encode() const;
  static bool Decode(const std::string& payload, ChainResultMsg* out);
};

/// One row's confidence in a kProbsResult.
struct ProbRow {
  uint64_t global_row = 0;
  double probability = 0.0;
  Distribution distribution;  ///< Empty unless want_distributions.
};

/// Reply to kTableProbs.
struct ProbsResultMsg {
  std::vector<ProbRow> rows;

  std::string Encode() const;
  static bool Decode(const std::string& payload, ProbsResultMsg* out);
};

/// Reply to kViewInfo (the `views` diagnostics line).
struct ViewInfoMsg {
  uint64_t rows = 0;
  uint64_t cache_entries = 0;

  std::string Encode() const;
  static bool Decode(const std::string& payload, ViewInfoMsg* out);
};

// ---------------------------------------------------------------------------
// Durability plane: per-worker evaluation options and WAL-shipping resync.
// ---------------------------------------------------------------------------

/// kSetOptions: mirrors the coordinator's intra-command parallelism knob
/// onto the worker (shell `threads`). Bit-identity is by construction —
/// parallel passes produce identical bytes — so this is never WAL-logged
/// or replayed; the coordinator re-sends it on respawn.
struct EvalOptionsMsg {
  uint32_t num_threads = 1;

  std::string Encode() const;
  static bool Decode(const std::string& payload, EvalOptionsMsg* out);
};

/// kReplayTail: asks a worker where its applied mutation stream ends. The
/// coordinator compares the reply (kTailInfo) against its in-memory
/// per-shard log; `base_lsn` is the first entry the coordinator can still
/// ship (older entries may have been dropped to bound memory).
struct ReplayTailMsg {
  uint64_t base_lsn = 0;

  std::string Encode() const;
  static bool Decode(const std::string& payload, ReplayTailMsg* out);
};

/// kTailInfo reply: the worker has applied mutations [0, lsn); `chain` is
/// the running CRC32C chain over every applied entry (kind byte + payload
/// digest), so a matching (lsn, chain) pair proves the worker's state is a
/// prefix of the coordinator's log and a tail replay suffices.
struct TailInfoMsg {
  uint64_t lsn = 0;
  uint32_t chain = 0;

  std::string Encode() const;
  static bool Decode(const std::string& payload, TailInfoMsg* out);
};

/// One logged mutation inside a kShipWal batch: the kind byte and the
/// exact payload bytes of the original request frame.
struct WalEntry {
  uint8_t kind = 0;
  std::string payload;
};

/// kShipWal: replays a contiguous run of logged mutations starting at
/// `first_lsn` (which must equal the worker's current lsn). The worker
/// applies each entry through the normal request dispatch and replies
/// kOk{new_lsn}; an lsn mismatch or a failing entry is a kError and the
/// coordinator falls back to kReset + full resync.
struct ShipWalMsg {
  uint64_t first_lsn = 0;
  std::vector<WalEntry> entries;

  std::string Encode() const;
  static bool Decode(const std::string& payload, ShipWalMsg* out);
};

// ---------------------------------------------------------------------------
// Health plane: heartbeats that double as durability-position probes.
// ---------------------------------------------------------------------------

/// kPing: one heartbeat. `nonce` is echoed back verbatim so a reply can be
/// matched to its request (a mismatched nonce means the one-request/
/// one-reply alignment was lost and the connection must be dropped). An
/// empty kPing payload is tolerated and treated as nonce 0, so a bare
/// liveness probe stays cheap.
struct PingMsg {
  uint64_t nonce = 0;

  std::string Encode() const;
  static bool Decode(const std::string& payload, PingMsg* out);
};

/// kPong reply: echoes the nonce and piggybacks the worker's applied
/// (lsn, chain) position — the same pair kTailInfo reports — so every
/// heartbeat is also a probe of how far the worker's mutation stream got.
/// Pings are pure observation: never WAL-logged, never advancing the
/// position they report.
struct PongMsg {
  uint64_t nonce = 0;
  uint64_t lsn = 0;
  uint32_t chain = 0;

  std::string Encode() const;
  static bool Decode(const std::string& payload, PongMsg* out);
};

// ---------------------------------------------------------------------------
// Observability plane.
// ---------------------------------------------------------------------------

/// kStatsReply: the worker's full metrics-registry snapshot (counters,
/// gauges, histograms). The request (kStatsRequest) has an empty payload.
/// Stats reads are pure observation: they are never WAL-logged and do not
/// advance the worker's (lsn, chain) position. The coordinator prefixes
/// each entry with "shard<N>." when aggregating, so per-shard counts stay
/// visible end to end.
struct StatsReplyMsg {
  std::vector<MetricSnapshot> entries;

  std::string Encode() const;
  static bool Decode(const std::string& payload, StatsReplyMsg* out);
};

// ---------------------------------------------------------------------------
// Generic replies and client traffic.
// ---------------------------------------------------------------------------

/// kOk reply; `value` is an optional request-specific scalar (e.g. the
/// worker-side row count after kLoadPartition, used as a sync check).
struct OkMsg {
  uint64_t value = 0;

  std::string Encode() const;
  static bool Decode(const std::string& payload, OkMsg* out);
};

/// kError reply.
struct ErrorMsg {
  std::string text;

  std::string Encode() const;
  static bool Decode(const std::string& payload, ErrorMsg* out);
};

/// kClientReply: `ok` is false when the command failed; `text` is the full
/// rendered output (possibly multi-line, no trailing newline).
struct ClientReplyMsg {
  bool ok = true;
  std::string text;

  std::string Encode() const;
  static bool Decode(const std::string& payload, ClientReplyMsg* out);
};

}  // namespace pvcdb

#endif  // PVCDB_NET_PROTOCOL_H_
