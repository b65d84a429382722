#include "src/net/protocol.h"

#include <utility>

#include "src/query/serialize.h"
#include "src/util/codec.h"

namespace pvcdb {
namespace {

// Shared guard for "count of at-least-one-byte items" length fields: a
// corrupted count larger than the remaining bytes fails fast instead of
// looping (and reserving) on garbage.
bool PlausibleCount(ByteReader* reader, uint32_t n) {
  if (static_cast<size_t>(n) > reader->remaining()) {
    reader->Fail();
    return false;
  }
  return true;
}

}  // namespace

std::string HelloMsg::Encode() const {
  std::string out;
  EncodeU32(&out, version);
  EncodeU8(&out, static_cast<uint8_t>(semiring));
  EncodeU32(&out, shard_index);
  EncodeU32(&out, num_shards);
  return out;
}

bool HelloMsg::Decode(const std::string& payload, HelloMsg* out) {
  ByteReader reader(payload);
  out->version = reader.ReadU32();
  uint8_t semiring = reader.ReadU8();
  if (semiring > static_cast<uint8_t>(SemiringKind::kNatural)) return false;
  out->semiring = static_cast<SemiringKind>(semiring);
  out->shard_index = reader.ReadU32();
  out->num_shards = reader.ReadU32();
  return reader.ok() && reader.AtEnd();
}

std::string SyncVarsMsg::Encode() const {
  std::string out;
  EncodeU32(&out, first_id);
  EncodeU32(&out, static_cast<uint32_t>(entries.size()));
  for (const VarSyncEntry& entry : entries) {
    EncodeString(&out, entry.name);
    EncodeDistribution(&out, entry.distribution);
  }
  return out;
}

bool SyncVarsMsg::Decode(const std::string& payload, SyncVarsMsg* out) {
  ByteReader reader(payload);
  out->first_id = reader.ReadU32();
  uint32_t n = reader.ReadU32();
  if (!PlausibleCount(&reader, n)) return false;
  out->entries.clear();
  out->entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    VarSyncEntry entry;
    entry.name = reader.ReadString();
    entry.distribution = DecodeDistribution(&reader);
    out->entries.push_back(std::move(entry));
  }
  return reader.ok() && reader.AtEnd();
}

std::string UpdateVarMsg::Encode() const {
  std::string out;
  EncodeU32(&out, var);
  EncodeDouble(&out, probability);
  return out;
}

bool UpdateVarMsg::Decode(const std::string& payload, UpdateVarMsg* out) {
  ByteReader reader(payload);
  out->var = reader.ReadU32();
  out->probability = reader.ReadDouble();
  return reader.ok() && reader.AtEnd();
}

std::string LoadPartitionMsg::Encode() const {
  std::string out;
  EncodeString(&out, table);
  EncodeString(&out, key_column);
  EncodeSchema(&out, schema);
  EncodeU64(&out, rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EncodeCells(&out, rows[i]);
    EncodeU32(&out, vars[i]);
  }
  return out;
}

bool LoadPartitionMsg::Decode(const std::string& payload,
                              LoadPartitionMsg* out) {
  ByteReader reader(payload);
  out->table = reader.ReadString();
  out->key_column = reader.ReadString();
  out->schema = DecodeSchema(&reader);
  uint64_t n = reader.ReadU64();
  if (n > reader.remaining()) return false;
  out->rows.clear();
  out->vars.clear();
  out->rows.reserve(n);
  out->vars.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    out->rows.push_back(DecodeCells(&reader));
    out->vars.push_back(reader.ReadU32());
  }
  return reader.ok() && reader.AtEnd();
}

std::string AppendRowMsg::Encode() const {
  std::string out;
  EncodeString(&out, table);
  EncodeCells(&out, cells);
  EncodeU32(&out, var);
  return out;
}

bool AppendRowMsg::Decode(const std::string& payload, AppendRowMsg* out) {
  ByteReader reader(payload);
  out->table = reader.ReadString();
  out->cells = DecodeCells(&reader);
  out->var = reader.ReadU32();
  return reader.ok() && reader.AtEnd();
}

std::string DeleteRowMsg::Encode() const {
  std::string out;
  EncodeString(&out, table);
  EncodeU32(&out, var);
  return out;
}

bool DeleteRowMsg::Decode(const std::string& payload, DeleteRowMsg* out) {
  ByteReader reader(payload);
  out->table = reader.ReadString();
  out->var = reader.ReadU32();
  return reader.ok() && reader.AtEnd();
}

std::string EvalChainMsg::Encode() const {
  std::string out;
  EncodeString(&out, table);
  EncodeU8(&out, want_distributions ? 1 : 0);
  EncodeQuery(&out, *query);
  return out;
}

bool EvalChainMsg::Decode(const std::string& payload, EvalChainMsg* out) {
  ByteReader reader(payload);
  out->table = reader.ReadString();
  uint8_t flag = reader.ReadU8();
  if (flag > 1) return false;
  out->want_distributions = flag == 1;
  out->query = DecodeQuery(&reader);
  return out->query != nullptr && reader.ok() && reader.AtEnd();
}

std::string RegisterChainViewMsg::Encode() const {
  std::string out;
  EncodeString(&out, name);
  EncodeString(&out, table);
  EncodeQuery(&out, *query);
  return out;
}

bool RegisterChainViewMsg::Decode(const std::string& payload,
                                  RegisterChainViewMsg* out) {
  ByteReader reader(payload);
  out->name = reader.ReadString();
  out->table = reader.ReadString();
  out->query = DecodeQuery(&reader);
  return out->query != nullptr && reader.ok() && reader.AtEnd();
}

std::string NameMsg::Encode() const {
  std::string out;
  EncodeString(&out, name);
  return out;
}

bool NameMsg::Decode(const std::string& payload, NameMsg* out) {
  ByteReader reader(payload);
  out->name = reader.ReadString();
  return reader.ok() && reader.AtEnd();
}

std::string ChainResultMsg::Encode() const {
  std::string out;
  EncodeSchema(&out, schema);
  EncodeU64(&out, rows.size());
  for (const ChainRow& row : rows) {
    EncodeCells(&out, row.cells);
    EncodeU32(&out, row.var);
    EncodeDouble(&out, row.probability);
    EncodeDistribution(&out, row.distribution);
  }
  return out;
}

bool ChainResultMsg::Decode(const std::string& payload, ChainResultMsg* out) {
  ByteReader reader(payload);
  out->schema = DecodeSchema(&reader);
  uint64_t n = reader.ReadU64();
  if (n > reader.remaining()) return false;
  out->rows.clear();
  out->rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ChainRow row;
    row.cells = DecodeCells(&reader);
    row.var = reader.ReadU32();
    row.probability = reader.ReadDouble();
    row.distribution = DecodeDistribution(&reader);
    out->rows.push_back(std::move(row));
  }
  return reader.ok() && reader.AtEnd();
}

std::string ViewInfoMsg::Encode() const {
  std::string out;
  EncodeU64(&out, rows);
  EncodeU64(&out, cache_entries);
  return out;
}

bool ViewInfoMsg::Decode(const std::string& payload, ViewInfoMsg* out) {
  ByteReader reader(payload);
  out->rows = reader.ReadU64();
  out->cache_entries = reader.ReadU64();
  return reader.ok() && reader.AtEnd();
}

std::string EvalOptionsMsg::Encode() const {
  std::string out;
  EncodeU32(&out, num_threads);
  return out;
}

bool EvalOptionsMsg::Decode(const std::string& payload, EvalOptionsMsg* out) {
  ByteReader reader(payload);
  out->num_threads = reader.ReadU32();
  return reader.ok() && reader.AtEnd();
}

std::string ReplayTailMsg::Encode() const {
  std::string out;
  EncodeU64(&out, base_lsn);
  return out;
}

bool ReplayTailMsg::Decode(const std::string& payload, ReplayTailMsg* out) {
  ByteReader reader(payload);
  out->base_lsn = reader.ReadU64();
  return reader.ok() && reader.AtEnd();
}

std::string TailInfoMsg::Encode() const {
  std::string out;
  EncodeU64(&out, lsn);
  EncodeU32(&out, chain);
  return out;
}

bool TailInfoMsg::Decode(const std::string& payload, TailInfoMsg* out) {
  ByteReader reader(payload);
  out->lsn = reader.ReadU64();
  out->chain = reader.ReadU32();
  return reader.ok() && reader.AtEnd();
}

std::string PingMsg::Encode() const {
  std::string out;
  EncodeU64(&out, nonce);
  return out;
}

bool PingMsg::Decode(const std::string& payload, PingMsg* out) {
  // A bare liveness probe: empty payload means nonce 0.
  if (payload.empty()) {
    out->nonce = 0;
    return true;
  }
  ByteReader reader(payload);
  out->nonce = reader.ReadU64();
  return reader.ok() && reader.AtEnd();
}

std::string PongMsg::Encode() const {
  std::string out;
  EncodeU64(&out, nonce);
  EncodeU64(&out, lsn);
  EncodeU32(&out, chain);
  return out;
}

bool PongMsg::Decode(const std::string& payload, PongMsg* out) {
  ByteReader reader(payload);
  out->nonce = reader.ReadU64();
  out->lsn = reader.ReadU64();
  out->chain = reader.ReadU32();
  return reader.ok() && reader.AtEnd();
}

std::string ShipWalMsg::Encode() const {
  std::string out;
  EncodeU64(&out, first_lsn);
  EncodeU32(&out, static_cast<uint32_t>(entries.size()));
  for (const WalEntry& entry : entries) {
    EncodeU8(&out, entry.kind);
    EncodeString(&out, entry.payload);
  }
  return out;
}

bool ShipWalMsg::Decode(const std::string& payload, ShipWalMsg* out) {
  ByteReader reader(payload);
  out->first_lsn = reader.ReadU64();
  uint32_t n = reader.ReadU32();
  if (!PlausibleCount(&reader, n)) return false;
  out->entries.clear();
  out->entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WalEntry entry;
    entry.kind = reader.ReadU8();
    entry.payload = reader.ReadString();
    out->entries.push_back(std::move(entry));
  }
  return reader.ok() && reader.AtEnd();
}

std::string StatsReplyMsg::Encode() const {
  std::string out;
  EncodeU32(&out, static_cast<uint32_t>(entries.size()));
  for (const MetricSnapshot& entry : entries) {
    EncodeU8(&out, static_cast<uint8_t>(entry.kind));
    EncodeString(&out, entry.name);
    switch (entry.kind) {
      case MetricSnapshot::Kind::kCounter:
        EncodeU64(&out, entry.counter_value);
        break;
      case MetricSnapshot::Kind::kGauge:
        EncodeI64(&out, entry.gauge_value);
        break;
      case MetricSnapshot::Kind::kHistogram: {
        EncodeU32(&out, static_cast<uint32_t>(entry.bounds.size()));
        for (double bound : entry.bounds) EncodeDouble(&out, bound);
        // bucket_counts has one extra slot for the overflow bucket.
        for (uint64_t count : entry.bucket_counts) EncodeU64(&out, count);
        EncodeU64(&out, entry.observations);
        EncodeDouble(&out, entry.sum);
        break;
      }
    }
  }
  return out;
}

bool StatsReplyMsg::Decode(const std::string& payload, StatsReplyMsg* out) {
  ByteReader reader(payload);
  uint32_t n = reader.ReadU32();
  if (!PlausibleCount(&reader, n)) return false;
  out->entries.clear();
  out->entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    MetricSnapshot entry;
    uint8_t kind = reader.ReadU8();
    if (kind > static_cast<uint8_t>(MetricSnapshot::Kind::kHistogram)) return false;
    entry.kind = static_cast<MetricSnapshot::Kind>(kind);
    entry.name = reader.ReadString();
    switch (entry.kind) {
      case MetricSnapshot::Kind::kCounter:
        entry.counter_value = reader.ReadU64();
        break;
      case MetricSnapshot::Kind::kGauge:
        entry.gauge_value = reader.ReadI64();
        break;
      case MetricSnapshot::Kind::kHistogram: {
        uint32_t n_bounds = reader.ReadU32();
        if (!PlausibleCount(&reader, n_bounds)) return false;
        entry.bounds.resize(n_bounds);
        for (uint32_t b = 0; b < n_bounds; ++b) {
          entry.bounds[b] = reader.ReadDouble();
        }
        entry.bucket_counts.resize(n_bounds + 1);
        for (uint32_t b = 0; b < n_bounds + 1; ++b) {
          entry.bucket_counts[b] = reader.ReadU64();
        }
        entry.observations = reader.ReadU64();
        entry.sum = reader.ReadDouble();
        break;
      }
    }
    if (!reader.ok()) return false;
    out->entries.push_back(std::move(entry));
  }
  return reader.ok() && reader.AtEnd();
}

std::string OkMsg::Encode() const {
  std::string out;
  EncodeU64(&out, value);
  return out;
}

bool OkMsg::Decode(const std::string& payload, OkMsg* out) {
  ByteReader reader(payload);
  out->value = reader.ReadU64();
  return reader.ok() && reader.AtEnd();
}

std::string ErrorMsg::Encode() const {
  std::string out;
  EncodeString(&out, text);
  return out;
}

bool ErrorMsg::Decode(const std::string& payload, ErrorMsg* out) {
  ByteReader reader(payload);
  out->text = reader.ReadString();
  return reader.ok() && reader.AtEnd();
}

std::string ClientReplyMsg::Encode() const {
  std::string out;
  EncodeU8(&out, ok ? 1 : 0);
  EncodeString(&out, text);
  return out;
}

bool ClientReplyMsg::Decode(const std::string& payload, ClientReplyMsg* out) {
  ByteReader reader(payload);
  uint8_t flag = reader.ReadU8();
  if (flag > 1) return false;
  out->ok = flag == 1;
  out->text = reader.ReadString();
  return reader.ok() && reader.AtEnd();
}

}  // namespace pvcdb
