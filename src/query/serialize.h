// Binary serialization of Q query trees, predicates, constant cells,
// schemas and distributions, used by the durability layer
// (src/engine/wal.h, src/engine/snapshot.h) to persist registered views and
// table rows, and by the serving wire protocol (src/net/protocol.h) to ship
// plans, partitions and deltas between the coordinator and shard worker
// processes.
//
// The encoding is a pre-order walk of the query tree using the codec in
// src/util/codec.h. Decoding rebuilds the tree through the public Query
// factories, so every decoded query satisfies the same invariants as one
// built in-process. Round-tripping is exact: ToString() of the decoded tree
// equals ToString() of the original (covered by tests/wal_test.cc), and
// doubles travel as IEEE-754 bit patterns, so decoded distributions are
// bit-identical — the foundation of the serving layer's bit-identity
// contract (tests/serve_e2e_test.cc).

#ifndef PVCDB_QUERY_SERIALIZE_H_
#define PVCDB_QUERY_SERIALIZE_H_

#include <string>
#include <vector>

#include "src/prob/distribution.h"
#include "src/query/ast.h"
#include "src/table/cell.h"
#include "src/table/schema.h"
#include "src/util/codec.h"

namespace pvcdb {

/// Appends the encoding of a constant cell (kNull/kInt/kDouble/kString).
/// Aggregation-expression cells reference an ExprPool and cannot be
/// persisted standalone; encountering one fails a PVC_CHECK.
void EncodeCell(std::string* out, const Cell& cell);

/// Decodes a cell written by EncodeCell. On malformed input the reader is
/// failed and a null cell returned.
Cell DecodeCell(ByteReader* reader);

/// Appends the encoding of `pred`.
void EncodePredicate(std::string* out, const Predicate& pred);

/// Decodes a predicate written by EncodePredicate.
Predicate DecodePredicate(ByteReader* reader);

/// Appends the encoding of the query tree rooted at `query`.
void EncodeQuery(std::string* out, const Query& query);

/// Decodes a query tree written by EncodeQuery; nullptr (and a failed
/// reader) on malformed input.
QueryPtr DecodeQuery(ByteReader* reader);

/// Appends the encoding of a full row of cells (u32 count + each cell).
void EncodeCells(std::string* out, const std::vector<Cell>& cells);

/// Decodes a row written by EncodeCells; empty (and a failed reader) on
/// malformed input.
std::vector<Cell> DecodeCells(ByteReader* reader);

/// Appends the encoding of `schema` (column names + types).
void EncodeSchema(std::string* out, const Schema& schema);

/// Decodes a schema written by EncodeSchema; an empty schema (and a failed
/// reader) on malformed input, including two columns of the same name.
Schema DecodeSchema(ByteReader* reader);

/// Appends the encoding of a finite distribution (value/probability pairs;
/// probabilities as IEEE-754 bit patterns, so round-trips are bit-exact).
void EncodeDistribution(std::string* out, const Distribution& d);

/// Decodes a distribution written by EncodeDistribution.
Distribution DecodeDistribution(ByteReader* reader);

}  // namespace pvcdb

#endif  // PVCDB_QUERY_SERIALIZE_H_
