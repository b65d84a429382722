#include "src/query/serialize.h"

#include <utility>
#include <vector>

#include "src/util/check.h"

namespace pvcdb {
namespace {

constexpr uint8_t kOperandColumn = 0;
constexpr uint8_t kOperandConst = 1;

void EncodeOperand(std::string* out, const Operand& operand) {
  if (operand.kind() == Operand::Kind::kColumn) {
    EncodeU8(out, kOperandColumn);
    EncodeString(out, operand.column());
  } else {
    EncodeU8(out, kOperandConst);
    EncodeCell(out, operand.constant());
  }
}

Operand DecodeOperand(ByteReader* reader) {
  uint8_t tag = reader->ReadU8();
  if (tag == kOperandColumn) return Operand::Col(reader->ReadString());
  if (tag != kOperandConst) {
    reader->Fail();
    return Operand();
  }
  Cell cell = DecodeCell(reader);
  switch (cell.type()) {
    case CellType::kInt:
      return Operand::Int(cell.AsInt());
    case CellType::kDouble:
      return Operand::Double(cell.AsDouble());
    case CellType::kString:
      return Operand::Str(cell.AsString());
    case CellType::kNull:
      return Operand();  // A default-constructed (null-constant) operand.
    case CellType::kAggExpr:
      break;
  }
  reader->Fail();
  return Operand();
}

void EncodeColumns(std::string* out, const std::vector<std::string>& columns) {
  EncodeU32(out, static_cast<uint32_t>(columns.size()));
  for (const std::string& column : columns) EncodeString(out, column);
}

std::vector<std::string> DecodeColumns(ByteReader* reader) {
  uint32_t n = reader->ReadU32();
  std::vector<std::string> columns;
  if (n > reader->remaining()) {  // Each entry takes >= 4 bytes; cheap guard.
    reader->Fail();
    return columns;
  }
  columns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) columns.push_back(reader->ReadString());
  return columns;
}

}  // namespace

void EncodeCell(std::string* out, const Cell& cell) {
  EncodeU8(out, static_cast<uint8_t>(cell.type()));
  switch (cell.type()) {
    case CellType::kNull:
      return;
    case CellType::kInt:
      EncodeI64(out, cell.AsInt());
      return;
    case CellType::kDouble:
      EncodeDouble(out, cell.AsDouble());
      return;
    case CellType::kString:
      EncodeString(out, cell.AsString());
      return;
    case CellType::kAggExpr:
      break;
  }
  PVC_FAIL("aggregation-expression cells cannot be serialized");
}

Cell DecodeCell(ByteReader* reader) {
  uint8_t tag = reader->ReadU8();
  switch (static_cast<CellType>(tag)) {
    case CellType::kNull:
      return Cell();
    case CellType::kInt:
      return Cell(reader->ReadI64());
    case CellType::kDouble:
      return Cell(reader->ReadDouble());
    case CellType::kString:
      return Cell(reader->ReadString());
    case CellType::kAggExpr:
      break;
  }
  reader->Fail();
  return Cell();
}

void EncodePredicate(std::string* out, const Predicate& pred) {
  EncodeU32(out, static_cast<uint32_t>(pred.atoms().size()));
  for (const Atom& atom : pred.atoms()) {
    EncodeU8(out, static_cast<uint8_t>(atom.op));
    EncodeOperand(out, atom.lhs);
    EncodeOperand(out, atom.rhs);
  }
}

Predicate DecodePredicate(ByteReader* reader) {
  Predicate pred;
  uint32_t n = reader->ReadU32();
  if (n > reader->remaining()) {
    reader->Fail();
    return pred;
  }
  for (uint32_t i = 0; i < n; ++i) {
    Atom atom;
    uint8_t op = reader->ReadU8();
    if (op > static_cast<uint8_t>(CmpOp::kGt)) {
      reader->Fail();
      return pred;
    }
    atom.op = static_cast<CmpOp>(op);
    atom.lhs = DecodeOperand(reader);
    atom.rhs = DecodeOperand(reader);
    if (!reader->ok()) return pred;
    pred.And(std::move(atom));
  }
  return pred;
}

void EncodeQuery(std::string* out, const Query& query) {
  EncodeU8(out, static_cast<uint8_t>(query.op()));
  switch (query.op()) {
    case QueryOp::kScan:
      EncodeString(out, query.table_name());
      return;
    case QueryOp::kSelect:
      EncodePredicate(out, query.predicate());
      break;
    case QueryOp::kProject:
      EncodeColumns(out, query.columns());
      break;
    case QueryOp::kRename:
      EncodeString(out, query.rename_from());
      EncodeString(out, query.rename_to());
      break;
    case QueryOp::kProduct:
    case QueryOp::kUnion:
      break;
    case QueryOp::kGroupAgg:
      EncodeColumns(out, query.columns());
      EncodeU32(out, static_cast<uint32_t>(query.aggs().size()));
      for (const AggSpec& agg : query.aggs()) {
        EncodeU8(out, static_cast<uint8_t>(agg.agg));
        EncodeString(out, agg.input_column);
        EncodeString(out, agg.output_column);
      }
      break;
  }
  for (const QueryPtr& child : query.children()) EncodeQuery(out, *child);
}

QueryPtr DecodeQuery(ByteReader* reader) {
  uint8_t tag = reader->ReadU8();
  if (!reader->ok()) return nullptr;
  switch (static_cast<QueryOp>(tag)) {
    case QueryOp::kScan:
      return Query::Scan(reader->ReadString());
    case QueryOp::kSelect: {
      Predicate pred = DecodePredicate(reader);
      QueryPtr child = DecodeQuery(reader);
      if (child == nullptr) return nullptr;
      return Query::Select(std::move(child), std::move(pred));
    }
    case QueryOp::kProject: {
      std::vector<std::string> columns = DecodeColumns(reader);
      QueryPtr child = DecodeQuery(reader);
      if (child == nullptr) return nullptr;
      return Query::Project(std::move(child), std::move(columns));
    }
    case QueryOp::kRename: {
      std::string from = reader->ReadString();
      std::string to = reader->ReadString();
      QueryPtr child = DecodeQuery(reader);
      if (child == nullptr) return nullptr;
      return Query::Rename(std::move(child), std::move(from), std::move(to));
    }
    case QueryOp::kProduct:
    case QueryOp::kUnion: {
      QueryPtr left = DecodeQuery(reader);
      QueryPtr right = left == nullptr ? nullptr : DecodeQuery(reader);
      if (right == nullptr) return nullptr;
      return static_cast<QueryOp>(tag) == QueryOp::kProduct
                 ? Query::Product(std::move(left), std::move(right))
                 : Query::Union(std::move(left), std::move(right));
    }
    case QueryOp::kGroupAgg: {
      std::vector<std::string> group_columns = DecodeColumns(reader);
      uint32_t n = reader->ReadU32();
      if (n > reader->remaining()) {
        reader->Fail();
        return nullptr;
      }
      std::vector<AggSpec> aggs;
      aggs.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        AggSpec spec;
        uint8_t agg = reader->ReadU8();
        // PROD is the last query-level kind; the lifted kinds after it
        // exist only inside step II and never travel.
        if (agg > static_cast<uint8_t>(AggKind::kProd)) {
          reader->Fail();
          return nullptr;
        }
        spec.agg = static_cast<AggKind>(agg);
        spec.input_column = reader->ReadString();
        spec.output_column = reader->ReadString();
        aggs.push_back(std::move(spec));
      }
      QueryPtr child = DecodeQuery(reader);
      if (child == nullptr || !reader->ok()) return nullptr;
      return Query::GroupAgg(std::move(child), std::move(group_columns),
                             std::move(aggs));
    }
  }
  reader->Fail();
  return nullptr;
}

void EncodeCells(std::string* out, const std::vector<Cell>& cells) {
  EncodeU32(out, static_cast<uint32_t>(cells.size()));
  for (const Cell& cell : cells) EncodeCell(out, cell);
}

std::vector<Cell> DecodeCells(ByteReader* reader) {
  uint32_t n = reader->ReadU32();
  std::vector<Cell> cells;
  if (n > reader->remaining()) {  // Each cell takes >= 1 byte; cheap guard.
    reader->Fail();
    return cells;
  }
  cells.reserve(n);
  for (uint32_t i = 0; i < n; ++i) cells.push_back(DecodeCell(reader));
  if (!reader->ok()) cells.clear();
  return cells;
}

void EncodeSchema(std::string* out, const Schema& schema) {
  EncodeU32(out, static_cast<uint32_t>(schema.NumColumns()));
  for (const Column& column : schema.columns()) {
    EncodeString(out, column.name);
    EncodeU8(out, static_cast<uint8_t>(column.type));
  }
}

Schema DecodeSchema(ByteReader* reader) {
  uint32_t n = reader->ReadU32();
  if (n > reader->remaining()) {
    reader->Fail();
    return Schema();
  }
  std::vector<Column> columns;
  columns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Column column;
    column.name = reader->ReadString();
    uint8_t type = reader->ReadU8();
    if (type > static_cast<uint8_t>(CellType::kAggExpr)) {
      reader->Fail();
      return Schema();
    }
    column.type = static_cast<CellType>(type);
    columns.push_back(std::move(column));
  }
  if (!reader->ok()) return Schema();
  return Schema(std::move(columns));
}

void EncodeDistribution(std::string* out, const Distribution& d) {
  EncodeU32(out, static_cast<uint32_t>(d.entries().size()));
  for (const auto& [value, p] : d.entries()) {
    EncodeI64(out, value);
    EncodeDouble(out, p);
  }
}

Distribution DecodeDistribution(ByteReader* reader) {
  uint32_t n = reader->ReadU32();
  if (n > reader->remaining()) {
    reader->Fail();
    return Distribution();
  }
  std::vector<Distribution::Entry> entries;
  entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int64_t value = reader->ReadI64();
    double p = reader->ReadDouble();
    entries.emplace_back(value, p);
  }
  // entries() is canonical (sorted, zero-mass dropped), so FromPairs is the
  // identity on a round-trip and the decoded marginal is bit-identical.
  return Distribution::FromPairs(std::move(entries));
}

}  // namespace pvcdb
