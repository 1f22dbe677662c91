#include "exec/write_binding.h"

#include "exec/expression.h"

namespace synergy::exec {

std::vector<Value> BoundWrite::PkValues() const {
  std::vector<Value> pk;
  pk.reserve(layout->pk_slots.size());
  for (const int slot : layout->pk_slots) {
    pk.push_back(row[static_cast<size_t>(slot)]);
  }
  return pk;
}

std::string BoundWrite::WriteKey() const {
  std::string key = relation + "/";
  EncodeSlots(row, layout->pk_slots, &key);
  return key;
}

StatusOr<BoundWrite> BindWriteStatement(const sql::Statement& bound_stmt,
                                        const sql::Catalog& catalog) {
  const auto* ins = std::get_if<sql::InsertStatement>(&bound_stmt);
  const auto* upd = std::get_if<sql::UpdateStatement>(&bound_stmt);
  const auto* del = std::get_if<sql::DeleteStatement>(&bound_stmt);
  if (ins == nullptr && upd == nullptr && del == nullptr) {
    return Status::InvalidArgument("not a write statement");
  }
  BoundWrite out;
  out.kind = ins != nullptr   ? BoundWrite::Kind::kInsert
             : upd != nullptr ? BoundWrite::Kind::kUpdate
                              : BoundWrite::Kind::kDelete;
  out.relation = ins != nullptr   ? ins->table
                 : upd != nullptr ? upd->table
                                  : del->table;
  const sql::RelationDef* rel = catalog.FindRelation(out.relation);
  if (rel == nullptr) return Status::NotFound("relation " + out.relation);
  out.layout = catalog.FindWriteLayout(out.relation);
  out.row.resize(rel->columns.size());
  auto slot_of = [&](const std::string& column) -> StatusOr<size_t> {
    const int slot = rel->ColumnIndex(column);
    if (slot < 0) {
      return Status::InvalidArgument("unknown column " + column +
                                     " of relation " + out.relation);
    }
    return static_cast<size_t>(slot);
  };

  if (ins != nullptr) {
    for (size_t i = 0; i < ins->columns.size(); ++i) {
      SYNERGY_ASSIGN_OR_RETURN(slot, slot_of(ins->columns[i]));
      SYNERGY_ASSIGN_OR_RETURN(v, ResolveConstOperand(ins->values[i], {}));
      if (!v.is_null()) out.row[slot] = std::move(v);
    }
    for (size_t i = 0; i < rel->primary_key.size(); ++i) {
      if (out.row[static_cast<size_t>(out.layout->pk_slots[i])].is_null()) {
        return Status::InvalidArgument("NULL or missing PK column " +
                                       rel->primary_key[i] + " for relation " +
                                       out.relation);
      }
    }
    return out;
  }
  const std::vector<sql::Predicate>& where =
      upd != nullptr ? upd->where : del->where;
  if (upd != nullptr) {
    for (const auto& [col, op] : upd->assignments) {
      SYNERGY_ASSIGN_OR_RETURN(slot, slot_of(col));
      if (rel->IsPrimaryKeyColumn(col)) {
        return Status::InvalidArgument("cannot update PK column " + col +
                                       " of relation " + out.relation);
      }
      SYNERGY_ASSIGN_OR_RETURN(v, ResolveConstOperand(op, {}));
      out.sets.emplace_back(static_cast<int>(slot), std::move(v));
    }
  }
  for (size_t i = 0; i < rel->primary_key.size(); ++i) {
    const std::string& pk = rel->primary_key[i];
    bool found = false;
    for (const sql::Predicate& p : where) {
      if (p.op != sql::CompareOp::kEq) continue;
      const sql::Operand* col_side = nullptr;
      const sql::Operand* val_side = nullptr;
      if (p.lhs.kind == sql::Operand::Kind::kColumn) {
        col_side = &p.lhs;
        val_side = &p.rhs;
      } else if (p.rhs.kind == sql::Operand::Kind::kColumn) {
        col_side = &p.rhs;
        val_side = &p.lhs;
      }
      if (col_side != nullptr && col_side->column.column == pk &&
          val_side->kind != sql::Operand::Kind::kColumn) {
        SYNERGY_ASSIGN_OR_RETURN(v, ResolveConstOperand(*val_side, {}));
        out.row[static_cast<size_t>(out.layout->pk_slots[i])] = std::move(v);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Unimplemented(
          "write statements must specify all key attributes (relation " +
          out.relation + ", missing " + pk + ")");
    }
  }
  return out;
}

}  // namespace synergy::exec
