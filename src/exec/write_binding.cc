#include "exec/write_binding.h"

#include "exec/expression.h"

namespace synergy::exec {

std::string BoundWrite::WriteKey(const sql::Catalog& catalog) const {
  if (kind == Kind::kInsert) {
    const sql::RelationDef* rel = catalog.FindRelation(relation);
    if (rel != nullptr) {
      StatusOr<std::string> key = EncodePkKey(*rel, tuple);
      if (key.ok()) return relation + "/" + *key;
    }
    return relation + "/?";
  }
  return relation + "/" + EncodePkKeyFromValues(pk_values);
}

StatusOr<BoundWrite> BindWriteStatement(const sql::Statement& bound_stmt,
                                        const sql::Catalog& catalog) {
  BoundWrite out;
  if (const auto* ins = std::get_if<sql::InsertStatement>(&bound_stmt)) {
    out.kind = BoundWrite::Kind::kInsert;
    out.relation = ins->table;
    const sql::RelationDef* rel = catalog.FindRelation(ins->table);
    if (rel == nullptr) return Status::NotFound("relation " + ins->table);
    for (size_t i = 0; i < ins->columns.size(); ++i) {
      if (!rel->HasColumn(ins->columns[i])) {
        return Status::InvalidArgument("unknown column " + ins->columns[i] +
                                       " of relation " + ins->table);
      }
      SYNERGY_ASSIGN_OR_RETURN(v, ResolveConstOperand(ins->values[i], {}));
      if (!v.is_null()) out.tuple[ins->columns[i]] = std::move(v);
    }
    return out;
  }
  const std::vector<sql::Predicate>* where = nullptr;
  if (const auto* upd = std::get_if<sql::UpdateStatement>(&bound_stmt)) {
    out.kind = BoundWrite::Kind::kUpdate;
    out.relation = upd->table;
    where = &upd->where;
    for (const auto& [col, op] : upd->assignments) {
      SYNERGY_ASSIGN_OR_RETURN(v, ResolveConstOperand(op, {}));
      out.sets.emplace_back(col, std::move(v));
    }
  } else if (const auto* del = std::get_if<sql::DeleteStatement>(&bound_stmt)) {
    out.kind = BoundWrite::Kind::kDelete;
    out.relation = del->table;
    where = &del->where;
  } else {
    return Status::InvalidArgument("not a write statement");
  }
  const sql::RelationDef* rel = catalog.FindRelation(out.relation);
  if (rel == nullptr) return Status::NotFound("relation " + out.relation);
  for (const std::string& pk : rel->primary_key) {
    bool found = false;
    for (const sql::Predicate& p : *where) {
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
        out.pk_values.push_back(std::move(v));
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
