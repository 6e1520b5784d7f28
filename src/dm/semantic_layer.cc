#include "dm/semantic_layer.h"

#include "core/strings.h"

namespace hedc::dm {

namespace {

HleRecord HleFromRow(const db::ResultSet& rs, size_t row) {
  HleRecord r;
  r.hle_id = rs.Get(row, "hle_id").AsInt();
  r.owner_id = rs.Get(row, "owner_id").AsInt();
  r.is_public = rs.Get(row, "is_public").AsBool();
  r.event_type = rs.Get(row, "event_type").AsText();
  r.t_start = rs.Get(row, "t_start").AsReal();
  r.t_end = rs.Get(row, "t_end").AsReal();
  r.e_min = rs.Get(row, "e_min").AsReal();
  r.e_max = rs.Get(row, "e_max").AsReal();
  r.peak_rate = rs.Get(row, "peak_rate").AsReal();
  r.peak_energy = rs.Get(row, "peak_energy").AsReal();
  r.photon_count = rs.Get(row, "photon_count").AsInt();
  r.unit_id = rs.Get(row, "unit_id").AsInt();
  r.calibration_version =
      static_cast<int>(rs.Get(row, "calibration_version").AsInt());
  r.version = static_cast<int>(rs.Get(row, "version").AsInt());
  r.superseded_by = rs.Get(row, "superseded_by").AsInt();
  r.label = rs.Get(row, "label").AsText();
  r.notes = rs.Get(row, "notes").AsText();
  r.created_time = rs.Get(row, "created_time").AsReal();
  r.source = rs.Get(row, "source").AsText();
  r.quality = rs.Get(row, "quality").AsReal();
  return r;
}

AnaRecord AnaFromRow(const db::ResultSet& rs, size_t row) {
  AnaRecord r;
  r.ana_id = rs.Get(row, "ana_id").AsInt();
  r.hle_id = rs.Get(row, "hle_id").AsInt();
  r.owner_id = rs.Get(row, "owner_id").AsInt();
  r.is_public = rs.Get(row, "is_public").AsBool();
  r.routine = rs.Get(row, "routine").AsText();
  r.parameters = rs.Get(row, "parameters").AsText();
  r.param_hash = rs.Get(row, "param_hash").AsInt();
  r.status = rs.Get(row, "status").AsText();
  r.quality = rs.Get(row, "quality").AsReal();
  r.t_start = rs.Get(row, "t_start").AsReal();
  r.t_end = rs.Get(row, "t_end").AsReal();
  r.e_min = rs.Get(row, "e_min").AsReal();
  r.e_max = rs.Get(row, "e_max").AsReal();
  r.photon_count = rs.Get(row, "photon_count").AsInt();
  r.image_bytes = rs.Get(row, "image_bytes").AsInt();
  r.log_excerpt = rs.Get(row, "log_excerpt").AsText();
  r.calibration_version =
      static_cast<int>(rs.Get(row, "calibration_version").AsInt());
  r.version = static_cast<int>(rs.Get(row, "version").AsInt());
  r.superseded_by = rs.Get(row, "superseded_by").AsInt();
  r.created_time = rs.Get(row, "created_time").AsReal();
  r.duration_ms = rs.Get(row, "duration_ms").AsReal();
  r.peak_value = rs.Get(row, "peak_value").AsReal();
  r.pixels = rs.Get(row, "pixels").AsInt();
  r.notes = rs.Get(row, "notes").AsText();
  return r;
}

CatalogRecord CatalogFromRow(const db::ResultSet& rs, size_t row) {
  CatalogRecord r;
  r.catalog_id = rs.Get(row, "catalog_id").AsInt();
  r.owner_id = rs.Get(row, "owner_id").AsInt();
  r.is_public = rs.Get(row, "is_public").AsBool();
  r.name = rs.Get(row, "name").AsText();
  r.description = rs.Get(row, "description").AsText();
  r.created_time = rs.Get(row, "created_time").AsReal();
  return r;
}

// Seeds an id generator past the current MAX(column) so multiple DM
// nodes sharing one DBMS do not collide.
void SeedIds(IoLayer* io, const std::string& table,
             const std::string& column, IdGenerator* ids) {
  Result<db::ResultSet> rs =
      io->DatabaseFor(table)->Execute("SELECT MAX(" + column + ") FROM " +
                                      table);
  if (rs.ok() && !rs.value().rows.empty()) {
    ids->AdvancePast(rs.value().rows[0][0].AsInt());
  }
}

}  // namespace

SemanticLayer::SemanticLayer(IoLayer* io, Clock* clock)
    : io_(io), clock_(clock) {
  SeedIds(io_, "hle", "hle_id", &hle_ids_);
  SeedIds(io_, "ana", "ana_id", &ana_ids_);
  SeedIds(io_, "catalogs", "catalog_id", &catalog_ids_);
  SeedIds(io_, "catalog_members", "member_id", &member_ids_);
  SeedIds(io_, "lineage", "lineage_id", &lineage_ids_);
}

double SemanticLayer::NowSeconds() const {
  return static_cast<double>(clock_->Now()) / kMicrosPerSecond;
}

Status SemanticLayer::RequireOwnership(const Session& session,
                                       int64_t owner_id) {
  if (session.profile.is_super || session.profile.user_id == owner_id) {
    return Status::Ok();
  }
  return Status::PermissionDenied("only the owner may modify this entity");
}

int64_t SemanticLayer::HashParams(const std::string& routine,
                                  const std::string& canonical_params) {
  uint64_t h = 1469598103934665603ull;
  for (char c : routine) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= '|';
  h *= 1099511628211ull;
  for (char c : canonical_params) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<int64_t>(h & 0x7fffffffffffffffull);
}

Result<int64_t> SemanticLayer::CreateHle(const Session& session,
                                         HleRecord record) {
  record.hle_id = hle_ids_.Next();
  record.owner_id = session.profile.user_id;
  if (record.created_time == 0) record.created_time = NowSeconds();
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update(
          "hle",
          "INSERT INTO hle VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
          "?, ?, ?, ?, ?, ?, ?)",
          {db::Value::Int(record.hle_id), db::Value::Int(record.owner_id),
           db::Value::Bool(record.is_public),
           db::Value::Text(record.event_type),
           db::Value::Real(record.t_start), db::Value::Real(record.t_end),
           db::Value::Real(record.e_min), db::Value::Real(record.e_max),
           db::Value::Real(record.peak_rate),
           db::Value::Real(record.peak_energy),
           db::Value::Int(record.photon_count),
           db::Value::Int(record.unit_id),
           db::Value::Int(record.calibration_version),
           db::Value::Int(record.version),
           db::Value::Int(record.superseded_by),
           db::Value::Text(record.label), db::Value::Text(record.notes),
           db::Value::Real(record.created_time),
           db::Value::Text(record.source),
           db::Value::Real(record.quality)}));
  (void)r;
  return record.hle_id;
}

Result<HleRecord> SemanticLayer::GetHle(const Session& session,
                                        int64_t hle_id) {
  QuerySpec spec("hle");
  spec.Where("hle_id", CondOp::kEq, db::Value::Int(hle_id))
      .VisibleTo(session.profile);
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  // An invisible HLE is indistinguishable from an absent one (§5.3).
  if (rs.rows.empty()) {
    return Status::NotFound(StrFormat("HLE %lld",
                                      static_cast<long long>(hle_id)));
  }
  return HleFromRow(rs, 0);
}

Result<std::vector<HleRecord>> SemanticLayer::ListHles(
    const Session& session, double t_lo, double t_hi, int64_t limit) {
  QuerySpec spec("hle");
  spec.Where("t_start", CondOp::kGe, db::Value::Real(t_lo))
      .Where("t_start", CondOp::kLe, db::Value::Real(t_hi))
      .OrderBy("t_start")
      .VisibleTo(session.profile);
  if (limit >= 0) spec.Limit(limit);
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  std::vector<HleRecord> out;
  out.reserve(rs.num_rows());
  for (size_t i = 0; i < rs.num_rows(); ++i) out.push_back(HleFromRow(rs, i));
  return out;
}

Status SemanticLayer::SetHlePublic(const Session& session, int64_t hle_id,
                                   bool value) {
  HEDC_ASSIGN_OR_RETURN(HleRecord record, GetHle(session, hle_id));
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, record.owner_id));
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("hle", "UPDATE hle SET is_public = ? WHERE hle_id = ?",
                  {db::Value::Bool(value), db::Value::Int(hle_id)}));
  (void)r;
  return Status::Ok();
}

Status SemanticLayer::DeleteHle(const Session& session, int64_t hle_id) {
  HEDC_ASSIGN_OR_RETURN(HleRecord record, GetHle(session, hle_id));
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, record.owner_id));
  // Integrity constraint (§5.3): "tuples belonging to an entity may not
  // be deleted if data dependencies exist".
  QuerySpec deps("ana");
  deps.CountOnly().Where("hle_id", CondOp::kEq, db::Value::Int(hle_id));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet count, io_->Query(deps));
  if (count.rows[0][0].AsInt() > 0) {
    return Status::FailedPrecondition(
        StrFormat("HLE %lld still has %lld analyses",
                  static_cast<long long>(hle_id),
                  static_cast<long long>(count.rows[0][0].AsInt())));
  }
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("hle", "DELETE FROM hle WHERE hle_id = ?",
                  {db::Value::Int(hle_id)}));
  (void)r;
  // Membership rows and files follow the entity.
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet m,
      io_->Update("catalog_members",
                  "DELETE FROM catalog_members WHERE hle_id = ?",
                  {db::Value::Int(hle_id)}));
  (void)m;
  return Status::Ok();
}

Result<int64_t> SemanticLayer::SupersedeHle(const Session& session,
                                            int64_t old_hle_id,
                                            HleRecord new_record) {
  HEDC_ASSIGN_OR_RETURN(HleRecord old_record, GetHle(session, old_hle_id));
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, old_record.owner_id));
  new_record.version = old_record.version + 1;
  HEDC_ASSIGN_OR_RETURN(int64_t new_id, CreateHle(session, new_record));
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("hle", "UPDATE hle SET superseded_by = ? WHERE hle_id = ?",
                  {db::Value::Int(new_id), db::Value::Int(old_hle_id)}));
  (void)r;
  HEDC_RETURN_IF_ERROR(RecordLineage(new_id, old_hle_id, "supersede",
                                     new_record.calibration_version, ""));
  return new_id;
}

Result<int64_t> SemanticLayer::CreateAna(const Session& session,
                                         AnaRecord record) {
  // Referential integrity: the HLE must exist and be visible.
  HEDC_ASSIGN_OR_RETURN(HleRecord hle, GetHle(session, record.hle_id));
  record.ana_id = ana_ids_.Next();
  record.owner_id = session.profile.user_id;
  if (record.created_time == 0) record.created_time = NowSeconds();
  if (record.param_hash == 0) {
    record.param_hash = HashParams(record.routine, record.parameters);
  }
  // Entity transaction (§4.4): the ANA tuple and its lineage record
  // commit together, as one atomic unit.
  HEDC_RETURN_IF_ERROR(io_->DatabaseFor("ana")->ExecuteAtomically({
      {"INSERT INTO ana VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
       "?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
       {db::Value::Int(record.ana_id), db::Value::Int(record.hle_id),
        db::Value::Int(record.owner_id), db::Value::Bool(record.is_public),
        db::Value::Text(record.routine), db::Value::Text(record.parameters),
        db::Value::Int(record.param_hash), db::Value::Text(record.status),
        db::Value::Real(record.quality), db::Value::Real(record.t_start),
        db::Value::Real(record.t_end), db::Value::Real(record.e_min),
        db::Value::Real(record.e_max), db::Value::Int(record.photon_count),
        db::Value::Int(record.image_bytes),
        db::Value::Text(record.log_excerpt),
        db::Value::Int(record.calibration_version),
        db::Value::Int(record.version), db::Value::Int(record.superseded_by),
        db::Value::Real(record.created_time),
        db::Value::Real(record.duration_ms),
        db::Value::Real(record.peak_value), db::Value::Int(record.pixels),
        db::Value::Text(record.notes)}},
      {"INSERT INTO lineage VALUES (?, ?, ?, ?, ?, ?)",
       {db::Value::Int(lineage_ids_.Next()), db::Value::Int(record.ana_id),
        db::Value::Int(record.hle_id), db::Value::Text(record.routine),
        db::Value::Int(record.calibration_version),
        db::Value::Text(record.parameters)}},
  }));
  (void)hle;
  return record.ana_id;
}

Result<AnaRecord> SemanticLayer::GetAna(const Session& session,
                                        int64_t ana_id) {
  QuerySpec spec("ana");
  spec.Where("ana_id", CondOp::kEq, db::Value::Int(ana_id))
      .VisibleTo(session.profile);
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  if (rs.rows.empty()) {
    return Status::NotFound(StrFormat("ANA %lld",
                                      static_cast<long long>(ana_id)));
  }
  return AnaFromRow(rs, 0);
}

Result<std::vector<AnaRecord>> SemanticLayer::ListAnalyses(
    const Session& session, int64_t hle_id) {
  QuerySpec spec("ana");
  spec.Where("hle_id", CondOp::kEq, db::Value::Int(hle_id))
      .OrderBy("ana_id")
      .VisibleTo(session.profile);
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  std::vector<AnaRecord> out;
  out.reserve(rs.num_rows());
  for (size_t i = 0; i < rs.num_rows(); ++i) out.push_back(AnaFromRow(rs, i));
  return out;
}

Status SemanticLayer::SetAnaPublic(const Session& session, int64_t ana_id,
                                   bool value) {
  HEDC_ASSIGN_OR_RETURN(AnaRecord record, GetAna(session, ana_id));
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, record.owner_id));
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("ana", "UPDATE ana SET is_public = ? WHERE ana_id = ?",
                  {db::Value::Bool(value), db::Value::Int(ana_id)}));
  (void)r;
  return Status::Ok();
}

Status SemanticLayer::DeleteAna(const Session& session, int64_t ana_id) {
  HEDC_ASSIGN_OR_RETURN(AnaRecord record, GetAna(session, ana_id));
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, record.owner_id));
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("ana", "DELETE FROM ana WHERE ana_id = ?",
                  {db::Value::Int(ana_id)}));
  (void)r;
  return Status::Ok();
}

Result<std::optional<AnaRecord>> SemanticLayer::FindExistingAnalysis(
    const Session& session, int64_t hle_id, const std::string& routine,
    const std::string& canonical_params) {
  int64_t hash = HashParams(routine, canonical_params);
  QuerySpec spec("ana");
  spec.Where("param_hash", CondOp::kEq, db::Value::Int(hash))
      .Where("hle_id", CondOp::kEq, db::Value::Int(hle_id))
      .VisibleTo(session.profile);
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  for (size_t i = 0; i < rs.num_rows(); ++i) {
    AnaRecord record = AnaFromRow(rs, i);
    // The hash is an index accelerator; confirm the actual parameters.
    if (record.routine == routine &&
        record.parameters == canonical_params &&
        record.status == "done" && record.superseded_by == 0) {
      return std::optional<AnaRecord>(std::move(record));
    }
  }
  return std::optional<AnaRecord>();
}

Result<int64_t> SemanticLayer::CreateCatalog(const Session& session,
                                             std::string name,
                                             std::string description,
                                             bool is_public) {
  QuerySpec existing("catalogs");
  existing.CountOnly().Where("name", CondOp::kEq, db::Value::Text(name));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet count, io_->Query(existing));
  if (count.rows[0][0].AsInt() > 0) {
    return Status::AlreadyExists("catalog " + name);
  }
  int64_t catalog_id = catalog_ids_.Next();
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("catalogs", "INSERT INTO catalogs VALUES (?, ?, ?, ?, ?, ?)",
                  {db::Value::Int(catalog_id),
                   db::Value::Int(session.profile.user_id),
                   db::Value::Bool(is_public), db::Value::Text(name),
                   db::Value::Text(description),
                   db::Value::Real(NowSeconds())}));
  (void)r;
  return catalog_id;
}

Result<CatalogRecord> SemanticLayer::GetCatalogByName(
    const Session& session, const std::string& name) {
  QuerySpec spec("catalogs");
  spec.Where("name", CondOp::kEq, db::Value::Text(name))
      .VisibleTo(session.profile);
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  if (rs.rows.empty()) return Status::NotFound("catalog " + name);
  return CatalogFromRow(rs, 0);
}

Status SemanticLayer::AddToCatalog(const Session& session,
                                   int64_t catalog_id, int64_t hle_id) {
  // Both endpoints must exist and be visible (referential consistency).
  QuerySpec cat("catalogs");
  cat.Where("catalog_id", CondOp::kEq, db::Value::Int(catalog_id));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet cat_rs, io_->Query(cat));
  if (cat_rs.rows.empty()) {
    return Status::NotFound(StrFormat("catalog %lld",
                                      static_cast<long long>(catalog_id)));
  }
  CatalogRecord record = CatalogFromRow(cat_rs, 0);
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, record.owner_id));
  HEDC_ASSIGN_OR_RETURN(HleRecord hle, GetHle(session, hle_id));
  (void)hle;
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("catalog_members",
                  "INSERT INTO catalog_members VALUES (?, ?, ?)",
                  {db::Value::Int(member_ids_.Next()),
                   db::Value::Int(catalog_id), db::Value::Int(hle_id)}));
  (void)r;
  return Status::Ok();
}

Result<std::vector<int64_t>> SemanticLayer::ListCatalogHles(
    const Session& session, int64_t catalog_id) {
  QuerySpec spec("catalog_members");
  spec.Select("catalog_members.hle_id")
      .Join("hle", "hle_id")
      .Where("catalog_members.catalog_id", CondOp::kEq,
             db::Value::Int(catalog_id))
      .OrderBy("catalog_members.hle_id")
      .VisibleTo(session.profile);
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  std::vector<int64_t> out;
  out.reserve(rs.num_rows());
  for (const db::Row& row : rs.rows) out.push_back(row[0].AsInt());
  return out;
}

Status SemanticLayer::RecordLineage(int64_t item_id, int64_t source_item_id,
                                    const std::string& operation,
                                    int calibration_version,
                                    const std::string& parameters) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("lineage", "INSERT INTO lineage VALUES (?, ?, ?, ?, ?, ?)",
                  {db::Value::Int(lineage_ids_.Next()),
                   db::Value::Int(item_id), db::Value::Int(source_item_id),
                   db::Value::Text(operation),
                   db::Value::Int(calibration_version),
                   db::Value::Text(parameters)}));
  (void)r;
  return Status::Ok();
}

Result<std::vector<int64_t>> SemanticLayer::LineageSources(int64_t item_id) {
  QuerySpec spec("lineage");
  spec.Select("source_item_id")
      .Where("item_id", CondOp::kEq, db::Value::Int(item_id));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  std::vector<int64_t> out;
  for (size_t i = 0; i < rs.num_rows(); ++i) {
    out.push_back(rs.Get(i, "source_item_id").AsInt());
  }
  return out;
}

}  // namespace hedc::dm
