// Checkpointing: snapshot the full database state to a file and truncate
// the WAL. Recovery becomes snapshot + WAL tail instead of replaying the
// whole history — the "backup/recovery procedures" of §4.1 for the
// metadata side.
#ifndef HEDC_DB_CHECKPOINT_H_
#define HEDC_DB_CHECKPOINT_H_

#include <string>

#include "core/status.h"
#include "db/database.h"

namespace hedc::db {

// Writes a snapshot of every table (schema, indexes, rows with their row
// ids) to `snapshot_path`. CRC-framed; atomic via write-to-temp+rename.
Status WriteSnapshot(Database* db, const std::string& snapshot_path);

// Loads a snapshot into an empty Database.
Status LoadSnapshot(Database* db, const std::string& snapshot_path);

// Full checkpoint for a WAL-backed database: snapshot, then truncate the
// WAL file (the snapshot now carries everything up to this point).
// Requires no concurrent writers: a unit that lands between the snapshot
// and the truncation would be lost.
Status Checkpoint(Database* db, const std::string& snapshot_path,
                  const std::string& wal_path);

// Opens a database from snapshot (if present) + WAL tail, and re-enables
// WAL logging. The standard recovery entry point.
Status OpenWithCheckpoint(Database* db, const std::string& snapshot_path,
                          const std::string& wal_path);

}  // namespace hedc::db

#endif  // HEDC_DB_CHECKPOINT_H_
