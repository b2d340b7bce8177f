// Serializes the global lineage ledger into the indexed audit artifact
// (audit.bin, format.h / DESIGN.md §12).
//
// The artifact is a pure function of the ledger contents: no wall-clock,
// no iteration-order dependence (unit and probe-failure maps are already
// sorted; estimate directories are sorted stably by label at write time).
// Because a durable resume rebuilds the ledger by re-ingesting the
// journaled steps through the live commit path, a killed-and-resumed run
// rebuilds the exact ledger and therefore the exact audit.bin.
#pragma once

#include <string>

#include "core/result.h"
#include "obs/lineage.h"

namespace sisyphus::audit {

/// Builds the complete audit.bin byte image from a lineage ledger.
/// Deterministic: equal ledgers produce equal bytes.
std::string BuildAuditArtifact(const obs::Lineage& lineage);

/// Writes `directory`/audit.bin (directory must exist). Returns an error
/// on I/O failure; never writes a partial file on success.
core::Status WriteAuditArtifact(const std::string& directory,
                                const obs::Lineage& lineage);

}  // namespace sisyphus::audit
