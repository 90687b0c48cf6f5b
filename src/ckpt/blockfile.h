// Checkpoint block files (DESIGN.md §16): durable copies of the payloads a
// committed stage published — shuffle outputs, cached datasets and result
// partitions — so a resumed driver can adopt the committed prefix without
// recomputing it.
//
// Format: an 8-byte magic ("CHOPBLK1"), a 32-bit block kind, a 32-bit
// version, the kind-specific payload, and a trailing Checksum64 digest over
// everything before it. Writers stream the file through one small buffer,
// checksumming as they go, via write-temp+rename so a crash mid-write never
// leaves a half-written file under the real name; every read verifies the
// footer — a reader either gets the exact bytes the writer committed or a
// clean failure (nullopt), never silent garbage.
//
// Scope: these are restart-local durability artifacts for the machine that
// wrote them (fixed-width fields in native endianness), not a portable
// archive format.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/block_manager.h"
#include "engine/partition.h"
#include "engine/resume.h"
#include "engine/shuffle.h"

namespace chopper::ckpt {

/// Write `path` atomically: `fill` writes the content to `path + ".tmp"`,
/// which is flushed (fsynced when `sync`) and renamed over `path`. Returns
/// false when `fill` or an IO step fails (the temp file is cleaned up
/// best-effort).
bool write_file_atomic(const std::string& path, bool sync,
                       const std::function<bool(std::FILE*)>& fill);

// -- block file names (relative to the checkpoint directory) ----------------
std::string shuffle_block_name(std::size_t job, std::size_t plan_index,
                               std::size_t consumer);
std::string cache_block_name(std::size_t job, std::size_t plan_index,
                             std::size_t ordinal);
std::string result_block_name(std::size_t job, std::size_t plan_index);

// -- writers (atomic; return false on IO error) -----------------------------
bool write_shuffle_block(const std::string& path, std::size_t consumer,
                         const engine::ShuffleOutput& so, bool sync);
bool write_cache_block(const std::string& path, std::size_t ordinal,
                       const engine::CachedDataset& cd, bool sync);
bool write_result_block(const std::string& path,
                        const std::vector<engine::Partition>& parts,
                        bool sync);

// -- readers (nullopt on missing file, bad magic/kind/version, truncation,
//    or checksum mismatch) --------------------------------------------------
std::optional<engine::RestoredShuffle> read_shuffle_block(
    const std::string& path);
std::optional<engine::RestoredCache> read_cache_block(const std::string& path);
std::optional<std::vector<engine::Partition>> read_result_block(
    const std::string& path);

}  // namespace chopper::ckpt
