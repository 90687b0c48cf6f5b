#include "ckpt/blockfile.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/hash.h"
#include "engine/partitioner.h"

namespace chopper::ckpt {

namespace {

constexpr char kMagic[8] = {'C', 'H', 'O', 'P', 'B', 'L', 'K', '1'};
/// Version 2: a shuffle block stores one row (arena + offsets) per map task;
/// version 1 stored an M x R bucket grid and is refused (its job reruns).
constexpr std::uint32_t kVersion = 2;

enum class BlockKind : std::uint32_t { kShuffle = 1, kCache = 2, kResult = 3 };

// -- encoding primitives -----------------------------------------------------

/// Streams a block file through one 64 KiB buffer and checksums it on the
/// way. A full buffer is a whole number of 8-byte lanes, hashed lane by lane
/// as it is written; finish() passes the last, partial buffer to
/// update_bytes, which adds its tail lane and the tail's length. The footer
/// therefore equals Checksum64::update_bytes over everything before it.
class BlockSink {
 public:
  explicit BlockSink(std::FILE* f) : f_(f) {}

  void put(const void* data, std::size_t len) {
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
      const std::size_t n = std::min(len, sizeof(buf_) - used_);
      std::memcpy(buf_ + used_, p, n);
      used_ += n;
      p += n;
      len -= n;
      if (used_ == sizeof(buf_)) drain();
    }
  }

  /// Write the buffered tail and the footer; false on any IO error.
  bool finish() {
    sum_.update_bytes(buf_, used_);
    const std::uint64_t digest = sum_.digest();
    write(buf_, used_);
    write(&digest, sizeof(digest));
    return ok_;
  }

 private:
  void drain() {
    for (std::size_t i = 0; i < used_; i += 8) {
      std::uint64_t lane;
      std::memcpy(&lane, buf_ + i, 8);
      sum_.update_u64(lane);
    }
    write(buf_, used_);
    used_ = 0;
  }
  void write(const void* data, std::size_t len) {
    ok_ = ok_ && std::fwrite(data, 1, len, f_) == len;
  }

  std::FILE* f_;
  common::Checksum64 sum_;
  bool ok_ = true;
  std::size_t used_ = 0;
  char buf_[1 << 16];
};

void put_char(BlockSink& out, char c) { out.put(&c, 1); }
void put_u32(BlockSink& out, std::uint32_t v) { out.put(&v, 4); }
void put_u64(BlockSink& out, std::uint64_t v) { out.put(&v, 8); }

template <typename T, typename Fn>
void put_vec(BlockSink& out, const std::vector<T>& v, Fn put_one) {
  put_u64(out, v.size());
  for (const T& x : v) put_one(out, x);
}

/// Raw memcpy fast path for trivially-copyable element vectors.
template <typename T>
void put_pod_vec(BlockSink& out, const std::vector<T>& v) {
  put_u64(out, v.size());
  if (!v.empty()) out.put(v.data(), v.size() * sizeof(T));
}

constexpr std::size_t kHeader = sizeof(kMagic) + 8;  // magic + kind + version
constexpr std::size_t kFooter = 8;                   // Checksum64 digest

/// Decodes the payload of a checked block file in place: the bytes between
/// its header and its footer.
struct Cursor {
  explicit Cursor(const std::string& file)
      : data(file), pos(kHeader), end(file.size() - kFooter) {}

  const std::string& data;
  std::size_t pos;
  std::size_t end;
  bool ok = true;

  /// Every payload byte was consumed, and nothing was out of bounds.
  bool done() const { return ok && pos == end; }

  bool take(void* dst, std::size_t len) {
    if (!ok || len > end - pos) {
      ok = false;
      return false;
    }
    std::memcpy(dst, data.data() + pos, len);
    pos += len;
    return true;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    take(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    take(&v, 8);
    return v;
  }
  template <typename T>
  std::vector<T> pod_vec() {
    const std::uint64_t n = u64();
    std::vector<T> v;
    if (!ok || n > (end - pos) / sizeof(T)) {
      ok = false;
      return v;
    }
    v.resize(static_cast<std::size_t>(n));
    if (n > 0) take(v.data(), static_cast<std::size_t>(n) * sizeof(T));
    return v;
  }
};

// -- partitioner / partition codecs ------------------------------------------

void put_partitioner(BlockSink& out, const engine::Partitioner* p) {
  if (p == nullptr) {
    put_char(out, '\0');
    return;
  }
  put_char(out, '\1');
  put_u32(out, static_cast<std::uint32_t>(p->kind()));
  put_u64(out, p->num_partitions());
  if (p->kind() == engine::PartitionerKind::kRange) {
    put_pod_vec(out, static_cast<const engine::RangePartitioner*>(p)->bounds());
  }
}

std::shared_ptr<engine::Partitioner> take_partitioner(Cursor& c) {
  char present = 0;
  c.take(&present, 1);
  if (!c.ok || present == '\0') return nullptr;
  const auto kind = static_cast<engine::PartitionerKind>(c.u32());
  const auto n = static_cast<std::size_t>(c.u64());
  if (!c.ok || n == 0) {
    c.ok = false;
    return nullptr;
  }
  if (kind == engine::PartitionerKind::kRange) {
    auto bounds = c.pod_vec<std::uint64_t>();
    if (!c.ok || bounds.size() + 1 != n) {
      c.ok = false;
      return nullptr;
    }
    return std::make_shared<engine::RangePartitioner>(n, std::move(bounds));
  }
  if (kind != engine::PartitionerKind::kHash) {
    c.ok = false;
    return nullptr;
  }
  return std::make_shared<engine::HashPartitioner>(n);
}

void put_partition(BlockSink& out, const engine::Partition& p) {
  put_u64(out, p.bytes());
  put_pod_vec(out, p.raw_keys());
  put_pod_vec(out, p.raw_aux());
  put_pod_vec(out, p.raw_ends());
  put_pod_vec(out, p.raw_values());
}

engine::Partition take_partition(Cursor& c) {
  const std::uint64_t bytes = c.u64();
  auto keys = c.pod_vec<std::uint64_t>();
  auto aux = c.pod_vec<std::uint32_t>();
  auto ends = c.pod_vec<std::size_t>();
  auto values = c.pod_vec<double>();
  if (!c.ok || aux.size() != keys.size() || ends.size() != keys.size() ||
      (!ends.empty() && ends.back() != values.size())) {
    c.ok = false;
    return {};
  }
  return engine::Partition::from_raw(std::move(keys), std::move(aux),
                                     std::move(ends), std::move(values),
                                     bytes);
}

/// A row's offsets must match what the writers produce: none for an empty
/// or pass-through row, otherwise R+1 ascending record and byte offsets
/// from 0 to the arena's size and bytes.
bool valid_offsets(const engine::ShuffleRow& row, std::size_t r,
                   bool passthrough) {
  if (passthrough || row.data.empty()) {
    return row.rec_off.empty() && row.byte_off.empty();
  }
  if (row.rec_off.size() != r + 1 || row.byte_off.size() != r + 1 ||
      row.rec_off.front() != 0 || row.byte_off.front() != 0 ||
      row.rec_off.back() != row.data.size() ||
      row.byte_off.back() != row.data.bytes()) {
    return false;
  }
  for (std::size_t i = 1; i <= r; ++i) {
    if (row.rec_off[i] < row.rec_off[i - 1] ||
        row.byte_off[i] < row.byte_off[i - 1]) {
      return false;
    }
  }
  return true;
}

// -- framing ----------------------------------------------------------------

/// Write a block file: header, the payload `put_payload` streams, footer.
template <typename Fn>
bool write_block(const std::string& path, BlockKind kind, bool sync,
                 const Fn& put_payload) {
  return write_file_atomic(path, sync, [&](std::FILE* f) {
    BlockSink out(f);
    out.put(kMagic, sizeof(kMagic));
    put_u32(out, static_cast<std::uint32_t>(kind));
    put_u32(out, kVersion);
    put_payload(out);
    return out.finish();
  });
}

/// The whole file at `path` when it is a block of `want_kind` whose footer
/// checks out; its payload lies between kHeader and kFooter (see Cursor).
std::optional<std::string> read_block(const std::string& path,
                                      BlockKind want_kind) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size < kHeader + kFooter) return std::nullopt;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string content(static_cast<std::size_t>(size), '\0');
  const bool read_all =
      std::fread(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);

  if (!read_all) return std::nullopt;
  if (std::memcmp(content.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::uint64_t stored = 0;
  std::memcpy(&stored, content.data() + content.size() - kFooter, kFooter);
  common::Checksum64 sum;
  sum.update_bytes(content.data(), content.size() - kFooter);
  if (sum.digest() != stored) return std::nullopt;

  std::uint32_t kind = 0, version = 0;
  std::memcpy(&kind, content.data() + sizeof(kMagic), 4);
  std::memcpy(&version, content.data() + sizeof(kMagic) + 4, 4);
  if (kind != static_cast<std::uint32_t>(want_kind) || version != kVersion) {
    return std::nullopt;
  }
  return content;
}

}  // namespace

bool write_file_atomic(const std::string& path, bool sync,
                       const std::function<bool(std::FILE*)>& fill) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  bool ok = fill(f);
  ok = std::fflush(f) == 0 && ok;
#if defined(__unix__) || defined(__APPLE__)
  if (ok && sync) ok = ::fsync(::fileno(f)) == 0;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::string shuffle_block_name(std::size_t job, std::size_t plan_index,
                               std::size_t consumer) {
  return "job" + std::to_string(job) + "_s" + std::to_string(plan_index) +
         "_shuf" + std::to_string(consumer) + ".blk";
}

std::string cache_block_name(std::size_t job, std::size_t plan_index,
                             std::size_t ordinal) {
  return "job" + std::to_string(job) + "_s" + std::to_string(plan_index) +
         "_cache" + std::to_string(ordinal) + ".blk";
}

std::string result_block_name(std::size_t job, std::size_t plan_index) {
  return "job" + std::to_string(job) + "_s" + std::to_string(plan_index) +
         "_result.blk";
}

bool write_shuffle_block(const std::string& path, std::size_t consumer,
                         const engine::ShuffleOutput& so, bool sync) {
  return write_block(path, BlockKind::kShuffle, sync, [&](BlockSink& out) {
    put_u64(out, consumer);
    put_char(out, so.passthrough ? '\1' : '\0');
    put_u64(out, so.num_map_tasks);
    put_u64(out, so.total_bytes);
    put_partitioner(out, so.partitioner.get());
    put_pod_vec(out, so.map_node);
    put_pod_vec(out, so.lost);
    put_pod_vec(out, so.on_disk);
    put_pod_vec(out, so.row_sum);
    put_vec(out, so.rows, [](BlockSink& o, const engine::ShuffleRow& row) {
      put_partition(o, row.data);
      put_pod_vec(o, row.rec_off);
      put_pod_vec(o, row.byte_off);
    });
  });
}

std::optional<engine::RestoredShuffle> read_shuffle_block(
    const std::string& path) {
  const auto file = read_block(path, BlockKind::kShuffle);
  if (!file) return std::nullopt;
  Cursor c(*file);
  engine::RestoredShuffle rs;
  rs.consumer = static_cast<std::size_t>(c.u64());
  char pass = 0;
  c.take(&pass, 1);
  rs.so.passthrough = pass != '\0';
  rs.so.num_map_tasks = static_cast<std::size_t>(c.u64());
  rs.so.total_bytes = c.u64();
  rs.so.partitioner = take_partitioner(c);
  rs.so.map_node = c.pod_vec<std::size_t>();
  rs.so.lost = c.pod_vec<char>();
  rs.so.on_disk = c.pod_vec<char>();
  rs.so.row_sum = c.pod_vec<std::uint64_t>();
  const std::uint64_t m = c.u64();
  if (!c.ok || rs.so.partitioner == nullptr || m != rs.so.num_map_tasks ||
      m != rs.so.map_node.size()) {
    return std::nullopt;
  }
  const std::size_t r = rs.so.partitioner->num_partitions();
  rs.so.rows.resize(static_cast<std::size_t>(m));
  for (auto& row : rs.so.rows) {
    row.data = take_partition(c);
    row.rec_off = c.pod_vec<std::size_t>();
    row.byte_off = c.pod_vec<std::uint64_t>();
    if (!c.ok || !valid_offsets(row, r, rs.so.passthrough)) {
      return std::nullopt;
    }
  }
  if (!c.done()) return std::nullopt;
  return rs;
}

bool write_cache_block(const std::string& path, std::size_t ordinal,
                       const engine::CachedDataset& cd, bool sync) {
  return write_block(path, BlockKind::kCache, sync, [&](BlockSink& out) {
    put_u64(out, ordinal);
    put_u64(out, cd.bytes);
    put_partitioner(out, cd.partitioner.get());
    put_pod_vec(out, cd.placement);
    put_pod_vec(out, cd.available);
    put_pod_vec(out, cd.sums);
    put_vec(out, cd.partitions, put_partition);
  });
}

std::optional<engine::RestoredCache> read_cache_block(
    const std::string& path) {
  const auto file = read_block(path, BlockKind::kCache);
  if (!file) return std::nullopt;
  Cursor c(*file);
  engine::RestoredCache rc;
  rc.ordinal = static_cast<std::size_t>(c.u64());
  rc.cd.bytes = c.u64();
  rc.cd.partitioner = take_partitioner(c);
  rc.cd.placement = c.pod_vec<std::size_t>();
  rc.cd.available = c.pod_vec<char>();
  rc.cd.sums = c.pod_vec<std::uint64_t>();
  const std::uint64_t n = c.u64();
  if (!c.ok || n != rc.cd.placement.size()) return std::nullopt;
  rc.cd.partitions.resize(static_cast<std::size_t>(n));
  for (auto& part : rc.cd.partitions) part = take_partition(c);
  if (!c.done()) return std::nullopt;
  return rc;
}

bool write_result_block(const std::string& path,
                        const std::vector<engine::Partition>& parts,
                        bool sync) {
  return write_block(path, BlockKind::kResult, sync, [&](BlockSink& out) {
    put_vec(out, parts, put_partition);
  });
}

std::optional<std::vector<engine::Partition>> read_result_block(
    const std::string& path) {
  const auto file = read_block(path, BlockKind::kResult);
  if (!file) return std::nullopt;
  Cursor c(*file);
  const std::uint64_t n = c.u64();
  std::vector<engine::Partition> parts;
  if (!c.ok) return std::nullopt;
  parts.resize(static_cast<std::size_t>(n));
  for (auto& part : parts) part = take_partition(c);
  if (!c.done()) return std::nullopt;
  return parts;
}

}  // namespace chopper::ckpt
