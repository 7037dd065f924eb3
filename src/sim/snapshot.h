// Versioned binary snapshot format for deterministic checkpoint/restore.
//
// Layout:
//   magic "SPNLCKPT" | u32 version | u64 config_hash
//   { u32 section_tag | u64 payload_len | payload } *
//   u64 checksum (FNV-1a over everything before it)
//
// All integers are fixed-width little-endian (the simulator only targets
// little-endian hosts; a CHECK at load refuses anything else via the
// checksum anyway). Fixed-width fields keep offsets predictable, which the
// auditor's negative tests exploit through snapshot_patch_u64().
//
// The reader is strict: sections must be consumed in the order written and
// fully consumed before end_section() — version drift fails loudly instead
// of silently misaligning state.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace spineless::sim {

inline constexpr char kSnapshotMagic[8] = {'S', 'P', 'N', 'L',
                                           'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

// Order-sensitive chained hash for building config_hash values: a snapshot
// is only restorable into an identically-configured experiment (same seed,
// topology, routing mode, intra_jobs, ...).
class HashChain {
 public:
  HashChain& mix(std::uint64_t v) noexcept;
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x53504e4c434b5054ULL;  // "SPNLCKPT"
};

class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::uint64_t config_hash);

  void begin_section(std::uint32_t tag);
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void rng_state(const std::array<std::uint64_t, 4>& s);

  // Seals the buffer (appends the checksum) and writes it atomically.
  // Returns false on I/O failure.
  bool write_file(const std::string& path);

  // Sealed bytes without touching disk (tests).
  std::string seal() const;

 private:
  std::string buf_;
  std::size_t section_len_at_ = 0;  // offset of the open section's length
  bool in_section_ = false;
};

class SnapshotReader {
 public:
  // Parses and validates (magic, version, checksum). Throws util Error on
  // corruption; use load_file to distinguish "missing" from "corrupt".
  explicit SnapshotReader(std::string bytes);

  // False if the file does not exist. Throws on a corrupt/invalid file.
  static bool load_file(const std::string& path, std::string* bytes_out);

  std::uint64_t config_hash() const noexcept { return config_hash_; }

  // The next section's tag must equal `tag`.
  void expect_section(std::uint32_t tag);
  void end_section();  // CHECKs the section was fully consumed

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::array<std::uint64_t, 4> rng_state();

  bool at_end() const noexcept;  // all sections consumed

 private:
  void need(std::size_t n) const;

  std::string bytes_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  bool in_section_ = false;
  std::uint64_t config_hash_ = 0;
  std::size_t payload_end_ = 0;  // start of the trailing checksum
};

// Test/diagnostic helper: find section `tag` in the snapshot at `path`,
// overwrite its `field_index`-th 8-byte word with `value`, and re-seal the
// checksum. This is how the auditor's negative tests corrupt a snapshot
// without tripping the (orthogonal) integrity check.
void snapshot_patch_u64(const std::string& path, std::uint32_t tag,
                        std::size_t field_index, std::uint64_t value);

}  // namespace spineless::sim
