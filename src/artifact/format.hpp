// Versioned, sectioned deployment-artifact container (the `.tadc` format).
//
// Layout (little-endian; the writer starts every section payload 64-byte
// aligned, the reader requires at least the original 8):
//
//   0x00  magic  "TADCDEP\0"                     (8 bytes)
//   0x08  u32 format version | u32 section count (8 bytes)
//   0x10  section table: count × { char tag[8] | u64 offset | u64 length }
//   ...   section payloads, each starting at an aligned offset,
//         zero-padded up to the next section
//
// The flat table with aligned payloads is mmap-friendly: MappedFile +
// the mapped ArtifactFile constructor map the file once and hand out
// zero-copy spans per section, and bulk fields (weight tensors, packed
// execution plans) are stored as raw little-endian arrays — vec_aligned
// arrays additionally pad their data to 64-byte file offsets so a mapped
// reader can return them as cache-line-aligned views (DESIGN.md §14).
// The portable loader reads the file into one buffer and bounds-checks
// every access through SectionReader, so truncated or malformed artifacts
// fail with an explicit CheckError instead of bad_alloc or silent garbage.
//
// Versioning policy: the container version only changes when the
// header/table layout changes. Section payloads are versioned by their
// producer (each domain section starts with its own u32 version), so adding
// a new section or bumping one section's layout never invalidates the rest.
// Each section's reader accepts exactly one payload version — the one its
// writer emits — and refuses any other with a CheckError that names the
// version; an artifact written by an older build is regenerated, not
// converted. Readers also reject unknown container versions; unknown extra
// sections are ignored.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "artifact/array_ref.hpp"
#include "tensor/tensor.hpp"

namespace tinyadc::artifact {

class MappedFile;

/// Container-level format version (header + section table layout).
constexpr std::uint32_t kFormatVersion = 1;

/// Alignment of every section start and every vec_aligned payload, chosen
/// so mapped spans land on cache-line (and SIMD-register) boundaries. The
/// container keeps its original 8-byte *minimum* (old readers only check
/// %8), but the writer has laid sections out 64-aligned since payload v3.
constexpr std::size_t kPayloadAlign = 64;

/// Magic at offset 0 of every artifact file.
constexpr char kMagic[8] = {'T', 'A', 'D', 'C', 'D', 'E', 'P', '\0'};

/// Upper bound on sections per artifact (sanity cap for the reader).
constexpr std::uint32_t kMaxSections = 256;

/// Accumulates one section's payload in memory with typed append helpers.
/// All multi-byte fields are written in the host's (little-endian) byte
/// order; bulk arrays are written raw so loads are a single memcpy.
class SectionWriter {
 public:
  /// Appends one trivially-copyable value.
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "pod() needs a POD type");
    const auto* p = reinterpret_cast<const char*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  /// Appends a string as u64 length + raw bytes.
  void str(const std::string& s);

  /// Appends a vector of trivially-copyable elements as u64 count + raw
  /// element bytes.
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>, "vec() needs POD elements");
    pod(static_cast<std::uint64_t>(v.size()));
    const auto* p = reinterpret_cast<const char*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }

  /// Appends an array as u64 count, zero padding up to the next 64-byte
  /// boundary, then raw element bytes — the v3 "aligned array" encoding.
  /// Because every section payload starts 64-aligned in the file, padding
  /// relative to the payload start equals padding relative to the file, so
  /// a mapped reader can hand the data out as an aligned zero-copy span.
  template <typename T>
  void vec_aligned(const T* p, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "vec_aligned() needs POD elements");
    pod(static_cast<std::uint64_t>(n));
    buf_.resize((buf_.size() + kPayloadAlign - 1) / kPayloadAlign *
                    kPayloadAlign,
                '\0');
    const auto* raw = reinterpret_cast<const char*>(p);
    buf_.insert(buf_.end(), raw, raw + n * sizeof(T));
  }
  template <typename T>
  void vec_aligned(const ArrayRef<T>& v) {
    vec_aligned(v.data(), v.size());
  }
  template <typename T>
  void vec_aligned(const std::vector<T>& v) {
    vec_aligned(v.data(), v.size());
  }

  /// Appends a vector<bool> as u64 count + one byte per element.
  void vec_bool(const std::vector<bool>& v);

  /// Appends a tensor as u32 ndim + i64 dims + raw f32 data.
  void tensor(const Tensor& t);

  /// The accumulated payload.
  const std::vector<char>& bytes() const { return buf_; }

 private:
  std::vector<char> buf_;
};

/// Bounds-checked cursor over one section's payload. Every accessor
/// validates the remaining byte budget *before* allocating, so absurd
/// counts from corrupt files raise CheckError instead of bad_alloc.
class SectionReader {
 public:
  /// Views `size` bytes at `data` (not owned); `name` labels errors.
  /// `abs_offset` is the payload's byte offset within the artifact file
  /// (0 for standalone buffers) — vec_aligned padding is defined relative
  /// to the file, so the reader needs it to find the payload boundaries.
  /// A non-null `keeper` marks the buffer as memory-mapped: arr_aligned()
  /// then returns borrowed spans pinned by the keeper instead of copies.
  SectionReader(const char* data, std::size_t size, std::string name,
                std::uint64_t abs_offset = 0,
                std::shared_ptr<const void> keeper = nullptr);

  /// Reads one trivially-copyable value.
  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>, "pod() needs a POD type");
    need(sizeof(T), "value");
    T v{};
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Reads a string written by SectionWriter::str.
  std::string str();

  /// Reads a vector written by SectionWriter::vec. The element count is
  /// validated against the bytes actually present.
  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>, "vec() needs POD elements");
    const std::size_t count = checked_count(sizeof(T), "array");
    std::vector<T> v(count);
    // An empty vector's data() may be null, and memcpy(nullptr, …, 0) is
    // undefined behaviour.
    if (count == 0) return v;
    std::memcpy(v.data(), data_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return v;
  }

  /// Reads an array written by SectionWriter::vec_aligned. On a mapped
  /// buffer (keeper set) this returns a borrowed zero-copy span over the
  /// mapping — after validating that the payload really is 64-byte aligned
  /// (a tampered section offset or pad must raise CheckError, never hand
  /// out a misaligned span). On a plain buffer it returns an owned copy.
  template <typename T>
  ArrayRef<T> arr_aligned(const char* what = "aligned array") {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arr_aligned() needs POD elements");
    const std::size_t count = aligned_count(sizeof(T), alignof(T), what);
    ArrayRef<T> out;
    if (keeper_ != nullptr) {
      out = ArrayRef<T>(reinterpret_cast<const T*>(data_ + pos_), count,
                        keeper_);
    } else {
      std::vector<T> v(count);
      if (count != 0) std::memcpy(v.data(), data_ + pos_, count * sizeof(T));
      out = ArrayRef<T>(std::move(v));
    }
    pos_ += count * sizeof(T);
    return out;
  }

  /// Reads an array written by SectionWriter::vec_aligned as an owned
  /// vector (the copy/mutation path), regardless of mapping.
  template <typename T>
  std::vector<T> vec_aligned(const char* what = "aligned array") {
    static_assert(std::is_trivially_copyable_v<T>,
                  "vec_aligned() needs POD elements");
    const std::size_t count = aligned_count(sizeof(T), alignof(T), what);
    std::vector<T> v(count);
    // An empty vector's data() may be null, and memcpy(nullptr, …, 0) is
    // undefined behaviour.
    if (count == 0) return v;
    std::memcpy(v.data(), data_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return v;
  }

  /// True when the underlying buffer is a pinned mapping (arr_aligned
  /// returns zero-copy spans).
  bool mapped() const { return keeper_ != nullptr; }

  /// Reads a vector<bool> written by SectionWriter::vec_bool.
  std::vector<bool> vec_bool();

  /// Reads a tensor written by SectionWriter::tensor, rejecting absurd
  /// ranks/extents and dimension products before allocating.
  Tensor tensor();

  /// Bytes not yet consumed.
  std::size_t remaining() const { return size_ - pos_; }

  /// Section label (for error messages in domain deserializers).
  const std::string& name() const { return name_; }

 private:
  /// Validates that `n` more bytes exist (`what` labels the error).
  void need(std::size_t n, const char* what) const;
  /// Reads a u64 count and validates count·elem_size against the budget.
  std::size_t checked_count(std::size_t elem_size, const char* what);
  /// Reads a u64 count, skips (and verifies) the zero padding up to the
  /// next 64-byte file boundary, validates the element budget and — for
  /// mapped buffers — that the resulting span pointer is truly aligned.
  std::size_t aligned_count(std::size_t elem_size, std::size_t elem_align,
                            const char* what);

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string name_;
  std::uint64_t abs_offset_ = 0;
  std::shared_ptr<const void> keeper_;
};

/// Assembles an artifact: sections are registered in order, then finish()
/// lays them out with 8-byte-aligned offsets and writes the file.
class ArtifactWriter {
 public:
  /// Opens a writer targeting `path` (written on finish()).
  explicit ArtifactWriter(std::string path);

  /// Starts (or resumes) the section tagged `tag` (1–8 bytes, unique) and
  /// returns its payload writer.
  SectionWriter& section(const std::string& tag);

  /// Writes header, table and payloads to the target path; throws
  /// CheckError on I/O failure. Must be called exactly once.
  void finish();

 private:
  std::string path_;
  std::vector<std::pair<std::string, SectionWriter>> sections_;
  bool finished_ = false;
};

/// A loaded artifact: the file bytes plus the validated section table.
/// Two modes share all validation: the portable constructor slurps the
/// file into an owned buffer (section readers copy); the mapped
/// constructor wraps a MappedFile, and section readers then hand out
/// zero-copy spans pinned by the shared mapping.
class ArtifactFile {
 public:
  /// Reads and validates `path` (magic, version, table bounds/alignment).
  explicit ArtifactFile(const std::string& path);

  /// Validates an already-mapped artifact; readers borrow from `map`.
  explicit ArtifactFile(std::shared_ptr<MappedFile> map);

  /// True if a section tagged `tag` exists.
  bool has(const std::string& tag) const;

  /// Bounds-checked reader over the section tagged `tag`; throws
  /// CheckError when the section is missing.
  SectionReader section(const std::string& tag) const;

  /// [offset, length) of a section within the file (for streaming
  /// advice); throws CheckError when the section is missing.
  std::pair<std::uint64_t, std::uint64_t> extent(const std::string& tag) const;

  /// Raw payload bytes of a section (a view into the file buffer or the
  /// mapping; valid while this ArtifactFile lives). Throws CheckError when
  /// the section is missing. Reading a mapped section faults its pages in.
  std::pair<const char*, std::size_t> raw(const std::string& tag) const;

  /// Total size of the artifact file in bytes.
  std::uint64_t file_size() const { return size_; }

  /// Container version of the loaded file.
  std::uint32_t version() const { return version_; }

  /// Section tags in file order.
  std::vector<std::string> tags() const;

  /// The mapping backing this file (null in portable mode).
  const std::shared_ptr<MappedFile>& mapping() const { return map_; }

 private:
  struct Entry {
    std::string tag;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };

  /// Shared header/table validation over [base, base+size).
  void parse(const char* base, std::size_t size);
  const Entry& find(const std::string& tag) const;

  std::vector<char> data_;                // portable mode: owned bytes
  std::shared_ptr<MappedFile> map_;       // mapped mode: pinned mapping
  const char* base_ = nullptr;            // either data_.data() or map base
  std::size_t size_ = 0;
  std::vector<Entry> entries_;
  std::uint32_t version_ = 0;
  std::string path_;
};

}  // namespace tinyadc::artifact
