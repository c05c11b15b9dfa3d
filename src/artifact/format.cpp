#include "artifact/format.hpp"

#include <algorithm>
#include <fstream>

#include "artifact/mmap_file.hpp"
#include "tensor/check.hpp"

namespace tinyadc::artifact {

namespace {

// Minimum alignment the *reader* enforces on section offsets — kept at the
// original 8 so a file written with 8-byte section alignment by an older
// build still parses and fails at its section's payload version, with the
// message that says to regenerate it. The writer lays sections out at
// kPayloadAlign (64).
constexpr std::size_t kAlign = 8;
constexpr std::uint64_t kMaxStringBytes = 1ULL << 20;
constexpr std::uint64_t kMaxTensorRank = 8;
constexpr std::uint64_t kMaxTensorExtent = 1ULL << 32;

std::size_t align_up(std::size_t n) {
  return (n + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign;
}

}  // namespace

// --- SectionWriter ---------------------------------------------------------

void SectionWriter::str(const std::string& s) {
  TINYADC_CHECK(s.size() < kMaxStringBytes,
                "refusing to serialize a " << s.size() << "-byte string");
  pod(static_cast<std::uint64_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void SectionWriter::vec_bool(const std::vector<bool>& v) {
  pod(static_cast<std::uint64_t>(v.size()));
  for (const bool b : v) pod(static_cast<std::uint8_t>(b ? 1 : 0));
}

void SectionWriter::tensor(const Tensor& t) {
  pod(static_cast<std::uint32_t>(t.ndim()));
  for (const auto d : t.shape()) pod(d);
  const auto* p = reinterpret_cast<const char*>(t.data());
  buf_.insert(buf_.end(), p,
              p + static_cast<std::size_t>(t.numel()) * sizeof(float));
}

// --- SectionReader ---------------------------------------------------------

SectionReader::SectionReader(const char* data, std::size_t size,
                             std::string name, std::uint64_t abs_offset,
                             std::shared_ptr<const void> keeper)
    : data_(data),
      size_(size),
      name_(std::move(name)),
      abs_offset_(abs_offset),
      keeper_(std::move(keeper)) {}

void SectionReader::need(std::size_t n, const char* what) const {
  TINYADC_CHECK(n <= size_ - pos_, "section '" << name_ << "' truncated: "
                                               << what << " needs " << n
                                               << " bytes, " << (size_ - pos_)
                                               << " remain");
}

std::size_t SectionReader::checked_count(std::size_t elem_size,
                                         const char* what) {
  const auto count = pod<std::uint64_t>();
  TINYADC_CHECK(elem_size == 0 || count <= (size_ - pos_) / elem_size,
                "section '" << name_ << "': implausible " << what
                            << " count " << count << " (only "
                            << (size_ - pos_) << " bytes remain)");
  return static_cast<std::size_t>(count);
}

std::size_t SectionReader::aligned_count(std::size_t elem_size,
                                         std::size_t elem_align,
                                         const char* what) {
  const std::size_t count = checked_count(elem_size, what);
  // Skip the writer's zero pad up to the next 64-byte *file* boundary.
  const std::uint64_t file_pos = abs_offset_ + pos_;
  const auto pad = static_cast<std::size_t>(
      (kPayloadAlign - file_pos % kPayloadAlign) % kPayloadAlign);
  need(pad, "alignment padding");
  for (std::size_t i = 0; i < pad; ++i)
    TINYADC_CHECK(data_[pos_ + i] == '\0',
                  "section '" << name_ << "': non-zero byte in the " << what
                              << " alignment padding (corrupt or misaligned "
                                 "payload)");
  pos_ += pad;
  // Re-validate the element budget against what the pad consumed.
  TINYADC_CHECK(elem_size == 0 || count <= (size_ - pos_) / elem_size,
                "section '" << name_ << "': " << what << " count " << count
                            << " overruns the payload after alignment");
  if (keeper_ != nullptr) {
    // Mapped mode: the span pointer must genuinely be aligned — a tampered
    // section offset (8- but not 64-aligned) must fail here, cleanly,
    // rather than ever handing out a misaligned view.
    const auto addr = reinterpret_cast<std::uintptr_t>(data_ + pos_);
    TINYADC_CHECK(addr % kPayloadAlign == 0 && addr % elem_align == 0,
                  "section '" << name_ << "': " << what
                              << " payload is not 64-byte aligned in the "
                                 "mapping (corrupt section offset?)");
  }
  return count;
}

std::string SectionReader::str() {
  const auto n = pod<std::uint64_t>();
  TINYADC_CHECK(n < kMaxStringBytes,
                "section '" << name_ << "': implausible string length " << n);
  need(static_cast<std::size_t>(n), "string");
  std::string s(data_ + pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::vector<bool> SectionReader::vec_bool() {
  const std::size_t count = checked_count(1, "bool array");
  std::vector<bool> v(count);
  for (std::size_t i = 0; i < count; ++i) v[i] = pod<std::uint8_t>() != 0;
  return v;
}

Tensor SectionReader::tensor() {
  const auto ndim = pod<std::uint32_t>();
  TINYADC_CHECK(ndim <= kMaxTensorRank,
                "section '" << name_ << "': implausible tensor rank " << ndim);
  Shape shape(ndim);
  std::uint64_t elems = 1;
  for (auto& d : shape) {
    d = pod<std::int64_t>();
    TINYADC_CHECK(d >= 0 && static_cast<std::uint64_t>(d) < kMaxTensorExtent,
                  "section '" << name_ << "': implausible tensor extent "
                              << d);
    // Overflow-safe product: reject before it can wrap or exhaust memory.
    TINYADC_CHECK(d == 0 || elems <= (size_ / sizeof(float)) /
                                         static_cast<std::uint64_t>(d),
                  "section '" << name_
                              << "': tensor dimension product overflows the "
                                 "section payload");
    elems *= static_cast<std::uint64_t>(d);
  }
  need(static_cast<std::size_t>(elems) * sizeof(float), "tensor payload");
  Tensor t(shape);
  std::memcpy(t.data(), data_ + pos_,
              static_cast<std::size_t>(elems) * sizeof(float));
  pos_ += static_cast<std::size_t>(elems) * sizeof(float);
  return t;
}

// --- ArtifactWriter --------------------------------------------------------

ArtifactWriter::ArtifactWriter(std::string path) : path_(std::move(path)) {}

SectionWriter& ArtifactWriter::section(const std::string& tag) {
  TINYADC_CHECK(!tag.empty() && tag.size() <= 8,
                "section tag '" << tag << "' must be 1-8 bytes");
  for (auto& [name, writer] : sections_)
    if (name == tag) return writer;
  TINYADC_CHECK(sections_.size() < kMaxSections, "too many artifact sections");
  sections_.emplace_back(tag, SectionWriter{});
  return sections_.back().second;
}

void ArtifactWriter::finish() {
  TINYADC_CHECK(!finished_, "ArtifactWriter::finish called twice");
  finished_ = true;

  const std::size_t header = 16 + sections_.size() * 24;  // 24 B per entry
  std::ofstream os(path_, std::ios::binary);
  TINYADC_CHECK(os.is_open(), "cannot open " << path_ << " for writing");
  os.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kFormatVersion;
  const auto count = static_cast<std::uint32_t>(sections_.size());
  os.write(reinterpret_cast<const char*>(&version), sizeof(version));
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));

  // Table: offsets assigned in order, each aligned up to kPayloadAlign so
  // mapped section payloads (and the vec_aligned arrays inside them, whose
  // padding is defined relative to the file) start on 64-byte boundaries.
  std::size_t cursor = align_up(header);
  for (const auto& [tag, writer] : sections_) {
    char tag8[8] = {};
    std::memcpy(tag8, tag.data(), tag.size());
    os.write(tag8, sizeof(tag8));
    const auto offset = static_cast<std::uint64_t>(cursor);
    const auto length = static_cast<std::uint64_t>(writer.bytes().size());
    os.write(reinterpret_cast<const char*>(&offset), sizeof(offset));
    os.write(reinterpret_cast<const char*>(&length), sizeof(length));
    cursor = align_up(cursor + writer.bytes().size());
  }

  std::size_t written = header;
  const char pad[kPayloadAlign] = {};
  for (const auto& [tag, writer] : sections_) {
    const std::size_t aligned = align_up(written);
    os.write(pad, static_cast<std::streamsize>(aligned - written));
    os.write(writer.bytes().data(),
             static_cast<std::streamsize>(writer.bytes().size()));
    written = aligned + writer.bytes().size();
  }
  os.flush();
  TINYADC_CHECK(static_cast<bool>(os), "write failure on " << path_);
}

// --- ArtifactFile ----------------------------------------------------------

ArtifactFile::ArtifactFile(const std::string& path) : path_(path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  TINYADC_CHECK(is.is_open(), "cannot open " << path << " for reading");
  const std::streamoff end = is.tellg();
  TINYADC_CHECK(end >= 16, "artifact " << path << " too small ("
                                       << end << " bytes) for a header");
  data_.resize(static_cast<std::size_t>(end));
  is.seekg(0);
  is.read(data_.data(), end);
  TINYADC_CHECK(static_cast<bool>(is), "read failure on " << path);
  parse(data_.data(), data_.size());
}

ArtifactFile::ArtifactFile(std::shared_ptr<MappedFile> map)
    : map_(std::move(map)), path_(map_->path()) {
  TINYADC_CHECK(map_->size() >= 16, "artifact " << path_ << " too small ("
                                                << map_->size()
                                                << " bytes) for a header");
  parse(map_->data(), map_->size());
}

void ArtifactFile::parse(const char* base, std::size_t size) {
  base_ = base;
  size_ = size;
  TINYADC_CHECK(std::memcmp(base, kMagic, sizeof(kMagic)) == 0,
                "bad artifact magic in " << path_);
  std::memcpy(&version_, base + 8, sizeof(version_));
  TINYADC_CHECK(version_ == kFormatVersion,
                "unsupported artifact version " << version_ << " in " << path_
                                                << " (reader supports "
                                                << kFormatVersion << ")");
  std::uint32_t count = 0;
  std::memcpy(&count, base + 12, sizeof(count));
  TINYADC_CHECK(count <= kMaxSections,
                "implausible section count " << count << " in " << path_);
  const std::uint64_t header = 16 + std::uint64_t{count} * 24;
  TINYADC_CHECK(header <= size,
                "artifact " << path_ << " truncated inside the section table");

  entries_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const char* e = base + 16 + std::size_t{i} * 24;
    Entry entry;
    const char* tag_end = std::find(e, e + 8, '\0');
    entry.tag.assign(e, tag_end);
    std::memcpy(&entry.offset, e + 8, sizeof(entry.offset));
    std::memcpy(&entry.length, e + 16, sizeof(entry.length));
    TINYADC_CHECK(!entry.tag.empty(),
                  "empty section tag at table index " << i << " in " << path_);
    TINYADC_CHECK(entry.offset % kAlign == 0,
                  "section '" << entry.tag << "' offset " << entry.offset
                              << " is not 8-byte aligned in " << path_);
    TINYADC_CHECK(entry.offset >= header && entry.offset <= size &&
                      entry.length <= size - entry.offset,
                  "section '" << entry.tag << "' ["
                              << entry.offset << ", +" << entry.length
                              << ") overruns " << path_ << " ("
                              << size << " bytes)");
    for (const auto& prev : entries_)
      TINYADC_CHECK(prev.tag != entry.tag,
                    "duplicate section tag '" << entry.tag << "' in "
                                              << path_);
    entries_.push_back(std::move(entry));
  }
}

const ArtifactFile::Entry& ArtifactFile::find(const std::string& tag) const {
  for (const auto& e : entries_)
    if (e.tag == tag) return e;
  TINYADC_CHECK(false, "artifact " << path_ << " has no '" << tag
                                   << "' section");
  std::abort();  // unreachable (TINYADC_CHECK throws)
}

bool ArtifactFile::has(const std::string& tag) const {
  for (const auto& e : entries_)
    if (e.tag == tag) return true;
  return false;
}

SectionReader ArtifactFile::section(const std::string& tag) const {
  const Entry& e = find(tag);
  return SectionReader(base_ + e.offset, static_cast<std::size_t>(e.length),
                       tag, e.offset,
                       map_ ? std::shared_ptr<const void>(map_) : nullptr);
}

std::pair<std::uint64_t, std::uint64_t> ArtifactFile::extent(
    const std::string& tag) const {
  const Entry& e = find(tag);
  return {e.offset, e.length};
}

std::pair<const char*, std::size_t> ArtifactFile::raw(
    const std::string& tag) const {
  const Entry& e = find(tag);
  return {base_ + e.offset, static_cast<std::size_t>(e.length)};
}

std::vector<std::string> ArtifactFile::tags() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.tag);
  return out;
}

}  // namespace tinyadc::artifact
