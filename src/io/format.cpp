#include "io/format.h"

#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>

#include "io/crc32.h"

namespace svelat::io {

const char* io_error_name(IoErrorCode code) {
  switch (code) {
    case IoErrorCode::kOpenFailed: return "open failed";
    case IoErrorCode::kShortRead: return "short read";
    case IoErrorCode::kBadMagic: return "bad magic";
    case IoErrorCode::kBadVersion: return "unsupported version";
    case IoErrorCode::kCorruptHeader: return "corrupt header";
    case IoErrorCode::kTruncated: return "truncated";
    case IoErrorCode::kCorruptPayload: return "corrupt payload";
    case IoErrorCode::kTrailingBytes: return "trailing bytes";
    case IoErrorCode::kMismatch: return "mismatch";
  }
  return "unknown";
}

IoError::IoError(IoErrorCode code, const std::string& detail)
    : std::runtime_error(std::string("svelat io [") + io_error_name(code) +
                         "]: " + detail),
      code_(code) {}

// --- little-endian byte helpers ---------------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& in, std::size_t& off,
                      IoErrorCode code, const char* what) {
  if (in.size() < off + 4) throw IoError(code, what);
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) v |= static_cast<std::uint32_t>(in[off + k]) << (8 * k);
  off += 4;
  return v;
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& in, std::size_t& off,
                      IoErrorCode code, const char* what) {
  if (in.size() < off + 8) throw IoError(code, what);
  std::uint64_t v = 0;
  for (int k = 0; k < 8; ++k) v |= static_cast<std::uint64_t>(in[off + k]) << (8 * k);
  off += 8;
  return v;
}

double get_f64(const std::vector<std::uint8_t>& in, std::size_t& off, IoErrorCode code,
               const char* what) {
  return std::bit_cast<double>(get_u64(in, off, code, what));
}

// --- whole-file helpers -----------------------------------------------------

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw IoError(IoErrorCode::kOpenFailed, "cannot open '" + path + "' for reading");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    throw IoError(IoErrorCode::kOpenFailed, "cannot determine size of '" + path + "'");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const std::size_t got =
      bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size())
    throw IoError(IoErrorCode::kOpenFailed, "cannot read all of '" + path + "'");
  return bytes;
}

namespace {
void (*g_write_fault_hook)() = nullptr;
}  // namespace

void set_write_fault_hook(void (*hook)()) { g_write_fault_hook = hook; }

void write_file_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  // Write-to-temp + fsync + rename: a crash anywhere in here leaves the
  // destination either untouched or fully replaced (rename(2) is atomic
  // within a filesystem), never a torn file.  Checkpoint recovery relies
  // on this: the newest file that decodes is a complete, valid state.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr)
    throw IoError(IoErrorCode::kOpenFailed, "cannot open '" + tmp + "' for writing");
  const std::size_t put =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool synced = flushed && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (put != bytes.size() || !synced) {
    std::remove(tmp.c_str());
    throw IoError(IoErrorCode::kOpenFailed, "cannot write all of '" + tmp + "'");
  }
  if (g_write_fault_hook != nullptr) g_write_fault_hook();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError(IoErrorCode::kOpenFailed,
                  "cannot rename '" + tmp + "' into '" + path + "'");
  }
}

// --- the SVGF field file ----------------------------------------------------

namespace {

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

/// a * b, setting `wrapped` when the product does not fit in 64 bits.
std::uint64_t mul_u64(std::uint64_t a, std::uint64_t b, bool& wrapped) {
  if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b) wrapped = true;
  return a * b;
}

/// Check the header's fields and return the file length they describe.
/// The derived sizes are formed here in checked 64-bit arithmetic, so a
/// forged header can neither wrap nplanes() or the length into a small
/// value nor overflow lattice::volume in plane_doubles() (the payload is
/// at least 8 bytes per site, so a payload that fits bounds the volume).
std::uint64_t described_bytes(const FieldFileHeader& h) {
  for (int mu = 0; mu < lattice::Nd; ++mu)
    if (h.dims[mu] <= 0)
      throw IoError(IoErrorCode::kCorruptHeader,
                    "dimension " + std::to_string(mu) + " is " +
                        std::to_string(h.dims[mu]) + " (must be positive)");
  if (h.nfields == 0 || h.site_doubles == 0)
    throw IoError(IoErrorCode::kCorruptHeader,
                  "nfields/site_doubles must be positive");
  bool wrapped = false;
  std::uint64_t payload = 8;
  for (int mu = 0; mu < lattice::Nd; ++mu)
    payload = mul_u64(payload, static_cast<std::uint64_t>(h.dims[mu]), wrapped);
  payload = mul_u64(mul_u64(payload, h.nfields, wrapped), h.site_doubles, wrapped);
  const std::uint64_t planes =
      std::uint64_t{h.nfields} * static_cast<std::uint64_t>(h.dims[0]);
  const std::uint64_t meta = h.meta_bytes > 0 ? std::uint64_t{h.meta_bytes} + 4 : 0;
  // Below 2^36 whenever the plane count fits its 32 bits.
  const std::uint64_t sections = kHeaderBytes + meta + planes * 4 + 4;
  if (wrapped || planes > std::numeric_limits<std::uint32_t>::max() ||
      payload > std::numeric_limits<std::uint64_t>::max() - sections)
    throw IoError(IoErrorCode::kCorruptHeader,
                  "dims " + lattice::to_string(h.dims) + " x " +
                      std::to_string(h.nfields) + " fields x " +
                      std::to_string(h.site_doubles) +
                      " doubles per site overflow the 32-bit plane count or the "
                      "64-bit file length");
  return sections + payload;
}

}  // namespace

std::vector<std::uint8_t> encode_field_file(
    const FieldFileHeader& header, const std::vector<std::uint8_t>& meta,
    const std::vector<std::vector<double>>& planes) {
  const std::uint64_t length = described_bytes(header);
  if (meta.size() != header.meta_bytes)
    throw IoError(IoErrorCode::kMismatch, "meta blob size does not match header");
  if (planes.size() != header.nplanes())
    throw IoError(IoErrorCode::kMismatch, "plane count does not match header");
  for (const auto& plane : planes)
    if (plane.size() != header.plane_doubles())
      throw IoError(IoErrorCode::kMismatch, "plane size does not match header");

  std::vector<std::uint8_t> out;
  out.reserve(length);

  // Fixed header, then its CRC.
  put_u32(out, kFieldMagic);
  put_u32(out, header.version);
  put_u32(out, header.precision_bits);
  put_u32(out, header.field_kind);
  for (int mu = 0; mu < lattice::Nd; ++mu)
    put_u32(out, static_cast<std::uint32_t>(header.dims[mu]));
  put_u32(out, header.nfields);
  put_u32(out, header.site_doubles);
  put_u32(out, header.meta_bytes);
  put_u32(out, crc32(out.data(), kHeaderCrcOffset));

  // Metadata blob + its CRC (present only when non-empty).
  if (!meta.empty()) {
    out.insert(out.end(), meta.begin(), meta.end());
    put_u32(out, crc32(meta.data(), meta.size()));
  }

  // Plane-CRC table + its CRC, then the planes themselves.
  std::vector<std::uint8_t> payload;
  payload.reserve(planes.size() * header.plane_doubles() * 8);
  std::vector<std::uint8_t> table;
  table.reserve(planes.size() * 4);
  for (const auto& plane : planes) {
    std::vector<std::uint8_t> bytes;
    bytes.reserve(plane.size() * 8);
    for (const double v : plane) put_f64(bytes, v);
    put_u32(table, crc32(bytes.data(), bytes.size()));
    payload.insert(payload.end(), bytes.begin(), bytes.end());
  }
  out.insert(out.end(), table.begin(), table.end());
  put_u32(out, crc32(table.data(), table.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FieldFile decode_field_file(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes)
    throw IoError(IoErrorCode::kShortRead,
                  "file has " + std::to_string(bytes.size()) +
                      " bytes; the fixed header needs " + std::to_string(kHeaderBytes));

  std::size_t off = 0;
  const std::uint32_t magic = get_u32(bytes, off, IoErrorCode::kShortRead, "magic");
  if (magic != kFieldMagic)
    throw IoError(IoErrorCode::kBadMagic, "first bytes are " + hex32(magic) +
                                              ", not \"SVGF\" (" + hex32(kFieldMagic) +
                                              "): not a svelat field file");

  FieldFile file;
  FieldFileHeader& h = file.header;
  h.version = get_u32(bytes, off, IoErrorCode::kShortRead, "version");
  if (h.version != kFormatVersion)
    throw IoError(IoErrorCode::kBadVersion,
                  "file is format version " + std::to_string(h.version) +
                      ", this reader understands version " +
                      std::to_string(kFormatVersion) +
                      " only (see docs/FORMAT.md for version-bump rules)");

  h.precision_bits = get_u32(bytes, off, IoErrorCode::kShortRead, "precision");
  h.field_kind = get_u32(bytes, off, IoErrorCode::kShortRead, "field kind");
  for (int mu = 0; mu < lattice::Nd; ++mu)
    h.dims[mu] = static_cast<int>(get_u32(bytes, off, IoErrorCode::kShortRead, "dims"));
  h.nfields = get_u32(bytes, off, IoErrorCode::kShortRead, "nfields");
  h.site_doubles = get_u32(bytes, off, IoErrorCode::kShortRead, "site_doubles");
  h.meta_bytes = get_u32(bytes, off, IoErrorCode::kShortRead, "meta_bytes");

  const std::uint32_t stored_header_crc =
      get_u32(bytes, off, IoErrorCode::kShortRead, "header crc");
  const std::uint32_t header_crc = crc32(bytes.data(), kHeaderCrcOffset);
  if (stored_header_crc != header_crc)
    throw IoError(IoErrorCode::kCorruptHeader,
                  "header CRC-32 mismatch: stored " + hex32(stored_header_crc) +
                      ", computed " + hex32(header_crc) +
                      " (a header byte was altered)");
  // With a validated header the exact file size is known; diagnose length
  // defects before touching the sections.
  const std::uint64_t expected = described_bytes(h);
  if (bytes.size() < expected)
    throw IoError(IoErrorCode::kTruncated,
                  "file has " + std::to_string(bytes.size()) + " bytes but the header" +
                      " describes " + std::to_string(expected) +
                      ": the file was cut off mid-write or mid-copy");
  if (bytes.size() > expected)
    throw IoError(IoErrorCode::kTrailingBytes,
                  "file has " + std::to_string(bytes.size() - expected) +
                      " bytes beyond the " + std::to_string(expected) +
                      " the header describes");

  if (h.meta_bytes > 0) {
    file.meta.assign(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                     bytes.begin() + static_cast<std::ptrdiff_t>(off + h.meta_bytes));
    off += h.meta_bytes;
    const std::uint32_t stored = get_u32(bytes, off, IoErrorCode::kTruncated, "meta crc");
    const std::uint32_t computed = crc32(file.meta.data(), file.meta.size());
    if (stored != computed)
      throw IoError(IoErrorCode::kCorruptPayload,
                    "metadata CRC-32 mismatch: stored " + hex32(stored) + ", computed " +
                        hex32(computed));
  }

  std::vector<std::uint32_t> plane_crcs(h.nplanes());
  const std::size_t table_off = off;
  for (auto& c : plane_crcs)
    c = get_u32(bytes, off, IoErrorCode::kTruncated, "plane crc table");
  {
    const std::uint32_t stored =
        get_u32(bytes, off, IoErrorCode::kTruncated, "table crc");
    const std::uint32_t computed =
        crc32(bytes.data() + table_off, static_cast<std::size_t>(h.nplanes()) * 4);
    if (stored != computed)
      throw IoError(IoErrorCode::kCorruptPayload,
                    "plane-CRC table CRC-32 mismatch: stored " + hex32(stored) +
                        ", computed " + hex32(computed));
  }

  file.planes.resize(h.nplanes());
  for (std::uint32_t p = 0; p < h.nplanes(); ++p) {
    const std::size_t plane_bytes = h.plane_doubles() * 8;
    const std::uint32_t computed = crc32(bytes.data() + off, plane_bytes);
    if (computed != plane_crcs[p])
      throw IoError(IoErrorCode::kCorruptPayload,
                    "plane " + std::to_string(p) + " (field " +
                        std::to_string(p / static_cast<std::uint32_t>(h.dims[0])) +
                        ", slice x0=" +
                        std::to_string(p % static_cast<std::uint32_t>(h.dims[0])) +
                        ") CRC-32 mismatch: stored " + hex32(plane_crcs[p]) +
                        ", computed " + hex32(computed) +
                        " (a payload byte was altered)");
    auto& plane = file.planes[p];
    plane.resize(h.plane_doubles());
    for (double& v : plane) v = get_f64(bytes, off, IoErrorCode::kTruncated, "payload");
  }
  return file;
}

void write_field_file(const std::string& path, const FieldFileHeader& header,
                      const std::vector<std::uint8_t>& meta,
                      const std::vector<std::vector<double>>& planes) {
  write_file_bytes(path, encode_field_file(header, meta, planes));
}

FieldFile read_field_file(const std::string& path) {
  return decode_field_file(read_file_bytes(path));
}

}  // namespace svelat::io
