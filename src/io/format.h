// The SVGF on-disk field-file format (normative spec: docs/FORMAT.md).
//
// A field file is a fixed-endianness container for one lattice field
// group (version 1: the four colour-matrix link fields of a gauge
// configuration).  Everything multi-byte is little-endian on disk; reals
// are IEEE-754 binary64.  The payload is cut into *planes* -- one
// (field, slice-along-dimension-0) pair each, in the exact lexicographic
// order comms/distributed.h's pack_field produces -- and every plane
// carries its own CRC-32, so corruption is localized to a plane in the
// error message.  The header, the metadata blob and the plane-CRC table
// are each covered by their own CRC-32 as well.
//
// Validation is strict and total: a file either decodes to exactly the
// bytes that were written, or decoding throws an IoError whose code (and
// message) names the corruption class -- short read, bad magic,
// unsupported version, header/meta/table/plane CRC mismatch, truncation,
// trailing bytes.  Silent partial loads do not exist.
//
// This layer is deliberately untemplated: it moves bytes and doubles.
// The glue that knows about GaugeField lives in io/gauge_io.h.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "lattice/coordinates.h"

namespace svelat::io {

// --- errors -----------------------------------------------------------------

/// Corruption / failure classes of the I/O layer.  Every class produces a
/// distinct, greppable error message (tested by tests/io/test_format.cpp).
enum class IoErrorCode {
  kOpenFailed,      ///< file could not be opened / read / written
  kShortRead,       ///< file ends inside the fixed header
  kBadMagic,        ///< first four bytes are not "SVGF"
  kBadVersion,      ///< version field is not a version this reader knows
  kCorruptHeader,   ///< header CRC-32 mismatch, or sizes out of range
  kTruncated,       ///< file ends inside meta / CRC table / payload
  kCorruptPayload,  ///< plane or meta or table CRC-32 mismatch
  kTrailingBytes,   ///< file is longer than the format describes
  kMismatch,        ///< file is valid but does not fit the destination
};

const char* io_error_name(IoErrorCode code);

class IoError : public std::runtime_error {
 public:
  IoError(IoErrorCode code, const std::string& detail);
  IoErrorCode code() const { return code_; }

 private:
  IoErrorCode code_;
};

// --- little-endian byte helpers ---------------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_f64(std::vector<std::uint8_t>& out, double v);

/// Read little-endian scalars at `off`, advancing it.  Throw
/// IoError(code, what) when fewer than the needed bytes remain.
std::uint32_t get_u32(const std::vector<std::uint8_t>& in, std::size_t& off,
                      IoErrorCode code, const char* what);
std::uint64_t get_u64(const std::vector<std::uint8_t>& in, std::size_t& off,
                      IoErrorCode code, const char* what);
double get_f64(const std::vector<std::uint8_t>& in, std::size_t& off, IoErrorCode code,
               const char* what);

// --- whole-file helpers -----------------------------------------------------

/// Read a whole file; throws IoError(kOpenFailed) when it cannot be read.
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

/// Write a whole file ATOMICALLY: the bytes go to `<path>.tmp` (written,
/// flushed and fsync'd), which is then rename(2)'d over `path`.  A crash
/// at ANY point -- including SIGKILL mid-write -- leaves either the old
/// file intact or the new file complete, never a torn mix; this is what
/// lets a restarted run trust the newest checkpoint that decodes.
/// Throws IoError(kOpenFailed) on any failure (the temp file is removed).
void write_file_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Test/fault hook: when set, invoked after the temp file is fully
/// written and synced but BEFORE the rename commits it.  The kill-during-
/// write tests install a hook that raises SIGKILL here to prove the
/// previous file survives an interrupted write.  Pass nullptr to clear.
void set_write_fault_hook(void (*hook)());

// --- the SVGF field file ----------------------------------------------------

inline constexpr std::uint32_t kFieldMagic = 0x46475653u;  // "SVGF" on disk
inline constexpr std::uint32_t kFormatVersion = 1;

/// field_kind values (what one "field" of the payload is).
inline constexpr std::uint32_t kFieldKindGauge = 1;  ///< Nd SU(3) link fields

/// Fixed header byte offsets (version 1).  The header is kHeaderBytes
/// long; header_crc covers bytes [0, kHeaderCrcOffset).
inline constexpr std::size_t kMagicOffset = 0;
inline constexpr std::size_t kVersionOffset = 4;
inline constexpr std::size_t kPrecisionOffset = 8;
inline constexpr std::size_t kFieldKindOffset = 12;
inline constexpr std::size_t kDimsOffset = 16;
inline constexpr std::size_t kNfieldsOffset = 32;
inline constexpr std::size_t kSiteDoublesOffset = 36;
inline constexpr std::size_t kMetaBytesOffset = 40;
inline constexpr std::size_t kHeaderCrcOffset = 44;
inline constexpr std::size_t kHeaderBytes = 48;

struct FieldFileHeader {
  std::uint32_t version = kFormatVersion;
  std::uint32_t precision_bits = 64;  ///< bits per real in the source field
  std::uint32_t field_kind = kFieldKindGauge;
  lattice::Coordinate dims{0, 0, 0, 0};
  std::uint32_t nfields = 0;       ///< fields in the payload (gauge: Nd)
  std::uint32_t site_doubles = 0;  ///< doubles per site per field
  std::uint32_t meta_bytes = 0;    ///< length of the metadata blob

  // Exact only for a header that encode_field_file or decode_field_file
  // accepted: both reject one whose derived sizes overflow.
  std::uint32_t nplanes() const {
    return nfields * static_cast<std::uint32_t>(dims[0]);
  }
  std::size_t plane_doubles() const {
    return static_cast<std::size_t>(lattice::volume(dims) / dims[0]) * site_doubles;
  }
};

/// A fully decoded (and fully validated) field file.
struct FieldFile {
  FieldFileHeader header;
  std::vector<std::uint8_t> meta;
  /// planes[f * dims[0] + s]: field f, slice x0 == s, pack_face order.
  std::vector<std::vector<double>> planes;
};

/// Serialize header + meta + planes into the on-disk byte stream,
/// computing every CRC.  Plane count and sizes must match the header.
std::vector<std::uint8_t> encode_field_file(
    const FieldFileHeader& header, const std::vector<std::uint8_t>& meta,
    const std::vector<std::vector<double>>& planes);

/// Parse and validate the full byte stream (header, CRCs, sizes);
/// throws IoError naming the corruption class on any defect.
FieldFile decode_field_file(const std::vector<std::uint8_t>& bytes);

/// Convenience: encode + write / read + decode.
void write_field_file(const std::string& path, const FieldFileHeader& header,
                      const std::vector<std::uint8_t>& meta,
                      const std::vector<std::vector<double>>& planes);
FieldFile read_field_file(const std::string& path);

}  // namespace svelat::io
