// SVGF field-file format tests: bitwise round trips (including across
// SIMD layouts) and the corruption-handling contract of docs/FORMAT.md --
// every corruption class must fail with its own IoErrorCode and a
// distinct, actionable message, never crash or silently load.
#include "io/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <string>

#include "qcd/plaquette.h"
#include "qcd/su3.h"
#include "sve/sve.h"

namespace svelat::io {
namespace {

using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "svelat_io_" + name;
}

void patch_u32(std::vector<std::uint8_t>& bytes, std::size_t off, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) bytes[off + k] = static_cast<std::uint8_t>(v >> (8 * k));
}

/// Re-seal the fixed header after a deliberate edit, so the edit is
/// reached by validation instead of tripping the header CRC first.
void reseal_header(std::vector<std::uint8_t>& bytes) {
  patch_u32(bytes, kHeaderCrcOffset, crc32(bytes.data(), kHeaderCrcOffset));
}

/// A 52-byte file: a header describing `dims` of 4 link fields of 18
/// doubles per site under a valid CRC, then the CRC of an empty plane
/// table.
std::vector<std::uint8_t> forged_header_file(const lattice::Coordinate& dims) {
  std::vector<std::uint8_t> bytes(kHeaderBytes);
  patch_u32(bytes, kMagicOffset, kFieldMagic);
  patch_u32(bytes, kVersionOffset, kFormatVersion);
  patch_u32(bytes, kPrecisionOffset, 64);
  patch_u32(bytes, kFieldKindOffset, kFieldKindGauge);
  for (int mu = 0; mu < lattice::Nd; ++mu)
    patch_u32(bytes, kDimsOffset + 4 * static_cast<std::size_t>(mu),
              static_cast<std::uint32_t>(dims[mu]));
  patch_u32(bytes, kNfieldsOffset, 4);
  patch_u32(bytes, kSiteDoublesOffset, 18);
  reseal_header(bytes);
  put_u32(bytes, crc32("", 0));
  return bytes;
}

/// Run `f`, expect an IoError of class `code`, return its message.
template <class F>
std::string expect_io_error(IoErrorCode code, F&& f) {
  try {
    f();
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    EXPECT_NE(std::string(e.what()).find(io_error_name(code)), std::string::npos)
        << "message does not name its class: " << e.what();
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected IoError [" << io_error_name(code) << "], got "
                  << e.what();
    return "";
  }
  ADD_FAILURE() << "expected IoError [" << io_error_name(code) << "], got no error";
  return "";
}

class FormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sve::set_vector_length(256);
    grid_ = std::make_unique<lattice::GridCartesian>(
        lattice::Coordinate{4, 4, 4, 4},
        lattice::GridCartesian::default_simd_layout(S::Nsimd()));
    gauge_ = std::make_unique<qcd::GaugeField<S>>(grid_.get());
    qcd::random_gauge(SiteRNG(42), *gauge_);
  }
  std::unique_ptr<lattice::GridCartesian> grid_;
  std::unique_ptr<qcd::GaugeField<S>> gauge_;
};

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  // The universal CRC-32/ISO-HDLC check vector.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  // Incremental chaining covers concatenation.
  const std::uint32_t part = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, part), 0xCBF43926u);
}

TEST_F(FormatTest, EncodeDecodeRoundTripPreservesEverything) {
  const std::vector<std::uint8_t> meta = {1, 2, 3, 250, 0, 7};
  const auto bytes = encode_gauge(*gauge_, meta);
  const FieldFile file = decode_field_file(bytes);
  EXPECT_EQ(file.header.version, kFormatVersion);
  EXPECT_EQ(file.header.precision_bits, 64u);
  EXPECT_EQ(file.header.field_kind, kFieldKindGauge);
  EXPECT_EQ(file.header.dims, grid_->fdimensions());
  EXPECT_EQ(file.header.nfields, static_cast<std::uint32_t>(lattice::Nd));
  EXPECT_EQ(file.header.site_doubles, 18u);
  EXPECT_EQ(file.meta, meta);
  EXPECT_EQ(file.planes, gauge_planes(*gauge_));
}

TEST_F(FormatTest, SaveLoadRoundTripIsBitwise) {
  const std::string path = temp_path("roundtrip.svgf");
  save_gauge(path, *gauge_);
  qcd::GaugeField<S> loaded(grid_.get());
  const auto meta = load_gauge(path, loaded);
  EXPECT_TRUE(meta.empty());
  // Bitwise: the re-encoded byte streams are identical.
  EXPECT_EQ(encode_gauge(loaded), encode_gauge(*gauge_));
  EXPECT_EQ(qcd::average_plaquette(loaded), qcd::average_plaquette(*gauge_));
  std::remove(path.c_str());
}

TEST_F(FormatTest, FileIsIndependentOfTheSimdLayout) {
  // Write from the VL=256 layout, read into a VL=128 grid: the format is
  // lexicographic, so values agree site by site and the re-written file
  // is byte-identical.
  const std::string path = temp_path("crosslayout.svgf");
  save_gauge(path, *gauge_);

  using S128 = simd::SimdComplex<double, simd::kVLB128, simd::SveReal>;
  sve::VLGuard vl(128);
  lattice::GridCartesian g128(grid_->fdimensions(),
                              lattice::GridCartesian::default_simd_layout(S128::Nsimd()));
  qcd::GaugeField<S128> loaded(&g128);
  load_gauge(path, loaded);
  for (int mu = 0; mu < lattice::Nd; ++mu)
    for (int t = 0; t < 4; ++t) {
      const auto a = gauge_->U[mu].peek({1, 2, 3, t});
      const auto b = loaded.U[mu].peek({1, 2, 3, t});
      for (int i = 0; i < qcd::Nc; ++i)
        for (int j = 0; j < qcd::Nc; ++j) {
          EXPECT_EQ(a(i, j).real(), b(i, j).real());
          EXPECT_EQ(a(i, j).imag(), b(i, j).imag());
        }
    }
  EXPECT_EQ(encode_gauge(loaded), encode_gauge(*gauge_));
  std::remove(path.c_str());
}

// --- the corruption-handling contract ---------------------------------------

TEST_F(FormatTest, MissingFileFailsToOpen) {
  qcd::GaugeField<S> g(grid_.get());
  expect_io_error(IoErrorCode::kOpenFailed,
                  [&] { load_gauge(temp_path("does_not_exist.svgf"), g); });
}

TEST_F(FormatTest, ShortReadInsideTheHeader) {
  auto bytes = encode_gauge(*gauge_);
  bytes.resize(kHeaderBytes / 2);
  expect_io_error(IoErrorCode::kShortRead, [&] { decode_field_file(bytes); });
}

TEST_F(FormatTest, WrongMagicIsRejected) {
  auto bytes = encode_gauge(*gauge_);
  bytes[0] = 'X';
  const auto msg = expect_io_error(IoErrorCode::kBadMagic,
                                   [&] { decode_field_file(bytes); });
  EXPECT_NE(msg.find("SVGF"), std::string::npos);
}

TEST_F(FormatTest, WrongVersionIsRejected) {
  auto bytes = encode_gauge(*gauge_);
  patch_u32(bytes, kVersionOffset, kFormatVersion + 1);
  reseal_header(bytes);  // reach the version check, not the header CRC
  const auto msg = expect_io_error(IoErrorCode::kBadVersion,
                                   [&] { decode_field_file(bytes); });
  EXPECT_NE(msg.find("version"), std::string::npos);
}

TEST_F(FormatTest, HeaderBitFlipTripsTheHeaderCrc) {
  auto bytes = encode_gauge(*gauge_);
  bytes[kDimsOffset] ^= 0x04;  // silently grow a dimension
  expect_io_error(IoErrorCode::kCorruptHeader, [&] { decode_field_file(bytes); });
}

TEST_F(FormatTest, PayloadBitFlipTripsThePlaneCrc) {
  auto bytes = encode_gauge(*gauge_);
  bytes[bytes.size() - 5] ^= 0x01;  // low-order mantissa bit of the last plane
  const auto msg = expect_io_error(IoErrorCode::kCorruptPayload,
                                   [&] { decode_field_file(bytes); });
  // The message localizes the damage to a plane.
  EXPECT_NE(msg.find("plane"), std::string::npos);
  EXPECT_NE(msg.find("slice"), std::string::npos);
}

TEST_F(FormatTest, MetaBitFlipTripsTheMetaCrc) {
  auto bytes = encode_gauge(*gauge_, {9, 9, 9, 9});
  bytes[kHeaderBytes + 1] ^= 0x80;
  const auto msg = expect_io_error(IoErrorCode::kCorruptPayload,
                                   [&] { decode_field_file(bytes); });
  EXPECT_NE(msg.find("metadata"), std::string::npos);
}

TEST_F(FormatTest, TruncationIsDetectedBeforeAnyDataIsUsed) {
  auto bytes = encode_gauge(*gauge_);
  bytes.resize(bytes.size() - 8);  // lost the tail of the payload
  expect_io_error(IoErrorCode::kTruncated, [&] { decode_field_file(bytes); });
  bytes.resize(kHeaderBytes + 2);  // lost nearly everything after the header
  expect_io_error(IoErrorCode::kTruncated, [&] { decode_field_file(bytes); });
  // A metadata length of 2^32 - 4: with its 4-byte CRC it must not wrap
  // to 0 and let decoding copy 4 GiB from past the end of the bytes.
  bytes = encode_gauge(*gauge_);
  patch_u32(bytes, kMetaBytesOffset, 0xFFFFFFFCu);
  reseal_header(bytes);
  expect_io_error(IoErrorCode::kTruncated, [&] { decode_field_file(bytes); });
}

TEST_F(FormatTest, TrailingBytesAreRejected) {
  auto bytes = encode_gauge(*gauge_);
  bytes.push_back(0);
  expect_io_error(IoErrorCode::kTrailingBytes, [&] { decode_field_file(bytes); });
}

TEST_F(FormatTest, HeaderSizesThatOverflowAreCorrupt) {
  // Both headers carry a valid CRC.  4 fields x dims[0] = 2^30 is 2^32
  // planes: wrapped to 32 bits that count is 0, and the 52-byte file
  // would decode as a configuration of no planes.  (2^31 - 1)^4 sites
  // overflow lattice::volume's int64, undefined behaviour that the
  // sanitizer build reports.
  constexpr int kMax = std::numeric_limits<int>::max();
  const lattice::Coordinate forged[] = {{1 << 30, 1, 1, 1}, {kMax, kMax, kMax, kMax}};
  for (const lattice::Coordinate& dims : forged) {
    const auto bytes = forged_header_file(dims);
    ASSERT_EQ(bytes.size(), 52u);
    expect_io_error(IoErrorCode::kCorruptHeader, [&] { decode_field_file(bytes); });
  }
}

TEST_F(FormatTest, GridMismatchIsRejectedAfterValidation) {
  const std::string path = temp_path("mismatch.svgf");
  save_gauge(path, *gauge_);
  lattice::GridCartesian other({4, 4, 4, 8},
                               lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  qcd::GaugeField<S> wrong(&other);
  const auto msg =
      expect_io_error(IoErrorCode::kMismatch, [&] { load_gauge(path, wrong); });
  EXPECT_NE(msg.find("4 4 4 8"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FormatTest, EveryCorruptionClassHasADistinctMessage) {
  // The acceptance criterion: distinct error *messages*, not one generic
  // "load failed".  Collect one message per class and compare pairwise.
  std::map<std::string, std::string> messages;  // class name -> message
  const auto record = [&](IoErrorCode code, std::vector<std::uint8_t> bytes) {
    messages[io_error_name(code)] =
        expect_io_error(code, [&] { decode_field_file(bytes); });
  };
  const auto good = encode_gauge(*gauge_, {1, 2, 3});

  auto bytes = good;
  bytes.resize(10);
  record(IoErrorCode::kShortRead, bytes);

  bytes = good;
  bytes[1] ^= 0xFF;
  record(IoErrorCode::kBadMagic, bytes);

  bytes = good;
  patch_u32(bytes, kVersionOffset, 99);
  reseal_header(bytes);
  record(IoErrorCode::kBadVersion, bytes);

  bytes = good;
  bytes[kNfieldsOffset] ^= 0x01;
  record(IoErrorCode::kCorruptHeader, bytes);

  bytes = good;
  bytes.resize(bytes.size() - 1);
  record(IoErrorCode::kTruncated, bytes);

  bytes = good;
  bytes.back() ^= 0x10;
  record(IoErrorCode::kCorruptPayload, bytes);

  bytes = good;
  bytes.insert(bytes.end(), {1, 2, 3});
  record(IoErrorCode::kTrailingBytes, bytes);

  EXPECT_EQ(messages.size(), 7u);
  for (auto a = messages.begin(); a != messages.end(); ++a)
    for (auto b = std::next(a); b != messages.end(); ++b)
      EXPECT_NE(a->second, b->second)
          << a->first << " and " << b->first << " share one message";
}

}  // namespace
}  // namespace svelat::io
