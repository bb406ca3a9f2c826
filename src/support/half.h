// IEEE 754 binary16 ("half") software floating point.
//
// The paper (Sec. V-B) notes that Grid uses 16-bit floats exclusively for
// compressing data exchanged over the network; the SVE ISA provides
// vectorized fp16 arithmetic and precision conversion.  This type is the
// scalar reference for the simulator's fp16 lanes and for the halo
// compression substrate.  Conversions implement round-to-nearest-even,
// matching the FCVT behaviour of the hardware.
#pragma once

#include <cstdint>
#include <iosfwd>

namespace svelat {

class half {
 public:
  half() = default;

  /// Construct from float with round-to-nearest-even (like FCVT h,s).
  explicit half(float f) : bits_(float_to_bits(f)) {}
  explicit half(double d) : half(static_cast<float>(d)) {}

  /// Widening conversion (exact, like FCVT s,h).
  explicit operator float() const { return bits_to_float(bits_); }
  explicit operator double() const { return static_cast<double>(bits_to_float(bits_)); }

  /// Raw bit pattern access (for packing into exchange buffers).
  static half from_bits(std::uint16_t b) {
    half h;
    h.bits_ = b;
    return h;
  }
  std::uint16_t bits() const { return bits_; }

  bool is_nan() const { return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) != 0; }
  bool is_inf() const { return (bits_ & 0x7fffu) == 0x7c00u; }
  bool is_zero() const { return (bits_ & 0x7fffu) == 0; }
  bool signbit() const { return (bits_ & 0x8000u) != 0; }

  // Arithmetic is carried out in float, then rounded once -- the same
  // numerical contract as an fp16 FMA-free ALU with widening operands.
  friend half operator+(half a, half b) { return half(float(a) + float(b)); }
  friend half operator-(half a, half b) { return half(float(a) - float(b)); }
  friend half operator*(half a, half b) { return half(float(a) * float(b)); }
  friend half operator/(half a, half b) { return half(float(a) / float(b)); }
  friend half operator-(half a) {
    return from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }

  half& operator+=(half o) { return *this = *this + o; }
  half& operator-=(half o) { return *this = *this - o; }
  half& operator*=(half o) { return *this = *this * o; }
  half& operator/=(half o) { return *this = *this / o; }

  friend bool operator==(half a, half b) { return float(a) == float(b); }
  friend bool operator!=(half a, half b) { return float(a) != float(b); }
  friend bool operator<(half a, half b) { return float(a) < float(b); }
  friend bool operator<=(half a, half b) { return float(a) <= float(b); }
  friend bool operator>(half a, half b) { return float(a) > float(b); }
  friend bool operator>=(half a, half b) { return float(a) >= float(b); }

  /// Largest finite value: 65504.
  static half max() { return from_bits(0x7bffu); }
  /// Smallest positive normal: 2^-14.
  static half min_normal() { return from_bits(0x0400u); }
  /// Machine epsilon: 2^-10.
  static half epsilon() { return from_bits(0x1400u); }
  static half infinity() { return from_bits(0x7c00u); }
  static half quiet_nan() { return from_bits(0x7e00u); }

  static std::uint16_t float_to_bits(float f);
  static float bits_to_float(std::uint16_t h);

 private:
  std::uint16_t bits_ = 0;
};

std::ostream& operator<<(std::ostream& os, half h);

static_assert(sizeof(half) == 2, "half must be 16 bits wide");

}  // namespace svelat
