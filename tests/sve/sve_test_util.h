// Shared helpers for SVE simulator tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sve/sve.h"

namespace svelat::sve::testing {

/// All legal SVE vector lengths.
inline std::vector<unsigned> all_vector_lengths() {
  std::vector<unsigned> vls;
  for (unsigned bits = kMinVectorBits; bits <= kMaxVectorBits; bits += kVectorBitsStep)
    vls.push_back(bits);
  return vls;
}

/// The subset the paper enables in Grid (Sec. V-B).
inline std::vector<unsigned> grid_vector_lengths() { return {128, 256, 512}; }

/// Deterministic lane fill: value depends on (tag, lane) only.
template <typename E>
inline svreg<E> make_reg(int tag) {
  svreg<E> r{};
  for (unsigned i = 0; i < svreg<E>::kMaxLanes; ++i)
    r.lane[i] = static_cast<E>(
        static_cast<double>((tag * 131 + static_cast<int>(i) * 7) % 23) - 11.0);
  return r;
}

/// Base fixture parameterized over the vector length.
class VLTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { set_vector_length(GetParam()); }
  void TearDown() override { set_vector_length(512); }
};

}  // namespace svelat::sve::testing
