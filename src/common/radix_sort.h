#ifndef PSENS_COMMON_RADIX_SORT_H_
#define PSENS_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace psens {

/// Stable LSD radix sort of data[0, n) by key(data[i]), for keys in
/// [0, key_limit). Sorts 11 bits per pass, and only as many passes as
/// key_limit needs (two for a million-sensor id space), so it costs
/// O(n + 2^11) per pass with no comparisons. `scratch` must hold n
/// elements. Equal keys keep their input order, so sorting distinct ids
/// yields exactly std::sort's ascending order.
template <typename T, typename KeyFn>
void RadixSortByKey(T* data, T* scratch, size_t n, uint32_t key_limit,
                    KeyFn&& key) {
  constexpr int kDigitBits = 11;
  constexpr uint32_t kDigitMask = (uint32_t{1} << kDigitBits) - 1;
  T* from = data;
  T* to = scratch;
  for (int shift = 0; shift < 32 && ((key_limit - 1) >> shift) > 0 && n > 1;
       shift += kDigitBits) {
    size_t start[kDigitMask + 2] = {};
    for (size_t i = 0; i < n; ++i) {
      ++start[((static_cast<uint32_t>(key(from[i])) >> shift) & kDigitMask) + 1];
    }
    for (uint32_t d = 1; d <= kDigitMask + 1; ++d) start[d] += start[d - 1];
    for (size_t i = 0; i < n; ++i) {
      to[start[(static_cast<uint32_t>(key(from[i])) >> shift) & kDigitMask]++] =
          from[i];
    }
    std::swap(from, to);
  }
  if (from != data) std::copy(from, from + n, data);
}

}  // namespace psens

#endif  // PSENS_COMMON_RADIX_SORT_H_
