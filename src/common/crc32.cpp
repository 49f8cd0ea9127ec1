#include "common/crc32.h"

#include <array>

#include "common/cpu_features.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define SNS_HAVE_CRC_FOLD 1
#endif

namespace sns {
namespace {

constexpr std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = MakeCrcTable();

/// One byte per step on the raw (pre-inverted) register. The portable path,
/// and the tail of the fold.
uint32_t TableLoop(const unsigned char* bytes, size_t size, uint32_t c) {
  for (size_t i = 0; i < size; ++i) {
    c = kCrcTable[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef SNS_HAVE_CRC_FOLD

#define SNS_CRC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

SNS_CRC_FOLD_TARGET inline __m128i Load(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One 128-bit fold step: a.lo·k.lo ⊕ a.hi·k.hi ⊕ next, where k holds the
/// two x^n mod P that move `a` forward by the fold distance.
SNS_CRC_FOLD_TARGET inline __m128i Fold(__m128i a, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Folds `size` bytes (a multiple of 16, at least 64) into the raw register
/// `c` with carry-less multiplies: Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
/// bit-reflected domain. Four 128-bit lanes fold 64 bytes per step, collapse
/// into one lane, which folds the remaining 16-byte blocks; 128 bits then
/// shrink to 64, and a Barrett reduction leaves the 32-bit remainder. The
/// constants are the reflected x^n mod P of the paper's appendix; the
/// Barrett pair is (P', μ') = (0x1DB710641, 0x1F7011641).
SNS_CRC_FOLD_TARGET uint32_t FoldPclmul(const unsigned char* p, size_t size,
                                        uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  const __m128i k3k4 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163CD6124);
  const __m128i barrett = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x0 = Fold(x0, k1k2, Load(p));
    x1 = Fold(x1, k1k2, Load(p + 16));
    x2 = Fold(x2, k1k2, Load(p + 32));
    x3 = Fold(x3, k1k2, Load(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) x0 = Fold(x0, k3k4, Load(p));

  // 128 → 64 bits: the low half times x^(128−32) into the high half, then
  // the low 32 bits times x^64 mod P into the upper 64.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett reduction; the remainder lands in lane 1.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

/// The fold runs wherever the process kernel tier is an intrinsic one (so
/// SNS_FORCE_GENERIC_KERNELS keeps the table loop) and the host has
/// PCLMULQDQ. Both tiers imply SSE4.1.
bool UseFold() {
  return DetectCpuFeatures().pclmul &&
         ResolveKernelTier() != KernelTier::kGeneric;
}

#endif  // SNS_HAVE_CRC_FOLD

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
#ifdef SNS_HAVE_CRC_FOLD
  if (size >= 64 && UseFold()) {
    const size_t folded = size & ~size_t{15};
    c = FoldPclmul(bytes, folded, c);
    bytes += folded;
    size -= folded;
  }
#endif
  return TableLoop(bytes, size, c) ^ 0xFFFFFFFFu;
}

}  // namespace sns
