#include "util/simd.hpp"

#include <atomic>

namespace hdem::simd {

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
  }
  return "unknown";
}

bool cpu_supports_width(int w) {
  if (w <= 1) return true;
  if (w > kMaxWidth) return false;
#if defined(HDEM_SIMD_HAS_NEON)
  // NEON is architecturally mandatory on AArch64.
  return w <= 2;
#elif defined(HDEM_SIMD_HAS_AVX) || defined(HDEM_SIMD_HAS_SSE2)
#if defined(__x86_64__) || defined(__i386__)
  if (w > 2) return __builtin_cpu_supports("avx2") != 0;
  return __builtin_cpu_supports("sse2") != 0;
#else
  return false;
#endif
#else
  return false;
#endif
}

namespace {

int detect_width() {
  int w = kMaxWidth;
  while (w > 1 && !cpu_supports_width(w)) w /= 2;
  return w;
}

// 0 = not yet detected; <0 impossible; >=1 cached/overridden width.
std::atomic<int> g_width{0};

}  // namespace

int dispatch_width() {
  int w = g_width.load(std::memory_order_relaxed);
  if (w >= 1) return w;
  w = detect_width();
  g_width.store(w, std::memory_order_relaxed);
  return w;
}

void set_dispatch_width(int w) {
  if (w <= 0) {
    g_width.store(0, std::memory_order_relaxed);
    return;
  }
  if (w > kMaxWidth) w = kMaxWidth;
  while (w > 1 && !cpu_supports_width(w)) w /= 2;
  g_width.store(w, std::memory_order_relaxed);
}

Isa active_isa() {
  const int w = dispatch_width();
  if (w <= 1) return Isa::kScalar;
#if defined(HDEM_SIMD_HAS_NEON)
  return Isa::kNeon;
#elif defined(HDEM_SIMD_HAS_AVX)
  return w >= 4 ? Isa::kAvx2 : Isa::kSse2;
#elif defined(HDEM_SIMD_HAS_SSE2)
  return Isa::kSse2;
#else
  return Isa::kScalar;
#endif
}

}  // namespace hdem::simd
