#include "reference_kernel.h"

#include <sys/mman.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>

namespace perfbench {
namespace {

/// Keeps the kernel's result live so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

uint64_t XorShift(uint64_t x) {
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  return x;
}

/// Fresh zeroed pages for `n` words; the pass pays their page faults.
uint64_t* MapWords(size_t n) {
  void* p = mmap(nullptr, n * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) std::abort();
  return static_cast<uint64_t*>(p);
}

}  // namespace

double ReferencePass() {
  constexpr size_t kTableWords = 1u << 21, kStreamWords = 4u << 20;
  const auto start = std::chrono::steady_clock::now();
  uint64_t* table = MapWords(kTableWords);
  uint64_t* src = MapWords(kStreamWords);
  uint64_t* dst = MapWords(kStreamWords);
  const uint64_t mask = kTableWords - 1;
  constexpr uint64_t kMul = 0x2545F4914F6CDD1DULL;
  uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
  for (uint64_t i = 0; i < (1u << 20); ++i) {
    x = XorShift(x);
    uint64_t h = (x * kMul) & mask;
    while (table[h] != 0) h = (h + 1) & mask;
    table[h] = x | 1;
  }
  for (uint64_t i = 0; i < (1u << 20); ++i) {
    x = XorShift(x);
    acc += table[(x * kMul) & mask];
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < kStreamWords; ++i) dst[i] = src[i] + acc + i;
    acc += dst[acc & (kStreamWords - 1)];
  }
  g_sink = acc;
  munmap(table, kTableWords * sizeof(uint64_t));
  munmap(src, kStreamWords * sizeof(uint64_t));
  munmap(dst, kStreamWords * sizeof(uint64_t));
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
