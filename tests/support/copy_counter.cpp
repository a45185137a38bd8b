// Copy-counting interposer for test_copy_budget, loaded with LD_PRELOAD.
//
// Defines memcpy and memmove in front of the C library's: each call of at
// least kCountedBytes adds its size to a process-wide tally, then forwards
// to the real function (looked up once with dlsym(RTLD_NEXT)). Smaller
// copies — the headers, seals and primitives a migration stitches — are
// not counted, so the tally reads as stream bytes copied. Read it through
// hpm_copy_counter_bytes(), found with dlsym(RTLD_DEFAULT) by the test.
//
// Not for the sanitizer builds: ASan and TSan intercept memcpy themselves.
// Built with -fno-builtin so the fallback loop below stays a loop and
// cannot be turned back into a call to the memcpy it implements.
#include <dlfcn.h>

#include <atomic>
#include <cstddef>

namespace {

constexpr std::size_t kCountedBytes = 4096;

using CopyFn = void* (*)(void*, const void*, std::size_t);

std::atomic<unsigned long long> copied{0};
std::atomic<CopyFn> real_memcpy{nullptr};
std::atomic<CopyFn> real_memmove{nullptr};
std::atomic<bool> resolving{false};

/// Byte-wise memmove for the calls that arrive while dlsym itself runs.
void* slow_move(void* dst, const void* src, std::size_t n) {
  auto* d = static_cast<volatile unsigned char*>(dst);
  const auto* s = static_cast<const volatile unsigned char*>(src);
  if (d < s) {
    for (std::size_t i = 0; i < n; ++i) d[i] = s[i];
  } else {
    for (std::size_t i = n; i-- > 0;) d[i] = s[i];
  }
  return dst;
}

void* forward(std::atomic<CopyFn>& slot, const char* name, void* dst, const void* src,
              std::size_t n) {
  if (n >= kCountedBytes) copied.fetch_add(n, std::memory_order_relaxed);
  CopyFn fn = slot.load(std::memory_order_acquire);
  if (fn == nullptr && !resolving.exchange(true)) {
    fn = reinterpret_cast<CopyFn>(dlsym(RTLD_NEXT, name));
    slot.store(fn, std::memory_order_release);
    resolving.store(false);
  }
  return fn != nullptr ? fn(dst, src, n) : slow_move(dst, src, n);
}

}  // namespace

extern "C" {

void* memcpy(void* dst, const void* src, std::size_t n) {
  return forward(real_memcpy, "memcpy", dst, src, n);
}

void* memmove(void* dst, const void* src, std::size_t n) {
  return forward(real_memmove, "memmove", dst, src, n);
}

/// Bytes copied by memcpy/memmove calls of at least 4 KiB so far.
unsigned long long hpm_copy_counter_bytes() {
  return copied.load(std::memory_order_relaxed);
}

}  // extern "C"
