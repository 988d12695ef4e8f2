// A counting replacement of the global operator new, for the allocation
// tests. The array and nothrow forms forward to it. It defines the
// replacement functions, so include it in one source file of a test
// binary only.
#ifndef DBSM_TESTS_COUNTING_NEW_HPP
#define DBSM_TESTS_COUNTING_NEW_HPP

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace counting_new {
/// Calls to operator new, and the bytes they asked for.
inline std::uint64_t allocations = 0;
inline std::size_t allocated_bytes = 0;
/// Bytes asked for and not yet handed back through the sized delete,
/// the form std::allocator uses. An unsized delete is not subtracted, so
/// this may overstate what is live, never understate it.
inline std::size_t live_bytes = 0;
}  // namespace counting_new

// GCC cannot tell that these deletes only ever see this new's pointers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++counting_new::allocations;
  counting_new::allocated_bytes += n;
  counting_new::live_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t n) noexcept {
  counting_new::live_bytes -= n;
  std::free(p);
}
#pragma GCC diagnostic pop

#endif  // DBSM_TESTS_COUNTING_NEW_HPP
