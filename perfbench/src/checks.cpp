#include "checks.hpp"

#include <sys/mman.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "dcd/util/rng.hpp"

namespace perfbench {

// --- conservation -----------------------------------------------------------

Conservation::Conservation(std::size_t streams, std::uint64_t max_per_stream,
                           std::uint64_t seed)
    : streams_(streams),
      max_(max_per_stream),
      key_(dcd::util::SplitMix64(seed ^ 0xc0115e7a7105ull).next() &
           ((1ull << 48) - 1)),
      words_per_stream_((max_per_stream + 63) / 64) {
  // Anonymous mapping: zero pages appear only where values land, so peak
  // RSS follows the values actually pushed (calloc may memset the block).
  bytes_ = streams_ * words_per_stream_ * sizeof(std::uint64_t);
  void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  bits_ = static_cast<std::uint64_t*>(p);
}

Conservation::~Conservation() { munmap(bits_, bytes_); }

Conservation::Mark Conservation::mark(std::uint64_t value) noexcept {
  const std::uint64_t id = value ^ key_;
  const std::uint64_t stream = id >> kSeqBits;
  const std::uint64_t seq = id & ((1ull << kSeqBits) - 1);
  if (stream >= streams_ || seq >= max_) return Mark::kForeign;
  std::atomic_ref<std::uint64_t> w(bits_[stream * words_per_stream_ + seq / 64]);
  const std::uint64_t bit = 1ull << (seq % 64);
  const std::uint64_t old = w.fetch_or(bit, std::memory_order_relaxed);
  return (old & bit) != 0 ? Mark::kDuplicate : Mark::kOk;
}

std::string Conservation::verify(const std::vector<std::uint64_t>& pushed,
                                 std::uint64_t ok_marks) const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < streams_; ++s) {
    const std::uint64_t n = s < pushed.size() ? pushed[s] : 0;
    total += n;
    const std::uint64_t* w = bits_ + s * words_per_stream_;
    for (std::uint64_t seq = 0; seq < n; ++seq) {
      if ((w[seq / 64] >> (seq % 64) & 1) == 0) {
        return "stream " + std::to_string(s) + " value #" +
               std::to_string(seq) + " was pushed but never popped";
      }
    }
  }
  if (ok_marks != total) {
    return std::to_string(ok_marks) + " distinct values popped but " +
           std::to_string(total) + " pushed";
  }
  return "";
}

// --- forkjoin ---------------------------------------------------------------

std::uint64_t fib_iterative(std::uint64_t n) {
  std::uint64_t a = 0, b = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  return a;
}

std::uint64_t fib_tree_tasks(std::uint64_t n) {
  std::uint64_t prev = 1, cur = 1;  // tasks(0), tasks(1)
  for (std::uint64_t i = 2; i <= n; ++i) {
    const std::uint64_t next = cur + prev + 2;
    prev = cur;
    cur = next;
  }
  return n == 0 ? 1 : cur;
}

bool fib_ok(std::uint64_t n, std::uint64_t got) {
  return got == fib_iterative(n);
}

// --- request ----------------------------------------------------------------

std::uint64_t request_node_value(std::uint64_t key, std::uint64_t idx,
                                 std::uint64_t work) noexcept {
  dcd::util::SplitMix64 sm(key * 0x100000001b3ull + idx);
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < work; ++i) v ^= sm.next();
  return v;
}

std::uint64_t request_combine(std::uint64_t self, std::uint64_t left,
                              std::uint64_t right) noexcept {
  // Order-sensitive, so a swapped or misrouted child result shows.
  return self ^ (left * 0x9e3779b97f4a7c15ull) ^
         ((right << 1 | right >> 63) + 0x632be59bd9b4e019ull);
}

std::uint64_t request_fold_serial(const RequestInput& in, std::uint64_t idx) {
  const std::uint64_t v = request_node_value(in.key, idx, in.work);
  if (idx >= kRequestFirstLeaf) return v;
  return request_combine(v, request_fold_serial(in, 2 * idx),
                         request_fold_serial(in, 2 * idx + 1));
}

// --- self-test --------------------------------------------------------------

int checker_self_test() {
  int missed = 0;
  auto expect = [&](const char* what, bool flagged) {
    if (!flagged) {
      ++missed;
      std::fprintf(stderr, "checker self-test: %s NOT flagged\n", what);
    }
  };

  constexpr std::uint64_t kN = 100;
  {  // clean run passes; dropping one value is flagged
    Conservation c(1, kN, 7);
    std::uint64_t ok = 0;
    for (std::uint64_t i = 0; i < kN; ++i) {
      ok += c.mark(c.encode(0, i)) == Conservation::Mark::kOk;
    }
    expect("clean conservation run (false alarm)", c.verify({kN}, ok).empty());
    Conservation d(1, kN, 7);
    ok = 0;
    for (std::uint64_t i = 0; i < kN; ++i) {
      if (i == 41) continue;  // dropped
      ok += d.mark(d.encode(0, i)) == Conservation::Mark::kOk;
    }
    expect("dropped value", !d.verify({kN}, ok).empty());
  }
  {  // one value popped twice
    Conservation c(1, kN, 7);
    bool dup = false;
    for (std::uint64_t i = 0; i < kN; ++i) {
      dup |= c.mark(c.encode(0, i)) != Conservation::Mark::kOk;
    }
    dup |= c.mark(c.encode(0, 17)) != Conservation::Mark::kOk;
    expect("duplicated value", dup);
  }
  expect("clean fib (false alarm)", fib_ok(20, 6765));
  expect("off-by-one fib", !fib_ok(20, 6766));
  {
    const RequestInput in{0x1234, 8};
    const std::uint64_t good = request_fold_serial(in);
    // A wrong fold: the two children of the root swapped.
    const std::uint64_t bad = request_combine(
        request_node_value(in.key, 1, in.work), request_fold_serial(in, 3),
        request_fold_serial(in, 2));
    expect("clean request fold (false alarm)",
           request_ok(good, request_fold_serial(in)));
    expect("wrong request fold", !request_ok(good, bad));
  }
  std::fprintf(stderr,
               "checker self-test: %d of 7 cases wrong (4 corruptions, "
               "3 clean results)\n",
               missed);
  return missed;
}

}  // namespace perfbench
