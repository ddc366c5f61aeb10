// Output checkers, each computed apart from the program under test, and
// the self-test that feeds every checker a corrupted result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// --- deque_ends: conservation ---------------------------------------------
//
// Values are seeded encodings of (stream, seq): each pushing thread (and
// the prefill) is a stream and numbers its pushes 0, 1, 2, ... Every pop,
// in-run or in the final drain, marks its value in a per-stream seen-bitmap,
// so each value is accounted for individually rather than through sums.
class Conservation {
 public:
  enum class Mark { kOk, kDuplicate, kForeign };

  Conservation(std::size_t streams, std::uint64_t max_per_stream,
               std::uint64_t seed);
  ~Conservation();
  Conservation(const Conservation&) = delete;
  Conservation& operator=(const Conservation&) = delete;

  std::uint64_t max_per_stream() const noexcept { return max_; }
  std::uint64_t encode(std::size_t stream, std::uint64_t seq) const noexcept {
    return ((static_cast<std::uint64_t>(stream) << kSeqBits) | seq) ^ key_;
  }
  // Thread-safe; a popper only ever dirties the lines of the streams whose
  // values it pops.
  Mark mark(std::uint64_t value) noexcept;
  // `pushed[s]` = values stream s pushed; `ok_marks` = kOk results over all
  // poppers. Empty string when every pushed value was popped exactly once
  // and nothing else was.
  std::string verify(const std::vector<std::uint64_t>& pushed,
                     std::uint64_t ok_marks) const;

 private:
  static constexpr int kSeqBits = 40;
  std::size_t streams_;
  std::uint64_t max_;
  std::uint64_t key_;
  std::uint64_t words_per_stream_;
  std::size_t bytes_;
  std::uint64_t* bits_;
};

// --- forkjoin ---------------------------------------------------------------
std::uint64_t fib_iterative(std::uint64_t n);
// Tasks one fib(n) tree executes: a leaf is one task; an inner node is its
// own task, its join continuation and both subtrees.
std::uint64_t fib_tree_tasks(std::uint64_t n);
// The forkjoin check: the tree's result against the iterative loop.
bool fib_ok(std::uint64_t n, std::uint64_t got);

// --- request ----------------------------------------------------------------
inline constexpr std::uint64_t kRequestNodes = 31;  // complete binary tree
inline constexpr std::uint64_t kRequestFirstLeaf = 16;
inline constexpr std::uint64_t kRequestTasks = 31 + 15;  // nodes + joins

struct RequestInput {
  std::uint64_t key = 0;
  std::uint64_t work = 0;  // mixing rounds per node
};

// Node `idx` (heap numbering, root = 1) of a request: `work` rounds of
// SplitMix64 over (key, idx).
std::uint64_t request_node_value(std::uint64_t key, std::uint64_t idx,
                                 std::uint64_t work) noexcept;
std::uint64_t request_combine(std::uint64_t self, std::uint64_t left,
                              std::uint64_t right) noexcept;
// Serial recursive evaluation of the whole tree.
std::uint64_t request_fold_serial(const RequestInput& in,
                                  std::uint64_t idx = 1);
// The request check: `got` against `expected = request_fold_serial(in)`,
// which the workload computes once per distinct input before timing.
inline bool request_ok(std::uint64_t expected, std::uint64_t got) {
  return expected == got;
}

// Feeds each checker one corrupted result: a dropped value, a duplicated
// value, an off-by-one fib and a wrong request fold. Returns the number of
// corruptions that went unflagged (0 = pass) and reports on stderr.
int checker_self_test();

}  // namespace perfbench
