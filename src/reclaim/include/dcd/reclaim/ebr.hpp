// Epoch-based reclamation (EBR).
//
// The paper assumes a garbage collector reclaims list nodes (§2 and footnote
// 2). This domain is the substitution: a node retired after being unlinked
// is freed only after two global epoch advances, which guarantees that no
// operation that could still hold a reference is in flight. Because a node
// also cannot be *reused* before that grace period, EBR additionally gives
// the deque algorithms the ABA-freedom on node addresses that GC provided.
//
// Usage contract:
//   * Every operation that reads shared pointers holds a Guard for its whole
//     duration. Guards are reentrant per thread (the MCAS engine pins its
//     own domain inside deque operations that already hold a guard on
//     another domain; both patterns are safe).
//   * retire() is called only after the object is unreachable from shared
//     memory (i.e. after the unlinking DCAS succeeded).
//   * The domain destructor frees everything still retired; the caller must
//     guarantee no thread is pinned in the domain at that point (the usual
//     "no concurrent access during destruction" rule).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dcd/util/align.hpp"
#include "dcd/util/thread_registry.hpp"

namespace dcd::reclaim {

class EbrDomain {
 public:
  using Deleter = void (*)(void*, void*);  // (object, context)

  EbrDomain();
  ~EbrDomain();

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  // RAII pin. Nested guards on the same domain are counted, not re-pinned.
  // The two-argument form takes the calling thread's
  // util::ThreadRegistry::self() from a caller that already looked it up.
  class Guard {
   public:
    explicit Guard(EbrDomain& domain)
        : Guard(domain, util::ThreadRegistry::self()) {}
    Guard(EbrDomain& domain, std::size_t self_slot)
        : domain_(domain), slot_(self_slot) {
      domain_.enter(slot_);
    }
    ~Guard() { domain_.exit(slot_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EbrDomain& domain_;
    std::size_t slot_;
  };

  // Defers `deleter(p, ctx)` until the grace period has elapsed. The
  // deleter runs on whichever thread then owns the retiring thread's
  // registry slot (or on the destructor's thread).
  void retire(void* p, Deleter deleter, void* ctx) {
    retire(util::ThreadRegistry::self(), p, deleter, ctx);
  }
  // Same, from a caller that already holds util::ThreadRegistry::self().
  void retire(std::size_t self_slot, void* p, Deleter deleter, void* ctx);

  // Convenience: retire an object allocated with `new`.
  template <typename T>
  void retire_delete(T* p) {
    retire(
        p, [](void* q, void*) { delete static_cast<T*>(q); }, nullptr);
  }

  // Best-effort: advance the epoch if possible and drain the calling
  // thread's retired list and those of exited threads. Called when a pool
  // runs dry, and in tests to make reclamation prompt.
  void collect();

  // Diagnostics: sums of the per-slot counts, exact once every thread
  // that retired has quiesced.
  std::uint64_t retired_count() const;
  std::uint64_t freed_count() const;
  std::uint64_t pending_count() const {
    const std::uint64_t freed = freed_count();  // first: never above retired
    return retired_count() - freed;
  }
  std::uint64_t epoch() const {
    return global_epoch_->load(std::memory_order_relaxed);
  }

 private:
  struct Retired {
    void* p;
    Deleter deleter;
    void* ctx;
    std::uint64_t epoch;
  };

  struct SlotState {
    // 0 = quiescent; otherwise the epoch this thread pinned.
    std::atomic<std::uint64_t> pinned{0};
    // Nesting depth; touched only by the owning thread.
    std::uint32_t nesting = 0;
    // Retired-but-not-freed objects; touched only by the owning thread
    // (slot ownership is exclusive via ThreadRegistry; collect() adopts a
    // released slot before draining it).
    std::vector<Retired> limbo;
    // Retires since the last drain attempt.
    std::uint32_t since_drain = 0;
    // Lifetime totals of this slot; written only by the slot's owner, so
    // the domain-wide counts never put a shared line on the retire path.
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> freed{0};
  };

  // Attempt one global epoch advance; succeeds iff every pinned slot is at
  // the current epoch.
  bool try_advance();

  // Free entries in `slot`'s limbo list whose grace period has elapsed.
  void drain(SlotState& slot, bool force);

  void enter(std::size_t slot);
  void exit(std::size_t slot);

  static constexpr std::uint32_t kDrainThreshold = 64;

  util::CacheAligned<std::atomic<std::uint64_t>> global_epoch_;
  util::CacheAligned<SlotState> slots_[util::ThreadRegistry::kMaxThreads];
};

// Process-wide default domain (used by the MCAS engine's descriptors).
EbrDomain& global_ebr_domain();

}  // namespace dcd::reclaim
