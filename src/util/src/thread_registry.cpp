#include "dcd/util/thread_registry.hpp"

#include <cstdio>
#include <cstdlib>

namespace dcd::util {

CacheAligned<ThreadRegistry::Slot>
    ThreadRegistry::slots_[ThreadRegistry::kMaxThreads];
std::atomic<std::size_t> ThreadRegistry::watermark_{0};

struct ThreadRegistry::Lease {
  std::size_t slot = kMaxThreads;

  ~Lease() {
    if (slot < kMaxThreads) release(slot);
  }
};

std::size_t ThreadRegistry::self() {
  thread_local Lease lease;
  if (lease.slot < kMaxThreads) {
    return lease.slot;
  }
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (slots_[i]->taken.compare_exchange_strong(expected, true,
                                                 std::memory_order_acq_rel)) {
      lease.slot = i;
      // Publish the highest slot index ever used so scanners can stop early.
      std::size_t wm = watermark_.load(std::memory_order_relaxed);
      while (wm < i + 1 && !watermark_.compare_exchange_weak(
                               wm, i + 1, std::memory_order_acq_rel)) {
      }
      return i;
    }
  }
  std::fprintf(stderr,
               "dcd::util::ThreadRegistry: more than %zu live threads\n",
               kMaxThreads);
  std::abort();
}

std::size_t ThreadRegistry::high_watermark() {
  return watermark_.load(std::memory_order_acquire);
}

bool ThreadRegistry::slot_live(std::size_t slot) {
  return slot < kMaxThreads &&
         slots_[slot]->taken.load(std::memory_order_acquire);
}

bool ThreadRegistry::try_adopt(std::size_t slot) {
  bool expected = false;
  // The load keeps scans over live slots free of RMWs. Acquire pairs with
  // the exiting owner's release, so its slot-private state is visible to
  // the adopter.
  return slot < kMaxThreads &&
         !slots_[slot]->taken.load(std::memory_order_acquire) &&
         slots_[slot]->taken.compare_exchange_strong(
             expected, true, std::memory_order_acq_rel);
}

void ThreadRegistry::release(std::size_t slot) {
  slots_[slot]->taken.store(false, std::memory_order_release);
}

}  // namespace dcd::util
