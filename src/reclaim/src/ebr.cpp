#include "dcd/reclaim/ebr.hpp"

#include "dcd/util/assert.hpp"

namespace dcd::reclaim {

EbrDomain::EbrDomain() { global_epoch_->store(1, std::memory_order_relaxed); }

EbrDomain::~EbrDomain() {
  // Precondition: no thread is pinned. Everything in limbo is then safe to
  // free immediately.
  for (auto& slot : slots_) {
    drain(*slot, /*force=*/true);
  }
}

namespace {
// Single-writer increment: plain load + store, no locked RMW.
void bump(std::atomic<std::uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}
}  // namespace

void EbrDomain::enter(std::size_t s) {
  DCD_DEBUG_ASSERT(s == util::ThreadRegistry::self());
  SlotState& slot = *slots_[s];
  if (slot.nesting++ == 0) {
    // DCD_HB(ebr.epoch.grace, role=acquire)
    const std::uint64_t e = global_epoch_->load(std::memory_order_acquire);
    slot.pinned.store(e, std::memory_order_relaxed);
    // Order the pin before any subsequent shared-memory load and make it
    // visible to the advance scan.
    // DCD_HB(ebr.pin.scan, role=fence-release)
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
}

void EbrDomain::exit(std::size_t s) {
  SlotState& slot = *slots_[s];
  DCD_ASSERT(slot.nesting > 0);
  if (--slot.nesting == 0) {
    slot.pinned.store(0, std::memory_order_release);
  }
}

void EbrDomain::retire(std::size_t s, void* p, Deleter deleter, void* ctx) {
  DCD_DEBUG_ASSERT(s == util::ThreadRegistry::self());
  SlotState& slot = *slots_[s];
  slot.limbo.push_back(
      Retired{p, deleter, ctx, global_epoch_->load(std::memory_order_relaxed)});
  bump(slot.retired);
  if (++slot.since_drain >= kDrainThreshold) {
    slot.since_drain = 0;
    try_advance();
    drain(slot, /*force=*/false);
  }
}

void EbrDomain::collect() {
  const std::size_t s = util::ThreadRegistry::self();
  try_advance();
  drain(*slots_[s], /*force=*/false);
  // An exited thread's limbo would otherwise wait for its slot's next
  // owner. Adopting the slot makes this thread its owner for the drain,
  // so the deleters' slot-keyed contexts (MCAS descriptor caches) and the
  // single-writer counters never see two writers.
  const std::size_t n = util::ThreadRegistry::high_watermark();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == s || !util::ThreadRegistry::try_adopt(i)) continue;
    drain(*slots_[i], /*force=*/false);
    util::ThreadRegistry::release(i);
  }
}

bool EbrDomain::try_advance() {
  const std::uint64_t g = global_epoch_->load(std::memory_order_seq_cst);
  const std::size_t n = util::ThreadRegistry::high_watermark();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pinned =
        // DCD_HB(ebr.pin.scan, role=acquire)
        slots_[i]->pinned.load(std::memory_order_seq_cst);
    if (pinned != 0 && pinned != g) {
      return false;  // A straggler pins an older epoch.
    }
  }
  std::uint64_t expected = g;
  // DCD_SYNC(allocator-internal)
  // DCD_HB(ebr.epoch.grace, role=release)
  return global_epoch_->compare_exchange_strong(expected, g + 1,
                                                std::memory_order_acq_rel);
}

void EbrDomain::drain(SlotState& slot, bool force) {
  if (slot.limbo.empty()) return;
  const std::uint64_t g = global_epoch_->load(std::memory_order_acquire);
  std::size_t kept = 0;
  for (auto& r : slot.limbo) {
    // Grace: two epoch advances since retirement (see header for why this
    // is sufficient even with stale pins).
    if (force || r.epoch + 2 <= g) {
      r.deleter(r.p, r.ctx);
      bump(slot.freed);
    } else {
      slot.limbo[kept++] = r;
    }
  }
  slot.limbo.resize(kept);
}

std::uint64_t EbrDomain::retired_count() const {
  std::uint64_t sum = 0;
  for (const auto& slot : slots_) {
    sum += slot->retired.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t EbrDomain::freed_count() const {
  std::uint64_t sum = 0;
  for (const auto& slot : slots_) {
    sum += slot->freed.load(std::memory_order_relaxed);
  }
  return sum;
}

EbrDomain& global_ebr_domain() {
  static EbrDomain domain;
  return domain;
}

}  // namespace dcd::reclaim
