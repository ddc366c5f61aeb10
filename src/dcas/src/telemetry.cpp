#include "dcd/dcas/telemetry.hpp"

#include "dcd/util/align.hpp"
#include "dcd/util/thread_registry.hpp"

namespace dcd::dcas {

namespace {
util::CacheAligned<Counters> g_slots[util::ThreadRegistry::kMaxThreads];
}  // namespace

Counters& Telemetry::tl() { return *g_slots[util::ThreadRegistry::self()]; }

Counters& Telemetry::at(std::size_t slot) { return *g_slots[slot]; }

Counters Telemetry::snapshot() {
  Counters sum;
  const std::size_t n = util::ThreadRegistry::high_watermark();
  for (std::size_t i = 0; i < n; ++i) {
    sum += *g_slots[i];
  }
  return sum;
}

void Telemetry::reset() {
  const std::size_t n = util::ThreadRegistry::high_watermark();
  for (std::size_t i = 0; i < n; ++i) {
    *g_slots[i] = Counters{};
  }
}

}  // namespace dcd::dcas
