// E10 — emulated multi-word CAS cost vs width (§1, §1.1).
//
// The paper motivates DCAS by noting that "software emulations of stronger
// primitives from weaker ones are still too complex to be considered
// practical" [1,5,8,9,30], and its §1.1 critique of Greenwald's first
// deque hinges on the cost of treating "the two-word DCAS as if it were a
// three-word operation". This experiment measures the emulation cost curve
// directly: uncontended casn success for widths 1-4 from the same engine
// that provides the deques' DCAS, against raw CAS and the hardware
// adjacent pair. Expected shape: roughly linear in width (descriptor
// installs/removals per word), with a constant overhead that dwarfs a raw
// CAS — the quantitative case for hardware support at *some* width, and
// for algorithms that keep that width at two.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "dcd/dcas/cmpxchg16b.hpp"
#include "dcd/dcas/mcas.hpp"

namespace {

using namespace dcd::dcas;
using dcd::bench::print_topology_once;

constexpr std::uint64_t val(std::uint64_t x) { return encode_payload(x); }

Word g_words[McasDcas::kMaxCasnWidth];
std::atomic<std::uint64_t> g_raw{0};
AdjacentPair g_pair;

void BM_RawCas(benchmark::State& state) {
  print_topology_once();
  std::uint64_t x = g_raw.load(std::memory_order_relaxed);
  for (auto _ : state) {
    if (g_raw.compare_exchange_strong(x, x + 1, std::memory_order_seq_cst)) {
      ++x;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RawCas)->Name("E10_Width/cas_raw");

void BM_HwPair(benchmark::State& state) {
  std::uint64_t lo = 0, hi = 0;
  Cmpxchg16bDcas::read(g_pair, lo, hi);
  for (auto _ : state) {
    if (Cmpxchg16bDcas::dcas(g_pair, lo, hi, lo + 1, hi + 1)) {
      ++lo;
      ++hi;
    } else {
      Cmpxchg16bDcas::read(g_pair, lo, hi);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HwPair)->Name("E10_Width/hw_adjacent_pair");

void BM_CasnWidth(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Re-establish the all-words-equal invariant: a previous (narrower) run
  // leaves the tail words behind, which would turn every casn below into a
  // guaranteed failure.
  for (auto& w : g_words) McasDcas::store_init(w, val(0));
  Word* addrs[McasDcas::kMaxCasnWidth];
  std::uint64_t olds[McasDcas::kMaxCasnWidth];
  std::uint64_t news[McasDcas::kMaxCasnWidth];
  for (std::size_t i = 0; i < n; ++i) addrs[i] = &g_words[i];
  std::uint64_t x = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      olds[i] = val(x);
      news[i] = val(x + 1);
    }
    if (McasDcas::casn(addrs, olds, news, n)) {
      ++x;
    } else {
      x = decode_payload(McasDcas::load(g_words[0]));  // unreachable here
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CasnWidth)
    ->Name("E10_Width/casn_emulated")
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4);

// Contended: the helping protocol's cost also grows with width (wider
// descriptors occupy more words for longer, so conflicts are likelier).
void BM_CasnWidthContended(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  if (state.thread_index() == 0) {
    for (auto& w : g_words) McasDcas::store_init(w, val(0));
  }
  Word* addrs[McasDcas::kMaxCasnWidth];
  std::uint64_t olds[McasDcas::kMaxCasnWidth];
  std::uint64_t news[McasDcas::kMaxCasnWidth];
  for (std::size_t i = 0; i < n; ++i) addrs[i] = &g_words[i];
  for (auto _ : state) {
    for (;;) {
      const std::uint64_t v = McasDcas::load(g_words[0]);
      const std::uint64_t x = decode_payload(v);
      for (std::size_t i = 0; i < n; ++i) {
        olds[i] = val(x);
        news[i] = val(x + 1);
      }
      if (McasDcas::casn(addrs, olds, news, n)) break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CasnWidthContended)
    ->Name("E10_Width/casn_contended")
    ->Arg(2)
    ->Arg(4)
    ->Threads(2)
    ->UseRealTime();

}  // namespace
