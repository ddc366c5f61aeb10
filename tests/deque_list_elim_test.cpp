// Elimination layer (DESIGN.md §13): protocol unit tests on the slot
// state machine, the zero-cost-when-uncontended guarantee, and recorded
// linearizability of the list deque with same-end elimination enabled.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "dcd/dcas/telemetry.hpp"
#include "dcd/deque/elimination.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/verify/driver.hpp"
#include "dcd/verify/linearizability.hpp"

namespace {

using namespace dcd;
using dcas::GlobalLockDcas;
using dcas::StripedLockDcas;
using deque::EliminationEnd;
using deque::ListDeque;
using deque::ListOptions;
using deque::PushResult;
using reclaim::EbrReclaim;
using reclaim::MagazinePool;

constexpr ListOptions kElim{.elimination = true,
                            .elim_slots = 2,
                            .elim_polls = 64};

template <dcas::DcasPolicy P>
using ElimDeque = ListDeque<std::uint64_t, P, EbrReclaim, MagazinePool, kElim>;

std::uint64_t word_of(std::uint64_t v) { return dcas::encode_payload(v); }

// --- slot protocol ----------------------------------------------------------

TEST(ListElimProtocol, UnclaimedOfferCancelsAndLeavesSlotEmpty) {
  EliminationEnd<GlobalLockDcas> end;
  // No popper: the offer must time out, cancel, and report failure...
  EXPECT_FALSE(end.offer(word_of(42), /*slots=*/2, /*polls=*/4));
  // ...leaving every slot back at kNull — nothing for a later take.
  std::uint64_t taken = 0;
  EXPECT_FALSE(end.take(/*slots=*/2, &taken));
}

TEST(ListElimProtocol, TakeOnEmptySlotsFails) {
  EliminationEnd<GlobalLockDcas> end;
  std::uint64_t taken = 0;
  EXPECT_FALSE(end.take(/*slots=*/1, &taken));
}

TEST(ListElimProtocol, HandshakeTransfersValueExactlyOnce) {
  // A pusher spinning offers against a popper spinning takes: the value
  // must transfer exactly once, with both sides reporting success.
  EliminationEnd<GlobalLockDcas> end;
  std::atomic<bool> pushed{false};
  std::thread pusher([&] {
    while (!end.offer(word_of(7), /*slots=*/1, /*polls=*/128)) {
    }
    pushed.store(true, std::memory_order_release);
  });
  std::uint64_t taken = 0;
  while (!end.take(/*slots=*/1, &taken)) {
  }
  pusher.join();
  EXPECT_TRUE(pushed.load(std::memory_order_acquire));
  EXPECT_EQ(taken, word_of(7));
  // The pusher's clear completed: the slot is reusable.
  std::uint64_t again = 0;
  EXPECT_FALSE(end.take(/*slots=*/1, &again));
}

// --- uncontended cost -------------------------------------------------------

TEST(ListElimDeque, SingleThreadedPathIssuesNoEliminationCas) {
  // Acceptance gate: enabling the layer adds zero primitive operations
  // when DCASes don't fail. Single-threaded, every DCAS succeeds first
  // try, so the elimination branches are never reached — the single-word
  // CAS counter must not move at all, and the DCAS count must match the
  // elimination-free instantiation op for op.
  using Plain = ListDeque<std::uint64_t, GlobalLockDcas, EbrReclaim,
                          MagazinePool, ListOptions{}>;
  const auto workload = [](auto& d) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      ASSERT_EQ(d.push_right(i), PushResult::kOkay);
      ASSERT_EQ(d.push_left(i), PushResult::kOkay);
    }
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(d.pop_left().has_value());
      ASSERT_TRUE(d.pop_right().has_value());
    }
  };

  const dcas::Counters before_plain = dcas::Telemetry::snapshot();
  {
    Plain d(256);
    workload(d);
  }
  const dcas::Counters mid = dcas::Telemetry::snapshot();
  {
    ElimDeque<GlobalLockDcas> d(256);
    workload(d);
  }
  const dcas::Counters after = dcas::Telemetry::snapshot();

  EXPECT_EQ(after.cas_ops - mid.cas_ops, 0u)
      << "uncontended elimination must not issue single-word CASes";
  EXPECT_EQ(after.dcas_calls - mid.dcas_calls,
            mid.dcas_calls - before_plain.dcas_calls)
      << "enabling elimination changed the uncontended DCAS count";
}

// --- recorded linearizability under same-end contention ---------------------

template <typename P>
class ListElimLinTest : public ::testing::Test {
 protected:
  void check_rounds(const verify::WorkloadConfig& base, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      ElimDeque<P> d(1 << 12);
      verify::WorkloadConfig cfg = base;
      cfg.seed = base.seed + static_cast<std::uint64_t>(r) * 7919;
      const verify::History h = verify::run_recorded(d, cfg);
      const verify::CheckResult res =
          verify::check_linearizable(h, verify::SpecDeque::kUnbounded);
      ASSERT_EQ(res.verdict, verify::Verdict::kLinearizable)
          << "round " << r << " (seed " << cfg.seed << "): " << res.message;
    }
  }
};

using ElimPolicies = ::testing::Types<GlobalLockDcas, StripedLockDcas>;
TYPED_TEST_SUITE(ListElimLinTest, ElimPolicies);

TYPED_TEST(ListElimLinTest, RightEndOnlyMaximisesElimination) {
  // All traffic on one end: every failed DCAS has a same-end partner in
  // backoff, so eliminated pairs are as frequent as the workload allows.
  verify::WorkloadConfig cfg;
  cfg.threads = 3;
  cfg.ops_per_thread = 10;
  cfg.seed = 44;
  cfg.push_right = 4;
  cfg.pop_right = 4;
  cfg.push_left = 0;
  cfg.pop_left = 0;
  this->check_rounds(cfg, 40);
}

TYPED_TEST(ListElimLinTest, MixedEndsStayLinearizable) {
  verify::WorkloadConfig cfg;
  cfg.threads = 3;
  cfg.ops_per_thread = 9;
  cfg.seed = 55;
  this->check_rounds(cfg, 30);
}

}  // namespace
