// Unit tests for the shared-word tag encoding.
#include <gtest/gtest.h>

#include "dcd/dcas/word.hpp"

namespace {

using namespace dcd::dcas;

TEST(WordEncoding, SpecialsAreDistinctAndFlagged) {
  EXPECT_NE(kNull, kSentL);
  EXPECT_NE(kNull, kSentR);
  EXPECT_NE(kSentL, kSentR);
  EXPECT_TRUE(is_special(kNull));
  EXPECT_TRUE(is_special(kSentL));
  EXPECT_TRUE(is_special(kSentR));
  EXPECT_TRUE(is_null(kNull));
  EXPECT_FALSE(is_null(kSentL));
}

TEST(WordEncoding, SpecialsAreNotDescriptors) {
  EXPECT_FALSE(is_descriptor(kNull));
  EXPECT_FALSE(is_descriptor(kSentL));
  EXPECT_FALSE(is_descriptor(kSentR));
}

TEST(WordEncoding, PayloadRoundTrip) {
  for (std::uint64_t p :
       std::initializer_list<std::uint64_t>{0, 1, 12345, kMaxPayload}) {
    const std::uint64_t w = encode_payload(p);
    EXPECT_EQ(decode_payload(w), p);
    EXPECT_FALSE(is_descriptor(w));
    EXPECT_FALSE(w & kDeletedBit);
  }
}

TEST(WordEncoding, PayloadNeverCollidesWithSpecials) {
  for (std::uint64_t p = 0; p < 64; ++p) {
    const std::uint64_t w = encode_payload(p);
    EXPECT_NE(w, kNull);
    EXPECT_NE(w, kSentL);
    EXPECT_NE(w, kSentR);
  }
}

TEST(WordEncoding, PointerRoundTripWithDeletedBit) {
  alignas(64) int obj = 0;
  const std::uint64_t plain = encode_pointer(&obj, false);
  const std::uint64_t marked = encode_pointer(&obj, true);
  EXPECT_EQ(pointer_of<int>(plain), &obj);
  EXPECT_EQ(pointer_of<int>(marked), &obj);
  EXPECT_FALSE(deleted_of(plain));
  EXPECT_TRUE(deleted_of(marked));
  EXPECT_FALSE(is_descriptor(plain));
  EXPECT_FALSE(is_descriptor(marked));
}

TEST(WordEncoding, NullPointerEncodes) {
  const std::uint64_t w = encode_pointer<int>(nullptr, false);
  EXPECT_EQ(pointer_of<int>(w), nullptr);
}

TEST(WordEncoding, ElimOfferRoundTripsAndIsUnambiguous) {
  // An elimination offer is a payload word with only the deleted bit set:
  // distinguishable from descriptors (bit 0), specials (bit 2), and plain
  // payloads (no tag bits) by the low tag bits alone.
  const std::uint64_t v = encode_payload(12345);
  const std::uint64_t offer = encode_elim_offer(v);
  EXPECT_TRUE(is_elim_offer(offer));
  EXPECT_EQ(elim_offer_value(offer), v);
  EXPECT_FALSE(is_descriptor(offer));
  EXPECT_FALSE(is_special(offer));
  // Non-offers must not be mistaken for offers.
  EXPECT_FALSE(is_elim_offer(v));
  EXPECT_FALSE(is_elim_offer(kNull));
  EXPECT_FALSE(is_elim_offer(kElimTaken));
  EXPECT_FALSE(is_elim_offer(offer | kDescriptorBit));
}

TEST(WordEncoding, ElimTakenIsASpecialDistinctFromTheOthers) {
  EXPECT_TRUE(is_special(kElimTaken));
  EXPECT_FALSE(is_descriptor(kElimTaken));
  for (const std::uint64_t s : {kNull, kSentL, kSentR, kDummy}) {
    EXPECT_NE(kElimTaken, s);
  }
}

TEST(WordEncoding, WordValueInitialisesToZero) {
  Word w{};  // value-init zeroes; default-init is deliberately a no-op
  EXPECT_EQ(w.raw.load(std::memory_order_relaxed), 0u);
  Word w2(kSentL);
  EXPECT_EQ(w2.raw.load(std::memory_order_relaxed), kSentL);
}

}  // namespace
