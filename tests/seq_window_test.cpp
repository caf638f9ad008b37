// The sequence windows shared by the per-link ARQ shim (net/reliable) and
// the resilient failover of virtual channels (fwd::VirtualChannel):
// SeqSendWindow retains and trims to a cumulative watermark,
// SeqReceiveWindow delivers exactly once and in order. The property test
// runs seeded drop/dup/reorder streams through a small ARQ loop over both
// halves and checks every verdict against an independent model.
// MAD2_FAULT_SEED narrows the sweep to a single seed for replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/seq_window.hpp"

namespace mad2 {
namespace {

struct Item {
  std::uint64_t seq = 0;
  std::uint64_t tag = 0;  // payload stand-in, derived from seq
};

std::uint64_t tag_of(std::uint64_t seq) {
  return seq * 0x9e3779b97f4a7c15ULL + 7;
}

// ---------------------------------------------------------- SeqSendWindow ---

TEST(SeqSendWindow, ConfirmTrimsExactlyBelowTheWatermark) {
  SeqSendWindow<Item> window(1);
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    window.push(seq, Item{seq, tag_of(seq)});
  }
  EXPECT_EQ(window.front_seq(), 1u);
  EXPECT_EQ(window.end_seq(), 11u);

  std::vector<std::uint64_t> confirmed;
  const auto record = [&](const Item& item) { confirmed.push_back(item.seq); };
  EXPECT_EQ(window.confirm(5, record), 4u);
  EXPECT_EQ(confirmed, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(window.front_seq(), 5u);
  EXPECT_EQ(window.find(4), nullptr);
  ASSERT_NE(window.find(5), nullptr);
  EXPECT_EQ(window.find(5)->seq, 5u);
  EXPECT_EQ(window.find(11), nullptr);

  // A stale or repeated watermark trims nothing.
  EXPECT_EQ(window.confirm(5, record), 0u);
  EXPECT_EQ(window.confirm(2, record), 0u);
  EXPECT_EQ(window.size(), 6u);

  // A watermark past the end empties the window; numbering carries on.
  EXPECT_EQ(window.confirm(100), 6u);
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.front_seq(), 11u);
  EXPECT_EQ(window.end_seq(), 11u);
  window.push(11, Item{11, tag_of(11)});
  EXPECT_EQ(window.size(), 1u);
}

TEST(SeqSendWindowDeathTest, PushWithAGapAborts) {
  SeqSendWindow<Item> window;
  window.push(0, Item{});
  EXPECT_DEATH(window.push(2, Item{}), "sequence window gap");
}

// ------------------------------------------------------- SeqReceiveWindow ---

TEST(SeqReceiveWindow, StashedSuccessorsDrainInOrder) {
  SeqReceiveWindow<Item> window(1);
  std::vector<std::uint64_t> delivered;
  const auto deliver = [&](Item&& item) { delivered.push_back(item.seq); };
  EXPECT_EQ(window.accept(3, Item{3, 0}, deliver), SeqVerdict::kStashed);
  EXPECT_EQ(window.accept(2, Item{2, 0}, deliver), SeqVerdict::kStashed);
  EXPECT_EQ(window.accept(3, Item{3, 0}, deliver), SeqVerdict::kDuplicate);
  EXPECT_EQ(window.stashed(), 2u);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(window.accept(1, Item{1, 0}, deliver), SeqVerdict::kDelivered);
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(window.expected(), 4u);
  EXPECT_EQ(window.stashed(), 0u);
  EXPECT_EQ(window.accept(2, Item{2, 0}, deliver), SeqVerdict::kDuplicate);
  EXPECT_EQ(window.accept(5, Item{5, 0}, deliver), SeqVerdict::kStashed);
  EXPECT_EQ(window.accept(4, Item{4, 0}, deliver), SeqVerdict::kDelivered);
  EXPECT_EQ(delivered.back(), 5u);
  EXPECT_EQ(window.expected(), 6u);
}

// ------------------------------------------------------------- property ---

struct StreamFaults {
  double drop = 0;      // per transmitted copy
  double dup = 0;       // an extra copy of a transmitted item
  double reorder = 0;   // per wire slot: swap with a random earlier slot
  double ack_drop = 0;  // per round's cumulative ack
};

StreamFaults stream_faults(std::uint64_t seed) {
  StreamFaults faults;
  faults.drop = 0.05 + 0.07 * static_cast<double>(seed % 5);
  faults.dup = 0.1 * static_cast<double>(seed % 3);
  faults.reorder = 0.15 * static_cast<double>(seed % 4);
  faults.ack_drop = 0.2 * static_cast<double>(seed % 3);
  return faults;
}

/// One sender and one receiver joined by a faulty wire. Each round the
/// sender fills its window and (re)transmits every retained item; the
/// receiver accepts every arrival; then a cumulative ack (the receiver's
/// cursor) may travel back and be confirmed. Seqs start at `first`.
void run_stream(std::uint64_t seed, std::uint64_t first) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               " (replay: MAD2_FAULT_SEED=" + std::to_string(seed) + ")");
  constexpr std::uint64_t kMessages = 300;
  constexpr std::size_t kWindow = 16;
  const StreamFaults faults = stream_faults(seed);
  Rng rng(seed);
  SeqSendWindow<Item> tx(first);
  SeqReceiveWindow<Item> rx(first);
  // The model: a seq the receiver took once (delivered or stashed) is a
  // duplicate ever after; the next in-order seq is first + delivered.
  std::set<std::uint64_t> accepted;
  std::uint64_t delivered = 0;
  std::deque<Item> wire;
  int rounds = 0;
  while (delivered < kMessages || !tx.empty()) {
    ASSERT_LT(++rounds, 10000) << "stream did not converge";
    while (tx.end_seq() < first + kMessages && tx.size() < kWindow) {
      const std::uint64_t seq = tx.end_seq();
      tx.push(seq, Item{seq, tag_of(seq)});
    }
    for (const Item& item : tx) {
      if (rng.next_double() < faults.drop) continue;
      wire.push_back(item);
      if (rng.next_double() < faults.dup) wire.push_back(item);
    }
    for (std::size_t i = 1; i < wire.size(); ++i) {
      if (rng.next_double() < faults.reorder) {
        std::swap(wire[i], wire[rng.next_below(i)]);
      }
    }

    while (!wire.empty()) {
      const Item item = wire.front();
      wire.pop_front();
      SeqVerdict want = SeqVerdict::kStashed;
      if (accepted.contains(item.seq)) {
        want = SeqVerdict::kDuplicate;
      } else if (item.seq == first + delivered) {
        want = SeqVerdict::kDelivered;
      }
      std::vector<Item> got;
      const SeqVerdict verdict = rx.accept(
          item.seq, item, [&](Item&& out) { got.push_back(out); });
      ASSERT_EQ(verdict, want) << "seq " << item.seq;
      if (verdict != SeqVerdict::kDuplicate) accepted.insert(item.seq);
      if (verdict != SeqVerdict::kDelivered) {
        ASSERT_TRUE(got.empty()) << "seq " << item.seq;
      }
      for (const Item& out : got) {
        ASSERT_EQ(out.seq, first + delivered) << "delivered out of order";
        ASSERT_EQ(out.tag, tag_of(out.seq)) << "payload of another seq";
        ++delivered;
      }
      ASSERT_EQ(rx.expected(), first + delivered);
    }

    if (rng.next_double() < faults.ack_drop) continue;
    const std::uint64_t watermark = rx.expected();
    const std::uint64_t front = tx.front_seq();
    const std::uint64_t end = tx.end_seq();
    ASSERT_LE(front, watermark);
    ASSERT_LE(watermark, end);
    std::vector<std::uint64_t> confirmed;
    const std::size_t count = tx.confirm(
        watermark, [&](const Item& item) { confirmed.push_back(item.seq); });
    ASSERT_EQ(count, watermark - front) << "watermark " << watermark;
    ASSERT_EQ(confirmed.size(), count);
    for (std::size_t i = 0; i < confirmed.size(); ++i) {
      ASSERT_EQ(confirmed[i], front + i);
    }
    ASSERT_EQ(tx.front_seq(), watermark);
    ASSERT_EQ(tx.end_seq(), end);
    if (watermark > front) {
      ASSERT_EQ(tx.find(watermark - 1), nullptr);
    }
    if (watermark < end) {
      ASSERT_NE(tx.find(watermark), nullptr);
      ASSERT_EQ(tx.find(watermark)->seq, watermark);
    }
  }
  EXPECT_EQ(delivered, kMessages);
  EXPECT_EQ(rx.expected(), first + kMessages);
  EXPECT_EQ(rx.stashed(), 0u);
  EXPECT_EQ(tx.front_seq(), first + kMessages);
}

// Seqs start at 0 on odd seeds (the forwarding layer's numbering) and at
// 1 on even ones (the reliable shim's).
TEST(SeqWindowProperty, ExactlyOnceInOrderUnderDropDupReorder) {
  std::uint64_t first_seed = 1;
  std::uint64_t last_seed = 64;
  if (const char* replay = std::getenv("MAD2_FAULT_SEED")) {
    first_seed = last_seed = std::strtoull(replay, nullptr, 10);
  }
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    run_stream(seed, /*first=*/seed % 2 == 0 ? 1 : 0);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mad2
