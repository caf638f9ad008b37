// Tests for the two receive queues the packet drivers share: the tag
// inbox (pool parking, per-tag FIFO, multi-tag wait and its wake order)
// and the posted receives (post-order fill, out-of-order fragments,
// completion at the message total) with their abort texts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/rx_queue.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace mad2::net {
namespace {

std::vector<std::byte> bytes_of(const std::string& text) {
  std::vector<std::byte> out;
  for (char c : text) out.push_back(static_cast<std::byte>(c));
  return out;
}

std::string text_of(std::span<const std::byte> data) {
  std::string out;
  for (std::byte b : data) out.push_back(static_cast<char>(b));
  return out;
}

// ------------------------------------------------------------ TaggedInbox ---

TEST(TaggedInbox, TakeIsFifoPerTagAndBuffersStayParkedUntilRelease) {
  sim::Simulator simulator;
  TaggedInbox inbox(&simulator, 4, "pool full", "unknown handle");
  inbox.deliver(1, 7, bytes_of("first"));
  inbox.deliver(2, 9, bytes_of("other"));
  inbox.deliver(3, 7, bytes_of("second"));
  EXPECT_EQ(inbox.in_use(), 3u);
  simulator.spawn("receiver", [&] {
    EXPECT_EQ(inbox.peek(7).src, 1u);
    const RxSlot first = inbox.take(7);
    const RxSlot second = inbox.take(7);
    EXPECT_EQ(first.tag, 7u);
    EXPECT_EQ(text_of(first.data), "first");
    EXPECT_EQ(second.src, 3u);
    EXPECT_EQ(text_of(second.data), "second");
    EXPECT_FALSE(inbox.pending(7));
    EXPECT_TRUE(inbox.pending(9));
    // Taken slots still hold their pool buffers.
    EXPECT_EQ(inbox.in_use(), 3u);
    inbox.release(first.handle);
    EXPECT_EQ(text_of(second.data), "second");
    inbox.release(second.handle);
    EXPECT_EQ(inbox.in_use(), 1u);
  });
  ASSERT_TRUE(simulator.run().is_ok());
}

TEST(TaggedInbox, WaitAnyReturnsTheFirstPendingTagInListOrder) {
  sim::Simulator simulator;
  TaggedInbox inbox(&simulator, 4, "pool full", "unknown handle");
  EXPECT_FALSE(inbox.first_pending({3, 5}).has_value());
  inbox.deliver(0, 5, bytes_of("a"));
  inbox.deliver(0, 3, bytes_of("b"));
  std::vector<std::uint32_t> seen;
  simulator.spawn("pump", [&] {
    seen.push_back(inbox.wait_any({4, 5, 3}));  // 5 and 3 queued: 5 first
    seen.push_back(inbox.wait_any({4, 3, 5}));  // nothing consumed: 3 first
    inbox.take(5);
    inbox.take(3);
    seen.push_back(inbox.wait_any({4, 3}));  // blocks until tag 4 arrives
    EXPECT_EQ(simulator.now(), sim::microseconds(10));
  });
  simulator.spawn("late", [&] {
    simulator.advance(sim::microseconds(10));
    inbox.deliver(0, 4, bytes_of("c"));
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{5, 3, 4}));
}

TEST(TaggedInbox, TagWaiterWakesBeforeWaitAnyOnOneArrival) {
  sim::Simulator simulator;
  TaggedInbox inbox(&simulator, 4, "pool full", "unknown handle");
  std::vector<std::string> order;
  // The wait_any fiber blocks first, yet the tag's own waiter runs first.
  simulator.spawn("any", [&] {
    inbox.wait_any({2});
    order.push_back("any");
  });
  simulator.spawn("tag", [&] {
    inbox.peek(2);
    order.push_back("tag");
  });
  simulator.spawn("sender", [&] {
    simulator.advance(sim::microseconds(1));
    inbox.deliver(0, 2, bytes_of("x"));
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(order, (std::vector<std::string>{"tag", "any"}));
}

TEST(TaggedInboxDeathTest, DeliveryToAFullPoolAbortsWithTheDriverText) {
  sim::Simulator simulator;
  TaggedInbox inbox(&simulator, 2, "test pool overflow", "unknown handle");
  inbox.deliver(0, 0, bytes_of("a"));
  inbox.deliver(0, 0, bytes_of("b"));
  EXPECT_DEATH(inbox.deliver(0, 0, bytes_of("c")), "test pool overflow");
}

TEST(TaggedInboxDeathTest, ReleaseOfAnUnknownHandleAborts) {
  sim::Simulator simulator;
  TaggedInbox inbox(&simulator, 2, "pool full", "test unknown handle");
  inbox.deliver(0, 0, bytes_of("a"));
  EXPECT_DEATH(inbox.release(99), "test unknown handle");
}

TEST(TaggedInboxDeathTest, WaitAnyWithNoTagsAborts) {
  sim::Simulator simulator;
  TaggedInbox inbox(&simulator, 2, "pool full", "unknown handle");
  EXPECT_DEATH(inbox.wait_any({}), "wait_any with no tags");
}

// --------------------------------------------------------- PostedReceives ---

TEST(PostedReceives, MessagesFillPostedBuffersInPostOrder) {
  sim::Simulator simulator;
  PostedReceives posted(&simulator);
  std::vector<std::byte> a(8);
  std::vector<std::byte> b(8);
  posted.post(a);
  posted.post(b);
  EXPECT_EQ(posted.size(), 2u);
  EXPECT_TRUE(posted.land(0, bytes_of("one"), 3, "none", "overflow"));
  EXPECT_TRUE(posted.land(0, bytes_of("two!"), 4, "none", "overflow"));
  EXPECT_EQ(text_of(std::span(a).first(3)), "one");
  EXPECT_EQ(text_of(std::span(b).first(4)), "two!");
  simulator.spawn("reaper", [&] {
    const PostedReceives::Posted first = posted.take("none");
    EXPECT_EQ(first.buffer.data(), a.data());
    EXPECT_EQ(first.received, 3u);
    const PostedReceives::Posted second = posted.take("none");
    EXPECT_EQ(second.buffer.data(), b.data());
    EXPECT_EQ(second.received, 4u);
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(posted.size(), 0u);
}

TEST(PostedReceives, FragmentsOfOneMessageLandOutOfOffsetOrder) {
  sim::Simulator simulator;
  PostedReceives posted(&simulator);
  std::vector<std::byte> buffer(8);
  posted.post(buffer);
  EXPECT_FALSE(posted.land(4, bytes_of("EFGH"), 8, "none", "overflow"));
  EXPECT_FALSE(posted.ready());
  EXPECT_TRUE(posted.land(0, bytes_of("ABCD"), 8, "none", "overflow"));
  EXPECT_TRUE(posted.ready());
  EXPECT_EQ(text_of(buffer), "ABCDEFGH");
}

TEST(PostedReceives, TakeBlocksUntilTheMessageTotalHasLanded) {
  sim::Simulator simulator;
  PostedReceives posted(&simulator);
  std::vector<std::byte> buffer(9);
  posted.post(buffer);
  sim::Time taken_at = -1;
  simulator.spawn("reaper", [&] {
    EXPECT_EQ(posted.take("none").received, 9u);
    taken_at = simulator.now();
  });
  simulator.spawn("nic", [&] {
    for (std::uint64_t offset = 0; offset < 9; offset += 3) {
      simulator.advance(sim::microseconds(1));
      const bool whole =
          posted.land(offset, bytes_of("xyz"), 9, "none", "overflow");
      EXPECT_EQ(whole, offset == 6);
    }
  });
  ASSERT_TRUE(simulator.run().is_ok());
  EXPECT_EQ(taken_at, sim::microseconds(3));
}

TEST(PostedReceivesDeathTest, LandingWithNothingPostedAbortsWithTheText) {
  sim::Simulator simulator;
  PostedReceives posted(&simulator);
  EXPECT_DEATH(posted.land(0, bytes_of("x"), 1, "test no posted receive",
                           "overflow"),
               "test no posted receive");
  std::vector<std::byte> buffer(1);
  posted.post(buffer);
  EXPECT_TRUE(posted.land(0, bytes_of("x"), 1, "none", "overflow"));
  // Every posted buffer is complete: nothing is left to fill.
  EXPECT_DEATH(posted.land(0, bytes_of("y"), 1, "test all complete",
                           "overflow"),
               "test all complete");
}

TEST(PostedReceivesDeathTest, AFragmentBeyondTheBufferAborts) {
  sim::Simulator simulator;
  PostedReceives posted(&simulator);
  std::vector<std::byte> buffer(4);
  posted.post(buffer);
  EXPECT_DEATH(posted.land(2, bytes_of("abc"), 5, "none", "test overflow"),
               "test overflow");
}

TEST(PostedReceivesDeathTest, TakeWithNothingPostedAborts) {
  sim::Simulator simulator;
  PostedReceives posted(&simulator);
  EXPECT_DEATH(posted.take("test nothing posted"), "test nothing posted");
  EXPECT_DEATH(posted.take(), "take with nothing posted");
}

}  // namespace
}  // namespace mad2::net
