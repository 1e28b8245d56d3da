// Bounded async logger suite (util/async_log.hpp): exact accounting
// (every enqueue is either written or counted as dropped — never both,
// never lost), flush() as a completion barrier, overflow dropping under a
// producer burst, and routing of the global log_* entry points through an
// installed sink with the level filter applied before the ring.
#include <gtest/gtest.h>

#include <string>

#include "util/async_log.hpp"
#include "util/log.hpp"

namespace streamsched {
namespace {

TEST(AsyncLog, AccountsEveryMessageExactlyOnce) {
  AsyncLogger logger(8);
  EXPECT_EQ(logger.capacity(), 8u);
  const std::uint64_t attempts = 32;
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < attempts; ++i) {
    if (logger.enqueue(LogLevel::kDebug, "async-log-test " + std::to_string(i))) ++accepted;
  }
  logger.flush();
  // flush() is a barrier: everything accepted before it is written after
  // it, and the two counters partition the attempts exactly.
  EXPECT_EQ(logger.written(), accepted);
  EXPECT_EQ(logger.dropped(), attempts - accepted);
  EXPECT_GE(accepted, 1u);
}

TEST(AsyncLog, OverflowDropsInsteadOfBlocking) {
  AsyncLogger logger(1);
  // Burst a single-slot ring from a tight loop: the consumer cannot keep
  // up with an in-cache enqueue loop for long, so drops must appear (the
  // loop bounds the attempt count rather than asserting a specific race).
  std::uint64_t attempts = 0;
  for (int round = 0; round < 200 && logger.dropped() == 0; ++round) {
    for (int i = 0; i < 256; ++i) {
      (void)logger.enqueue(LogLevel::kDebug, "burst");
      ++attempts;
    }
  }
  EXPECT_GT(logger.dropped(), 0u) << "no drop after " << attempts << " burst enqueues";
  logger.flush();
  EXPECT_EQ(logger.written() + logger.dropped(), attempts);
}

TEST(AsyncLog, InstalledSinkReceivesFilteredLogCalls) {
  const LogLevel previous = log_level();
  set_log_level(LogLevel::kInfo);
  AsyncLogger logger(16);
  install_async_logger(&logger);
  EXPECT_EQ(async_logger(), &logger);

  log_info() << "routed through the async sink";
  log_debug() << "filtered before the sink, never enqueued";

  install_async_logger(nullptr);
  EXPECT_EQ(async_logger(), nullptr);
  logger.flush();
  set_log_level(previous);

  // Only the info line passed the filter; nothing was dropped.
  EXPECT_EQ(logger.written(), 1u);
  EXPECT_EQ(logger.dropped(), 0u);
}

// Without a sink, an enabled line reaches stderr with everything streamed
// into it, and a line below the level writes nothing.
TEST(AsyncLog, SynchronousLinesCarryWhatWasStreamedWhenEnabled) {
  const LogLevel previous = log_level();
  set_log_level(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  log_info() << "cold admission: variant=" << std::string("rltf") << " factor=" << 1.5
             << " repair_comms=" << 7u;
  log_debug() << "filtered " << 3;
  log_warn() << "kept";
  const std::string written = testing::internal::GetCapturedStderr();
  set_log_level(previous);
  EXPECT_EQ(written,
            "[streamsched INFO] cold admission: variant=rltf factor=1.5 repair_comms=7\n"
            "[streamsched WARN] kept\n");
}

TEST(AsyncLog, DestructorDrainsTheRing) {
  std::uint64_t written = 0;
  {
    AsyncLogger logger(64);
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(logger.enqueue(LogLevel::kDebug, "drain " + std::to_string(i)));
    }
    logger.flush();
    written = logger.written();
  }  // destructor joins the consumer after draining
  EXPECT_EQ(written, 16u);
}

}  // namespace
}  // namespace streamsched
