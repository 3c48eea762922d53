// Tracer subsystem tests: ring-buffer semantics (per-thread ordering,
// counted drops instead of blocking), JSON writer/parser round-trips, the
// Chrome trace_event exporter's schema, and the counters registry.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "trace/chrome_export.hpp"
#include "trace/counters.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"

namespace tahoe::trace {
namespace {

TEST(EventRing, PushPopInOrder) {
  EventRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    TraceEvent ev;
    ev.ts = static_cast<double>(i);
    EXPECT_TRUE(ring.try_push(ev));
  }
  std::vector<TraceEvent> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(out[i].ts, static_cast<double>(i));
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(EventRing, FullRingDropsAndCounts) {
  EventRing ring(4);
  TraceEvent ev;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(ev));
  // Never blocks: pushes beyond capacity return immediately as drops.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(ring.try_push(ev));
  EXPECT_EQ(ring.dropped(), 10u);
  std::vector<TraceEvent> out;
  ring.drain(out);
  EXPECT_EQ(out.size(), 4u);
  // Space is reclaimed after a drain.
  EXPECT_TRUE(ring.try_push(ev));
}

TEST(EventRing, WrapsAroundAfterDrain) {
  EventRing ring(4);
  std::vector<TraceEvent> out;
  for (std::uint64_t round = 0; round < 10; ++round) {
    TraceEvent ev;
    ev.ts = static_cast<double>(round);
    EXPECT_TRUE(ring.try_push(ev));
    ring.drain(out);
  }
  ASSERT_EQ(out.size(), 10u);
  EXPECT_DOUBLE_EQ(out.back().ts, 9.0);
}

TEST(Tracer, DisabledEmitsNothing) {
  Tracer tracer(16);
  tracer.complete(0, "span", 0.0, 1.0);
  tracer.instant(0, "point", 0.5);
  EXPECT_TRUE(tracer.drain().empty());
  EXPECT_EQ(tracer.num_rings(), 0u);  // not even a ring was registered
}

TEST(Tracer, EventFieldsSurvive) {
  Tracer tracer(16);
  tracer.set_enabled(true);
  tracer.complete(3, "migrate", 1.5, 0.25, "bytes", 4096, "dst_tier", 0);
  tracer.counter(7, "depth", 2.0, 42);
  const std::vector<TraceEvent> events = tracer.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::Complete);
  EXPECT_EQ(events[0].track, 3u);
  EXPECT_STREQ(events[0].name, "migrate");
  EXPECT_DOUBLE_EQ(events[0].ts, 1.5);
  EXPECT_DOUBLE_EQ(events[0].dur, 0.25);
  ASSERT_EQ(events[0].num_args, 2);
  EXPECT_STREQ(events[0].arg_key[0], "bytes");
  EXPECT_EQ(events[0].arg_val[0], 4096u);
  EXPECT_EQ(events[1].kind, EventKind::Counter);
  EXPECT_EQ(events[1].arg_val[0], 42u);
}

TEST(Tracer, LongNamesTruncateSafely) {
  Tracer tracer(16);
  tracer.set_enabled(true);
  const std::string longname(200, 'x');
  tracer.instant(0, longname.c_str(), 0.0);
  const std::vector<TraceEvent> events = tracer.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name).size(), TraceEvent::kNameCap - 1);
}

TEST(Tracer, ConcurrentEmissionPreservesPerThreadOrder) {
  Tracer tracer(1 << 12);
  tracer.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TraceEvent ev;
        ev.track = static_cast<TrackId>(t);
        ev.ts = static_cast<double>(i);
        ev.add_arg("seq", i);
        tracer.emit(ev);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<TraceEvent> events = tracer.drain();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.num_rings(), static_cast<std::size_t>(kThreads));

  // Rings are drained thread-by-thread, so each thread's events must
  // appear as one strictly ascending run.
  std::vector<std::uint64_t> next(kThreads, 0);
  for (const TraceEvent& ev : events) {
    const TrackId t = ev.track;
    ASSERT_LT(t, static_cast<TrackId>(kThreads));
    EXPECT_EQ(ev.arg_val[0], next[t]) << "out-of-order event on thread " << t;
    ++next[t];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
}

TEST(Tracer, ConcurrentOverflowDropsInsteadOfBlocking) {
  Tracer tracer(64);  // tiny rings: every thread must overflow
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TraceEvent ev;
        ev.ts = static_cast<double>(i);
        tracer.emit(ev);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<TraceEvent> events = tracer.drain();
  // Nothing blocked: exactly (emitted - dropped) events survived.
  EXPECT_EQ(events.size() + tracer.dropped(), kThreads * kPerThread);
  EXPECT_GT(tracer.dropped(), 0u);
  EXPECT_LE(events.size(), static_cast<std::size_t>(kThreads) * 64);
}

TEST(Json, WriterEscapesAndParserRoundTrips) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("plain", "hello");
  w.kv("quoted", "she said \"hi\"\n\ttab\\slash");
  w.kv("num", 2.5);
  w.kv("neg", std::int64_t{-7});
  w.kv("big", std::uint64_t{1} << 60);
  w.kv("flag", true);
  w.key("null_value").null();
  w.key("list").begin_array().value(1.0).value(2.0).end_array();
  w.key("nested").begin_object().kv("k", "v").end_object();
  w.end_object();

  const JsonValue v = parse_json(os.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("plain").string, "hello");
  EXPECT_EQ(v.at("quoted").string, "she said \"hi\"\n\ttab\\slash");
  EXPECT_DOUBLE_EQ(v.at("num").number, 2.5);
  EXPECT_DOUBLE_EQ(v.at("neg").number, -7.0);
  EXPECT_DOUBLE_EQ(v.at("big").number,
                   static_cast<double>(std::uint64_t{1} << 60));
  EXPECT_TRUE(v.at("flag").boolean);
  EXPECT_EQ(v.at("null_value").type, JsonValue::Type::Null);
  ASSERT_EQ(v.at("list").array.size(), 2u);
  EXPECT_EQ(v.at("nested").at("k").string, "v");
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]2"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("nope"), std::runtime_error);
}

TEST(Json, ParserBoundsNestingDepth) {
  // 256 levels is the documented limit; one more is an error, and a
  // hostile 200k-deep document fails the same way instead of overflowing
  // the stack.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(parse_json(nested(256)).type, JsonValue::Type::Array);
  EXPECT_THROW(parse_json(nested(257)), std::runtime_error);
  try {
    parse_json(std::string(200000, '['));
    ADD_FAILURE() << "200k-deep document parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
              std::string::npos)
        << e.what();
  }
  std::string objects;
  for (int i = 0; i < 300; ++i) objects += "{\"k\":";
  EXPECT_THROW(parse_json(objects), std::runtime_error);
}

TEST(ChromeExport, EmitsValidTraceEventJson) {
  Tracer tracer(256);
  tracer.set_enabled(true);
  tracer.set_track_name(0, "worker 0");
  tracer.set_track_name(kMigrationTrack, "migration engine");
  tracer.complete(0, "task_a", 0.001, 0.002, "task", 7);
  tracer.complete(kMigrationTrack, "migrate DRAM->NVM", 0.0015, 0.001,
                  "bytes", 1 << 20, "dst_tier", 1);
  tracer.instant(kPlannerTrack, "decide global", 0.004, "copies", 3);
  tracer.counter(kMigrationTrack, "queue_depth", 0.002, 2);

  std::ostringstream os;
  write_chrome_trace(os, tracer.drain(), tracer.track_names());
  const JsonValue doc = parse_json(os.str());

  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.has("traceEvents"));
  const std::vector<JsonValue>& events = doc.at("traceEvents").array;

  int spans = 0, instants = 0, counters = 0, metas = 0;
  bool saw_worker_meta = false, saw_migration_args = false;
  for (const JsonValue& ev : events) {
    const std::string ph = ev.at("ph").string;
    if (ph == "M") {
      ++metas;
      if (ev.at("name").string == "thread_name" &&
          ev.at("args").at("name").string == "worker 0") {
        saw_worker_meta = true;
      }
      continue;
    }
    // Every real event carries pid/tid/name/ts.
    EXPECT_TRUE(ev.has("pid"));
    EXPECT_TRUE(ev.has("tid"));
    EXPECT_TRUE(ev.has("name"));
    EXPECT_TRUE(ev.has("ts"));
    if (ph == "X") {
      ++spans;
      EXPECT_TRUE(ev.has("dur"));
      if (ev.at("name").string.rfind("migrate", 0) == 0) {
        const JsonValue& args = ev.at("args");
        EXPECT_TRUE(args.has("bytes"));
        EXPECT_TRUE(args.has("dst_tier"));
        saw_migration_args = true;
      }
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "C") {
      ++counters;
      EXPECT_TRUE(ev.at("args").has("value"));
    }
  }
  EXPECT_EQ(spans, 2);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(counters, 1);
  EXPECT_GE(metas, 2);
  EXPECT_TRUE(saw_worker_meta);
  EXPECT_TRUE(saw_migration_args);

  // Timestamps are microseconds, sorted ascending.
  double last = -1.0;
  for (const JsonValue& ev : events) {
    if (ev.at("ph").string == "M") continue;
    EXPECT_GE(ev.at("ts").number, last);
    last = ev.at("ts").number;
  }
  EXPECT_DOUBLE_EQ(last, 4000.0);  // 0.004 s -> 4000 us
}

TEST(Counters, RegistryAccumulatesAndSnapshots) {
  CounterRegistry reg;
  Counter& a = reg.get("alpha");
  Counter& b = reg.get("beta");
  a.add(5);
  a.increment();
  b.set(100);
  EXPECT_EQ(&reg.get("alpha"), &a);  // stable handle
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "alpha");
  EXPECT_EQ(snap[0].second, 6u);
  EXPECT_EQ(snap[1].second, 100u);
  reg.reset();
  EXPECT_EQ(reg.get("alpha").value(), 0u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Counters, ConcurrentAddsDoNotLose) {
  CounterRegistry reg;
  Counter& c = reg.get("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace tahoe::trace
