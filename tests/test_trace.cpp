// JSON writer/parser round-trips and the Chrome trace-event schema of the
// profiler export (what chrome://tracing and Perfetto require to load it).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "multisplit/multisplit.hpp"
#include "workload/distributions.hpp"

namespace ms::sim {
namespace {

TEST(Json, WriterParserRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("name", "he \"quoted\" \\ path\nnewline");
  w.field("count", u64{18446744073709551615ull});
  w.field("pi", 3.141592653589793);
  w.field("neg", i64{-42});
  w.field("yes", true);
  w.key("list").begin_array();
  w.value(u64{1}).value(u64{2});
  w.begin_object().field("nested", "x").end_object();
  w.end_array();
  w.key("empty_obj").begin_object().end_object();
  w.key("empty_arr").begin_array().end_array();
  w.end_object();
  ASSERT_TRUE(w.complete());

  const JsonValue v = parse_json(os.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").str, "he \"quoted\" \\ path\nnewline");
  EXPECT_DOUBLE_EQ(v.at("count").number, 18446744073709551615.0);
  EXPECT_DOUBLE_EQ(v.at("pi").number, 3.141592653589793);
  EXPECT_DOUBLE_EQ(v.at("neg").number, -42.0);
  EXPECT_TRUE(v.at("yes").boolean);
  ASSERT_TRUE(v.at("list").is_array());
  ASSERT_EQ(v.at("list").array.size(), 3u);
  EXPECT_EQ(v.at("list").array[2].at("nested").str, "x");
  EXPECT_TRUE(v.at("empty_obj").is_object());
  EXPECT_TRUE(v.at("empty_obj").object.empty());
  EXPECT_TRUE(v.at("empty_arr").array.empty());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(parse_json("1 2"), std::runtime_error);  // trailing garbage
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse_json("tru"), std::runtime_error);
  EXPECT_THROW(parse_json("{'a':1}"), std::runtime_error);
}

TEST(Json, ParserCapsNestingDepth) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  // 64 levels parse; one more is a structured error at the 65th '['.
  EXPECT_TRUE(parse_json(nested(64)).is_array());
  try {
    parse_json(nested(65));
    ADD_FAILURE() << "65 levels must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("json parse error at offset 64"),
              std::string::npos)
        << e.what();
  }
  // Deep enough to overflow the stack of an uncapped recursive parser.
  EXPECT_THROW(parse_json(nested(200000)), std::runtime_error);
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse_json(objects), std::runtime_error);
}

TEST(Json, ParserAcceptsEscapesAndNumbers) {
  const JsonValue v =
      parse_json(R"({"s":"aA\t","x":-1.5e3,"n":null})");
  EXPECT_EQ(v.at("s").str, "aA\t");
  EXPECT_DOUBLE_EQ(v.at("x").number, -1500.0);
  EXPECT_EQ(v.at("n").type, JsonValue::Type::kNull);
}

/// Run one warp-level multisplit and return (device trace JSON, total ms).
JsonValue traced_run(Device& dev) {
  workload::WorkloadConfig wc;
  wc.m = 8;
  const u64 n = u64{1} << 12;
  const auto host = workload::generate_keys(n, wc);
  DeviceBuffer<u32> in(dev, std::span<const u32>(host)), out(dev, n);
  split::MultisplitConfig cfg;
  cfg.method = split::Method::kWarpLevel;
  split::multisplit_keys(dev, in, out, 8, split::RangeBucket{8}, cfg);
  std::ostringstream os;
  write_chrome_trace(dev, os);
  return parse_json(os.str());
}

TEST(ChromeTrace, MatchesTraceEventSchema) {
  Device dev;
  const JsonValue doc = traced_run(dev);

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
  EXPECT_EQ(doc.at("otherData").at("device").str, dev.profile().name);
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());

  u64 slices = 0, metadata = 0, counters = 0;
  for (const JsonValue& e : events.array) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e.at("ph").str;
    ASSERT_TRUE(e.at("pid").is_number());
    ASSERT_TRUE(e.at("tid").is_number());
    if (ph == "X") {
      slices += 1;
      EXPECT_TRUE(e.at("name").is_string());
      ASSERT_TRUE(e.at("ts").is_number());
      ASSERT_TRUE(e.at("dur").is_number());
      EXPECT_GE(e.at("ts").number, 0.0);
      EXPECT_GT(e.at("dur").number, 0.0);
    } else if (ph == "M") {
      metadata += 1;
      EXPECT_TRUE(e.at("args").at("name").is_string());
    } else if (ph == "C") {
      counters += 1;
      EXPECT_TRUE(e.at("args").is_object());
    } else {
      ADD_FAILURE() << "unexpected event phase '" << ph << "'";
    }
  }
  EXPECT_GT(slices, 0u);
  EXPECT_GE(metadata, 5u);  // process name + 4 thread names
  EXPECT_GT(counters, 0u);
}

TEST(ChromeTrace, KernelSliceDurationsSumToDeviceTotal) {
  Device dev;
  const JsonValue doc = traced_run(dev);

  f64 kernel_us = 0.0;
  u64 kernel_slices = 0;
  f64 end_of_last = 0.0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "X" || e.at("tid").number != 1.0) continue;
    kernel_slices += 1;
    kernel_us += e.at("dur").number;
    // Kernel slices are laid end-to-end on the modeled timeline.
    EXPECT_NEAR(e.at("ts").number, end_of_last, 1e-6);
    end_of_last = e.at("ts").number + e.at("dur").number;
    // Per-kernel args carry the profiler counters.
    const JsonValue& args = e.at("args");
    EXPECT_TRUE(args.at("issue_slots").is_number());
    EXPECT_TRUE(args.at("coalescing_pct").is_number());
    EXPECT_TRUE(args.at("achieved_gbps").is_number());
  }
  EXPECT_EQ(kernel_slices, dev.records().size());
  EXPECT_NEAR(kernel_us * 1e-3, dev.total_ms(), 1e-9 * kernel_slices + 1e-12);
}

TEST(ChromeTrace, StageBandsCoverTheKernelTimeline) {
  Device dev;
  const JsonValue doc = traced_run(dev);
  f64 stage_us = 0.0;
  u64 stage_slices = 0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "X" || e.at("tid").number != 0.0) continue;
    stage_slices += 1;
    stage_us += e.at("dur").number;
  }
  // warp_ms records prescan/scan/postscan regions; together they span the
  // whole run.
  EXPECT_GE(stage_slices, 3u);
  EXPECT_NEAR(stage_us * 1e-3, dev.total_ms(), 1e-9 * stage_slices + 1e-12);
}

TEST(ChromeTrace, PerSiteArgsAppearOnKernelSlices) {
  Device dev;
  const JsonValue doc = traced_run(dev);
  bool saw_scatter_site = false;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "X" || e.at("tid").number != 1.0) continue;
    const JsonValue* sites = e.at("args").find("sites");
    if (sites == nullptr) continue;
    if (const JsonValue* s = sites->find("warp_ms/postscan_scatter")) {
      saw_scatter_site = true;
      EXPECT_TRUE(s->at("coalescing_pct").is_number());
      EXPECT_TRUE(s->at("l2_segments").is_number());
    }
  }
  EXPECT_TRUE(saw_scatter_site);
}

TEST(ChromeTrace, FileWriterProducesParseableOutput) {
  Device dev;
  DeviceBuffer<u32> buf(dev, 1024);
  device_fill<u32>(dev, buf, 1);
  const std::string path = ::testing::TempDir() + "ms_trace_test.json";
  ASSERT_TRUE(write_chrome_trace_file(dev, path));
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const JsonValue doc = parse_json(ss.str());
  EXPECT_TRUE(doc.at("traceEvents").is_array());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ms::sim
