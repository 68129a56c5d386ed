// Tests for the gated benches' JSON writer (bench/report.hpp): keys in
// call order with their declared digits and nesting, then one gates object
// keyed by dotted path, which tools/bench_compare.py reads.
#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "report.hpp"

namespace dcn::bench {
namespace {

TEST(BenchReport, WritesKeysWithDigitsAndNestingThenGates) {
  Report report;
  report.add("model", "SPP-Net \"#2\"");
  report.add("completed", 73762, 0);
  report.begin("dynamic");
  report.add("p99_ms", 6.390649, 4, kLower);
  report.add("reject_rate", 0.13921, 4, lower_within(0.02));
  report.end();
  report.begin("per_shape");
  report.begin("64x1x8");
  report.add("ratio_info", 3.26964, 4);
  report.end();
  report.end();
  report.add("speedup", 3.10163, 3, kHigher);
  report.add("ap_drop_points", 0.0, 4, lower_within(2.0));
  EXPECT_EQ(report.json(),
            "{\n"
            "  \"model\": \"SPP-Net \\\"#2\\\"\",\n"
            "  \"completed\": 73762,\n"
            "  \"dynamic\": {\n"
            "    \"p99_ms\": 6.3906,\n"
            "    \"reject_rate\": 0.1392\n"
            "  },\n"
            "  \"per_shape\": {\n"
            "    \"64x1x8\": {\n"
            "      \"ratio_info\": 3.2696\n"
            "    }\n"
            "  },\n"
            "  \"speedup\": 3.102,\n"
            "  \"ap_drop_points\": 0.0000,\n"
            "  \"gates\": {\n"
            "    \"dynamic.p99_ms\": {\"better\": \"lower\", \"relative\": "
            "0.02},\n"
            "    \"dynamic.reject_rate\": {\"better\": \"lower\", "
            "\"absolute\": 0.02},\n"
            "    \"speedup\": {\"better\": \"higher\", \"relative\": 0.02},\n"
            "    \"ap_drop_points\": {\"better\": \"lower\", \"absolute\": "
            "2}\n"
            "  }\n"
            "}\n");
}

TEST(BenchReport, NoGatesStillWritesTheGatesObject) {
  Report report;
  report.add("tiles", 196, 0);
  EXPECT_EQ(report.json(), "{\n  \"tiles\": 196,\n  \"gates\": {}\n}\n");
}

TEST(BenchReport, RefusesWhatWouldNotBeJson) {
  Report report;
  EXPECT_THROW(report.add("p99_ms", std::nan(""), 4), Error);
  EXPECT_THROW(report.add("speedup", INFINITY, 3), Error);
  EXPECT_THROW(report.end(), Error);
  report.begin("serial");
  EXPECT_THROW(report.json(), Error);
}

}  // namespace
}  // namespace dcn::bench
