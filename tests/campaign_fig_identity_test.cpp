// Figure 3–8 CSVs against committed fixtures.
//
// Each attack family is one sweep read through three §6.1 metrics: pipe
// stoppage gives Figures 3 (access failure), 4 (delay ratio) and 5
// (friction); the admission flood gives Figures 6, 7 and 8. This test runs
// one three-figure campaign per family at a reduced scale (same shapes,
// seconds not minutes) and compares every emitted figure CSV and companion
// trace CSV byte for byte against tests/golden/fig<N>_small.csv and
// fig<3|6>_small.trace.csv. The fixtures were written by the hard-coded
// fig3–fig8 drivers the campaign engine replaced (16 peers, 2 AUs, 0.6
// years, 1 seed), so they pin the engine to the drivers' numbers. The
// shipped campaigns/fig3.json and fig6.json use the same schema at the
// reduced profile; CI runs fig3.json end to end.
//
// Regenerate after an intentional behavior change with
//   LOCKSS_REGEN_GOLDEN=1 ./build/campaign_fig_identity_test
// and commit the diff with a rationale (CI's golden-fixture guard demands
// one, the same policy as tests/golden_trace_test.cpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/engine.hpp"
#include "campaign/spec.hpp"

namespace lockss {
namespace {

std::string golden_dir() { return std::string(LOCKSS_SOURCE_DIR) + "/tests/golden/"; }

bool regen_requested() {
  const char* env = std::getenv("LOCKSS_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Compares `produced` against the fixture, or overwrites the fixture under
// LOCKSS_REGEN_GOLDEN.
void check_fixture(const std::string& produced, const std::string& fixture) {
  const std::string path = golden_dir() + fixture;
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << slurp(produced);
    return;
  }
  EXPECT_EQ(slurp(path), slurp(produced))
      << produced << " drifted from " << fixture
      << ". If intentional, regenerate with LOCKSS_REGEN_GOLDEN=1 "
         "./campaign_fig_identity_test and commit with a rationale.";
}

struct Family {
  const char* kind;        // campaign phase kind
  const char* figures[3];  // access failure, delay ratio, friction
  const char* durations;
};

TEST(CampaignFigIdentityTest, FigureCsvsMatchHardcodedDriversByteForByte) {
  const Family families[] = {
      {"pipe_stoppage", {"fig3_small", "fig4_small", "fig5_small"}, "5, 30"},
      {"admission_flood", {"fig6_small", "fig7_small", "fig8_small"}, "10, 90"},
  };
  const char* metrics[3] = {"access_failure", "delay_ratio", "friction"};
  for (const Family& family : families) {
    const std::string dir = testing::TempDir();
    std::string figures;
    for (int m = 0; m < 3; ++m) {
      figures += std::string(m == 0 ? "" : ",\n") + "    { \"metric\": \"" + metrics[m] +
                 "\", \"row_header\": \"duration_days\", \"title\": \"" + family.figures[m] +
                 "\", \"x_label\": \"Attack duration (days)\", \"csv\": \"" +
                 family.figures[m] + ".csv\" }";
    }
    const std::string spec_text = std::string("{\n") +
        "  \"name\": \"" + family.figures[0] + "\",\n" +
        "  \"deployment\": { \"peers\": 16, \"aus\": 2, \"duration_years\": 0.6, \"seeds\": 1 },\n" +
        "  \"damage\": { \"mean_disk_years_between_failures\": 0.6, \"aus_per_disk\": 2.0 },\n" +
        "  \"trace_days\": 7.0,\n" +
        "  \"adversary\": [ { \"kind\": \"" + family.kind + "\", \"recuperation_days\": 30 } ],\n" +
        "  \"sweep\": [\n" +
        "    { \"param\": \"attack_days\", \"phase\": 0, \"label\": \"d\", \"values\": [" +
        family.durations + "] },\n" +
        "    { \"param\": \"coverage_percent\", \"phase\": 0, \"label\": \"c\", \"values\": "
        "[40, 100] }\n" +
        "  ],\n" +
        "  \"outputs\": { \"figure\": [\n" + figures + "\n  ] }\n" +
        "}\n";
    campaign::Json json;
    std::string error;
    ASSERT_TRUE(campaign::parse_json(spec_text, &json, &error)) << error;
    campaign::Spec spec;
    ASSERT_TRUE(campaign::parse_spec(json, family.figures[0], &spec, &error)) << error;
    ASSERT_EQ(spec.figures.size(), 3u);
    campaign::CompiledCampaign compiled;
    ASSERT_TRUE(campaign::compile_campaign(spec, &compiled, &error)) << error;
    campaign::RunOptions options;
    options.out_dir = dir;
    options.quiet = true;
    campaign::CampaignOutcome outcome;
    ASSERT_TRUE(campaign::run_campaign(compiled, options, &outcome, &error)) << error;

    // Every figure writes its own companion trace CSV; all three carry the
    // family's one sweep, so they share one fixture.
    const std::string trace_fixture = std::string(family.figures[0]) + ".trace.csv";
    for (const char* figure : family.figures) {
      const std::string csv = dir + figure + ".csv";
      check_fixture(csv, std::string(figure) + ".csv");
      check_fixture(csv + ".trace.csv", trace_fixture);
    }
  }
}

}  // namespace
}  // namespace lockss
