// Golden report CSVs for the busy-window kernels.  The files under
// tests/data/kernel_golden/ were written by the engine before the kernels
// resumed their eta+ searches (EtaPlusCursor) and ran allocation-free
// fixpoints; any change to a bound, busy period, activation count or status
// on these systems shows up here byte for byte, at one job and at four.
//
// The cases cover SPP CPUs with CAN buses carrying packed frames, TDMA and
// round-robin resources, all of them mixed, a system whose busy windows
// outgrow a tightened window limit (overloaded) and one stopped after two
// global iterations (diverged).

#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "io/csv.hpp"
#include "model/cpa_engine.hpp"
#include "scenarios/synth.hpp"

namespace hem::cpa {
namespace {

struct GoldenCase {
  const char* name;
  scenarios::SynthParams params;
  int max_iterations;
  Time max_window;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

scenarios::SynthParams synth(int resources, int tasks, std::uint64_t seed, double utilization,
                             int layers, int packed, int tdma, int rr) {
  scenarios::SynthParams p;
  p.resources = resources;
  p.tasks = tasks;
  p.seed = seed;
  p.utilization = utilization;
  p.layers = layers;
  p.packed_permille = packed;
  p.tdma_permille = tdma;
  p.rr_permille = rr;
  return p;
}

constexpr Time kDefaultWindow = Time{1} << 28;

const GoldenCase kCases[] = {
    {"spp_can_packed", synth(12, 72, 3, 0.6, 3, 500, 0, 0), 64, kDefaultWindow},
    {"tdma", synth(12, 48, 5, 0.5, 2, 0, 500, 0), 64, kDefaultWindow},
    {"round_robin", synth(12, 48, 6, 0.6, 2, 0, 0, 500), 64, kDefaultWindow},
    {"mixed", synth(16, 80, 14, 0.5, 4, 300, 250, 250), 64, kDefaultWindow},
    {"overloaded", synth(10, 50, 11, 0.95, 3, 300, 0, 0), 64, 400000},
    {"diverging", synth(16, 80, 13, 0.6, 4, 300, 0, 0), 2, kDefaultWindow},
};

std::string report_csv(const GoldenCase& c, int jobs) {
  EngineOptions opts;
  opts.jobs = jobs;
  opts.max_iterations = c.max_iterations;
  opts.fixpoint_limits.max_window = c.max_window;
  const AnalysisReport report = CpaEngine(scenarios::build_synth_system(c.params), opts).run();
  std::ostringstream os;
  io::write_report_csv(os, report);
  return os.str();
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(HEM_TEST_DATA_DIR) + "/kernel_golden/" + name + ".csv";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class KernelGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(KernelGoldenTest, ReportCsvIsByteIdentical) {
  const GoldenCase& c = GetParam();
  const std::string golden = read_golden(c.name);
  ASSERT_FALSE(golden.empty());
  for (const int jobs : {1, 4}) EXPECT_EQ(report_csv(c, jobs), golden) << "jobs=" << jobs;
}

INSTANTIATE_TEST_SUITE_P(Systems, KernelGoldenTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hem::cpa
