#include "io/csv.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "core/standard_event_model.hpp"
#include "core/trace_model.hpp"
#include "model/cpa_engine.hpp"

namespace hem::io {
namespace {

TEST(CsvTest, TraceRoundTrips) {
  const std::array<Time, 5> trace{0, 10, 10, 35, 1000};
  std::stringstream buf;
  write_trace_csv(buf, trace);
  const auto back = read_trace_csv(buf);
  EXPECT_EQ(back, std::vector<Time>(trace.begin(), trace.end()));
}

TEST(CsvTest, TraceReaderSkipsCommentsAndBlanks) {
  std::istringstream in("# header\n  5\n\n 10 # inline\n#only comment\n15\n");
  EXPECT_EQ(read_trace_csv(in), (std::vector<Time>{5, 10, 15}));
}

TEST(CsvTest, TraceReaderRejectsGarbage) {
  std::istringstream in("5\nbanana\n");
  EXPECT_THROW(read_trace_csv(in), std::invalid_argument);
  std::istringstream in2("5\n1 2\n");
  EXPECT_THROW(read_trace_csv(in2), std::invalid_argument);
}

TEST(CsvTest, TraceFeedsTraceModel) {
  std::istringstream in("0\n100\n200\n300\n");
  const TraceModel model(read_trace_csv(in));
  EXPECT_EQ(model.delta_min(2), 100);
  EXPECT_EQ(model.delta_plus(4), 300);
}

TEST(CsvTest, ReportCsvHasHeaderAndRows) {
  cpa::System sys;
  const auto cpu = sys.add_resource({"cpu", cpa::Policy::kSppPreemptive});
  const auto t = sys.add_task({"worker", cpu, 1, sched::ExecutionTime(5)});
  sys.activate_external(t, StandardEventModel::periodic(100));
  const auto report = cpa::CpaEngine(sys).run();

  std::ostringstream os;
  write_report_csv(os, report);
  const std::string text = os.str();
  EXPECT_NE(text.find("task,resource,bcrt,wcrt"), std::string::npos);
  EXPECT_NE(text.find(",status"), std::string::npos);
  EXPECT_NE(text.find("worker,cpu,5,5,"), std::string::npos);
  EXPECT_NE(text.find(",converged"), std::string::npos);
}

TEST(CsvTest, ReportCsvPrintsDegradedStatusAndInfinity) {
  // An overloaded resource: graceful analysis emits fallback rows with
  // "inf" bounds and the overloaded status in the final column.
  cpa::System sys;
  const auto cpu = sys.add_resource({"cpu", cpa::Policy::kSppPreemptive});
  const auto t = sys.add_task({"worker", cpu, 1, sched::ExecutionTime(120)});
  sys.activate_external(t, StandardEventModel::periodic(100));
  const auto report = cpa::CpaEngine(sys).run();

  std::ostringstream os;
  write_report_csv(os, report);
  const std::string text = os.str();
  EXPECT_NE(text.find(",inf,"), std::string::npos) << text;
  EXPECT_NE(text.find(",overloaded"), std::string::npos) << text;
}

TEST(CsvTest, FieldQuotingFollowsRfc4180) {
  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field(""), "");
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(csv_field("cr\rhere"), "\"cr\rhere\"");
}

TEST(CsvTest, ReportCsvQuotesCommaBearingNames) {
  // Task and resource names with CSV metacharacters must round-trip as one
  // field each, not shift the columns of every row after them.
  cpa::System sys;
  const auto cpu = sys.add_resource({"cpu,0 \"main\"", cpa::Policy::kSppPreemptive});
  const auto t = sys.add_task({"worker,a", cpu, 1, sched::ExecutionTime(5)});
  sys.activate_external(t, StandardEventModel::periodic(100));
  const auto report = cpa::CpaEngine(sys).run();

  std::ostringstream os;
  write_report_csv(os, report);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"worker,a\",\"cpu,0 \"\"main\"\"\","), std::string::npos) << text;

  // Parse the data row back with a minimal RFC-4180 reader: the row must
  // split into exactly the 8 header columns.
  const auto row_start = text.find('\n') + 1;
  const std::string row = text.substr(row_start, text.find('\n', row_start) - row_start);
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const char c = row[i];
    if (quoted) {
      if (c == '"' && i + 1 < row.size() && row[i + 1] == '"') {
        cur += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  ASSERT_EQ(fields.size(), 8u) << row;
  EXPECT_EQ(fields[0], "worker,a");
  EXPECT_EQ(fields[1], "cpu,0 \"main\"");
}

TEST(CsvTest, ReportCsvUtilizationHasFixedPrecision) {
  cpa::System sys;
  const auto cpu = sys.add_resource({"cpu", cpa::Policy::kSppPreemptive});
  const auto t = sys.add_task({"worker", cpu, 1, sched::ExecutionTime(5)});
  sys.activate_external(t, StandardEventModel::periodic(100));
  const auto report = cpa::CpaEngine(sys).run();

  std::ostringstream os;
  write_report_csv(os, report);
  // utilization = 5/100, rendered with exactly six decimals (never
  // scientific notation or 6-significant-digit rounding).
  EXPECT_NE(os.str().find(",0.050000,"), std::string::npos) << os.str();
}

TEST(CsvTest, DeltaCsvPrintsInfinity) {
  // A pending-style curve has infinite delta+.
  std::ostringstream os;
  class InfPlus final : public EventModel {
   public:
    InfPlus() : EventModel(Rate::of(1, 10)) {}
    [[nodiscard]] std::string describe() const override { return "x"; }

   protected:
    [[nodiscard]] Time delta_min_raw(Count n) const override { return 10 * (n - 1); }
    [[nodiscard]] Time delta_plus_raw(Count) const override { return kTimeInfinity; }
  };
  write_delta_csv(os, InfPlus{}, 3);
  EXPECT_EQ(os.str(), "n,delta_min,delta_plus\n2,10,inf\n3,20,inf\n");
}

}  // namespace
}  // namespace hem::io
