// The per-job counter table (optimizer/job_counters.h) against the sinks
// generated from it and the schema doc that describes them. Every test
// iterates the table, so a new row is covered without touching this file.
// The wire codec is covered in net_protocol_test.cc and the metrics in
// crash_stress_test.cc.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>

#include "core/explain.h"
#include "optimizer/job_counters.h"
#include "runtime/job_service.h"

namespace cloudviews {
namespace {

/// A JobResult whose every counter holds a distinct non-default value.
JobResult DistinctCounters() {
  JobResult result;
  ForEachJobCounter(result, [](size_t i, auto& value) {
    value = static_cast<std::decay_t<decltype(value)>>(i + 1);
  });
  return result;
}

TEST(JobCountersTest, ProfileJsonCarriesEveryRowWithItsValue) {
  JobResult result = DistinctCounters();
  std::string json = JobProfileJson(result);
  ForEachJobCounter(result, [&json](size_t i, auto value) {
    std::string rendered;
    if constexpr (std::is_same_v<decltype(value), bool>) {
      rendered = value ? "true" : "false";
    } else {
      rendered = std::to_string(value);
    }
    // Every counter key is followed by another key, hence the comma.
    std::string needle =
        "\"" + std::string(kJobCounterInfo[i].field) + "\":" + rendered + ",";
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  });
}

TEST(JobCountersTest, AddSumsTalliesAndOrsFlags) {
  JobCounters total = DistinctCounters();
  total.Add(DistinctCounters());
  ForEachJobCounter(total, [](size_t i, auto value) {
    if constexpr (std::is_same_v<decltype(value), bool>) {
      EXPECT_TRUE(value) << kJobCounterInfo[i].field;
    } else {
      EXPECT_EQ(value, 2 * static_cast<int>(i + 1))
          << kJobCounterInfo[i].field;
    }
  });
}

std::string ReadDoc(const std::string& name) {
  std::ifstream in(std::string(CV_DOCS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(JobCountersTest, SchemaDocListsEveryRowAndItsMetric) {
  std::string doc = ReadDoc("job_profile_schema.md");
  size_t begin = doc.find("## Top level");
  ASSERT_NE(begin, std::string::npos);
  size_t end = doc.find("\n## ", begin + 1);
  ASSERT_NE(end, std::string::npos);
  std::string top_level = doc.substr(begin, end - begin);
  std::string counter_tables = doc.substr(end);
  for (const JobCounterInfo& row : kJobCounterInfo) {
    EXPECT_NE(top_level.find("\n| `" + std::string(row.field) + "` |"),
              std::string::npos)
        << "docs/job_profile_schema.md top-level table is missing "
        << row.field;
    EXPECT_NE(counter_tables.find("\n| `" + std::string(row.metric) + "` |"),
              std::string::npos)
        << "docs/job_profile_schema.md counter tables are missing "
        << row.metric;
  }
}

}  // namespace
}  // namespace cloudviews
