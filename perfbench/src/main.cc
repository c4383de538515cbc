// CloudViews benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload <wire_recurring|daily_build>
//             --seed N --seconds S --trace 0|1 [--scale F] [--trace-dir DIR]
//
// --trace 0 runs kPhasesPerRun phases (set-up + measured phase each) and
// prints the seven end-to-end metrics; --trace 1 runs one phase untraced and
// one traced and prints the per-layer metrics, both phases' end-to-end
// metrics and the tracing overhead. The last stdout line is the result JSON;
// the exit code is non-zero on any output mismatch, failed or refused job,
// or failed label check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

struct WorkloadEntry {
  const char* name;
  PhaseFn phase;
};

const WorkloadEntry kWorkloads[] = {
    {"wire_recurring", WireRecurringPhase},
    {"daily_build", DailyBuildPhase},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <wire_recurring|daily_build> "
               "--seed N --seconds S --trace 0|1 [--scale F] "
               "[--trace-dir DIR]\n");
  return 2;
}

/// End-to-end metrics of one run; `problems` collects what makes the run
/// invalid (a withheld percentile at full size, no jobs).
///
/// Rates take, for each segment position, the median over the phases of
/// that segment's wall and CPU seconds (segment i does the same work in
/// every phase), so a burst of host noise in one phase's segment does not
/// move them. The latency percentiles pool every measured job of every
/// phase.
std::vector<Metric> EndToEnd(const RunOptions& opt, const WorkloadRun& run,
                             std::vector<std::string>* problems) {
  std::map<int, std::vector<const Segment*>> by_position;
  for (const Segment& s : run.segments) by_position[s.position].push_back(&s);
  double seconds = 0, cpu_seconds = 0, completed = 0, attempted = 0;
  for (const auto& [position, segments] : by_position) {
    std::vector<double> wall, cpu, done, tried;
    for (const Segment* s : segments) {
      wall.push_back(s->seconds);
      cpu.push_back(s->cpu_seconds);
      done.push_back(static_cast<double>(s->completed));
      tried.push_back(static_cast<double>(s->latencies.size()));
    }
    seconds += Median(wall);
    cpu_seconds += Median(cpu);
    completed += Median(done);
    attempted += Median(tried);
  }

  std::vector<double> latencies;
  for (const Segment& s : run.segments) {
    latencies.insert(latencies.end(), s.latencies.begin(), s.latencies.end());
  }
  std::vector<Metric> out;
  if (latencies.empty() || run.setup_seconds.empty()) {
    problems->push_back("no measured jobs");
    return out;
  }
  auto add = [&](const char* name, double value) {
    for (const auto& [spec, unit] : EndToEndMetricSpecs()) {
      if (spec == name) out.push_back({name, value, unit});
    }
  };
  add("setup_s", Median(run.setup_seconds));
  add("jobs_per_s", completed / seconds);
  add("latency_p50_ms", Median(latencies) * 1e3);
  if (auto p99 = TailPercentile(latencies, 0.99)) {
    add("latency_p99_ms", *p99 * 1e3);
  } else if (opt.scale >= 1) {
    problems->push_back("latency_p99_ms withheld: fewer than ten samples "
                        "beyond it");
  }
  add("cpu_ms_per_job", cpu_seconds / attempted * 1e3);
  add("peak_rss_mb", run.peak_rss_mb);
  add("stored_mb", run.stored_mb);
  return out;
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return NAN;
}

void PrintRun(const char* label, const WorkloadRun& run,
              const std::vector<Metric>& e2e) {
  std::printf("[%s] set-ups (s):", label);
  for (double s : run.setup_seconds) std::printf(" %.3f", s);
  size_t samples = 0;
  for (const Segment& s : run.segments) samples += s.latencies.size();
  std::printf("\n[%s] segments: %zu, latency samples: %zu (%zu beyond p99)"
              "\n[%s] segment jobs/s:",
              label, run.segments.size(), samples, SamplesBeyond(samples, 0.99),
              label);
  for (const Segment& s : run.segments) {
    std::printf(" %.0f", static_cast<double>(s.completed) / s.seconds);
  }
  std::printf("\n");
  std::printf("[%s] outputs checked: %llu, mismatches: %llu\n", label,
              static_cast<unsigned long long>(run.outputs_checked),
              static_cast<unsigned long long>(run.output_mismatches));
  for (const Metric& m : e2e) {
    std::printf("[%s] %-16s %14s %s\n", label, m.name.c_str(),
                FormatDouble(m.value).c_str(), m.unit.c_str());
  }
  std::printf("[%s] counts {", label);
  for (size_t i = 0; i < run.counts.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i > 0 ? ", " : "",
                run.counts[i].name.c_str(), run.counts[i].value.c_str());
  }
  std::printf("}\n");
  for (const std::string& f : run.check_failures) {
    std::printf("[%s] CHECK FAILED: %s\n", label, f.c_str());
  }
}

bool RunOk(const WorkloadRun& run, const std::vector<std::string>& problems) {
  return run.failed == 0 && run.output_mismatches == 0 &&
         run.outputs_checked > 0 && run.check_failures.empty() &&
         problems.empty();
}

int Main(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage();
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::atoi(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--scale") == 0) {
      opt.scale = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      opt.trace_dir = value;
    } else {
      return Usage();
    }
  }
  PhaseFn phase = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (opt.workload == w.name) phase = w.phase;
  }
  if (!have_workload || phase == nullptr || opt.seconds < 1 ||
      opt.scale <= 0) {
    return Usage();
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d scale=%g\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.scale);
  std::fflush(stdout);

  const double spin_before = SpinLoopMs();
  // The traced invocation runs one phase untraced, then one traced: it
  // measures layers and tracing overhead, not set-up spread.
  const int phases = opt.trace ? 1 : kPhasesPerRun;
  std::vector<WorkloadRun> runs;
  runs.push_back(RunPhases(phase, opt, false, phases));
  if (opt.trace) runs.push_back(RunPhases(phase, opt, true, phases));
  const double spin_after = SpinLoopMs();

  const char* labels[] = {opt.trace ? "untraced" : "run", "traced"};
  std::vector<std::string> problems;
  std::vector<std::vector<Metric>> e2e;
  uint64_t attempted = 0, failed = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    e2e.push_back(EndToEnd(opt, runs[i], &problems));
    PrintRun(labels[i], runs[i], e2e[i]);
    attempted += runs[i].attempted;
    failed += runs[i].failed;
  }
  for (const std::string& p : problems) std::printf("PROBLEM: %s\n", p.c_str());
  bool ok = true;
  for (const WorkloadRun& run : runs) ok = ok && RunOk(run, problems);
  std::printf("host: spin_before_ms=%.1f spin_after_ms=%.1f\n", spin_before,
              spin_after);

  std::vector<Metric> metrics = e2e[0];
  if (opt.trace) {
    const WorkloadRun& traced = runs[1];
    if (!opt.trace_dir.empty()) {
      std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                         std::to_string(opt.seed) + ".tsv";
      if (traced.spans.WriteTsv(path)) {
        std::printf("spans: %zu written to %s\n", traced.spans.spans().size(),
                    path.c_str());
      }
    }
    std::map<std::string, double> values = traced.layers;
    for (const Metric& m : e2e[0]) values["untraced." + m.name] = m.value;
    for (const Metric& m : e2e[1]) values["traced." + m.name] = m.value;
    values["overhead.jobs_per_s_frac"] =
        1 - Find(e2e[1], "jobs_per_s") / Find(e2e[0], "jobs_per_s");
    values["overhead.latency_p50_frac"] =
        Find(e2e[1], "latency_p50_ms") / Find(e2e[0], "latency_p50_ms") - 1;
    values["overhead.cpu_ms_per_job_frac"] =
        Find(e2e[1], "cpu_ms_per_job") / Find(e2e[0], "cpu_ms_per_job") - 1;
    values["host.spin_before_ms"] = spin_before;
    values["host.spin_after_ms"] = spin_after;
    metrics.clear();
    for (const auto& [name, unit] : PerLayerMetricSpecs()) {
      auto it = values.find(name);
      metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
    }
  }
  std::printf("%s\n", ResultJson(ok, attempted, failed, metrics).c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
